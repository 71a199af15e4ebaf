//! Frozen outputs of whole runs: a small songs plain run, a tiny forced
//! `MatchOnly` products run, and a fault-injected citations workflow at
//! `rounds` 1 and 3 — each with no journal, with a fresh journal file, and
//! under a recording always-`Continue` [`StageGate`]. Every variant must
//! render the same report block; the block, the event the gate saw for
//! each segment and the journal file's digest must equal `goldens/run.txt`.
//!
//! The golden file was recorded at `a235d7c`, the commit before the six
//! `try_run*` entries and their three plan bodies became one driver body
//! behind `Falcon::try_run_with`, so it pins "same run" against the
//! retired entries without keeping them alive: same matches, same
//! timeline segments, same gate events in the same order, same ledger and
//! same journal bytes. To re-record after an intended change, empty the
//! file and run this test: it fails printing the full replacement content.

mod common;

use common::fnv1a;
use falcon_core::driver::{Falcon, FalconConfig, RunCtl, RunReport};
use falcon_core::plan::PlanKind;
use falcon_core::stage::{StageControl, StageEvent, StageGate};
use falcon_core::timeline::Segment;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_crowd::CrowdJournal;
use falcon_dataflow::{ClusterConfig, FaultPlan};
use falcon_datagen::{citations, products, songs, EmDataset};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("goldens/run.txt");

/// Records every stage event and always grants the next lease.
#[derive(Default)]
struct Recorder(Mutex<Vec<StageEvent>>);

impl StageGate for Recorder {
    fn on_stage(&self, event: StageEvent) -> StageControl {
        self.0.lock().expect("recorder").push(event);
        StageControl::Continue
    }
}

/// The one place this test names a driver entry.
fn run(
    falcon: &Falcon,
    d: &EmDataset,
    rounds: usize,
    journal: Option<&Path>,
    gate: Option<Arc<dyn StageGate>>,
) -> RunReport {
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, 0.05, 8);
    let journal = journal.map(|p| CrowdJournal::open(p).expect("journal"));
    falcon
        .try_run_with(&d.a, &d.b, crowd, rounds, RunCtl { journal, gate })
        .expect("run")
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything deterministic about a report, one fact per line.
fn render(case: &str, report: &RunReport) -> String {
    let mut s = String::new();
    let f1_bits: Vec<String> = (report.estimates)
        .iter()
        .map(|e| format!("{:016x}", e.f1.to_bits()))
        .collect();
    writeln!(
        s,
        "{case} matches={} digest={:016x} plan={:?} physical={:?} candidates={:?} rules={}/{} sample={} f1_bits={f1_bits:?}",
        report.matches.len(),
        fnv1a(&report.matches),
        report.plan,
        report.physical,
        report.candidate_size,
        report.rules_extracted,
        report.rules_retained,
        report.sample_size,
    )
    .unwrap();
    writeln!(s, "{case} ledger={:?}", report.ledger).unwrap();
    writeln!(s, "{case} faults={:?}", report.faults).unwrap();
    for (i, seg) in report.timeline.segments().iter().enumerate() {
        let (kind, label, dur, excess) = match seg {
            Segment::Machine { label, dur } => ("machine", label, dur, None),
            Segment::Crowd { label, dur } => ("crowd", label, dur, None),
            Segment::MaskedMachine { label, dur, excess } => ("masked", label, dur, Some(excess)),
        };
        let excess = excess.map_or(String::new(), |e| format!(" excess={}", e.as_nanos()));
        writeln!(
            s,
            "{case} seg {i} {label} {kind} {}{excess}",
            dur.as_nanos()
        )
        .unwrap();
    }
    s
}

/// The golden text of a case: its report block with each segment line
/// carrying the event the gate saw for it (label, kind, dur, tasks,
/// records).
fn with_gate_events(block: &str, events: &[StageEvent]) -> String {
    let mut events = events.iter();
    let mut s = String::new();
    for line in block.lines() {
        s.push_str(line);
        if line.contains(" seg ") {
            let e = events.next().expect("one gate event per segment");
            let nanos = e.dur.as_nanos();
            let (label, kind, tasks, records) = (&e.label, e.kind, e.tasks, e.records);
            write!(
                s,
                " | gate {label} {kind:?} {nanos} tasks={tasks} records={records}"
            )
            .unwrap();
        }
        s.push('\n');
    }
    assert!(events.next().is_none(), "more gate events than segments");
    s
}

fn journal_path(case: &str, variant: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "falcon-run-golden-{}-{variant}-{}.journal",
        case.replace(' ', "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn base_config() -> FalconConfig {
    FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 2_000,
        sample_fanout: 20,
        ..FalconConfig::default()
    }
}

#[test]
fn runs_match_the_recorded_goldens() {
    let blocked = FalconConfig {
        force_plan: Some(PlanKind::BlockAndMatch),
        ..base_config()
    };
    let match_only = FalconConfig {
        force_plan: Some(PlanKind::MatchOnly),
        ..base_config()
    };
    let faulty = FalconConfig {
        fault: Some(
            FaultPlan::seeded(99)
                .with_failure_rate(0.2)
                .with_straggler_rate(0.2)
                .with_max_attempts(8),
        ),
        ..blocked.clone()
    };
    let songs = songs::generate(0.001, 5);
    let products = products::generate(0.004, 11);
    let citations = citations::generate(0.0008, 5);
    let cases: [(&str, &EmDataset, FalconConfig, usize); 4] = [
        ("songs rounds=0", &songs, blocked, 0),
        ("products-matchonly rounds=0", &products, match_only, 0),
        ("citations-faulty rounds=1", &citations, faulty.clone(), 1),
        ("citations-faulty rounds=3", &citations, faulty, 3),
    ];
    let mut recorded = String::new();
    for (case, d, config, rounds) in cases {
        let falcon = Falcon::new(config);
        let plain = run(&falcon, d, rounds, None, None);
        let block = render(case, &plain);
        assert_eq!(plain.estimates.is_empty(), rounds == 0, "{case}");

        // A fresh journal changes nothing but the file it leaves behind.
        let path = journal_path(case, "solo");
        let journaled = run(&falcon, d, rounds, Some(&path), None);
        assert_eq!(render(case, &journaled), block, "{case}: journaled");
        assert_eq!(journaled.journal_error, None, "{case}");
        let solo_bytes = std::fs::read(&path).expect("journal file");
        std::fs::remove_file(&path).ok();

        // Under a gate, with and without a journal: same report, and the
        // gate sees one event per segment, in segment order.
        let mut gate_blocks = Vec::new();
        for with_journal in [false, true] {
            let path = journal_path(case, "gated");
            let journal = with_journal.then_some(path.as_path());
            let recorder = Arc::new(Recorder::default());
            let gated = run(&falcon, d, rounds, journal, Some(recorder.clone()));
            assert_eq!(render(case, &gated), block, "{case}: gated");
            if with_journal {
                assert_eq!(
                    std::fs::read(&path).expect("journal file"),
                    solo_bytes,
                    "{case}"
                );
                std::fs::remove_file(&path).ok();
            }
            let events = recorder.0.lock().expect("recorder");
            gate_blocks.push(with_gate_events(&block, &events));
        }
        assert_eq!(
            gate_blocks[0], gate_blocks[1],
            "{case}: gate events moved with the journal"
        );

        recorded.push_str(&gate_blocks[0]);
        writeln!(
            recorded,
            "{case} journal bytes={} digest={:016x}",
            solo_bytes.len(),
            fnv_bytes(&solo_bytes)
        )
        .unwrap();
    }
    let differs = (recorded.lines().zip(GOLDEN.lines())).position(|(r, g)| r != g);
    assert!(
        recorded == GOLDEN,
        "runs differ from goldens/run.txt (first differing line: {differs:?}); full replacement:\n{recorded}"
    );
}
