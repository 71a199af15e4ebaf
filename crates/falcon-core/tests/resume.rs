//! Kill-and-resume tests: a run that crashes mid-flight resumes from its
//! crowd journal to the exact output of an uninterrupted run, without
//! re-asking any journaled question.

use falcon_core::driver::{Falcon, FalconConfig, RunCtl, RunReport};
use falcon_core::plan::PlanKind;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_crowd::{Crowd, CrowdJournal};
use falcon_dataflow::ClusterConfig;
use falcon_datagen::citations;
use falcon_table::IdPair;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn config() -> FalconConfig {
    FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 4_000,
        sample_fanout: 20,
        max_pairs: 20_000_000,
        force_plan: Some(PlanKind::BlockAndMatch),
        ..FalconConfig::default()
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "falcon-resume-{tag}-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A `rounds`-round run journaled at `path` (opened or created here).
fn run_journaled<C: Crowd>(
    falcon: &Falcon,
    d: &falcon_datagen::EmDataset,
    crowd: C,
    rounds: usize,
    path: &Path,
) -> RunReport {
    let ctl = RunCtl {
        journal: Some(CrowdJournal::open(path).expect("journal")),
        gate: None,
    };
    falcon
        .try_run_with(&d.a, &d.b, crowd, rounds, ctl)
        .expect("journaled run")
}

/// A crowd that dies (panics) after a fixed number of live draws — the
/// simulated "kill -9" in the middle of a labeling batch.
struct LethalCrowd<C: Crowd> {
    inner: C,
    remaining: AtomicUsize,
}

impl<C: Crowd> LethalCrowd<C> {
    fn new(inner: C, budget: usize) -> Self {
        Self {
            inner,
            remaining: AtomicUsize::new(budget),
        }
    }

    fn tick(&self) {
        if self.remaining.fetch_sub(1, Ordering::Relaxed) == 0 {
            panic!("simulated crash: crowd worker process died");
        }
    }
}

impl<C: Crowd> Crowd for LethalCrowd<C> {
    fn answer(&self, pair: IdPair) -> bool {
        self.tick();
        self.inner.answer(pair)
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        self.tick();
        self.inner.try_answer(pair)
    }
    fn fast_forward(&self, draws: usize) {
        self.inner.fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        self.inner.latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        self.inner.cost_per_answer()
    }
    fn name(&self) -> &str {
        "lethal"
    }
}

/// Counts live draws (replayed/fast-forwarded draws are *not* counted) to
/// prove a resumed run never re-asks a journaled question.
struct CountingCrowd<C: Crowd> {
    inner: C,
    live: AtomicUsize,
}

impl<C: Crowd> CountingCrowd<C> {
    fn new(inner: C) -> Self {
        Self {
            inner,
            live: AtomicUsize::new(0),
        }
    }

    fn live_draws(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

impl<C: Crowd> Crowd for CountingCrowd<C> {
    fn answer(&self, pair: IdPair) -> bool {
        self.live.fetch_add(1, Ordering::Relaxed);
        self.inner.answer(pair)
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        self.live.fetch_add(1, Ordering::Relaxed);
        self.inner.try_answer(pair)
    }
    fn fast_forward(&self, draws: usize) {
        self.inner.fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        self.inner.latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        self.inner.cost_per_answer()
    }
    fn name(&self) -> &str {
        "counting"
    }
}

#[test]
fn killed_run_resumes_to_the_identical_report() {
    let d = citations::generate(0.001, 11);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = || RandomWorkerCrowd::new(truth.clone(), 0.1, 21);
    let falcon = Falcon::new(config());

    // Uninterrupted baseline (no journal at all).
    let baseline = falcon.try_run(&d.a, &d.b, crowd()).expect("baseline");
    let total_draws = baseline.ledger.answers + baseline.ledger.lost_answers;
    assert!(total_draws > 40, "need a few batches to crash between");

    // Journaled run killed roughly halfway through its crowd draws —
    // well past the first labeled batches.
    let path = journal_path("run");
    let killed = catch_unwind(AssertUnwindSafe(|| {
        let lethal = LethalCrowd::new(crowd(), total_draws / 2);
        run_journaled(&falcon, &d, lethal, 0, &path)
    }));
    assert!(killed.is_err(), "the crash must abort the run");

    // Resume from the journal with a fresh (same-seed) crowd.
    let counting = CountingCrowd::new(crowd());
    let resumed = run_journaled(&falcon, &d, &counting, 0, &path);

    assert_eq!(resumed.matches, baseline.matches, "bit-identical output");
    assert_eq!(resumed.candidate_size, baseline.candidate_size);
    assert_eq!(resumed.ledger, baseline.ledger, "same total spend");
    assert_eq!(resumed.journal_error, None);
    // The journaled prefix was replayed, not re-asked: the live crowd
    // answered the post-crash tail plus at most the one partial batch
    // that was in flight when the run died (a batch checkpoints only
    // once fully labeled), so roughly half the draws were saved.
    assert!(
        counting.live_draws() < total_draws * 3 / 4,
        "{} live draws of {total_draws}",
        counting.live_draws()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn killed_workflow_resumes_to_the_identical_report() {
    let d = citations::generate(0.0008, 12);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = || RandomWorkerCrowd::new(truth.clone(), 0.1, 33);
    let falcon = Falcon::new(config());

    let baseline = falcon
        .try_run_with(&d.a, &d.b, crowd(), 2, RunCtl::default())
        .expect("baseline workflow");
    let base_est = &baseline.estimates;
    let total_draws = baseline.ledger.answers + baseline.ledger.lost_answers;

    let path = journal_path("workflow");
    let killed = catch_unwind(AssertUnwindSafe(|| {
        let lethal = LethalCrowd::new(crowd(), total_draws / 2);
        run_journaled(&falcon, &d, lethal, 2, &path)
    }));
    assert!(killed.is_err(), "the crash must abort the workflow");

    let counting = CountingCrowd::new(crowd());
    let resumed = run_journaled(&falcon, &d, &counting, 2, &path);
    let est = &resumed.estimates;

    assert_eq!(resumed.matches, baseline.matches);
    assert_eq!(resumed.ledger, baseline.ledger);
    assert_eq!(est.len(), base_est.len());
    for (r, b) in est.iter().zip(base_est) {
        assert_eq!((r.f1, r.precision, r.recall), (b.f1, b.precision, b.recall));
    }
    assert!(counting.live_draws() < total_draws);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_completed_journal_replays_the_whole_run_for_free() {
    let d = citations::generate(0.0008, 13);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = || RandomWorkerCrowd::new(truth.clone(), 0.05, 44);
    let falcon = Falcon::new(config());

    let path = journal_path("full");
    let first = run_journaled(&falcon, &d, crowd(), 0, &path);
    assert_eq!(first.journal_error, None);

    // Re-running against the completed journal asks nothing at all.
    let counting = CountingCrowd::new(crowd());
    let second = run_journaled(&falcon, &d, &counting, 0, &path);
    assert_eq!(second.matches, first.matches);
    assert_eq!(second.ledger, first.ledger);
    assert_eq!(counting.live_draws(), 0, "everything came from the journal");
    std::fs::remove_file(&path).ok();
}
