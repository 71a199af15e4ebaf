//! One pipeline job: set-up (datagen + CSV files) and the timed region
//! (`A.csv`, `B.csv` → `read_table` → `Falcon::try_run` → `matches.csv`).

use crate::alloc::PeakScope;
use crate::layers;
use crate::outcome::{guarded, Outcome, RunOpts, MIN_REPS};
use crate::stats::mean;
use crate::trace::{self, Recorder, Spans};
use crate::workloads::Pipeline;
use falcon::prelude::*;
use falcon::table::csv;
use falcon::table::IdPair;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Simulated crowd of the paper's experiments: 5 % worker error, 1.5 min
/// per HIT (the `RandomWorkerCrowd` default latency).
pub const CROWD_ERROR: f64 = 0.05;
/// Fewest untraced/traced pairs behind the stage spans.
const MIN_TRACED_REPS: usize = 2;

/// What set-up leaves behind for the timed region.
pub struct Inputs {
    pub dir: PathBuf,
    pub truth: Vec<IdPair>,
    pub rows: (usize, usize),
}

/// Generate the problem's dataset and write `A.csv` and `B.csv` into
/// `dir`. `seed` picks the CSV dialect only — line endings and which
/// fields are quoted without needing to be — so files of different seeds
/// differ byte-wise yet parse to the same tables.
pub fn set_up(
    dataset: &str,
    datagen_scale: f64,
    problem: u64,
    seed: u64,
    dir: &Path,
) -> io::Result<Inputs> {
    let d = falcon::datagen::generate(dataset, datagen_scale, problem);
    let mut rng = SmallRng::seed_from_u64(seed);
    write_csv(&d.a, &dir.join("A.csv"), &mut rng)?;
    write_csv(&d.b, &dir.join("B.csv"), &mut rng)?;
    Ok(Inputs {
        dir: dir.to_path_buf(),
        truth: d.truth,
        rows: (d.a.len(), d.b.len()),
    })
}

fn write_csv(table: &Table, path: &Path, rng: &mut SmallRng) -> io::Result<()> {
    let eol = if rng.gen_bool(0.5) { "\r\n" } else { "\n" };
    let mut w = BufWriter::new(File::create(path)?);
    let header: Vec<String> = table.schema().names().map(csv::escape).collect();
    write!(w, "{}{eol}", header.join(","))?;
    let arity = table.schema().arity();
    let mut field = String::new();
    for id in 0..table.len() as u32 {
        for idx in 0..arity {
            if idx > 0 {
                w.write_all(b",")?;
            }
            field.clear();
            if let Some(v) = table.value_ref(id, idx) {
                v.render_into(&mut field);
            }
            let escaped = csv::escape(&field);
            if escaped.len() == field.len() && rng.gen_bool(0.25) {
                write!(w, "\"{field}\"")?;
            } else {
                w.write_all(escaped.as_bytes())?;
            }
        }
        w.write_all(eol.as_bytes())?;
    }
    w.flush()
}

/// File bytes into memory, then `read_table`.
pub fn read_table(dir: &Path, file: &str) -> Result<Table, String> {
    let bytes = fs::read(dir.join(file)).map_err(|e| format!("read {file}: {e}"))?;
    csv::read_table(file, bytes.as_slice()).map_err(|e| format!("parse {file}: {e}"))
}

/// `falcon-bench`'s `standard_config` values, seeded by the problem.
fn config(p: &Pipeline, problem: u64) -> FalconConfig {
    FalconConfig {
        sample_size: p.sample_size,
        sample_fanout: 20,
        force_plan: Some(p.plan),
        seed: problem,
        ..FalconConfig::default()
    }
}

/// One repetition's measurements.
pub struct RunOutput {
    /// The whole timed region.
    pub wall_s: f64,
    pub ingest_s: f64,
    pub emit_s: f64,
    pub peak_bytes: usize,
    pub report: RunReport,
    /// Digest of the sorted match set.
    pub digest: u64,
    /// Driver stage spans; `Some` for a traced repetition.
    pub spans: Option<Spans>,
}

impl RunOutput {
    /// Timed wall not covered by the ingest, emit or any driver span.
    pub fn untraced_s(&self) -> f64 {
        let stages: f64 = self
            .spans
            .iter()
            .flat_map(|s| s.stages.values())
            .map(|t| t.wall_s)
            .sum();
        self.wall_s - self.ingest_s - self.emit_s - stages
    }
}

/// The timed region, once. `traced` runs the driver under the recording
/// gate (`try_run_gated`) instead of `try_run`.
pub fn run_once(
    p: &Pipeline,
    problem: u64,
    inputs: &Inputs,
    traced: bool,
) -> Result<RunOutput, String> {
    let truth = GroundTruth::new(inputs.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, CROWD_ERROR, problem);
    let falcon = Falcon::new(config(p, problem));

    let scope = PeakScope::start();
    let t0 = Instant::now();
    let a = read_table(&inputs.dir, "A.csv")?;
    let b = read_table(&inputs.dir, "B.csv")?;
    let ingest_s = t0.elapsed().as_secs_f64();

    let (report, spans) = if traced {
        let recorder = Arc::new(Recorder::start());
        let result = falcon.try_run_gated(&a, &b, crowd, None, recorder.clone());
        let total = recorder.elapsed();
        (result, Some(trace::fold(&recorder.marks(), total)))
    } else {
        (falcon.try_run(&a, &b, crowd), None)
    };
    let report = report.map_err(|e| format!("try_run: {e}"))?;

    let t_emit = Instant::now();
    write_matches(&report.matches, &inputs.dir.join("matches.csv"))
        .map_err(|e| format!("write matches.csv: {e}"))?;
    let emit_s = t_emit.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_bytes = scope.peak_bytes();

    Ok(RunOutput {
        wall_s,
        ingest_s,
        emit_s,
        peak_bytes,
        digest: sorted_digest(&report.matches),
        report,
        spans,
    })
}

/// Order-independent digest of a match set.
pub fn sorted_digest(matches: &[IdPair]) -> u64 {
    let mut sorted = matches.to_vec();
    sorted.sort_unstable();
    falcon::serve::match_digest(&sorted)
}

fn write_matches(matches: &[IdPair], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(b"a_id,b_id\n")?;
    for (a, b) in matches {
        writeln!(w, "{a},{b}")?;
    }
    w.flush()
}

/// Output checks on one repetition; each string is one failed check.
pub fn check(p: &Pipeline, inputs: &Inputs, out: &RunOutput) -> Vec<String> {
    let mut failures = Vec::new();
    let f1 = out.report.quality(&inputs.truth).f1;
    if f1.is_nan() || f1 < p.min_f1 {
        failures.push(format!("f1 {f1:.4} below {}", p.min_f1));
    }
    if let Some(b) = &out.report.blocking {
        let parts = b.pruned_by_signature() + b.pruned_by_exact() + b.survived();
        if b.pairs_examined() != parts {
            failures.push(format!(
                "pairs_examined {} != pruned + survived {parts}",
                b.pairs_examined()
            ));
        }
    }
    if out.report.plan != p.plan {
        failures.push(format!(
            "ran plan {:?}, wanted {:?}",
            out.report.plan, p.plan
        ));
    }
    failures
}

/// End-to-end metrics: set up, then run the timed region until the budget
/// is spent (at least `MIN_REPS` times); one sample per repetition.
pub fn measure_e2e(p: &Pipeline, opts: &RunOpts, dir: &Path, out: &mut Outcome) {
    let set_up = || {
        set_up(p.dataset, p.datagen_scale(), opts.problem, opts.seed, dir)
            .map_err(|e| e.to_string())
    };
    let Some(inputs) = out.sample_set_up(set_up) else {
        return;
    };
    out.sizes = format!("{} x {}", inputs.rows.0, inputs.rows.1);
    let mut digests = Vec::new();
    let (mut done, mut spent) = (0, 0.0);
    while opts.budget.more(done, spent, MIN_REPS) {
        done += 1;
        match guarded(|| run_once(p, opts.problem, &inputs, false)) {
            Ok(run) => {
                spent += run.wall_s;
                let r = &run.report;
                out.sample("wall_s", run.wall_s);
                out.sample("peak_alloc_bytes", run.peak_bytes as f64);
                out.sample("crowd_dollars", r.ledger.cost);
                out.sample("virtual_total_s", r.total_time().as_secs_f64());
                out.sample(
                    "virtual_unmasked_machine_s",
                    r.unmasked_machine_time().as_secs_f64(),
                );
                out.sample("f1", r.quality(&inputs.truth).f1);
                digests.push(run.digest);
                out.attempt(check(p, &inputs, &run));
            }
            Err(e) => out.attempt(vec![e]),
        }
    }
    out.expect_one_digest(&digests);
}

/// Per-layer metrics: repetitions in pairs, one untraced and one under
/// the recording gate, then the direct layer calls on the same tables.
/// Stage spans are means over the traced repetitions, so they still add
/// up to `trace.wall_s`.
pub fn measure_layers(p: &Pipeline, opts: &RunOpts, dir: &Path, out: &mut Outcome) {
    let inputs = match set_up(p.dataset, p.datagen_scale(), opts.problem, opts.seed, dir) {
        Ok(inputs) => inputs,
        Err(e) => return out.attempt(vec![format!("set-up: {e}")]),
    };
    out.sizes = format!("{} x {}", inputs.rows.0, inputs.rows.1);
    let mut untraced_wall = Vec::new();
    let mut traced: Vec<RunOutput> = Vec::new();
    let mut digests = Vec::new();
    let (mut done, mut spent) = (0, 0.0);
    while opts.budget.more(done, spent, MIN_TRACED_REPS) {
        done += 1;
        for gate in [false, true] {
            match guarded(|| run_once(p, opts.problem, &inputs, gate)) {
                Ok(run) => {
                    spent += run.wall_s;
                    digests.push(run.digest);
                    out.attempt(check(p, &inputs, &run));
                    if gate {
                        traced.push(run);
                    } else {
                        untraced_wall.push(run.wall_s);
                    }
                }
                Err(e) => out.attempt(vec![e]),
            }
        }
    }
    out.expect_one_digest(&digests);
    let Some(last) = traced.last() else { return };
    let n = traced.len() as f64;
    let mean_of = |f: &dyn Fn(&RunOutput) -> f64| traced.iter().map(f).sum::<f64>() / n;
    for stage in trace::DRIVER_STAGES {
        let total = |f: &dyn Fn(&trace::StageTotals) -> f64| {
            mean_of(&|r| {
                let spans = r.spans.as_ref().expect("traced repetitions carry spans");
                spans.stages.get(stage).map_or(0.0, f)
            })
        };
        out.layer(format!("stage.{stage}.wall_s"), total(&|t| t.wall_s));
        out.layer(format!("stage.{stage}.virtual_s"), total(&|t| t.virtual_s));
        out.layer(
            format!("stage.{stage}.records"),
            total(&|t| t.records as f64),
        );
    }
    out.layer("stage.ingest.wall_s", mean_of(&|r| r.ingest_s));
    out.layer("stage.emit.wall_s", mean_of(&|r| r.emit_s));
    out.layer("stage.untraced.wall_s", mean_of(&RunOutput::untraced_s));
    let traced_wall = mean_of(&|r| r.wall_s);
    out.layer("trace.wall_s", traced_wall);
    out.layer("trace.overhead_s", traced_wall - mean(&untraced_wall));
    out.counters([&last.report]);

    let read =
        |file: &str| fs::read(inputs.dir.join(file)).map_err(|e| format!("read {file}: {e}"));
    let blocking = p.plan == PlanKind::BlockAndMatch;
    let rates = guarded(|| {
        layers::measure(
            &read("A.csv")?,
            &read("B.csv")?,
            &inputs.truth,
            blocking,
            p.fixture_pairs,
            opts.seed,
        )
    });
    match rates {
        Ok(rates) => out.layers.extend(rates),
        Err(e) => out.fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{all, Kind};

    fn smoke_pipeline() -> Pipeline {
        match &all(true)[0].kind {
            Kind::Pipeline(p) => p.clone(),
            Kind::Serve(_) => panic!("first workload is a pipeline"),
        }
    }

    #[test]
    fn seeds_change_the_bytes_but_not_the_tables() {
        let p = smoke_pipeline();
        let base = crate::scratch_dir().unwrap();
        let mut tables = Vec::new();
        let mut bytes = Vec::new();
        for seed in [1u64, 2, 1] {
            let dir = base.join(format!("s{}", tables.len()));
            fs::create_dir_all(&dir).unwrap();
            set_up(p.dataset, p.datagen_scale(), 1, seed, &dir).unwrap();
            let raw = fs::read(dir.join("B.csv")).unwrap();
            tables.push(csv::read_table("B", raw.as_slice()).unwrap());
            bytes.push(raw);
        }
        fs::remove_dir_all(&base).unwrap();
        assert_ne!(bytes[0], bytes[1], "dialects of seeds 1 and 2 coincide");
        assert_eq!(bytes[0], bytes[2], "same seed, different bytes");
        assert_eq!(tables[0].rows(), tables[1].rows());
        assert_eq!(tables[0].schema(), tables[1].schema());
    }
}
