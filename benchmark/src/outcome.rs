//! What measuring one workload produces, and the rules shared by every
//! repetition loop: how long to keep going, and how a repetition that
//! errors or panics is counted instead of aborting the rest.

use falcon::prelude::RunReport;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Upper limit on repetitions of one loop, for workloads so small (smoke
/// mode) that the time budget alone would allow thousands.
const MAX_REPS: usize = 64;
/// Set-ups behind the reported `setup_s`.
const SETUP_REPS: usize = 9;
/// Fewest repetitions behind an end-to-end value.
pub const MIN_REPS: usize = 3;

/// How long a repetition loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep repeating until the timed regions add up to this.
    pub seconds: f64,
    /// Fixed repetition count; overrides `seconds`.
    pub reps: Option<usize>,
}

impl Budget {
    /// Whether to start another repetition after `done` of them took
    /// `spent_s` in total; never fewer than `min`.
    pub fn more(&self, done: usize, spent_s: f64, min: usize) -> bool {
        match self.reps {
            Some(n) => done < n,
            None => done < min || (spent_s < self.seconds && done < MAX_REPS),
        }
    }
}

/// Which pinned problem, which file dialect, for how long.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Seed of datagen, crowd and driver (`Workload::instances`).
    pub problem: u64,
    pub seed: u64,
    pub budget: Budget,
}

/// Everything measured on one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Table sizes, for the provenance block.
    pub sizes: String,
    /// Repetitions (serve: tenants) started.
    pub attempted: u64,
    /// Of those, how many returned `Err`, panicked or failed a check.
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics: one value per repetition.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics: one value each.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Record a failed check that is not tied to one repetition.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// All repetitions of one problem must produce one match set.
    pub fn expect_one_digest(&mut self, digests: &[u64]) {
        if digests.windows(2).any(|w| w[0] != w[1]) {
            self.fail(format!(
                "repetitions disagree on the match set: {digests:x?}"
            ));
        }
    }

    /// Count one attempted repetition; `problems` non-empty marks it failed.
    pub fn attempt(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Set up [`SETUP_REPS`] times, sampling `setup_s` each time, and keep
    /// the last result: set-up takes milliseconds, so its median needs more
    /// samples than the timed region can afford repetitions.
    pub fn sample_set_up<T>(&mut self, mut set_up: impl FnMut() -> Result<T, String>) -> Option<T> {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            match set_up() {
                Ok(inputs) => {
                    self.sample("setup_s", t0.elapsed().as_secs_f64());
                    last = Some(inputs);
                }
                Err(e) => {
                    self.attempt(vec![format!("set-up: {e}")]);
                    return None;
                }
            }
        }
        last
    }

    /// The "same work" fingerprint: deterministic counters of the given
    /// run reports, summed (one report for a pipeline, one per tenant for
    /// serve). The `blocking.*` counters appear only when some report
    /// probed an index.
    pub fn counters<'a>(&mut self, reports: impl IntoIterator<Item = &'a RunReport>) {
        let mut sum: BTreeMap<&str, u64> = BTreeMap::new();
        let mut probed = false;
        for r in reports {
            if let Some(b) = &r.blocking {
                probed = true;
                *sum.entry("blocking.pairs_examined").or_default() += b.pairs_examined();
                *sum.entry("blocking.pruned_by_signature").or_default() += b.pruned_by_signature();
                *sum.entry("blocking.pruned_by_exact").or_default() += b.pruned_by_exact();
                *sum.entry("blocking.survived").or_default() += b.survived();
            }
            *sum.entry("core.candidates").or_default() += r.candidate_size.unwrap_or(0) as u64;
            *sum.entry("core.rules_retained").or_default() += r.rules_retained as u64;
            *sum.entry("crowd.questions").or_default() += r.ledger.questions as u64;
            *sum.entry("dataflow.segments").or_default() += r.timeline.segments().len() as u64;
        }
        if probed {
            let examined = sum["blocking.pairs_examined"].max(1) as f64;
            self.layer(
                "blocking.useful_ratio",
                sum["blocking.survived"] as f64 / examined,
            );
        }
        for (name, v) in sum {
            self.layer(name, v as f64);
        }
    }
}

/// Run `f`, turning a panic into an error so one bad repetition counts
/// into `failed` instead of taking the other workloads down with it.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_honours_minimum_time_and_fixed_count() {
        let timed = Budget {
            seconds: 10.0,
            reps: None,
        };
        assert!(timed.more(0, 0.0, 3));
        assert!(timed.more(2, 50.0, 3), "below the minimum");
        assert!(timed.more(3, 9.9, 3));
        assert!(!timed.more(3, 10.0, 3));
        assert!(!timed.more(MAX_REPS, 0.1, 3));
        let fixed = Budget {
            seconds: 10.0,
            reps: Some(1),
        };
        assert!(fixed.more(0, 0.0, 3));
        assert!(!fixed.more(1, 0.0, 3));
    }

    #[test]
    fn panics_and_errors_become_counted_failures() {
        assert_eq!(guarded(|| Ok(7)), Ok(7));
        assert_eq!(guarded::<()>(|| Err("boom".into())), Err("boom".into()));
        let caught = guarded::<()>(|| panic!("kaput {}", 1));
        assert_eq!(caught, Err("panicked: kaput 1".into()));

        let mut o = Outcome::default();
        o.attempt(Vec::new());
        o.attempt(vec!["a".into(), "b".into()]);
        assert_eq!((o.attempted, o.failed, o.failures.len()), (2, 1, 2));
    }
}
