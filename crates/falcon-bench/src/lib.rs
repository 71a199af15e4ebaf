//! Shared infrastructure for the benchmark binaries that regenerate the
//! paper's tables and figures (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Every binary accepts:
//!
//! * `--scale <f>` — multiplier on each dataset's default laptop scale
//!   (1.0 ≈ a few thousand tuples; the paper's full sizes are reached
//!   with the per-dataset `paper_scale` noted below, at real cost in run
//!   time),
//! * `--runs <n>` — repetitions to average (the paper uses 3),
//! * `--seed <n>` — base RNG seed.

use falcon::prelude::*;
use std::time::Duration;

/// Default laptop-friendly scales per dataset, as a fraction of the
/// paper's full sizes. At `--scale 1.0` these give roughly
/// 128×1.1K (products), 2K×2K (songs), 2.7K×3.8K (citations).
pub fn base_scale(dataset: &str) -> f64 {
    falcon::datagen::default_scale(dataset).unwrap_or_else(|| panic!("unknown dataset {dataset}"))
}

/// The three paper datasets in presentation order.
pub const DATASETS: [&str; 3] = ["products", "songs", "citations"];

/// Simple CLI flag parsing: `--key value` pairs.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parse from the process arguments.
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--key`, parsed.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let flag = format!("--{key}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Presence of a bare `--flag`.
    pub fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Generate a dataset at `scale × base_scale(dataset)`.
pub fn dataset(name: &str, scale: f64, seed: u64) -> EmDataset {
    falcon::datagen::generate(name, base_scale(name) * scale, seed)
}

/// The benchmark-standard Falcon configuration: simulated 10-node
/// cluster, sample scaled to the workload, paper crowd parameters.
pub fn standard_config(sample_size: usize) -> FalconConfig {
    FalconConfig {
        sample_size,
        // The paper's y = 100 assumes million-tuple tables; at bench scale
        // a smaller fan-out lets the sample reach enough B tuples to
        // contain a healthy number of matches.
        sample_fanout: 20,
        force_plan: Some(PlanKind::BlockAndMatch),
        ..FalconConfig::default()
    }
}

/// One run with the paper's simulated crowd (5% error, 1.5 min/HIT).
pub fn run_once(
    data: &EmDataset,
    cfg: FalconConfig,
    error: f64,
    seed: u64,
) -> falcon::core::driver::RunReport {
    let truth = GroundTruth::new(data.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, error, seed);
    Falcon::new(cfg)
        .try_run(&data.a, &data.b, crowd)
        .unwrap_or_else(|e| panic!("bench run failed: {e}"))
}

/// Render a duration like the paper's tables (`2h 7m`, `52m`, `31m 52s`).
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs();
    if s >= 3600 {
        format!("{}h {}m {}s", s / 3600, (s % 3600) / 60, s % 60)
    } else if s >= 60 {
        format!("{}m {}s", s / 60, s % 60)
    } else if s > 0 {
        format!("{}s", s)
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// Average of a slice of f64.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Print a separator-framed table title.
pub fn title(t: &str) {
    println!("\n{}", "=".repeat(t.len()));
    println!("{t}");
    println!("{}", "=".repeat(t.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_dur_shapes() {
        assert_eq!(fmt_dur(Duration::from_secs(7320)), "2h 2m 0s");
        assert_eq!(fmt_dur(Duration::from_secs(61)), "1m 1s");
        assert_eq!(fmt_dur(Duration::from_secs(9)), "9s");
        assert_eq!(fmt_dur(Duration::from_millis(12)), "12ms");
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn base_scales_known() {
        for d in DATASETS {
            assert!(base_scale(d) > 0.0);
        }
    }
}
