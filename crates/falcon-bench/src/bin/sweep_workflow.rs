//! The full iterative workflow (Figure 1) vs the single-pass plan of
//! Figure 3.a: F1, crowd questions and cost per extra Matcher → Accuracy
//! Estimator → Difficult Pairs round.

use falcon::prelude::*;
use falcon_bench::{dataset, standard_config, title, Args, DATASETS};

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 1);

    title("Iterative workflow: accuracy vs crowd budget per outer round");
    println!(
        "{:<11} {:>7} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "Dataset", "rounds", "F1%", "questions", "cost$", "estP%", "estR%"
    );
    for name in DATASETS {
        for max_outer in [1usize, 2, 3] {
            let d = dataset(name, scale, seed);
            let truth = GroundTruth::new(d.truth.iter().copied());
            let crowd = RandomWorkerCrowd::new(truth, 0.05, seed * 3 + max_outer as u64);
            let report = Falcon::new(standard_config(8_000))
                .try_run_with(&d.a, &d.b, crowd, max_outer, RunCtl::default())
                .unwrap_or_else(|e| panic!("workflow run failed: {e}"));
            let q = report.quality(&d.truth);
            let estimates = &report.estimates;
            let last = estimates.last();
            println!(
                "{:<11} {:>7} {:>8.1} {:>10} {:>10.2} {:>8.1} {:>8.1}",
                name,
                format!("{}/{}", estimates.len(), max_outer),
                q.f1 * 100.0,
                report.ledger.questions,
                report.ledger.cost,
                last.map_or(0.0, |e| e.precision * 100.0),
                last.map_or(0.0, |e| e.recall * 100.0),
            );
        }
    }
    println!("\nExpected shape: extra rounds cost more questions; F1 holds or improves; the crowd-estimated P/R tracks the true quality.");
}
