//! Deduplicating a song catalog (the paper's Songs workload, Section 11):
//! a single table matched against itself, where the same song appears on
//! multiple albums but remixes/live versions must NOT match.
//!
//! Demonstrates: equal-size tables, duplicate clusters (more matches than
//! tuples), and blocking-recall measurement.
//!
//! ```sh
//! cargo run --release -p falcon --example songs_dedup -- [scale]
//! ```

use falcon::prelude::*;

fn main() -> Result<(), FalconError> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.003);
    let data = falcon::datagen::songs::generate(scale, 11);
    println!(
        "Songs @ {:.1}%: {} x {} tuples, {} matching pairs ({:.2} per tuple)",
        scale * 100.0,
        data.a.len(),
        data.b.len(),
        data.truth.len(),
        data.truth.len() as f64 / data.a.len() as f64
    );

    let truth = GroundTruth::new(data.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, 0.05, 3);

    let config = FalconConfig {
        sample_size: 20_000,
        ..FalconConfig::default()
    };
    let report = Falcon::new(config).try_run(&data.a, &data.b, crowd)?;

    let q = report.quality(&data.truth);
    println!("\n== Songs result ==");
    println!(
        "P {:.1}%  R {:.1}%  F1 {:.1}%   (paper full-scale: P 96.0 R 99.3 F1 97.6)",
        q.precision * 100.0,
        q.recall * 100.0,
        q.f1 * 100.0
    );
    println!(
        "candidates {} of {} possible pairs ({:.3}%)",
        report.candidate_size.unwrap_or(0),
        data.a.len() * data.b.len(),
        100.0 * report.candidate_size.unwrap_or(0) as f64 / (data.a.len() * data.b.len()) as f64
    );
    println!(
        "crowd ${:.2} over {} questions; total time {:?}",
        report.ledger.cost,
        report.ledger.questions,
        report.total_time()
    );

    // Show the learned blocking rules in feature terms.
    let lib = falcon::core::features::generate_features(&data.a, &data.b);
    println!("\nSelected blocking-rule sequence:");
    for rule in &report.rule_sequence.rules {
        println!("  {}", rule.display_with(&lib.blocking));
    }
    Ok(())
}
