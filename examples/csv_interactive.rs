//! Hands-off EM over your own CSV files, with *you* as the crowd — the
//! "users can label the tuple pairs themselves" mode of the paper's
//! Example 1.
//!
//! ```sh
//! cargo run --release -p falcon --example csv_interactive -- a.csv b.csv
//! ```
//!
//! With no arguments, a small demo dataset is written to `/tmp` and used,
//! and the answers are piped from the ground truth so the example stays
//! non-blocking in CI; pass your own CSVs for a real interactive session.

use falcon::crowd::interactive::InteractiveCrowd;
use falcon::prelude::*;
use falcon::table::csv;
use std::fs::File;
use std::io::{BufReader, Write};

fn load(path: &str) -> Table {
    let f = File::open(path).unwrap_or_else(|e| panic!("open {path}: {e}"));
    csv::read_table(path, BufReader::new(f)).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn main() -> Result<(), FalconError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (a, b, demo_truth) = if args.len() >= 2 {
        (load(&args[0]), load(&args[1]), None)
    } else {
        // Demo mode: generate a small products dataset, round-trip it
        // through CSV, and auto-answer from ground truth.
        let d = falcon::datagen::products::generate(0.01, 99);
        for (t, path) in [
            (&d.a, "/tmp/falcon_demo_a.csv"),
            (&d.b, "/tmp/falcon_demo_b.csv"),
        ] {
            let mut f = File::create(path).expect("write demo csv");
            csv::write_table(t, &mut f).expect("serialize");
            f.flush().unwrap();
        }
        println!("demo CSVs written to /tmp/falcon_demo_a.csv and /tmp/falcon_demo_b.csv");
        let a = load("/tmp/falcon_demo_a.csv");
        let b = load("/tmp/falcon_demo_b.csv");
        (a, b, Some(d.truth))
    };
    println!(
        "matching {} ({} rows) x {} ({} rows)",
        a.name(),
        a.len(),
        b.name(),
        b.len()
    );

    let config = FalconConfig {
        sample_size: 2_000,
        sample_fanout: 10,
        al: falcon::core::ops::al_matcher::AlConfig {
            max_iterations: 8, // keep a human session short
            ..Default::default()
        },
        ..FalconConfig::default()
    };

    let report = if let Some(truth) = demo_truth {
        // Demo mode answers from ground truth (the question order is data
        // dependent, so a scripted stdin can't be precomputed); a real
        // session uses the InteractiveCrowd branch below.
        let oracle = OracleCrowd::new(GroundTruth::new(truth.iter().copied()));
        let report = Falcon::new(config).try_run(&a, &b, oracle)?;
        let q = report.quality(&truth);
        println!(
            "demo result: P {:.1}% R {:.1}% F1 {:.1}%",
            q.precision * 100.0,
            q.recall * 100.0,
            q.f1 * 100.0
        );
        report
    } else {
        let crowd = InteractiveCrowd::new(
            a.clone(),
            b.clone(),
            BufReader::new(std::io::stdin()),
            std::io::stdout(),
        );
        Falcon::new(config).try_run(&a, &b, crowd)?
    };

    println!("\n{} matches found:", report.matches.len());
    for (aid, bid) in report.matches.iter().take(25) {
        println!(
            "  A#{aid} {:?}  <->  B#{bid} {:?}",
            a.value_ref(*aid, 0).unwrap_or_default().render(),
            b.value_ref(*bid, 0).unwrap_or_default().render()
        );
    }
    if report.matches.len() > 25 {
        println!("  ... and {} more", report.matches.len() - 25);
    }
    Ok(())
}
