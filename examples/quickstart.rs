//! Quickstart: match two product catalogs end to end with a simulated
//! crowd, print quality, cost and the time breakdown.
//!
//! ```sh
//! cargo run --release -p falcon --example quickstart
//! ```

use falcon::prelude::*;

fn main() -> Result<(), FalconError> {
    // 1. Get two tables to match. Here: the synthetic Products dataset at
    //    5% of the paper's scale (~128 × ~1.1K tuples). In a real
    //    deployment you would load CSVs via `falcon::table::csv`.
    let data = falcon::datagen::products::generate(0.05, 42);
    println!(
        "Matching {} x {} tuples ({} true matches)",
        data.a.len(),
        data.b.len(),
        data.truth.len()
    );

    // 2. Pick a crowd. `RandomWorkerCrowd` is the paper's simulation
    //    model: every answer is wrong with the given probability, each
    //    10-question HIT round takes 1.5 virtual minutes, answers cost 2
    //    cents. Swap in your own `Crowd` impl to use real people.
    let truth = GroundTruth::new(data.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, 0.05, 7);

    // 3. Configure. Defaults mirror the paper; we scale the sample to the
    //    input size.
    let config = FalconConfig {
        sample_size: 10_000,
        cluster: ClusterConfig::default(), // simulated 10-node cluster
        ..FalconConfig::default()
    };

    // 4. Run hands-off EM: Falcon samples pairs, crowd-learns blocking
    //    rules, evaluates them with the crowd, blocks A x B with
    //    index-based filters, then crowd-learns and applies a matcher.
    let report = Falcon::new(config).try_run(&data.a, &data.b, crowd)?;

    // 5. Inspect results.
    let q = report.quality(&data.truth);
    println!("\n== Result ==");
    println!("plan            : {:?}", report.plan);
    println!("physical op     : {:?}", report.physical);
    println!(
        "blocking        : {} rules extracted, {} retained, sequence of {}",
        report.rules_extracted,
        report.rules_retained,
        report.rule_sequence.len()
    );
    println!("candidate pairs : {:?}", report.candidate_size);
    println!(
        "quality         : P {:.1}%  R {:.1}%  F1 {:.1}%",
        q.precision * 100.0,
        q.recall * 100.0,
        q.f1 * 100.0
    );
    println!(
        "crowd           : {} questions, {} answers, ${:.2}",
        report.ledger.questions, report.ledger.answers, report.ledger.cost
    );
    println!(
        "time            : machine {:?}  crowd {:?}  total {:?} (masked away {:?})",
        report.machine_time(),
        report.crowd_time(),
        report.total_time(),
        report.machine_time() - report.unmasked_machine_time(),
    );
    println!("\nPer-operator times:");
    for (op, dur) in report.op_times() {
        println!("  {op:<18} {dur:?}");
    }
    Ok(())
}
