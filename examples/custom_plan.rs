//! Composing Falcon's operators by hand instead of using the driver —
//! the "RDBMS approach" of Section 4: operators are reusable pieces you
//! can rearrange into custom EM plans.
//!
//! This example builds the Figure 3.a plan step by step, printing what
//! each operator produced, and finishes by comparing the six physical
//! implementations of `apply_blocking_rules` on the same rule sequence
//! (the Section 11.2 experiment in miniature).
//!
//! ```sh
//! cargo run --release -p falcon --example custom_plan
//! ```

use falcon::core::features::generate_features;
use falcon::core::indexing::{BuiltIndexes, ConjunctSpecs};
use falcon::core::ops::al_matcher::{al_matcher, AlConfig};
use falcon::core::ops::eval_rules::eval_rules;
use falcon::core::ops::gen_fvs::gen_fvs;
use falcon::core::ops::get_blocking_rules::{get_blocking_rules, TOP_K_RULES};
use falcon::core::ops::sample_pairs::sample_pairs;
use falcon::core::ops::select_opt_seq::select_opt_seq;
use falcon::core::physical::{self, PhysicalOp};
use falcon::core::timeline::Timeline;
use falcon::prelude::*;

fn main() {
    let data = falcon::datagen::citations::generate(0.002, 21);
    let cluster = Cluster::new(ClusterConfig::default());
    let truth = GroundTruth::new(data.truth.iter().copied());
    let mut session = CrowdSession::new(OracleCrowd::new(truth));
    let mut timeline = Timeline::new();

    // Operator 0 (implicit): automatic feature generation, Figure 5.
    let lib = generate_features(&data.a, &data.b);
    println!(
        "features: {} blocking / {} matching (paper's Citations: 22/30)",
        lib.blocking.len(),
        lib.matching.len()
    );

    // sample_pairs.
    let sample = sample_pairs(&cluster, &data.a, &data.b, 10_000, 50, 1).expect("sample_pairs");
    println!("sample_pairs: |S| = {}", sample.pairs.len());

    // gen_fvs over the sample, blocking features only.
    let s_fvs = gen_fvs(&cluster, &data.a, &data.b, &sample.pairs, &lib.blocking).expect("gen_fvs");

    // al_matcher: crowdsourced active learning of the blocking forest.
    let higher: Vec<bool> = lib
        .blocking
        .features
        .iter()
        .map(|f| f.sim.higher_is_similar())
        .collect();
    let al = al_matcher(
        &cluster,
        &mut session,
        &mut timeline,
        "al_matcher",
        &s_fvs.fvs,
        &higher,
        &AlConfig::default(),
        false, // pair selection on the critical path
        &[],   // no priority pairs
        7,
    )
    .expect("al_matcher");
    println!(
        "al_matcher: {} crowd iterations, converged = {}",
        al.iterations, al.converged
    );

    // get_blocking_rules: forest paths -> ranked candidate rules.
    let ranked = get_blocking_rules(&al.forest, &s_fvs.fvs, TOP_K_RULES, &higher);
    println!("get_blocking_rules: {} candidates", ranked.len());

    // eval_rules: crowd evaluates precision per rule (examples drawn
    // with seed 23).
    let eval = eval_rules(&mut session, &mut timeline, &ranked, &s_fvs.fvs.pairs, 23);
    println!("eval_rules: {} retained", eval.retained.len());

    // select_opt_seq.
    let seq = select_opt_seq(&ranked, &eval.retained);
    println!(
        "select_opt_seq: {} rules, est. selectivity {:.4}, precision >= {:.3}",
        seq.seq.len(),
        seq.selectivity,
        seq.precision
    );
    for r in &seq.seq.rules {
        println!("  {r}");
    }

    // apply_blocking_rules, all six physical operators.
    let conjuncts = ConjunctSpecs::derive(&seq.seq, &lib.blocking);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built
            .build_spec(&cluster, &data.a, &spec)
            .expect("build_spec");
    }
    println!("\nphysical operator comparison (identical outputs expected):");
    for op in [
        PhysicalOp::ApplyAll,
        PhysicalOp::ApplyGreedy,
        PhysicalOp::ApplyConjunct,
        PhysicalOp::ApplyPredicate,
        PhysicalOp::MapSide,
        PhysicalOp::ReduceSplit,
    ] {
        match physical::execute(
            op,
            &cluster,
            &data.a,
            &data.b,
            &lib.blocking,
            &seq.seq,
            &conjuncts,
            &built,
            &seq.rule_selectivities,
            5_000_000, // pair budget: enumeration baselines may exceed it
        ) {
            Ok(out) => println!(
                "  {:<16} {:>8} candidates, simulated {:?}",
                out.op.name(),
                out.candidates.len(),
                out.cost(&cluster.config).dur()
            ),
            Err(e) => println!("  {:<16} KILLED: {e}", op.name()),
        }
    }
    println!(
        "\ncrowd so far: {} questions, ${:.2}",
        session.ledger().questions,
        session.ledger().cost
    );
}
