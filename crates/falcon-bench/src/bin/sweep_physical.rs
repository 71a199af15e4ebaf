//! Section 11.2, `apply_blocking_rules`: compare the six physical
//! operators on the same learned rule sequence, and show how the
//! Section 10.1 selection rules react to shrinking mapper memory (the
//! paper's 2 GB / 1 GB / 500 MB experiment, scaled to the actual index
//! sizes of this run).

use falcon::core::features::generate_features;
use falcon::core::indexing::{predicate_key, BuiltIndexes, ConjunctSpecs};
use falcon::core::ops::al_matcher::{al_matcher, AlConfig};
use falcon::core::ops::eval_rules::{eval_rules, EvalConfig};
use falcon::core::ops::gen_fvs::gen_fvs;
use falcon::core::ops::get_blocking_rules::get_blocking_rules;
use falcon::core::ops::sample_pairs::sample_pairs;
use falcon::core::ops::select_opt_seq::{select_opt_seq, SeqConfig};
use falcon::core::physical::{self, estimate_table_bytes, PhysicalOp};
use falcon::core::timeline::Timeline;
use falcon::prelude::*;
use falcon_bench::{dataset, fmt_dur, title, Args};

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 1);
    let name: String = args.get("dataset", "songs".to_string());

    let d = dataset(&name, scale, seed);
    let cluster = Cluster::new(ClusterConfig::default());
    let truth = GroundTruth::new(d.truth.iter().copied());
    let mut session = CrowdSession::new(OracleCrowd::new(truth));
    let mut tl = Timeline::new();

    // Learn a rule sequence hands-off (oracle crowd isolates machine
    // behaviour).
    let lib = generate_features(&d.a, &d.b);
    let sample = sample_pairs(&cluster, &d.a, &d.b, 8_000, 40, seed).expect("sample");
    let s_fvs = gen_fvs(&cluster, &d.a, &d.b, &sample.pairs, &lib.blocking).expect("gen_fvs");
    let higher: Vec<bool> = lib
        .blocking
        .features
        .iter()
        .map(|f| f.sim.higher_is_similar())
        .collect();
    let al = al_matcher(
        &cluster,
        &mut session,
        &mut tl,
        "al",
        &s_fvs.fvs,
        &higher,
        &AlConfig::default(),
    )
    .expect("al");
    let ranked = get_blocking_rules(&al.forest, &s_fvs.fvs, 20, &higher);
    let eval = eval_rules(
        &mut session,
        &mut tl,
        &ranked,
        &s_fvs.fvs,
        &EvalConfig::default(),
    );
    let seq = select_opt_seq(&ranked, &eval.retained, &s_fvs.fvs, &SeqConfig::default());
    println!(
        "dataset {name}: {}x{} tuples, sequence of {} rules",
        d.a.len(),
        d.b.len(),
        seq.seq.len()
    );

    let conjuncts = ConjunctSpecs::derive(&seq.seq, &lib.blocking);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, &d.a, &spec).expect("build");
    }

    title("Physical operator comparison (identical outputs; simulated 10-node times)");
    println!(
        "{:<16} {:>12} {:>14} {:>10}",
        "operator", "candidates", "sim time", "recall%"
    );
    let budget: u128 = args.get("max-pairs", 100_000_000u128);
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
            &d.a,
            &d.b,
            &lib.blocking,
            &seq.seq,
            &conjuncts,
            &built,
            &seq.rule_selectivities,
            budget,
        ) {
            Ok(out) => {
                let recall =
                    falcon::core::metrics::blocking_recall(&out.candidates, &d.truth) * 100.0;
                println!(
                    "{:<16} {:>12} {:>14} {:>9.1}",
                    out.op.name(),
                    out.candidates.len(),
                    fmt_dur(out.cost(&cluster.config).dur()),
                    recall
                );
            }
            Err(e) => println!("{:<16} KILLED: {e}", op.name()),
        }
    }

    // Memory sweep: express budgets relative to the built index sizes so
    // the same selection transitions the paper saw (AA -> AC/AP -> base)
    // appear at any scale.
    let filterable = conjuncts.filterable();
    let conj_bytes: Vec<usize> = filterable
        .iter()
        .map(|&ci| {
            let keys: Vec<String> = conjuncts.specs[ci]
                .iter()
                .map(|s| predicate_key(&s.as_ref().unwrap().0))
                .collect();
            built.bytes_of(&keys)
        })
        .collect();
    let total: usize = conj_bytes.iter().sum();
    let max_conj = conj_bytes.iter().copied().max().unwrap_or(0);
    let min_conj = conj_bytes.iter().copied().min().unwrap_or(0);
    title("Mapper-memory sweep (Section 10.1 selection rules)");
    println!("index bytes: total {total}, largest conjunct {max_conj}, smallest {min_conj}");
    println!("{:>14} {:>16}", "mapper memory", "selected op");
    for (label, budget) in [
        ("4x total", total * 4),
        ("1x total", total),
        ("largest conj", max_conj),
        ("smallest conj", min_conj.max(1)),
        ("tiny", max_conj / 8),
        ("zero", 0),
    ] {
        let op = physical::select_physical(
            &conjuncts,
            &built,
            &seq.rule_selectivities,
            seq.selectivity,
            budget,
            estimate_table_bytes(&d.a),
            0.8,
        );
        println!("{label:>14} {:>16}", op.name());
    }
}
