//! The signature pre-filter must be invisible in the final output: the
//! candidate pairs surviving `apply_blocking_rules` are byte-identical to
//! the exhaustive single-machine baseline, across operators and thread
//! counts. The pre-filter may only change *how much work* the probes do,
//! which the per-conjunct blocking counters account for exactly.

use falcon_core::corleone::corleone_blocking;
use falcon_core::features::generate_features;
use falcon_core::indexing::{BuiltIndexes, ConjunctSpecs};
use falcon_core::physical::{self, PhysicalOp};
use falcon_core::rules::{Predicate, Rule, RuleSequence};
use falcon_dataflow::{Cluster, ClusterConfig};
use falcon_datagen::products;
use falcon_forest::SplitOp;
use falcon_textsim::{SimFunction, Tokenizer};

fn fixture() -> (
    falcon_table::Table,
    falcon_table::Table,
    falcon_core::features::FeatureSet,
    RuleSequence,
) {
    let d = products::generate(0.02, 11);
    let lib = generate_features(&d.a, &d.b);
    let find = |sim: SimFunction, attr: &str| {
        lib.blocking
            .features
            .iter()
            .position(|f| f.sim == sim && f.a_attr == attr)
            .unwrap_or_else(|| panic!("missing feature {sim:?} on {attr}"))
    };
    let jac_title = find(SimFunction::Jaccard(Tokenizer::Word), "title");
    let em_brand = find(SimFunction::ExactMatch, "brand");
    let abs_price = find(SimFunction::AbsDiff, "price");
    let seq = RuleSequence::new(vec![
        Rule {
            predicates: vec![Predicate {
                feature: jac_title,
                op: SplitOp::Le,
                threshold: 0.4,
                nan_is_high: true,
            }],
        },
        Rule {
            predicates: vec![
                Predicate {
                    feature: em_brand,
                    op: SplitOp::Le,
                    threshold: 0.5,
                    nan_is_high: true,
                },
                Predicate {
                    feature: abs_price,
                    op: SplitOp::Gt,
                    threshold: 50.0,
                    nan_is_high: false,
                },
            ],
        },
    ]);
    (d.a, d.b, lib.blocking, seq)
}

fn run(
    op: PhysicalOp,
    threads: usize,
    a: &falcon_table::Table,
    b: &falcon_table::Table,
    features: &falcon_core::features::FeatureSet,
    seq: &RuleSequence,
) -> physical::BlockingOutput {
    let cluster = Cluster::new(ClusterConfig::small(threads)).with_threads(threads);
    let conjuncts = ConjunctSpecs::derive(seq, features);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, a, &spec).expect("build");
    }
    physical::execute(
        op,
        &cluster,
        a,
        b,
        features,
        seq,
        &conjuncts,
        &built,
        &[0.3, 0.5],
        1 << 40,
    )
    .unwrap_or_else(|e| panic!("{op:?} failed: {e}"))
}

#[test]
fn every_operator_matches_the_exhaustive_baseline() {
    let (a, b, features, seq) = fixture();
    let reference = corleone_blocking(&a, &b, &features, &seq, 1 << 40)
        .unwrap()
        .candidates;
    assert!(!reference.is_empty());
    assert!(reference.len() < a.len() * b.len());
    for op in [
        PhysicalOp::ApplyAll,
        PhysicalOp::ApplyGreedy,
        PhysicalOp::ApplyConjunct,
        PhysicalOp::ApplyPredicate,
    ] {
        let out = run(op, 4, &a, &b, &features, &seq);
        assert_eq!(out.candidates, reference, "{op:?} disagrees with baseline");
    }
}

#[test]
fn final_candidates_stable_across_thread_counts() {
    let (a, b, features, seq) = fixture();
    let reference = run(PhysicalOp::ApplyAll, 1, &a, &b, &features, &seq);
    for threads in [2, 4] {
        let out = run(PhysicalOp::ApplyAll, threads, &a, &b, &features, &seq);
        assert_eq!(out.candidates, reference.candidates);
        // The probe counters are sums over per-task deltas of a fixed task
        // set, so they are deterministic across thread counts too.
        assert_eq!(out.blocking, reference.blocking);
    }
}

#[test]
fn blocking_counters_balance_per_conjunct() {
    let (a, b, features, seq) = fixture();
    let out = run(PhysicalOp::ApplyAll, 4, &a, &b, &features, &seq);
    assert!(!out.blocking.conjuncts.is_empty());
    for c in &out.blocking.conjuncts {
        assert_eq!(
            c.pairs_examined,
            c.pruned_by_signature + c.pruned_by_exact + c.survived,
            "conjunct {} counters do not balance: {c:?}",
            c.conjunct
        );
        assert!(!c.modes.is_empty());
    }
    assert!(out.blocking.pairs_examined() > 0);
}
