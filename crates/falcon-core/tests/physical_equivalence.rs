//! All six physical implementations of `apply_blocking_rules` — and the
//! Corleone single-machine baseline — must produce *exactly* the same
//! candidate set: the index filters are necessary conditions and the
//! reducers evaluate the exact rule sequence. `ApplyAll`, which probes
//! each conjunct within the candidates of the more selective ones, is
//! also held to its definition: the intersection of the conjuncts' full
//! unions, whatever the probe order.

mod common;

use falcon_core::corleone::corleone_blocking;
use falcon_core::features::{generate_features, FeatureSet, ScoreScratch};
use falcon_core::indexing::{BuiltIndexes, ConjunctSpecs, PreFilterConfig};
use falcon_core::physical::{self, PhysicalOp};
use falcon_core::rules::{Predicate, Rule, RuleSequence};
use falcon_core::tokens::{requirements, TokenStore};
use falcon_dataflow::{Cluster, ClusterConfig};
use falcon_datagen::products;
use falcon_forest::SplitOp;
use falcon_index::spec::Candidates;
use falcon_index::ProbeStats;
use falcon_table::{IdPair, Table, TupleId};
use falcon_textsim::{SimContext, SimFunction, Tokenizer};
use std::collections::{BTreeMap, BTreeSet};

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::small(4)).with_threads(4)
}

/// Build a realistic rule sequence by hand over the products blocking
/// features: mixed set-sim, exact-match, range, and an unfilterable
/// dissimilarity predicate.
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
    let jac_title = find(SimFunction::Jaccard(Tokenizer::QGram(3)), "title");
    let em_brand = find(SimFunction::ExactMatch, "brand");
    let abs_price = find(SimFunction::AbsDiff, "price");
    let seq = RuleSequence::new(vec![
        // jaccard_3gram(title) <= 0.3 -> drop  (complement filterable)
        Rule {
            predicates: vec![Predicate {
                feature: jac_title,
                op: SplitOp::Le,
                threshold: 0.3,
                nan_is_high: true,
            }],
        },
        // exact_match(brand) <= 0.5 AND abs_diff(price) > 50 -> drop
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

#[test]
fn all_physical_operators_agree() {
    let (a, b, features, seq) = fixture();
    let cluster = cluster();
    let conjuncts = ConjunctSpecs::derive(&seq, &features);
    assert!(!conjuncts.filterable().is_empty());
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, &a, &spec).expect("build");
    }
    let sels = vec![0.3, 0.5];
    let reference = corleone_blocking(&a, &b, &features, &seq, 1 << 40)
        .unwrap()
        .candidates;
    assert!(!reference.is_empty(), "fixture should keep some candidates");
    assert!(
        reference.len() < a.len() * b.len(),
        "rules should drop pairs"
    );
    for op in [
        PhysicalOp::ApplyAll,
        PhysicalOp::ApplyGreedy,
        PhysicalOp::ApplyConjunct,
        PhysicalOp::ApplyPredicate,
        PhysicalOp::MapSide,
        PhysicalOp::ReduceSplit,
    ] {
        let out = physical::execute(
            op,
            &cluster,
            &a,
            &b,
            &features,
            &seq,
            &conjuncts,
            &built,
            &sels,
            1 << 40,
        )
        .unwrap_or_else(|e| panic!("{op:?} failed: {e}"));
        assert_eq!(
            out.candidates, reference,
            "{op:?} disagrees with the exhaustive baseline"
        );
    }
}

#[test]
fn blocking_preserves_recall() {
    // With missing-is-similar semantics the rules cannot drop pairs with
    // missing values, so recall of this hand-built sequence is high.
    let d = products::generate(0.02, 11);
    let (a, b, features, seq) = fixture();
    let cluster = cluster();
    let conjuncts = ConjunctSpecs::derive(&seq, &features);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, &a, &spec).expect("build");
    }
    let out = physical::execute(
        PhysicalOp::ApplyAll,
        &cluster,
        &a,
        &b,
        &features,
        &seq,
        &conjuncts,
        &built,
        &[0.3, 0.5],
        1 << 40,
    )
    .unwrap();
    let recall = falcon_core::metrics::blocking_recall(&out.candidates, &d.truth);
    assert!(recall > 0.85, "blocking recall {recall}");
    // And shrink the candidate space substantially.
    let full = a.len() * b.len();
    assert!(
        out.candidates.len() < full / 4,
        "{} of {} pairs survived",
        out.candidates.len(),
        full
    );
}

#[test]
fn enumeration_baselines_respect_pair_budget() {
    let (a, b, features, seq) = fixture();
    let cluster = cluster();
    let conjuncts = ConjunctSpecs::derive(&seq, &features);
    let built = BuiltIndexes::new();
    for op in [PhysicalOp::MapSide, PhysicalOp::ReduceSplit] {
        let err = physical::execute(
            op,
            &cluster,
            &a,
            &b,
            &features,
            &seq,
            &conjuncts,
            &built,
            &[0.5, 0.5],
            100,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            falcon_core::physical::BlockingError::TooManyPairs { .. }
        ));
    }
    // Refused before a job was submitted: no pair was ever emitted.
    assert_eq!(cluster.jobs_run(), 0);
}

#[test]
fn physical_selection_follows_memory_budget() {
    let (a, b, features, seq) = fixture();
    let _ = b;
    let cluster = cluster();
    let conjuncts = ConjunctSpecs::derive(&seq, &features);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, &a, &spec).expect("build");
    }
    let sels = [0.3, 0.9];
    // Plenty of memory, sequence much more selective than any single
    // conjunct -> apply-all.
    let op = physical::select_physical(
        &conjuncts,
        &built,
        &sels,
        0.2,
        1 << 30,
        physical::estimate_table_bytes(&a),
    );
    assert_eq!(op, PhysicalOp::ApplyAll);
    // Sequence selectivity close to best conjunct's -> apply-greedy.
    let op = physical::select_physical(
        &conjuncts,
        &built,
        &sels,
        0.28,
        1 << 30,
        physical::estimate_table_bytes(&a),
    );
    // 0.28 / 0.3 = 0.93 >= GREEDY_RATIO (0.8).
    assert_eq!(op, PhysicalOp::ApplyGreedy);
    // No memory at all -> fall through to enumeration.
    let op = physical::select_physical(&conjuncts, &built, &sels, 0.1, 0, usize::MAX);
    assert_eq!(op, PhysicalOp::ReduceSplit);
}

#[test]
fn empty_rule_sequence_keeps_everything() {
    let (a, b, features, _) = fixture();
    let cluster = cluster();
    let seq = RuleSequence::default();
    let conjuncts = ConjunctSpecs::derive(&seq, &features);
    let built = BuiltIndexes::new();
    let out = physical::execute(
        PhysicalOp::MapSide,
        &cluster,
        &a,
        &b,
        &features,
        &seq,
        &conjuncts,
        &built,
        &[],
        1 << 40,
    )
    .unwrap();
    assert_eq!(out.candidates.len(), a.len() * b.len());
    let all: Vec<IdPair> = (0..a.len() as u32)
        .flat_map(|x| (0..b.len() as u32).map(move |y| (x, y)))
        .collect();
    assert_eq!(out.candidates, all);
}

/// A scalar predicate probed before a set-similarity one, on an attribute
/// the store also holds a token column for under the same tokenizer: the
/// scalar probe reads no tokens and must leave the `ProbeTokens` slot the
/// set-similarity probe loads from `B`'s profile alone.
#[test]
fn scalar_probes_leave_profile_fed_tokens_alone() {
    let d = products::generate(0.02, 11);
    let features = generate_features(&d.a, &d.b).blocking;
    let find = |sim: SimFunction, attr: &str| {
        let hit = |f: &falcon_core::features::Feature| f.sim == sim && f.a_attr == attr;
        features.features.iter().position(hit).expect("feature")
    };
    let gram = SimFunction::Jaccard(Tokenizer::QGram(3));
    find(gram, "brand"); // brand has a 3-gram column too
    let pred = |feature, threshold| Predicate {
        feature,
        op: SplitOp::Le,
        threshold,
        nan_is_high: true,
    };
    let seq = RuleSequence::new(vec![Rule {
        predicates: vec![
            pred(find(SimFunction::ExactMatch, "brand"), 0.5),
            pred(find(gram, "title"), 0.3),
        ],
    }]);
    let cluster = cluster();
    let conjuncts = ConjunctSpecs::derive(&seq, &features);
    let mut store = TokenStore::default();
    let needs = requirements(&features.features);
    let profiled = store.require(&cluster, &d.a, &d.b, &needs, None);
    assert_eq!(profiled.expect("profiles").len(), 2);
    let mut built = BuiltIndexes::over(&store);
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, &d.a, &spec).expect("build");
    }
    let reference = corleone_blocking(&d.a, &d.b, &features, &seq, 1 << 40)
        .unwrap()
        .candidates;
    for op in [PhysicalOp::ApplyAll, PhysicalOp::ApplyConjunct] {
        let out = physical::execute(
            op,
            &cluster,
            &d.a,
            &d.b,
            &features,
            &seq,
            &conjuncts,
            &built,
            &[0.3],
            1 << 40,
        )
        .unwrap_or_else(|e| panic!("{op:?} failed: {e}"));
        assert_eq!(out.candidates, reference, "{op:?}");
    }
}

/// What `ApplyAll` must shuffle and keep, from the index probes alone: per
/// `B` tuple, every filterable conjunct's *full* union (no running set, no
/// probe order — `probe_ref_stats` takes no `within`), a conjunct with a
/// predicate that answers "all of `A`" (or without an index) skipped, the
/// unions intersected; then the rule sequence on each shuffled pair's full
/// feature vector, string path. Returns `(candidates, shuffled records)`;
/// `verdicts` carries the rule verdicts across calls over the same tables.
fn intersection_of_full_unions(
    (a, b): (&Table, &Table),
    features: &FeatureSet,
    seq: &RuleSequence,
    conjuncts: &ConjunctSpecs,
    built: &BuiltIndexes,
    verdicts: &mut BTreeMap<IdPair, bool>,
) -> (Vec<IdPair>, usize) {
    let ctx = SimContext::empty();
    let (mut candidates, mut shuffled) = (Vec::new(), 0);
    for bid in 0..b.len() as TupleId {
        let mut acc: Option<BTreeSet<TupleId>> = None;
        for ci in conjuncts.filterable() {
            let full_union = (0..conjuncts.specs[ci].len())
                .map(|pi| {
                    let (_, b_idx) = conjuncts.specs[ci][pi].as_ref()?;
                    let index = built.get_by_key(conjuncts.key_of(ci, pi)?)?;
                    let bv = b.value_ref(bid, *b_idx).unwrap_or_default();
                    let mode = index.plan_probe_mode();
                    match index.probe_ref_stats(bv, mode, &mut ProbeStats::default()) {
                        Candidates::All => None,
                        Candidates::Some(ids) => Some(ids),
                    }
                })
                .collect::<Option<Vec<Vec<TupleId>>>>();
            if let Some(ids) = full_union {
                let union: BTreeSet<TupleId> = ids.into_iter().flatten().collect();
                acc = Some(acc.map_or(union.clone(), |prev| &prev & &union));
            }
        }
        let ids = acc.unwrap_or_else(|| (0..a.len() as TupleId).collect());
        shuffled += ids.len();
        for aid in ids {
            let keep = *verdicts.entry((aid, bid)).or_insert_with(|| {
                seq.keeps(&features.vector_at(a, b, aid, bid, &ctx, &mut ScoreScratch::default()))
            });
            if keep {
                candidates.push((aid, bid));
            }
        }
    }
    candidates.sort_unstable();
    (candidates, shuffled)
}

/// Every ordering of `values`.
fn permutations(values: &[f64]) -> Vec<Vec<f64>> {
    if values.len() <= 1 {
        return vec![values.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..values.len() {
        let mut rest = values.to_vec();
        let head = rest.remove(i);
        out.extend(permutations(&rest).into_iter().map(|mut p| {
            p.insert(0, head);
            p
        }));
    }
    out
}

#[test]
fn apply_all_equals_the_intersection_of_full_unions() {
    let cluster = Cluster::new(ClusterConfig::small(2)).with_threads(2);
    let prefilters = [
        PreFilterConfig {
            enabled: false,
            ..PreFilterConfig::default()
        },
        PreFilterConfig {
            enabled: true,
            words: 1,
        },
        PreFilterConfig {
            enabled: true,
            words: 2,
        },
    ];
    for (name, d, rules) in &common::datasets() {
        let features = generate_features(&d.a, &d.b).blocking;
        let seq = common::sequence(&features, rules);
        let mut verdicts = BTreeMap::new();
        for prefilter in &prefilters {
            let conjuncts = ConjunctSpecs::derive(&seq, &features).with_signatures(prefilter);
            let mut built = BuiltIndexes::new();
            for spec in conjuncts.all_specs() {
                built.build_spec(&cluster, &d.a, &spec).expect("build");
            }
            let tables = (&d.a, &d.b);
            let (candidates, shuffled) = intersection_of_full_unions(
                tables,
                &features,
                &seq,
                &conjuncts,
                &built,
                &mut verdicts,
            );
            assert!(
                !candidates.is_empty() && shuffled > candidates.len(),
                "{name}"
            );
            // Every assignment of four distinct selectivities to the
            // filterable conjuncts, all-equal ones, and a slice shorter
            // than the sequence (the benchmark passes `&[0.5]`).
            let filterable = conjuncts.filterable();
            assert_eq!(filterable.len(), 4, "{name}");
            let mut orders: Vec<Vec<f64>> = permutations(&[0.1, 0.2, 0.3, 0.4])
                .into_iter()
                .map(|p| {
                    let mut sels = vec![1.0; seq.len()];
                    filterable.iter().zip(p).for_each(|(&ci, s)| sels[ci] = s);
                    sels
                })
                .collect();
            orders.push(vec![0.5; seq.len()]);
            orders.push(vec![0.5]);
            orders.push(Vec::new());
            for sels in &orders {
                let out = physical::execute(
                    PhysicalOp::ApplyAll,
                    &cluster,
                    &d.a,
                    &d.b,
                    &features,
                    &seq,
                    &conjuncts,
                    &built,
                    sels,
                    1 << 40,
                )
                .unwrap_or_else(|e| panic!("{name} {sels:?}: {e}"));
                let what = format!("{name} words={prefilter:?} selectivities={sels:?}");
                assert!(out.candidates == candidates, "{what}: candidates differ");
                assert_eq!(out.jobs.len(), 1, "{what}");
                assert_eq!(out.jobs[0].shuffled_records, shuffled, "{what}");
                let stats = &out.blocking;
                assert_eq!(
                    stats.pairs_examined(),
                    stats.pruned_by_signature() + stats.pruned_by_exact() + stats.survived(),
                    "{what}"
                );
            }
        }
    }
}
