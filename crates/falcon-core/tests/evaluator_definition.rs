//! `PairEvaluator` against the definition of a rule sequence.
//!
//! The evaluator computes features lazily, in the order predicates read
//! them, and stops at the first rule that fires. Whatever it skips, its
//! answer must be the definition's: compute the *whole* feature vector
//! through the plain string path and ask `RuleSequence::keeps`. The
//! property runs over random dirty tables (Null, empty, punctuation-only,
//! numeric-as-string, non-ASCII) and random sequences (no rules, empty
//! rules, a feature read by several rules, `Le`/`Gt` with either
//! missing-value orientation, feature indices outside the set), and again
//! over values long enough that the token-print bound settles set
//! predicates without a merge; the bound itself is checked for soundness
//! over colliding prints, and unit tests pin the laziness.

use falcon_core::features::{Feature, FeatureSet, ScoreScratch};
use falcon_core::physical::{EvalScratch, PairEvaluator};
use falcon_core::rules::{Predicate, Rule, RuleSequence};
use falcon_forest::SplitOp;
use falcon_table::{AttrType, Schema, Table, TupleId, Value};
use falcon_textsim::{sets, SimContext, SimFunction, Tokenizer};
use proptest::prelude::*;

/// Every blocking-usable measure over both attribute correspondences
/// plus a crossed one.
fn features() -> FeatureSet {
    use SimFunction::*;
    let sims = [
        ExactMatch,
        Jaccard(Tokenizer::Word),
        Jaccard(Tokenizer::QGram(3)),
        Dice(Tokenizer::QGram(3)),
        Dice(Tokenizer::Word),
        Overlap(Tokenizer::Word),
        Cosine(Tokenizer::Word),
        Levenshtein,
        AbsDiff,
        RelDiff,
    ];
    let mut fs = FeatureSet::default();
    for (a_idx, b_idx) in [(0usize, 0usize), (1, 1), (0, 1)] {
        for sim in sims {
            fs.features.push(Feature {
                name: format!("{}({a_idx},{b_idx})", sim.name()),
                a_attr: "x".into(),
                b_attr: "y".into(),
                sim,
                a_idx,
                b_idx,
            });
        }
    }
    fs
}

fn table(name: &str, rows: Vec<(Value, Value)>) -> Table {
    let schema = Schema::new([("x", AttrType::Str), ("y", AttrType::Str)]);
    Table::new(name, schema, rows.into_iter().map(|(x, y)| vec![x, y]))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::str("")),
        "[a-c.!? ]{0,8}".prop_map(Value::str),
        proptest::collection::vec("[a-c]{1,3}", 0..5).prop_map(|v| Value::str(v.join(" "))),
        (-20.0f64..20.0).prop_map(Value::num),
        "[0-9]{1,2}".prop_map(Value::str),
        "[a-bßé ]{0,6}".prop_map(Value::str),
    ]
}

/// Feature indices run two past the set: those read as missing.
fn predicate(n_features: usize) -> impl Strategy<Value = Predicate> {
    let threshold = prop_oneof![Just(0.0), Just(0.5), Just(1.0), -1.0f64..12.0];
    (0..n_features + 2, any::<bool>(), threshold, any::<bool>()).prop_map(
        |(feature, le, threshold, nan_is_high)| Predicate {
            feature,
            op: if le { SplitOp::Le } else { SplitOp::Gt },
            threshold,
            nan_is_high,
        },
    )
}

fn sequence(n_features: usize) -> impl Strategy<Value = RuleSequence> {
    let rule = proptest::collection::vec(predicate(n_features), 0..4)
        .prop_map(|predicates| Rule { predicates });
    proptest::collection::vec(rule, 0..5).prop_map(RuleSequence::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn keeps_equals_the_sequence_on_the_full_vector(
        a_rows in proptest::collection::vec((value(), value()), 1..6),
        b_rows in proptest::collection::vec((value(), value()), 1..6),
        seq in sequence(features().len()),
    ) {
        let (a, b) = (table("a", a_rows), table("b", b_rows));
        let fs = features();
        let evaluator = PairEvaluator::new(&a, &b, &fs, &seq);
        let ctx = SimContext::empty();
        let mut scratch = EvalScratch::default();
        // One id past each table: an unknown id is never kept.
        for aid in 0..=a.len() as TupleId {
            for bid in 0..=b.len() as TupleId {
                let known = (aid as usize) < a.len() && (bid as usize) < b.len();
                let expected = known
                    && seq.keeps(&fs.vector_at(&a, &b, aid, bid, &ctx, &mut ScoreScratch::default()));
                prop_assert_eq!(evaluator.keeps(aid, bid), expected, "{:?} ({}, {})", seq, aid, bid);
                // A scratch carried across pairs must not leak values.
                prop_assert_eq!(
                    evaluator.keeps_scratch(aid, bid, &mut scratch),
                    expected,
                    "{:?} ({}, {}) with a reused scratch", seq, aid, bid
                );
            }
        }
    }
}

#[test]
fn only_the_features_read_before_the_verdict_are_computed() {
    let fs = features();
    let find = |name: &str| {
        fs.features
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no feature {name}"))
    };
    let jac = find("jaccard_word(0,0)");
    let lev = find("levenshtein(1,1)");
    let abs = find("abs_diff(0,0)");
    let pred = |feature, op, threshold| Predicate {
        feature,
        op,
        threshold,
        nan_is_high: fs.get(feature).sim.higher_is_similar(),
    };
    // Rule 1 drops pairs with dissimilar x; rule 2 reads x's jaccard
    // again, then two more features.
    let seq = RuleSequence::new(vec![
        Rule {
            predicates: vec![pred(jac, SplitOp::Le, 0.5)],
        },
        Rule {
            predicates: vec![
                pred(lev, SplitOp::Le, 0.9),
                pred(jac, SplitOp::Le, 0.9),
                pred(abs, SplitOp::Gt, 1.0),
            ],
        },
    ]);
    let row = |x: &str, y: &str| (Value::str(x), Value::str(y));
    let a = table("a", vec![row("red green blue", "alpha")]);
    let b = table(
        "b",
        vec![
            row("one two three", "alpha"),
            row("red green blue", "alpha"),
            row("red green blue", "omega"),
        ],
    );
    let evaluator = PairEvaluator::new(&a, &b, &fs, &seq);
    let mut scratch = EvalScratch::default();
    // Dropped by rule 1, settled by the print bound of two disjoint word
    // sets: nothing was computed.
    assert!(!evaluator.keeps_scratch(0, 0, &mut scratch));
    assert_eq!(evaluator.computed(&scratch), Vec::<usize>::new());
    assert_eq!(scratch.settled, 1);
    // Kept: identical x defeats the bound, so jaccard is computed; rule
    // 2's first predicate fails (identical y), so its other features are
    // never read.
    assert!(evaluator.keeps_scratch(0, 1, &mut scratch));
    assert_eq!(evaluator.computed(&scratch), vec![jac, lev]);
    // Kept through rule 2's second predicate: jaccard is reused, not
    // listed twice, and abs_diff still is not needed.
    assert!(evaluator.keeps_scratch(0, 2, &mut scratch));
    assert_eq!(evaluator.computed(&scratch), vec![jac, lev]);
    assert_eq!(scratch.settled, 1);
}

/// The set measures over one token column share one merge per pair, run
/// when a predicate the print bound cannot settle first reads one of them
/// — never for a pair an earlier predicate already decided, and never for
/// a predicate the bound settles.
#[test]
fn a_token_column_is_merged_once_when_first_read() {
    let fs = features();
    let find = |name: &str| {
        let hit = fs.features.iter().position(|f| f.name == name);
        hit.unwrap_or_else(|| panic!("no feature {name}"))
    };
    let pred = |name: &str, op, threshold| Predicate {
        feature: find(name),
        op,
        threshold,
        nan_is_high: true,
    };
    // Rule 1: different y (a scalar read) drops the pair. Rules 2 and 3
    // read two measures of x's word column; rule 4 its 3-gram column.
    let seq = RuleSequence::new(vec![
        Rule {
            predicates: vec![pred("exact_match(1,1)", SplitOp::Le, 0.5)],
        },
        Rule {
            predicates: vec![pred("jaccard_word(0,0)", SplitOp::Le, 0.2)],
        },
        Rule {
            predicates: vec![pred("cosine_word(0,0)", SplitOp::Le, 0.7)],
        },
        Rule {
            predicates: vec![pred("dice_3gram(0,0)", SplitOp::Le, 0.9)],
        },
    ]);
    let row = |x: &str, y: &str| (Value::str(x), Value::str(y));
    let a = table("a", vec![row("red green blue", "alpha")]);
    let b = table(
        "b",
        vec![
            row("red green blue", "omega"),
            row("one two three", "alpha"),
            row("red green teal", "alpha"),
            row("red green blue", "alpha"),
            row("", "alpha"),
        ],
    );
    let evaluator = PairEvaluator::new(&a, &b, &fs, &seq);
    let mut scratch = EvalScratch::default();
    // (kept, token-column merges, predicates settled by the bound) per B
    // tuple: dropped on the scalar; on the first word measure, which the
    // bound settles (disjoint words); on the second, whose bound (2/3)
    // settles it after the first ran the merge (two shared words, 1/2);
    // kept after reading both columns in full (identical x); x missing,
    // nothing to merge or bound.
    let expected = [
        (false, 0, 0),
        (false, 0, 1),
        (false, 1, 1),
        (true, 2, 0),
        (true, 0, 0),
    ];
    for (bid, (kept, merges, settled)) in expected.into_iter().enumerate() {
        let before = (scratch.score.merges, scratch.settled);
        assert_eq!(
            evaluator.keeps_scratch(0, bid as TupleId, &mut scratch),
            kept,
            "b={bid}"
        );
        assert_eq!(scratch.score.merges - before.0, merges, "b={bid}");
        assert_eq!(scratch.settled - before.1, settled, "b={bid}");
    }
}

/// Ids from a pool in which half the ids share one fingerprint bit, so
/// prints collide inside a set and across sets.
fn colliding_ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0usize..48, 0..24).prop_map(|picks| {
        let same_bit: Vec<u32> = (0u32..)
            .filter(|&id| sets::print_bit(id) == 0)
            .take(24)
            .collect();
        let mut ids: Vec<u32> = picks
            .into_iter()
            .map(|p| same_bit.get(p).copied().unwrap_or(p as u32 * 7))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The print bound never undercounts the intersection, and every set
    /// measure scored at the bound is at least the exact score.
    #[test]
    fn the_print_bound_is_sound(x in colliding_ids(), y in colliding_ids()) {
        let exact = sets::counts_ids(&x, &y);
        let print = |s: &[u32]| (sets::fingerprint(s), s.len());
        let hi = sets::intersection_bound(print(&x), print(&y));
        prop_assert!(hi >= exact.0, "{hi} < {exact:?} for {x:?} {y:?}");
        for sim in [
            SimFunction::Jaccard(Tokenizer::Word),
            SimFunction::Dice(Tokenizer::Word),
            SimFunction::Overlap(Tokenizer::Word),
            SimFunction::Cosine(Tokenizer::Word),
        ] {
            let (bound, value) = (sim.score_counts((hi, x.len(), y.len())), sim.score_counts(exact));
            prop_assert!(bound >= value, "{:?}: {:?} < {:?} for {:?} {:?}", sim, bound, value, x, y);
        }
    }
}

/// Six to fourteen rare words: two such values share almost no word, so
/// the print bound of their word measures sits far below the exact value
/// of a copy.
fn long_value() -> impl Strategy<Value = Value> {
    proptest::collection::vec("[a-z]{4,7}", 6..15).prop_map(|w| Value::str(w.join(" ")))
}

fn wide_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => long_value(),
        1 => Just(Value::Null),
        1 => Just(Value::str("")),
        1 => "[a-c.!? ]{0,8}".prop_map(Value::str),
    ]
}

/// A predicate over a word measure of x, the first attribute pair, at a
/// threshold the bound of two unrelated long values clears.
fn word_predicate(fs: &FeatureSet) -> impl Strategy<Value = Predicate> {
    let words: Vec<usize> = (fs.features.iter().enumerate())
        .filter(|(_, f)| f.a_idx == 0 && f.b_idx == 0)
        .filter(|(_, f)| f.sim.is_set_based() && f.sim.tokenizer() == Some(Tokenizer::Word))
        .map(|(i, _)| i)
        .collect();
    (0..words.len(), any::<bool>(), 0.4f64..0.95, any::<bool>()).prop_map(
        move |(w, le, threshold, nan_is_high)| Predicate {
            feature: words[w],
            op: if le { SplitOp::Le } else { SplitOp::Gt },
            threshold,
            nan_is_high,
        },
    )
}

/// The predicates the definition reads over a set measure for one pair:
/// rules in order, each up to its first false predicate, up to the first
/// rule that fires.
fn set_reads(seq: &RuleSequence, fs: &FeatureSet, fv: &[f64]) -> u64 {
    let mut reads = 0;
    for rule in &seq.rules {
        let mut fires = true;
        for p in &rule.predicates {
            reads += u64::from(
                fs.features
                    .get(p.feature)
                    .is_some_and(|f| f.sim.is_set_based()),
            );
            if !p.eval(fv) {
                fires = false;
                break;
            }
        }
        if fires {
            break;
        }
    }
    reads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Over values long enough for the print bound to settle predicates:
    /// the verdicts are the definition's, and the bound did settle —
    /// fewer merges ran than set predicates were read.
    #[test]
    fn the_print_bound_keeps_the_definition(
        a_rows in proptest::collection::vec((wide_value(), wide_value()), 1..4),
        b_rows in proptest::collection::vec((wide_value(), wide_value()), 1..4),
        heads in (long_value(), long_value(), wide_value()),
        first in word_predicate(&features()),
        rest in sequence(features().len()),
    ) {
        // A's first x, copied as B's first x (similar: the bound cannot
        // settle) beside an unrelated one (it can).
        let (x, fresh, y) = heads;
        let a = table("a", [(x.clone(), y.clone())].into_iter().chain(a_rows).collect());
        let b = table("b", [(x, y.clone()), (fresh, y)].into_iter().chain(b_rows).collect());
        let mut seq = rest;
        seq.rules.insert(0, Rule { predicates: vec![first] });
        let fs = features();
        let evaluator = PairEvaluator::new(&a, &b, &fs, &seq);
        let ctx = SimContext::empty();
        let mut scratch = EvalScratch::default();
        let mut reads = 0;
        for aid in 0..a.len() as TupleId {
            for bid in 0..b.len() as TupleId {
                let fv = fs.vector_at(&a, &b, aid, bid, &ctx, &mut ScoreScratch::default());
                reads += set_reads(&seq, &fs, &fv);
                prop_assert_eq!(
                    evaluator.keeps_scratch(aid, bid, &mut scratch),
                    seq.keeps(&fv),
                    "{:?} ({}, {})", seq, aid, bid
                );
            }
        }
        prop_assert!(scratch.settled > 0, "nothing settled: {:?}", seq);
        prop_assert!(scratch.score.merges < reads, "{} merges, {} reads", scratch.score.merges, reads);
    }
}

/// One scratch serving two evaluators over different tables: each gets
/// its own verdicts, never the other's `A` prints for the same `aid`.
#[test]
fn a_scratch_shared_by_two_evaluators_keeps_each_ones_verdicts() {
    let fs = features();
    let jac = (fs.features.iter())
        .position(|f| f.name == "jaccard_word(0,0)")
        .unwrap_or_else(|| panic!("no jaccard_word(0,0)"));
    let seq = RuleSequence::new(vec![Rule {
        predicates: vec![Predicate {
            feature: jac,
            op: SplitOp::Le,
            threshold: 0.5,
            nan_is_high: true,
        }],
    }]);
    let row = |x: &str| (Value::str(x), Value::str("y"));
    let words = "alpha beta gamma delta";
    // `punct`'s first A tuple has no word token (an empty print); `same`'s
    // equals B's value.
    let punct = PairEvaluator::new(
        &table("a", vec![row("!?!"), row("alpha")]),
        &table("b", vec![row(words)]),
        &fs,
        &seq,
    );
    let same = PairEvaluator::new(
        &table("a", vec![row(words), row("omega")]),
        &table("b", vec![row(words)]),
        &fs,
        &seq,
    );
    assert!(same.keeps(0, 0) && !punct.keeps(0, 0));
    // Each evaluator ends on the `aid` the other starts with.
    let mut scratch = EvalScratch::default();
    for _ in 0..2 {
        for evaluator in [&punct, &same] {
            for aid in [0, 1, 0] {
                assert_eq!(
                    evaluator.keeps_scratch(aid, 0, &mut scratch),
                    evaluator.keeps(aid, 0),
                    "aid {aid}"
                );
            }
        }
    }
}
