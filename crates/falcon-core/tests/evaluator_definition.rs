//! `PairEvaluator` against the definition of a rule sequence.
//!
//! The evaluator computes features lazily, in the order predicates read
//! them, and stops at the first rule that fires. Whatever it skips, its
//! answer must be the definition's: compute the *whole* feature vector
//! through the plain string path and ask `RuleSequence::keeps`. The
//! property runs over random dirty tables (Null, empty, punctuation-only,
//! numeric-as-string, non-ASCII) and random sequences (no rules, empty
//! rules, a feature read by several rules, `Le`/`Gt` with either
//! missing-value orientation, feature indices outside the set); a unit
//! test pins the laziness itself.

use falcon_core::features::{Feature, FeatureSet, ScoreScratch};
use falcon_core::physical::{EvalScratch, PairEvaluator};
use falcon_core::rules::{Predicate, Rule, RuleSequence};
use falcon_forest::SplitOp;
use falcon_table::{AttrType, Schema, Table, TupleId, Value};
use falcon_textsim::{SimContext, SimFunction, Tokenizer};
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
    // Dropped by rule 1: only rule 1's feature was computed.
    assert!(!evaluator.keeps_scratch(0, 0, &mut scratch));
    assert_eq!(evaluator.computed(&scratch), vec![jac]);
    // Kept: rule 2's first predicate fails (identical y), so its other
    // features are never read.
    assert!(evaluator.keeps_scratch(0, 1, &mut scratch));
    assert_eq!(evaluator.computed(&scratch), vec![jac, lev]);
    // Kept through rule 2's second predicate: jaccard is reused, not
    // listed twice, and abs_diff still is not needed.
    assert!(evaluator.keeps_scratch(0, 2, &mut scratch));
    assert_eq!(evaluator.computed(&scratch), vec![jac, lev]);
}

/// The set measures over one token column share one merge per pair, run
/// when a predicate first reads one of them — never for a pair an earlier
/// scalar predicate already decided.
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
    // (kept, token-column merges) per B tuple: dropped on the scalar; on
    // the first word measure; on the second, off the same merge; kept
    // after reading both columns; x missing, nothing to merge.
    let expected = [(false, 0), (false, 1), (false, 1), (true, 2), (true, 0)];
    for (bid, (kept, merges)) in expected.into_iter().enumerate() {
        let before = scratch.score.merges;
        assert_eq!(
            evaluator.keeps_scratch(0, bid as TupleId, &mut scratch),
            kept,
            "b={bid}"
        );
        assert_eq!(scratch.score.merges - before, merges, "b={bid}");
    }
}
