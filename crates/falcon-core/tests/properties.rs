//! Property-based tests for the core rule machinery: DNF→CNF exactness,
//! simplification soundness, bitmap coverage calculus and timeline
//! masking arithmetic.

use falcon_core::rules::{Predicate, Rule, RuleSequence};
use falcon_core::stage::StageCost;
use falcon_core::timeline::Timeline;
use falcon_forest::SplitOp;
use falcon_index::CandidateBitmap;
use proptest::prelude::*;
use std::time::Duration;

/// `nan_is_high` is a per-*feature* property (it encodes the feature's
/// orientation), so the generator draws one orientation vector per case
/// and every predicate on feature `f` shares `orient[f]`.
fn predicate_strategy(arity: usize) -> impl Strategy<Value = (usize, SplitOp, f64)> {
    (
        0..arity,
        prop_oneof![Just(SplitOp::Le), Just(SplitOp::Gt)],
        0.0f64..1.0,
    )
}

fn orient_strategy(arity: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), arity..=arity)
}

fn build_rule(parts: Vec<(usize, SplitOp, f64)>, orient: &[bool]) -> Rule {
    Rule {
        predicates: parts
            .into_iter()
            .map(|(feature, op, threshold)| Predicate {
                feature,
                op,
                threshold,
                nan_is_high: orient[feature],
            })
            .collect(),
    }
}

fn rule_strategy(arity: usize) -> impl Strategy<Value = Rule> {
    (
        proptest::collection::vec(predicate_strategy(arity), 1..4),
        orient_strategy(arity),
    )
        .prop_map(|(parts, orient)| build_rule(parts, &orient))
}

fn seq_strategy(arity: usize) -> impl Strategy<Value = RuleSequence> {
    (
        proptest::collection::vec(
            proptest::collection::vec(predicate_strategy(arity), 1..4),
            0..4,
        ),
        orient_strategy(arity),
    )
        .prop_map(|(ruleparts, orient)| {
            RuleSequence::new(
                ruleparts
                    .into_iter()
                    .map(|parts| build_rule(parts, &orient))
                    .collect(),
            )
        })
}

/// Feature vectors with occasional NaN (missing) entries.
fn fv_strategy(arity: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![4 => (0.0f64..1.0).boxed(), 1 => Just(f64::NAN).boxed()],
        arity..=arity,
    )
}

const ARITY: usize = 4;

proptest! {
    /// The positive CNF rule is satisfied exactly when the negative rule
    /// sequence keeps the pair — including on missing values.
    #[test]
    fn cnf_is_exact_complement(
        seq in seq_strategy(ARITY),
        fvs in proptest::collection::vec(fv_strategy(ARITY), 1..30),
    ) {
        let cnf = seq.to_cnf();
        for fv in &fvs {
            prop_assert_eq!(seq.keeps(fv), cnf.satisfied(fv), "fv = {:?}", fv);
        }
    }

    /// Predicate simplification never changes rule semantics.
    #[test]
    fn simplification_preserves_semantics(
        rule in rule_strategy(ARITY),
        fvs in proptest::collection::vec(fv_strategy(ARITY), 1..30),
    ) {
        let simplified = rule.simplified();
        for fv in &fvs {
            prop_assert_eq!(rule.fires(fv), simplified.fires(fv), "fv = {:?}", fv);
        }
    }

    /// Complementing a predicate twice is the identity, and a predicate
    /// and its complement never agree.
    #[test]
    fn complement_involution(
        parts in proptest::collection::vec(predicate_strategy(ARITY), 1..2),
        orient in orient_strategy(ARITY),
        fvs in proptest::collection::vec(fv_strategy(ARITY), 1..30),
    ) {
        let p = build_rule(parts, &orient).predicates[0];
        prop_assert_eq!(p.complement().complement(), p);
        for fv in &fvs {
            prop_assert_ne!(p.eval(fv), p.complement().eval(fv), "fv = {:?}", fv);
        }
    }

    /// A rule never fires on a pair whose referenced features are all
    /// missing *in its firing direction*: a fully-NaN vector can only fire
    /// a rule if every predicate's missing-semantics allows it; with
    /// similarity-oriented Le predicates it never does.
    #[test]
    fn missing_never_fires_similarity_le_rules(
        thresholds in proptest::collection::vec(0.0f64..1.0, 1..4),
    ) {
        let rule = Rule {
            predicates: thresholds
                .iter()
                .enumerate()
                .map(|(i, &t)| Predicate {
                    feature: i % ARITY,
                    op: SplitOp::Le,
                    threshold: t,
                    nan_is_high: true,
                })
                .collect(),
        };
        let all_missing = vec![f64::NAN; ARITY];
        prop_assert!(!rule.fires(&all_missing));
    }

    /// Bitmap OR-calculus equals brute-force coverage of a sequence.
    #[test]
    fn bitmap_union_equals_bruteforce(
        seq in seq_strategy(ARITY).prop_filter("nonempty", |s| !s.is_empty()),
        fvs in proptest::collection::vec(fv_strategy(ARITY), 1..60),
    ) {
        // Per-rule bitmaps.
        let mut union = CandidateBitmap::new(fvs.len());
        for rule in &seq.rules {
            let mut bm = CandidateBitmap::new(fvs.len());
            for (i, fv) in (0..).zip(&fvs) {
                if rule.fires(fv) {
                    bm.insert(i);
                }
            }
            let predicted = union.union_ones(&bm);
            union.union_with(&bm);
            prop_assert_eq!(predicted, union.ones());
            prop_assert_eq!(union.ones(), union.to_vec().len());
        }
        // Sequence coverage = OR of rule coverages.
        for (i, fv) in (0..).zip(&fvs) {
            prop_assert_eq!(union.contains(i), !seq.keeps(fv), "i = {}", i);
        }
    }

    /// Timeline arithmetic: total = crowd + unmasked; unmasked <= machine;
    /// masking never increases any of the three.
    #[test]
    fn timeline_arithmetic(ops in proptest::collection::vec((0u8..3, 1u64..1000), 1..40)) {
        let mut t = Timeline::new();
        for (kind, ms) in ops {
            // A machine stage of `ms` ms: a local pass over 1000 records per ms.
            let pass = StageCost::local(ms as usize * 1000);
            match kind {
                0 => t.crowd("c", Duration::from_millis(ms)),
                1 => t.machine("m", pass),
                _ => {
                    t.masked_machine("x", pass);
                }
            }
        }
        prop_assert_eq!(t.total_time(), t.crowd_time() + t.unmasked_machine_time());
        prop_assert!(t.unmasked_machine_time() <= t.machine_time());
        let by_op: Duration = t.by_operator().values().sum();
        prop_assert!(by_op <= t.crowd_time() + t.machine_time());
    }
}
