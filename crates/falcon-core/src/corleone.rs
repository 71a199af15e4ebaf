//! The Corleone baseline (Section 3.3): single-machine, in-memory
//! application of blocking rules to the *materialized* Cartesian product.
//!
//! This is the behaviour Falcon exists to replace. A pair budget guards
//! execution the same way the paper's experiments had to kill Corleone on
//! large tables ("had to be stopped after more than a week").

use crate::features::FeatureSet;
use crate::physical::{BlockingError, EvalScratch, PairEvaluator};
use crate::rules::RuleSequence;
use falcon_table::{IdPair, Table};

/// Output of the baseline.
#[derive(Debug)]
pub struct CorleoneBlocking {
    /// Surviving pairs, sorted.
    pub candidates: Vec<IdPair>,
}

/// Apply `seq` to every pair of `A × B` on one thread.
pub fn corleone_blocking(
    a: &Table,
    b: &Table,
    features: &FeatureSet,
    seq: &RuleSequence,
    max_pairs: u128,
) -> Result<CorleoneBlocking, BlockingError> {
    let pairs = a.len() as u128 * b.len() as u128;
    if pairs > max_pairs {
        return Err(BlockingError::TooManyPairs {
            pairs,
            budget: max_pairs,
        });
    }
    let evaluator = PairEvaluator::new(a, b, features, seq);
    let mut candidates = Vec::new();
    let mut scratch = EvalScratch::default();
    for aid in 0..a.len() as u32 {
        for bid in 0..b.len() as u32 {
            if evaluator.keeps_scratch(aid, bid, &mut scratch) {
                candidates.push((aid, bid));
            }
        }
    }
    Ok(CorleoneBlocking { candidates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_features;
    use crate::rules::{Predicate, Rule};
    use falcon_forest::SplitOp;
    use falcon_table::{AttrType, Schema, Value};
    use falcon_textsim::{SimFunction, Tokenizer};

    fn tables() -> (Table, Table) {
        let schema = Schema::new([("t", AttrType::Str)]);
        let rows = |n: usize, tag: &'static str| {
            (0..n).map(move |i| vec![Value::str(format!("{tag} item {i}"))])
        };
        (
            Table::new("a", schema.clone(), rows(10, "alpha")),
            Table::new("b", schema, rows(10, "alpha")),
        )
    }

    #[test]
    fn budget_guard_fires() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let err =
            corleone_blocking(&a, &b, &lib.blocking, &RuleSequence::default(), 10).unwrap_err();
        assert!(matches!(
            err,
            BlockingError::TooManyPairs { pairs: 100, .. }
        ));
    }

    #[test]
    fn applies_rules_exhaustively() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let jac = lib
            .blocking
            .features
            .iter()
            .position(|f| f.sim == SimFunction::Jaccard(Tokenizer::Word))
            .unwrap();
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![Predicate {
                feature: jac,
                op: SplitOp::Le,
                threshold: 0.99,
                nan_is_high: true,
            }],
        }]);
        let out = corleone_blocking(&a, &b, &lib.blocking, &seq, 1_000_000).unwrap();
        // Only identical titles survive jaccard > 0.99.
        assert_eq!(out.candidates.len(), 10);
        for (x, y) in &out.candidates {
            assert_eq!(x, y);
        }
    }
}
