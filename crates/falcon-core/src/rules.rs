//! The blocking-rule language: predicates over features, conjunction rules,
//! rule sequences, the DNF→CNF conversion of Section 7.3 and the predicate
//! simplification of its Optimization 3.
//!
//! Rules come from random-forest paths, so predicates are threshold
//! comparisons `feature <= v` / `feature > v`. Missing feature values are
//! treated as *maximally similar* (see [`Predicate`]) so blocking can
//! never drop a pair for lack of data, and `Le`/`Gt` stay exact
//! complements — which is what makes the negative-DNF → positive-CNF
//! rewrite lossless even on dirty data.

use falcon_forest::{NegativePath, SplitOp};
use std::collections::BTreeSet;
use std::fmt;

/// One threshold predicate over a feature (by index into the blocking
/// feature set).
///
/// ## Missing values
///
/// A rule must never drop a pair because a value is *missing* — blocking
/// has to stay recall-safe when data is absent (the matcher sorts such
/// pairs out later). Missing feature values are therefore interpreted as
/// "maximally similar": `+∞` for similarity-oriented features and `-∞`
/// for distance-oriented ones. The `nan_is_high` flag bakes the feature's
/// orientation into the predicate so evaluation stays self-contained and
/// `Le`/`Gt` remain exact complements even on missing data (which keeps
/// the DNF→CNF rewrite of Section 7.3 lossless).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Feature index.
    pub feature: usize,
    /// Comparison operator.
    pub op: SplitOp,
    /// Threshold.
    pub threshold: f64,
    /// True when the feature is similarity-oriented (missing ⇒ `+∞`,
    /// satisfying `Gt`); false for distance features (missing ⇒ `-∞`,
    /// satisfying `Le`).
    pub nan_is_high: bool,
}

impl Predicate {
    /// Evaluate against a feature vector (`NaN` = missing).
    pub fn eval(&self, fv: &[f64]) -> bool {
        self.eval_value(fv.get(self.feature).copied().unwrap_or(f64::NAN))
    }

    /// Evaluate against this predicate's own feature value (`NaN` =
    /// missing).
    pub fn eval_value(&self, v: f64) -> bool {
        if v.is_nan() {
            // Missing = maximally similar: +∞ satisfies Gt only, -∞
            // satisfies Le only.
            return matches!(
                (self.nan_is_high, self.op),
                (true, SplitOp::Gt) | (false, SplitOp::Le)
            );
        }
        self.op.eval(v, self.threshold)
    }

    /// The logical complement (exact, including missing-value semantics).
    pub fn complement(&self) -> Predicate {
        Predicate {
            feature: self.feature,
            op: self.op.complement(),
            threshold: self.threshold,
            nan_is_high: self.nan_is_high,
        }
    }
}

/// A rule's identity ([`Rule::canonical_key`]).
pub type RuleKey = Vec<(usize, SplitOp, u64)>;

/// A blocking rule: a conjunction of predicates that, when all satisfied,
/// *drops* the pair (`p_1 ∧ ... ∧ p_m → drop`, Formula 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The conjunction.
    pub predicates: Vec<Predicate>,
}

impl Rule {
    /// Build from a forest negative path. `higher[f]` tells whether
    /// feature `f` is similarity-oriented (see [`Predicate::nan_is_high`]).
    pub fn from_path(path: &NegativePath, higher: &[bool]) -> Rule {
        Rule {
            predicates: path
                .predicates
                .iter()
                .map(|p| Predicate {
                    feature: p.feature,
                    op: p.op,
                    threshold: p.threshold,
                    nan_is_high: higher.get(p.feature).copied().unwrap_or(true),
                })
                .collect(),
        }
        .simplified()
    }

    /// True iff the rule fires (drops) on this feature vector.
    pub fn fires(&self, fv: &[f64]) -> bool {
        self.predicates.iter().all(|p| p.eval(fv))
    }

    /// Section 7.3 Optimization 3: collapse redundant threshold predicates
    /// on the same feature (`f <= 0.5 AND f <= 0.2` → `f <= 0.2`;
    /// `f > 0.1 AND f > 0.4` → `f > 0.4`).
    pub fn simplified(&self) -> Rule {
        let features: BTreeSet<usize> = self.predicates.iter().map(|p| p.feature).collect();
        let mut out = Vec::new();
        for f in features {
            let mut min_le: Option<f64> = None;
            let mut max_gt: Option<f64> = None;
            let mut nan_is_high = true;
            for p in self.predicates.iter().filter(|p| p.feature == f) {
                nan_is_high = p.nan_is_high;
                match p.op {
                    SplitOp::Le => {
                        min_le = Some(min_le.map_or(p.threshold, |v: f64| v.min(p.threshold)))
                    }
                    SplitOp::Gt => {
                        max_gt = Some(max_gt.map_or(p.threshold, |v: f64| v.max(p.threshold)))
                    }
                }
            }
            if let Some(v) = min_le {
                out.push(Predicate {
                    feature: f,
                    op: SplitOp::Le,
                    threshold: v,
                    nan_is_high,
                });
            }
            if let Some(v) = max_gt {
                out.push(Predicate {
                    feature: f,
                    op: SplitOp::Gt,
                    threshold: v,
                    nan_is_high,
                });
            }
        }
        Rule { predicates: out }
    }

    /// Features referenced by this rule.
    pub fn features(&self) -> BTreeSet<usize> {
        self.predicates.iter().map(|p| p.feature).collect()
    }

    /// The rule's identity, for deduplication across trees: its
    /// `(feature, op, threshold bits)` triples, sorted. Thresholds compare
    /// exactly; two that differ in a bit drop different pairs.
    pub fn canonical_key(&self) -> RuleKey {
        let mut key: RuleKey = (self.predicates.iter())
            .map(|p| (p.feature, p.op, p.threshold.to_bits()))
            .collect();
        key.sort_unstable_by_key(|&(f, op, bits)| (f, op == SplitOp::Gt, bits));
        key
    }
}

impl Rule {
    /// Render with real feature names (e.g.
    /// `jaccard_word(title,title) <= 0.400`) instead of `f{idx}`.
    pub fn display_with(&self, features: &crate::features::FeatureSet) -> String {
        let parts: Vec<String> = self
            .predicates
            .iter()
            .map(|p| {
                let name = features
                    .features
                    .get(p.feature)
                    .map_or_else(|| format!("f{}", p.feature), |f| f.name.clone());
                format!(
                    "{name} {} {:.3}",
                    match p.op {
                        SplitOp::Le => "<=",
                        SplitOp::Gt => ">",
                    },
                    p.threshold
                )
            })
            .collect();
        format!("[{}] -> drop", parts.join(" AND "))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .predicates
            .iter()
            .map(|p| {
                format!(
                    "f{} {} {:.3}",
                    p.feature,
                    match p.op {
                        SplitOp::Le => "<=",
                        SplitOp::Gt => ">",
                    },
                    p.threshold
                )
            })
            .collect();
        write!(f, "[{}] -> drop", parts.join(" AND "))
    }
}

/// An ordered sequence of blocking rules: a pair is dropped as soon as any
/// rule fires; pairs surviving all rules are kept as candidates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSequence {
    /// Rules in execution order.
    pub rules: Vec<Rule>,
}

impl RuleSequence {
    /// Build a sequence.
    pub fn new(rules: Vec<Rule>) -> Self {
        Self { rules }
    }

    /// True iff the pair survives (no rule fires).
    pub fn keeps(&self, fv: &[f64]) -> bool {
        !self.rules.iter().any(|r| r.fires(fv))
    }

    /// All features referenced across the sequence (the only features the
    /// blocking stage must compute per pair — the caching optimization of
    /// Section 7.3).
    pub fn features(&self) -> BTreeSet<usize> {
        self.rules.iter().flat_map(|r| r.features()).collect()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff there are no rules (everything survives).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Render every rule with real feature names, one per line.
    pub fn display_with(&self, features: &crate::features::FeatureSet) -> String {
        self.rules
            .iter()
            .map(|r| r.display_with(features))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Convert to the positive CNF rule `Q` of Section 7.3: one conjunct
    /// per rule, each the disjunction of the rule's complemented
    /// predicates. A pair satisfies `Q` iff it survives the sequence.
    pub fn to_cnf(&self) -> CnfRule {
        CnfRule {
            conjuncts: self
                .rules
                .iter()
                .map(|r| r.predicates.iter().map(Predicate::complement).collect())
                .collect(),
        }
    }
}

/// The positive "keep" rule in conjunctive normal form.
#[derive(Debug, Clone, PartialEq)]
pub struct CnfRule {
    /// Conjuncts; each is a disjunction of predicates.
    pub conjuncts: Vec<Vec<Predicate>>,
}

impl CnfRule {
    /// True iff every conjunct has a satisfied disjunct.
    pub fn satisfied(&self, fv: &[f64]) -> bool {
        self.conjuncts.iter().all(|c| c.iter().any(|p| p.eval(fv)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(feature: usize, t: f64) -> Predicate {
        Predicate {
            feature,
            op: SplitOp::Le,
            threshold: t,
            nan_is_high: true,
        }
    }
    fn gt(feature: usize, t: f64) -> Predicate {
        Predicate {
            feature,
            op: SplitOp::Gt,
            threshold: t,
            nan_is_high: true,
        }
    }

    #[test]
    fn rule_fires_on_conjunction() {
        // Example 5 rule R2: exact_match(year) <= 0.5 AND abs_diff(price) > 10.
        let r = Rule {
            predicates: vec![le(0, 0.5), gt(1, 10.0)],
        };
        assert!(r.fires(&[0.0, 25.0]));
        assert!(!r.fires(&[1.0, 25.0]));
        assert!(!r.fires(&[0.0, 5.0]));
        // Missing values are "maximally similar" (nan_is_high=true here):
        // they fail Le, so the rule cannot fire on missing data.
        assert!(!r.fires(&[f64::NAN, 25.0]));
        assert!(r.fires(&[0.0, f64::NAN])); // NaN satisfies Gt when high
    }

    #[test]
    fn simplification_collapses_thresholds() {
        let r = Rule {
            predicates: vec![le(0, 0.5), le(0, 0.2), gt(1, 0.1), gt(1, 0.4), le(2, 0.9)],
        };
        let s = r.simplified();
        assert_eq!(s.predicates.len(), 3);
        assert!(s.predicates.contains(&le(0, 0.2)));
        assert!(s.predicates.contains(&gt(1, 0.4)));
        assert!(s.predicates.contains(&le(2, 0.9)));
    }

    #[test]
    fn simplification_preserves_semantics() {
        let r = Rule {
            predicates: vec![le(0, 0.5), le(0, 0.2), gt(0, 0.05)],
        };
        let s = r.simplified();
        for v in [-1.0, 0.0, 0.04, 0.05, 0.1, 0.2, 0.21, 0.5, 0.6, f64::NAN] {
            assert_eq!(r.fires(&[v]), s.fires(&[v]), "v={v}");
        }
    }

    #[test]
    fn cnf_equals_sequence_survival() {
        let seq = RuleSequence::new(vec![
            Rule {
                predicates: vec![le(0, 0.6)],
            },
            Rule {
                predicates: vec![le(1, 0.5), gt(2, 10.0)],
            },
        ]);
        let cnf = seq.to_cnf();
        // Exhaustive-ish grid including NaN.
        let vals = [f64::NAN, 0.0, 0.5, 0.55, 0.6, 0.7, 1.0, 5.0, 10.0, 15.0];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let fv = [a, b, c];
                    assert_eq!(seq.keeps(&fv), cnf.satisfied(&fv), "fv = {fv:?}");
                }
            }
        }
    }

    #[test]
    fn empty_sequence_keeps_everything() {
        let seq = RuleSequence::default();
        assert!(seq.keeps(&[0.0]));
        assert!(seq.to_cnf().satisfied(&[0.0]));
    }

    #[test]
    fn canonical_key_ignores_order() {
        let r1 = Rule {
            predicates: vec![le(0, 0.5), gt(1, 2.0)],
        };
        let r2 = Rule {
            predicates: vec![gt(1, 2.0), le(0, 0.5)],
        };
        assert_eq!(r1.canonical_key(), r2.canonical_key());
    }

    #[test]
    fn sequence_features_union() {
        let seq = RuleSequence::new(vec![
            Rule {
                predicates: vec![le(3, 0.1)],
            },
            Rule {
                predicates: vec![le(1, 0.1), gt(3, 0.9)],
            },
        ]);
        let f: Vec<usize> = seq.features().into_iter().collect();
        assert_eq!(f, vec![1, 3]);
    }
}
