//! `eval_rules` (Section 4.2, Proposition 2): crowd-estimate each candidate
//! rule's precision and retain only the precise ones.
//!
//! For each rule `R`, in iterations of `b = 20` examples sampled from
//! `cov(R, S)`, the crowd labels pairs with the strong-majority scheme;
//! the rule's precision is estimated as the fraction labeled *not
//! matched*, with error margin
//! `ε = z · sqrt(P(1-P)/n · (m-n)/(m-1))` (finite-population correction).
//! The rule is retained when `P ≥ P_min` with `ε ≤ ε_max`, dropped when
//! `P + ε < P_min` or (`ε ≤ ε_max` and `P < P_min`), and otherwise another
//! iteration runs — capped at `n_e = 5` iterations per rule in Falcon
//! (Proposition 2 bounds the uncapped loop at 20).

use crate::ops::get_blocking_rules::RankedRules;
use crate::rules::Rule;
use crate::timeline::Timeline;
use falcon_crowd::{Crowd, CrowdSession};
use falcon_table::IdPair;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Examples labeled per iteration (`b`).
pub const EVAL_BATCH: usize = 20;

/// Iteration cap per rule (`n_e`).
pub const MAX_ITERATIONS_PER_RULE: usize = 5;

/// Minimum precision to retain a rule (`P_min`).
pub const P_MIN: f64 = 0.95;

/// Maximum acceptable error margin (`ε_max`).
pub const EPS_MAX: f64 = 0.05;

/// z-value of the confidence level `δ = 0.95`, for every crowd estimate's
/// error margin.
pub const Z_95: f64 = 1.96;

/// One evaluated rule.
#[derive(Debug, Clone)]
pub struct EvaluatedRule {
    /// The rule.
    pub rule: Rule,
    /// Index into the original [`RankedRules`].
    pub rank_idx: usize,
    /// Estimated precision.
    pub precision: f64,
    /// Final error margin.
    pub epsilon: f64,
    /// Crowd iterations used.
    pub iterations: usize,
}

/// Output: the retained rules (precise enough for blocking).
#[derive(Debug, Clone, Default)]
pub struct EvalOutput {
    /// Retained rules with their precision estimates.
    pub retained: Vec<EvaluatedRule>,
    /// Total crowd iterations across rules.
    pub total_iterations: usize,
}

/// The error margin of Proposition 2 / Corleone Section 4.2, at the 95 %
/// confidence level.
pub fn error_margin(p: f64, n: usize, m: usize) -> f64 {
    if n == 0 || m <= 1 {
        return f64::INFINITY;
    }
    let fpc = if m > n {
        (m - n) as f64 / (m - 1) as f64
    } else {
        0.0
    };
    Z_95 * (p * (1.0 - p) / n as f64 * fpc).sqrt()
}

/// Run `eval_rules` over the ranked candidates; `seed` draws each rule's
/// examples. `sample` is the sample's pairs, aligned with the vectors
/// `ranked` was extracted from: a rule's coverage indexes it.
pub fn eval_rules<C: Crowd>(
    session: &mut CrowdSession<C>,
    timeline: &mut Timeline,
    ranked: &RankedRules,
    sample: &[IdPair],
    seed: u64,
) -> EvalOutput {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4556414c);
    let mut out = EvalOutput::default();
    for (rank_idx, rule) in ranked.rules.iter().enumerate() {
        // Cancellation point: this operator is infallible, so a
        // cancelled tenant just stops evaluating further rules; the
        // driver's next cancellation check turns it into a typed error
        // before any partial result is used.
        if timeline.cancel_reason().is_some() {
            break;
        }
        let mut pool = ranked.coverage[rank_idx].to_vec();
        let m = pool.len();
        if m == 0 {
            continue;
        }
        pool.shuffle(&mut rng);
        let mut n = 0usize;
        let mut n_neg = 0usize;
        let mut iterations = 0usize;
        let mut decision: Option<bool> = None; // Some(retain?)
        let mut p = 0.0;
        let mut eps = f64::INFINITY;
        while iterations < MAX_ITERATIONS_PER_RULE && !pool.is_empty() {
            let take = EVAL_BATCH.min(pool.len());
            let pairs: Vec<_> = pool.drain(..take).map(|i| sample[i as usize]).collect();
            let (labels, latency) = session.label_batch_strong(&pairs);
            timeline.crowd("eval_rules", latency);
            iterations += 1;
            n += labels.len();
            n_neg += labels.iter().filter(|(_, l)| !l).count();
            p = n_neg as f64 / n as f64;
            eps = error_margin(p, n, m);
            if p >= P_MIN && eps <= EPS_MAX {
                decision = Some(true);
                break;
            }
            if p + eps < P_MIN || (eps <= EPS_MAX && p < P_MIN) {
                decision = Some(false);
                break;
            }
        }
        // On cap/exhaustion without a verdict, retain iff the point
        // estimate clears the bar (Falcon's pragmatic cap behaviour).
        let retain = decision.unwrap_or(p >= P_MIN);
        out.total_iterations += iterations;
        if retain {
            out.retained.push(EvaluatedRule {
                rule: rule.clone(),
                rank_idx,
                precision: p,
                epsilon: eps,
                iterations,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fv::FvSet;
    use falcon_crowd::sim::{GroundTruth, OracleCrowd};
    use falcon_forest::SplitOp;

    /// The seed the tests draw examples with.
    const SEED: u64 = 23;

    /// Sample where pairs (i,i) with i < 20 are matches; feature 0 is a
    /// perfect similarity signal.
    fn fixture() -> (FvSet, GroundTruth) {
        let mut s = FvSet::default();
        let mut matches = Vec::new();
        for i in 0..200u32 {
            let is_match = i < 20;
            s.pairs.push((i, i));
            s.fvs.push(vec![if is_match { 0.9 } else { 0.1 }]);
            if is_match {
                matches.push((i, i));
            }
        }
        (s, GroundTruth::new(matches))
    }

    fn rule(threshold: f64) -> Rule {
        Rule {
            predicates: vec![crate::rules::Predicate {
                feature: 0,
                op: SplitOp::Le,
                threshold,
                nan_is_high: true,
            }],
        }
    }

    fn ranked_for(sample: &FvSet, rules: Vec<Rule>) -> RankedRules {
        let coverage = rules
            .iter()
            .map(|r| {
                let mut bm = falcon_index::CandidateBitmap::new(sample.len());
                for (i, fv) in (0..).zip(&sample.fvs) {
                    if r.fires(fv) {
                        bm.insert(i);
                    }
                }
                bm
            })
            .collect();
        RankedRules { rules, coverage }
    }

    #[test]
    fn precise_rule_retained() {
        let (sample, truth) = fixture();
        // Drops only non-matches (sim <= 0.5): precision 1.0.
        let ranked = ranked_for(&sample, vec![rule(0.5)]);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = eval_rules(&mut session, &mut tl, &ranked, &sample.pairs, SEED);
        assert_eq!(out.retained.len(), 1);
        assert!(out.retained[0].precision > 0.99);
    }

    #[test]
    fn imprecise_rule_dropped() {
        let (sample, truth) = fixture();
        // Drops everything (sim <= 1.0): precision 180/200 = 0.9 < 0.95.
        let ranked = ranked_for(&sample, vec![rule(1.0)]);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = eval_rules(&mut session, &mut tl, &ranked, &sample.pairs, SEED);
        assert!(out.retained.is_empty());
    }

    #[test]
    fn iteration_cap_respected() {
        let (sample, truth) = fixture();
        let ranked = ranked_for(&sample, vec![rule(0.5), rule(1.0)]);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = eval_rules(&mut session, &mut tl, &ranked, &sample.pairs, SEED);
        assert!(out.total_iterations <= ranked.len() * MAX_ITERATIONS_PER_RULE);
    }

    #[test]
    fn error_margin_shrinks_with_n() {
        let e1 = error_margin(0.9, 20, 1000);
        let e2 = error_margin(0.9, 100, 1000);
        assert!(e2 < e1);
        assert!(error_margin(0.9, 0, 1000).is_infinite());
        // Proposition 2: at n = 384 (and worst-case P = 0.5, huge m),
        // ε ≤ 0.05.
        let e = error_margin(0.5, 384, 10_000_000);
        assert!(e <= 0.0501, "{e}");
    }

    #[test]
    fn empty_coverage_skipped() {
        let (sample, truth) = fixture();
        let ranked = ranked_for(&sample, vec![rule(-1.0)]); // fires never
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = eval_rules(&mut session, &mut tl, &ranked, &sample.pairs, SEED);
        assert!(out.retained.is_empty());
        assert_eq!(out.total_iterations, 0);
    }
}
