//! `select_opt_seq` (Section 6): choose the rule sequence maximizing
//! `score = α·precision − β·selectivity − γ·time`.
//!
//! All subsets of the retained rules are enumerated (retained sets are
//! small; beyond [`SeqConfig::exact_cap`] rules a greedy forward selection
//! takes over). Within a subset, ordering does not affect precision or
//! selectivity, only run time, and optimal ordering is NP-hard (pipelined
//! set cover) — we use the 4-approximation greedy rule of Babu et al.
//! \[2\]: repeatedly pick the rule maximizing
//! `(1 − sel(prefix ∪ R)/sel(prefix)) / time(R)`.
//!
//! Coverage arithmetic uses the bitmaps maintained by
//! `get_blocking_rules`; for large samples the bitmaps are striped down to
//! a fixed optimizer resolution so subset enumeration stays fast.

use crate::fv::FvSet;
use crate::ops::bitmap::Bitmap;
use crate::ops::eval_rules::EvaluatedRule;
use crate::ops::get_blocking_rules::RankedRules;
use crate::rules::{Rule, RuleSequence};
use serde::{Deserialize, Serialize};

/// Scoring weights and enumeration cap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeqConfig {
    /// Precision weight (`α`).
    pub alpha: f64,
    /// Selectivity weight (`β`) — selectivity is the *kept* fraction, so
    /// smaller candidate sets score higher.
    pub beta: f64,
    /// Run-time weight (`γ`), applied to normalized per-pair time.
    pub gamma: f64,
    /// Exact subset enumeration up to this many rules.
    pub exact_cap: usize,
    /// Bitmap resolution used by the optimizer.
    pub optimizer_bits: usize,
}

impl Default for SeqConfig {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 0.3,
            gamma: 0.05,
            exact_cap: 12,
            optimizer_bits: 16_384,
        }
    }
}

/// The selected sequence plus its estimated properties.
#[derive(Debug, Clone)]
pub struct SeqOutput {
    /// The chosen sequence.
    pub seq: RuleSequence,
    /// Its score.
    pub score: f64,
    /// Precision lower bound (Section 6 formula).
    pub precision: f64,
    /// Estimated selectivity (fraction of pairs kept).
    pub selectivity: f64,
    /// Per-rule selectivities of the chosen rules, in sequence order
    /// (needed by `apply_greedy`'s conjunct choice).
    pub rule_selectivities: Vec<f64>,
}

/// Stripe a bitmap down to `bits` positions (every k-th sample index).
fn stripe(bm: &Bitmap, bits: usize) -> Bitmap {
    if bm.len() <= bits {
        return bm.clone();
    }
    let step = bm.len() as f64 / bits as f64;
    let mut out = Bitmap::zeros(bits);
    for i in 0..bits {
        if bm.get((i as f64 * step) as usize) {
            out.set(i);
        }
    }
    out
}

/// Deterministic per-pair evaluation-cost model for a rule. Wall-clock
/// measurement would make plan selection nondeterministic across runs
/// (identical seeds must give identical plans), so cost is modeled from
/// the rule's structure: each predicate costs one unit, weighted by how
/// expensive its feature's similarity measure is to compute. Units are
/// arbitrary — the optimizer only uses normalized ratios.
fn rule_cost(rule: &Rule) -> f64 {
    // At blocking time a rule's features are computed only for the pairs
    // that reach the rule, and within the rule only until a predicate
    // fails (`PairEvaluator::keeps_scratch`): cost grows with predicate
    // count, later predicates are cheaper on average (the 0.8 decay
    // approximates that short-circuit).
    rule.predicates
        .iter()
        .enumerate()
        .map(|(i, _)| 0.8f64.powi(i as i32))
        .sum::<f64>()
        .max(1e-9)
}

struct Candidate<'a> {
    rule: &'a Rule,
    cov: Bitmap,
    precision: f64,
    time: f64,
}

/// Greedy 4-approx ordering of one subset; returns order plus estimated
/// sequence time per pair.
fn greedy_order(cands: &[&Candidate<'_>], bits: usize) -> (Vec<usize>, f64) {
    let mut remaining: Vec<usize> = (0..cands.len()).collect();
    let mut order = Vec::with_capacity(cands.len());
    let mut covered = Bitmap::zeros(bits);
    let mut seq_time = 0.0;
    let mut reach_prob = 1.0; // probability a pair reaches the next rule
    while !remaining.is_empty() {
        let covered_now = covered.count();
        let sel_prefix = 1.0 - covered_now as f64 / bits.max(1) as f64;
        let mut best: Option<(f64, usize)> = None;
        for (slot, &ci) in remaining.iter().enumerate() {
            let union = covered.union_count(&cands[ci].cov);
            let sel_with = 1.0 - union as f64 / bits.max(1) as f64;
            let gain = if sel_prefix > 0.0 {
                1.0 - sel_with / sel_prefix
            } else {
                0.0
            };
            let rank = gain / cands[ci].time;
            if best.is_none_or(|(r, _)| rank > r) {
                best = Some((rank, slot));
            }
        }
        // `remaining` is non-empty here, so a best slot always exists; the
        // let-else keeps this loop panic-free under the crate's clippy panic denials.
        let Some((_, slot)) = best else { break };
        let ci = remaining.remove(slot);
        seq_time += reach_prob * cands[ci].time;
        covered.or_with(&cands[ci].cov);
        reach_prob = 1.0 - covered.count() as f64 / bits.max(1) as f64;
        order.push(ci);
    }
    (order, seq_time)
}

fn score_subset(
    cands: &[Candidate<'_>],
    subset: &[usize],
    cfg: &SeqConfig,
    bits: usize,
    max_time: f64,
) -> (Vec<usize>, f64, f64, f64) {
    let chosen: Vec<&Candidate> = subset.iter().map(|&i| &cands[i]).collect();
    let (order_local, seq_time) = greedy_order(&chosen, bits);
    let order: Vec<usize> = order_local.iter().map(|&l| subset[l]).collect();
    // Coverage of the union.
    let mut covered = Bitmap::zeros(bits);
    for &i in subset {
        covered.or_with(&cands[i].cov);
    }
    let selectivity = 1.0 - covered.count() as f64 / bits.max(1) as f64;
    // Precision lower bound (Section 6):
    // prec(seq) >= 1 - Σ|cov(R_i)|·(1 − prec(R_i)) / |cov(seq)|.
    let total_cov = covered.count().max(1);
    let bad: f64 = subset
        .iter()
        .map(|&i| cands[i].cov.count() as f64 * (1.0 - cands[i].precision))
        .sum();
    let precision = (1.0 - bad / total_cov as f64).max(0.0);
    let time_norm = if max_time > 0.0 {
        seq_time / max_time
    } else {
        0.0
    };
    let score = cfg.alpha * precision - cfg.beta * selectivity - cfg.gamma * time_norm;
    (order, score, precision, selectivity)
}

/// Run `select_opt_seq` over the retained rules.
pub fn select_opt_seq(
    ranked: &RankedRules,
    retained: &[EvaluatedRule],
    _sample: &FvSet, // reserved for data-driven cost models
    cfg: &SeqConfig,
) -> SeqOutput {
    if retained.is_empty() {
        return SeqOutput {
            seq: RuleSequence::default(),
            score: 0.0,
            precision: 1.0,
            selectivity: 1.0,
            rule_selectivities: Vec::new(),
        };
    }
    let bits = cfg.optimizer_bits.min(ranked.coverage[0].len()).max(1);
    let cands: Vec<Candidate> = retained
        .iter()
        .map(|e| (e, rule_cost(&e.rule)))
        .map(|(e, time)| Candidate {
            rule: &e.rule,
            cov: stripe(&ranked.coverage[e.rank_idx], bits),
            precision: e.precision,
            time,
        })
        .collect();
    let max_time: f64 = cands.iter().map(|c| c.time).sum::<f64>().max(1e-12);

    let n = cands.len();
    let mut best: Option<(Vec<usize>, f64, f64, f64)> = None;
    if n <= cfg.exact_cap {
        for mask in 1u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
            let result = score_subset(&cands, &subset, cfg, bits, max_time);
            if best.as_ref().is_none_or(|b| result.1 > b.1) {
                best = Some(result);
            }
        }
    } else {
        // Greedy forward selection over subsets.
        let mut subset: Vec<usize> = Vec::new();
        let mut current: Option<(Vec<usize>, f64, f64, f64)> = None;
        loop {
            let mut improved = false;
            for i in 0..n {
                if subset.contains(&i) {
                    continue;
                }
                let mut trial = subset.clone();
                trial.push(i);
                let result = score_subset(&cands, &trial, cfg, bits, max_time);
                if current.as_ref().is_none_or(|c| result.1 > c.1) {
                    current = Some(result);
                    subset = trial;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        best = current;
    }

    // `retained` is non-empty, so the exact path scored at least mask 1 and
    // the greedy path scored at least one singleton; fall back to "no
    // blocking" (keep everything) rather than panic if that ever changes.
    let Some((order, score, precision, selectivity)) = best else {
        return SeqOutput {
            seq: RuleSequence::default(),
            score: 0.0,
            precision: 1.0,
            selectivity: 1.0,
            rule_selectivities: Vec::new(),
        };
    };
    let rule_selectivities: Vec<f64> = order
        .iter()
        .map(|&i| 1.0 - cands[i].cov.count() as f64 / bits as f64)
        .collect();
    let seq = RuleSequence::new(order.iter().map(|&i| cands[i].rule.clone()).collect());
    SeqOutput {
        seq,
        score,
        precision,
        selectivity,
        rule_selectivities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fv::FvSet;
    use crate::rules::Predicate;
    use falcon_forest::SplitOp;

    fn sample(n: usize) -> FvSet {
        let mut s = FvSet::default();
        for i in 0..n as u32 {
            s.pairs.push((i, i));
            s.fvs.push(vec![i as f64 / n as f64]);
        }
        s
    }

    fn rule(t: f64) -> Rule {
        Rule {
            predicates: vec![Predicate {
                feature: 0,
                op: SplitOp::Le,
                threshold: t,
                nan_is_high: true,
            }],
        }
    }

    fn setup(thresholds: &[f64], precisions: &[f64]) -> (RankedRules, Vec<EvaluatedRule>) {
        let s = sample(1000);
        let rules: Vec<Rule> = thresholds.iter().map(|&t| rule(t)).collect();
        let coverage = rules
            .iter()
            .map(|r| {
                let mut bm = Bitmap::zeros(s.len());
                for (i, fv) in s.fvs.iter().enumerate() {
                    if r.fires(fv) {
                        bm.set(i);
                    }
                }
                bm
            })
            .collect();
        let ranked = RankedRules {
            rules: rules.clone(),
            coverage,
        };
        let retained = rules
            .into_iter()
            .enumerate()
            .map(|(i, rule)| EvaluatedRule {
                rule,
                rank_idx: i,
                precision: precisions[i],
                epsilon: 0.01,
                iterations: 1,
            })
            .collect();
        (ranked, retained)
    }

    #[test]
    fn prefers_precise_selective_rules() {
        // Rule A drops half with precision 1.0; rule B drops 90% with
        // precision 0.5 (imprecise). The optimizer must not choose B
        // alone over A.
        let (ranked, retained) = setup(&[0.5, 0.9], &[1.0, 0.5]);
        let out = select_opt_seq(&ranked, &retained, &sample(1000), &SeqConfig::default());
        assert!(!out.seq.is_empty());
        // With alpha dominant, the chosen set's precision stays high.
        assert!(out.precision > 0.7, "{}", out.precision);
    }

    #[test]
    fn empty_retained_gives_empty_sequence() {
        let (ranked, _) = setup(&[0.5], &[1.0]);
        let out = select_opt_seq(&ranked, &[], &sample(1000), &SeqConfig::default());
        assert!(out.seq.is_empty());
        assert_eq!(out.selectivity, 1.0);
    }

    #[test]
    fn subset_enumeration_can_pick_multiple_rules() {
        // Two precise rules covering disjoint halves: together they drop
        // more, so both should be selected.
        let (mut ranked, retained) = setup(&[0.4, 0.4], &[1.0, 1.0]);
        // Make rule 1 cover the complement (fires when f > 0.6): rebuild
        // its bitmap manually.
        let mut bm = Bitmap::zeros(1000);
        for i in 600..1000 {
            bm.set(i);
        }
        ranked.coverage[1] = bm;
        let out = select_opt_seq(&ranked, &retained, &sample(1000), &SeqConfig::default());
        assert_eq!(out.seq.len(), 2);
        assert!(out.selectivity < 0.3, "{}", out.selectivity);
    }

    #[test]
    fn greedy_path_used_beyond_cap() {
        let thresholds: Vec<f64> = (0..14).map(|i| 0.1 + i as f64 * 0.05).collect();
        let precisions = vec![1.0; 14];
        let (ranked, retained) = setup(&thresholds, &precisions);
        let cfg = SeqConfig {
            exact_cap: 4,
            ..Default::default()
        };
        let out = select_opt_seq(&ranked, &retained, &sample(1000), &cfg);
        assert!(!out.seq.is_empty());
    }

    #[test]
    fn selectivities_reported_in_order() {
        let (ranked, retained) = setup(&[0.5, 0.2], &[1.0, 1.0]);
        let out = select_opt_seq(&ranked, &retained, &sample(1000), &SeqConfig::default());
        assert_eq!(out.rule_selectivities.len(), out.seq.len());
        for s in &out.rule_selectivities {
            assert!((0.0..=1.0).contains(s));
        }
    }
}
