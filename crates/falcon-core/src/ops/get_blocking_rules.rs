//! `get_blocking_rules` (Sections 3.2, 4.2): extract candidate blocking
//! rules from a random-forest matcher, deduplicate, compute their
//! coverages on the sample `S` as bitmaps, and rank by coverage.

use crate::fv::FvSet;
use crate::rules::Rule;
use falcon_forest::paths::extract_forest_paths;
use falcon_forest::Forest;
use falcon_index::CandidateBitmap;

/// Candidate rules plus their sample coverage bitmaps.
#[derive(Debug, Clone)]
pub struct RankedRules {
    /// Rules in decreasing coverage order.
    pub rules: Vec<Rule>,
    /// `coverage[i]` = bitmap of sample pairs rule `i` drops.
    pub coverage: Vec<CandidateBitmap>,
}

impl RankedRules {
    /// Selectivity of rule `i` on the sample: fraction of pairs *kept*.
    pub fn selectivity(&self, i: usize) -> f64 {
        let n = self.coverage[i].len();
        if n == 0 {
            return 1.0;
        }
        1.0 - self.coverage[i].ones() as f64 / n as f64
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Rules crowd-evaluated per run (the paper's top `k = 20`).
pub const TOP_K_RULES: usize = 20;

/// Extract, dedupe, rank and truncate to the top `max_rules` (the driver
/// passes [`TOP_K_RULES`]). `higher[f]` flags similarity-oriented features
/// (controls missing-value semantics, see [`crate::rules::Predicate`]).
pub fn get_blocking_rules(
    forest: &Forest,
    sample: &FvSet,
    max_rules: usize,
    higher: &[bool],
) -> RankedRules {
    let mut seen = falcon_textsim::DetSet::new();
    let mut rules: Vec<Rule> = Vec::new();
    for path in extract_forest_paths(forest) {
        let rule = Rule::from_path(&path, higher);
        if rule.predicates.is_empty() {
            continue;
        }
        if seen.insert(rule.canonical_key()) {
            rules.push(rule);
        }
    }
    // Coverage bitmaps on the sample, batched: iterate sample vectors in
    // the outer loop so each vector is brought into cache once and tested
    // against every rule, instead of re-streaming the whole sample per
    // rule.
    let mut bitmaps: Vec<CandidateBitmap> = (rules.iter())
        .map(|_| CandidateBitmap::new(sample.len()))
        .collect();
    for (i, fv) in (0..).zip(&sample.fvs) {
        for (rule, bm) in rules.iter().zip(&mut bitmaps) {
            if rule.fires(fv) {
                bm.insert(i);
            }
        }
    }
    let mut ranked: Vec<(Rule, CandidateBitmap)> = rules
        .into_iter()
        .zip(bitmaps)
        .filter(|(_, bm)| bm.ones() > 0)
        .collect();
    ranked.sort_by_key(|(_, bm)| std::cmp::Reverse(bm.ones()));
    ranked.truncate(max_rules);
    let (rules, coverage) = ranked.into_iter().unzip();
    RankedRules { rules, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_forest::{Dataset, ForestConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample() -> FvSet {
        let mut s = FvSet::default();
        for i in 0..100u32 {
            let sim = i as f64 / 100.0;
            s.pairs.push((i, i));
            s.fvs.push(vec![sim]);
        }
        s
    }

    fn forest() -> Forest {
        let mut d = Dataset::new();
        for i in 0..100 {
            let sim = i as f64 / 100.0;
            d.push(vec![sim], sim > 0.5);
        }
        Forest::train(
            &d,
            &ForestConfig::default(),
            &mut SmallRng::seed_from_u64(3),
        )
    }

    #[test]
    fn extracts_ranked_rules() {
        let r = get_blocking_rules(&forest(), &sample(), 20, &[true]);
        assert!(!r.is_empty());
        // Coverage is non-increasing.
        for w in r.coverage.windows(2) {
            assert!(w[0].ones() >= w[1].ones());
        }
        // Top rule should drop roughly the dissimilar half.
        let top_cov = r.coverage[0].ones();
        assert!((30..=70).contains(&top_cov), "{top_cov}");
    }

    #[test]
    fn dedupes_identical_paths() {
        let r = get_blocking_rules(&forest(), &sample(), 50, &[true]);
        let keys: Vec<_> = r.rules.iter().map(Rule::canonical_key).collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "rule {i} repeats an earlier one");
        }
    }

    /// Two one-split trees whose thresholds agree to six places drop
    /// different pairs, so both rules survive deduplication.
    #[test]
    fn thresholds_equal_to_six_places_are_two_rules() {
        // Rows 0 and 3 split feature 0; each "No" leaf is its left child.
        const L: u32 = Forest::LEAF;
        let forest = Forest {
            arity: 1,
            roots: vec![0, 3],
            feature: vec![0, L, L, 0, L, L],
            threshold: vec![0.5000004, 0.0, 0.0, 0.4999996, 0.0, 0.0],
            left: vec![1, 0, 0, 4, 0, 0],
            right: vec![2, 0, 0, 5, 0, 0],
            leaf_label: vec![false, false, true, false, false, true],
            pos: vec![0; 6],
            neg: vec![0, 1, 1, 0, 1, 1],
            oob_accuracy: None,
        };
        let r = get_blocking_rules(&forest, &sample(), 20, &[true]);
        let mut thresholds: Vec<f64> = r.rules.iter().map(|r| r.predicates[0].threshold).collect();
        thresholds.sort_by(f64::total_cmp);
        assert_eq!(thresholds, [0.4999996, 0.5000004]);
    }

    #[test]
    fn max_rules_respected() {
        let r = get_blocking_rules(&forest(), &sample(), 2, &[true]);
        assert!(r.len() <= 2);
    }

    #[test]
    fn selectivity_consistent_with_coverage() {
        let r = get_blocking_rules(&forest(), &sample(), 20, &[true]);
        for i in 0..r.len() {
            let sel = r.selectivity(i);
            let expect = 1.0 - r.coverage[i].ones() as f64 / 100.0;
            assert!((sel - expect).abs() < 1e-12);
        }
    }
}
