//! The Difficult Pairs' Locator module of Corleone's EM workflow
//! (Figure 1): find candidate pairs the current matcher has most likely
//! labeled incorrectly, so the next matching iteration can focus its
//! crowd budget on them.
//!
//! Two signals, mirroring Corleone:
//!
//! 1. **Forest disagreement** — pairs where the trees split their votes
//!    are inherently uncertain.
//! 2. **Label-contradiction** — pairs whose *crowd* label (if any)
//!    disagrees with the matcher's prediction are known mistakes and rank
//!    first.

use crate::fv::FvSet;
use falcon_forest::Forest;
use falcon_textsim::DetMap;

/// A located difficult pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DifficultPair {
    /// Index into the candidate [`FvSet`].
    pub index: usize,
    /// Difficulty score in `[0, 1]`: 1.0 = known mistake, otherwise the
    /// (scaled) vote disagreement.
    pub score: f64,
}

/// Locate the `k` most difficult pairs. `known_labels` carries crowd
/// labels collected so far (index → label).
pub fn locate_difficult_pairs(
    forest: &Forest,
    fvs: &FvSet,
    known_labels: &DetMap<usize, bool>,
    k: usize,
) -> Vec<DifficultPair> {
    // One batch vote pass yields both signals: majority predictions for
    // contradiction checks and vote disagreement for unlabeled pairs.
    let flat = forest.flatten();
    let mut votes = Vec::new();
    flat.count_votes_into(fvs.len(), |i| fvs.fvs[i].as_slice(), &mut votes);
    let mut scored: Vec<DifficultPair> = votes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let score = match known_labels.get(&i) {
                Some(&label) if label != flat.predict_from_votes(v) => 1.0,
                Some(_) => 0.0, // confirmed correct: not difficult
                None => flat.disagreement_from_votes(v) * 2.0 * 0.999, // in [0, ~1)
            };
            DifficultPair { index: i, score }
        })
        .collect();
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
    scored.truncate(k);
    scored.retain(|p| p.score > 0.0);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_forest::{Dataset, ForestConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture() -> (Forest, FvSet) {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut data = Dataset::new();
        for i in 0..200 {
            let v = i as f64 / 200.0;
            data.push(vec![v], v > 0.5);
        }
        let forest = Forest::train(&data, &ForestConfig::default(), &mut rng);
        let mut fvs = FvSet::default();
        for i in 0..100u32 {
            fvs.pairs.push((i, i));
            fvs.fvs.push(vec![i as f64 / 100.0]);
        }
        (forest, fvs)
    }

    #[test]
    fn contradicted_labels_rank_first() {
        let (forest, fvs) = fixture();
        // Pair 90 is clearly positive; claim the crowd said "no".
        let mut known = DetMap::new();
        known.insert(90usize, false);
        let out = locate_difficult_pairs(&forest, &fvs, &known, 5);
        assert_eq!(out[0].index, 90);
        assert_eq!(out[0].score, 1.0);
    }

    #[test]
    fn boundary_pairs_are_difficult() {
        let (forest, fvs) = fixture();
        let out = locate_difficult_pairs(&forest, &fvs, &DetMap::new(), 10);
        // Difficult pairs (if any) cluster near the 0.5 boundary.
        for p in &out {
            let v = fvs.fvs[p.index][0];
            assert!(
                (0.3..=0.7).contains(&v),
                "difficult pair at v = {v}, score {}",
                p.score
            );
        }
    }

    #[test]
    fn confirmed_correct_pairs_excluded() {
        let (forest, fvs) = fixture();
        let mut known = DetMap::new();
        // Label the whole boundary correctly: nothing in it is difficult.
        for i in 40..60usize {
            known.insert(i, fvs.fvs[i][0] > 0.5);
        }
        let out = locate_difficult_pairs(&forest, &fvs, &known, 100);
        for p in &out {
            assert!(!known.contains_key(&p.index), "index {}", p.index);
        }
    }

    #[test]
    fn k_respected_and_scores_sorted() {
        let (forest, fvs) = fixture();
        let out = locate_difficult_pairs(&forest, &fvs, &DetMap::new(), 3);
        assert!(out.len() <= 3);
        for w in out.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
