//! Flattened forest representation for batch prediction.
//!
//! [`FlatForest`] compiles a trained [`Forest`] of boxed [`Node`] trees
//! into one struct-of-arrays arena: every node of every tree becomes a row
//! in parallel `feature` / `threshold` / `left` / `right` / `leaf_label`
//! vectors, laid out in preorder so a root-to-leaf walk moves forward
//! through memory. The batch kernels ([`FlatForest::predict_batch`],
//! [`FlatForest::disagreement_batch`], [`FlatForest::count_votes_into`])
//! walk all trees over a slice of feature vectors with zero per-vector
//! allocation, accumulating integer vote counts and deriving fractions
//! with exactly the same arithmetic as [`Forest::positive_fraction`] /
//! [`Forest::disagreement`] — so flat results are bit-identical to the
//! `Node`-walking path (property-tested in `tests/flat_equivalence.rs`).

use crate::forest::Forest;
use crate::tree::Node;
use serde::{Deserialize, Serialize};

/// Sentinel in [`FlatForest::feature`] marking a leaf row.
pub const FLAT_LEAF: u32 = u32::MAX;

/// A [`Forest`] compiled into struct-of-arrays node rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatForest {
    /// Feature arity the source forest was trained on.
    pub arity: usize,
    /// Number of trees.
    pub n_trees: usize,
    /// Arena index of each tree's root, in tree order.
    pub roots: Vec<u32>,
    /// Split feature per node, or [`FLAT_LEAF`] for leaves.
    pub feature: Vec<u32>,
    /// Split threshold per node (unused for leaves).
    pub threshold: Vec<f64>,
    /// Arena index of the `<=` child (unused for leaves).
    pub left: Vec<u32>,
    /// Arena index of the `>` child (unused for leaves).
    pub right: Vec<u32>,
    /// Predicted label for leaf rows (false for split rows).
    pub leaf_label: Vec<bool>,
}

impl FlatForest {
    /// Compile a trained forest. Nodes are appended in preorder per tree,
    /// trees in forest order.
    pub fn compile(forest: &Forest) -> FlatForest {
        let mut flat = FlatForest {
            arity: forest.arity,
            n_trees: forest.trees.len(),
            roots: Vec::with_capacity(forest.trees.len()),
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_label: Vec::new(),
        };
        for tree in &forest.trees {
            let root = flat.push_subtree(&tree.root);
            flat.roots.push(root);
        }
        flat
    }

    fn push_row(&mut self, feature: u32, threshold: f64, label: bool) -> u32 {
        let id = self.feature.len() as u32;
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        self.leaf_label.push(label);
        id
    }

    fn push_subtree(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf { label, .. } => self.push_row(FLAT_LEAF, 0.0, *label),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let id = self.push_row(*feature as u32, *threshold, false);
                let l = self.push_subtree(left);
                let r = self.push_subtree(right);
                self.left[id as usize] = l;
                self.right[id as usize] = r;
                id
            }
        }
    }

    /// Total node rows across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Walk one tree for one feature vector; returns the leaf label.
    #[inline]
    fn walk(&self, root: u32, fv: &[f64]) -> bool {
        let mut i = root as usize;
        loop {
            let f = self.feature[i];
            if f == FLAT_LEAF {
                return self.leaf_label[i];
            }
            let v = fv.get(f as usize).copied().unwrap_or(f64::NAN);
            // NaN fails `v > threshold`, taking the left branch — same
            // missing-value rule as `Tree::predict`.
            i = if v > self.threshold[i] {
                self.right[i] as usize
            } else {
                self.left[i] as usize
            };
        }
    }

    /// Positive-vote counts for `n` feature vectors, written to `votes`
    /// (cleared here, so callers can reuse one buffer across batches).
    /// `fv(j)` yields the j-th vector; vectors iterate in the outer loop,
    /// so each is read once and walked down every tree while it is hot
    /// (the arena of a whole forest is small enough to stay in cache).
    pub fn count_votes_into<'a, F>(&self, n: usize, fv: F, votes: &mut Vec<u32>)
    where
        F: Fn(usize) -> &'a [f64],
    {
        votes.clear();
        votes.extend((0..n).map(|j| {
            let fv = fv(j);
            self.roots
                .iter()
                .filter(|&&root| self.walk(root, fv))
                .count() as u32
        }));
    }

    /// Positive-vote fraction from a raw vote count, identical arithmetic
    /// to [`Forest::positive_fraction`].
    #[inline]
    pub fn fraction_from_votes(&self, votes: u32) -> f64 {
        votes as f64 / self.n_trees as f64
    }

    /// Majority-vote prediction from a raw vote count.
    #[inline]
    pub fn predict_from_votes(&self, votes: u32) -> bool {
        self.fraction_from_votes(votes) > 0.5
    }

    /// Disagreement score from a raw vote count, identical arithmetic to
    /// [`Forest::disagreement`].
    #[inline]
    pub fn disagreement_from_votes(&self, votes: u32) -> f64 {
        let p = self.fraction_from_votes(votes);
        0.5 - (p - 0.5).abs()
    }

    /// Positive-vote fraction for one feature vector.
    pub fn positive_fraction(&self, fv: &[f64]) -> f64 {
        let votes = self.roots.iter().filter(|&&r| self.walk(r, fv)).count();
        self.fraction_from_votes(votes as u32)
    }

    /// Majority-vote prediction for one feature vector.
    pub fn predict(&self, fv: &[f64]) -> bool {
        self.positive_fraction(fv) > 0.5
    }

    /// Disagreement score for one feature vector.
    pub fn disagreement(&self, fv: &[f64]) -> f64 {
        let p = self.positive_fraction(fv);
        0.5 - (p - 0.5).abs()
    }

    /// Majority-vote predictions for a batch of feature vectors.
    pub fn predict_batch(&self, fvs: &[Vec<f64>]) -> Vec<bool> {
        let mut votes = Vec::new();
        self.count_votes_into(fvs.len(), |j| fvs[j].as_slice(), &mut votes);
        votes.iter().map(|&v| self.predict_from_votes(v)).collect()
    }

    /// Disagreement scores for a batch of feature vectors.
    pub fn disagreement_batch(&self, fvs: &[Vec<f64>]) -> Vec<f64> {
        let mut votes = Vec::new();
        self.count_votes_into(fvs.len(), |j| fvs[j].as_slice(), &mut votes);
        votes
            .iter()
            .map(|&v| self.disagreement_from_votes(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::forest::ForestConfig;
    use crate::tree::Tree;
    use crate::{Dataset, Forest};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trained() -> (Dataset, Forest) {
        let mut d = Dataset::new();
        for i in 0..120 {
            let x = i as f64 / 120.0;
            let y = (i * 11 % 17) as f64 / 17.0;
            d.push(vec![x, y], x + 0.2 * y > 0.6);
        }
        let f = Forest::train(
            &d,
            &ForestConfig::default(),
            &mut SmallRng::seed_from_u64(3),
        );
        (d, f)
    }

    #[test]
    fn compile_preserves_node_count() {
        let (_, f) = trained();
        let flat = f.flatten();
        let total: usize = f.trees.iter().map(Tree::size).sum();
        assert_eq!(flat.n_nodes(), total);
        assert_eq!(flat.roots.len(), f.trees.len());
    }

    #[test]
    fn flat_matches_node_walk() {
        let (d, f) = trained();
        let flat = f.flatten();
        for fv in &d.features {
            assert_eq!(flat.predict(fv), f.predict(fv));
            assert_eq!(
                flat.positive_fraction(fv).to_bits(),
                f.positive_fraction(fv).to_bits()
            );
            assert_eq!(
                flat.disagreement(fv).to_bits(),
                f.disagreement(fv).to_bits()
            );
        }
    }

    #[test]
    fn batch_matches_single() {
        let (d, f) = trained();
        let flat = f.flatten();
        let preds = flat.predict_batch(&d.features);
        let dis = flat.disagreement_batch(&d.features);
        for (j, fv) in d.features.iter().enumerate() {
            assert_eq!(preds[j], f.predict(fv));
            assert_eq!(dis[j].to_bits(), f.disagreement(fv).to_bits());
        }
    }

    #[test]
    fn arity_mismatch_and_nan_route_left() {
        let (_, f) = trained();
        let flat = f.flatten();
        // Short vector: missing features read as NaN, same as Node path.
        assert_eq!(flat.predict(&[0.3]), f.predict(&[0.3]));
        assert_eq!(flat.predict(&[]), f.predict(&[]));
        let nan = [f64::NAN, f64::NAN];
        assert_eq!(flat.predict(&nan), f.predict(&nan));
    }
}
