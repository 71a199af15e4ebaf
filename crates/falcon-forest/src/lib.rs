//! Random-forest learner for Falcon.
//!
//! Corleone/Falcon learn a random forest (Breiman 2001) over feature
//! vectors of tuple pairs, use vote disagreement to pick "controversial"
//! pairs for crowd labeling (active learning), and extract root→"No"-leaf
//! paths as candidate blocking rules. This crate provides exactly those
//! capabilities:
//!
//! * [`forest`] — bagged forests of Corleone's shape ([`N_TREES`] trees
//!   of depth at most [`MAX_DEPTH`]) as one node arena (every node of every
//!   tree a row of parallel columns, each tree in preorder) with majority
//!   voting, positive-vote fractions (the active-learning disagreement
//!   signal), allocation-free batch vote counting and out-of-bag
//!   accuracy; training is parallel yet bit-identical at any thread count
//!   (one pre-drawn seed per tree),
//! * [`tree`] — CART-style binary decision trees with Gini impurity and
//!   per-node random feature subsampling, grown straight into arena rows
//!   from a dense-rank compile of the dataset ([`RankMatrix`]; a growing
//!   [`RankedDataset`] carries its compile between trainings),
//! * [`paths`] — extraction of negative paths as conjunctions of threshold
//!   predicates (the raw material of blocking rules),
//! * [`eval`] — precision/recall/F1 and confusion counts.
//!
//! Feature values are `f64` with `NaN` meaning *missing*; missing values
//! always take the left (`<=`) branch so predictions are deterministic.

pub mod eval;
pub mod forest;
pub mod paths;
pub mod tree;

pub use eval::{confusion, f1_score, Confusion};
pub use forest::{default_threads, Forest, ForestConfig, N_TREES};
pub use paths::{NegativePath, PathPredicate, SplitOp};
pub use tree::{RankMatrix, MAX_DEPTH, MIN_SPLIT};

/// A training set: dense feature vectors (NaN = missing) plus boolean
/// match/no-match labels.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// One row of feature values per example.
    pub features: Vec<Vec<f64>>,
    /// One label per example (`true` = match).
    pub labels: Vec<bool>,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one labeled example.
    ///
    /// # Panics
    /// Panics if the arity differs from previously pushed rows.
    pub fn push(&mut self, features: Vec<f64>, label: bool) {
        if let Some(first) = self.features.first() {
            assert_eq!(first.len(), features.len(), "feature arity mismatch");
        }
        self.features.push(features);
        self.labels.push(label);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per example (0 when empty).
    pub fn arity(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Count of positive labels.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|l| **l).count()
    }
}

/// A training set that grows between trainings and keeps its rank compile:
/// active learning adds a batch of labeled rows per round, and
/// [`Forest::train_ranked`] then trains on ranks merged in
/// `O(rows + distinct)` per feature instead of re-sorting every column.
#[derive(Debug, Clone, Default)]
pub struct RankedDataset {
    data: Dataset,
    ranks: RankMatrix,
}

impl RankedDataset {
    /// An empty training set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append labeled rows and merge them into the ranks.
    ///
    /// # Panics
    /// As [`Dataset::push`].
    pub fn extend(&mut self, rows: impl IntoIterator<Item = (Vec<f64>, bool)>) {
        for (features, label) in rows {
            self.data.push(features, label);
        }
        self.ranks.extend(&self.data);
    }

    /// The rows so far.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Their rank compile, equal to [`RankMatrix::compile`] of
    /// [`data`](Self::data).
    pub fn ranks(&self) -> &RankMatrix {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_basics() {
        let mut d = Dataset::new();
        assert!(d.is_empty());
        d.push(vec![1.0, 2.0], true);
        d.push(vec![0.0, 1.0], false);
        assert_eq!(d.len(), 2);
        assert_eq!(d.arity(), 2);
        assert_eq!(d.positives(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_enforced() {
        let mut d = Dataset::new();
        d.push(vec![1.0], true);
        d.push(vec![1.0, 2.0], false);
    }
}
