//! Bagged random forests: majority voting, vote fractions for active
//! learning, out-of-bag accuracy.
//!
//! A forest is one node arena: every node of every tree is a row of
//! parallel `feature` / `threshold` / `left` / `right` / `leaf_label` /
//! `pos` / `neg` columns, each tree's rows in preorder, so a root-to-leaf
//! walk moves forward through memory. Training grows each tree straight
//! into rows of its own (see [`crate::tree`]) and concatenates them in
//! tree order; prediction, vote counting, out-of-bag votes and path
//! extraction ([`crate::paths`]) all read the same rows, and one walk
//! (`Forest::leaf`) takes a vector from a root to its leaf.
//!
//! A forest has Corleone's shape (Falcon §4.2): [`N_TREES`] trees, each
//! grown on a bootstrap sample of the examples to the limits in
//! [`crate::tree`]. Training compiles the dataset into dense ranks once
//! per call, or takes the ranks a growing [`RankedDataset`] carries
//! ([`Forest::train_ranked`]); both then run one trainer. It is parallel
//! **and** deterministic: the master RNG is consumed only to draw one
//! seed per tree, up front, in tree order; each tree then trains from its
//! own `SmallRng` (bagging indices *and* per-node feature shuffles) over
//! the shared read-only ranks, so the trained forest is a pure function of
//! the seed stream and bit-identical at any thread count. Trees and out-of-bag votes are
//! merged in tree order after all workers join, for the same reason.

use crate::tree::RankMatrix;
use crate::{Dataset, RankedDataset};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Trees per forest: Corleone's 10-tree forest.
pub const N_TREES: usize = 10;

/// The forest's shape has no setting (see the module docs). The type stays
/// for callers that pass [`Forest::train`] its `default()`.
#[derive(Debug, Clone, Default)]
pub struct ForestConfig {}

/// A trained random forest: the node arena of all its trees (see the
/// module docs). Missing feature values (`NaN`, or a vector too short)
/// take the left (`<=`) branch.
///
/// ```
/// use falcon_forest::{Dataset, Forest, ForestConfig};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut data = Dataset::new();
/// for i in 0..100 {
///     let x = i as f64 / 100.0;
///     data.push(vec![x], x > 0.5);
/// }
/// let forest = Forest::train(&data, &ForestConfig::default(), &mut SmallRng::seed_from_u64(1));
/// assert!(forest.predict(&[0.9]));
/// assert!(!forest.predict(&[0.1]));
/// // Vote disagreement drives active learning: boundary points score high.
/// assert!(forest.disagreement(&[0.5]) >= forest.disagreement(&[0.95]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Forest {
    /// Feature arity the forest was trained on.
    pub arity: usize,
    /// Row of each tree's root, in tree order; tree `t`'s rows run from
    /// its root to the next tree's.
    pub roots: Vec<u32>,
    /// Split feature per row, or [`Forest::LEAF`] for a leaf.
    pub feature: Vec<u32>,
    /// Split threshold per row (0 for leaves).
    pub threshold: Vec<f64>,
    /// Row of the `<=` child (0 for leaves).
    pub left: Vec<u32>,
    /// Row of the `>` child (0 for leaves).
    pub right: Vec<u32>,
    /// Predicted label per leaf row (false for split rows).
    pub leaf_label: Vec<bool>,
    /// Positive training examples that reached each leaf row (0 for
    /// split rows).
    pub pos: Vec<u32>,
    /// Negative training examples that reached each leaf row (0 for
    /// split rows).
    pub neg: Vec<u32>,
    /// Out-of-bag accuracy estimate over the examples that were
    /// out-of-bag for at least one tree; `None` when there is no such
    /// example.
    pub oob_accuracy: Option<f64>,
}

/// One trained tree plus its out-of-bag `(example, vote)` predictions.
type FittedTree = (Forest, Vec<(u32, bool)>);

/// Default worker count for parallel training: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Forest {
    /// The [`feature`](Self::feature) of a leaf row.
    pub const LEAF: u32 = u32::MAX;

    /// Train a forest in parallel on all available cores. Output is
    /// bit-identical for the same seed at any thread count (see module
    /// docs).
    ///
    /// # Panics
    /// Panics if `data` is empty or a training worker thread panics.
    pub fn train(data: &Dataset, _: &ForestConfig, rng: &mut impl Rng) -> Forest {
        Self::train_threads(data, rng, default_threads())
    }

    /// Train with an explicit worker count (1 = in-place sequential).
    pub fn train_threads(data: &Dataset, rng: &mut impl Rng, threads: usize) -> Forest {
        Self::fit(data, &RankMatrix::compile(data), rng, threads)
    }

    /// Train on a growing training set's carried ranks: the forest
    /// [`train_threads`](Self::train_threads) grows on `set.data()`, bit
    /// for bit and RNG draw for RNG draw, without compiling it again.
    ///
    /// # Panics
    /// As [`train`](Self::train).
    pub fn train_ranked(set: &RankedDataset, rng: &mut impl Rng, threads: usize) -> Forest {
        Self::fit(set.data(), set.ranks(), rng, threads)
    }

    /// Grow one tree on (a bootstrap view of) `data`, using the example
    /// indices in `idx` (a multiset: repeats count as often as they
    /// occur): a one-tree forest without an out-of-bag estimate.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn train_on(data: &Dataset, idx: &[usize], rng: &mut impl Rng) -> Forest {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let mut idx: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
        RankMatrix::compile(data).grow(&data.labels, &mut idx, rng)
    }

    /// The one trainer: `ranked` is the rank compile of `data`.
    fn fit(data: &Dataset, ranked: &RankMatrix, rng: &mut impl Rng, threads: usize) -> Forest {
        assert!(!data.is_empty(), "cannot train forest on empty dataset");
        assert_eq!(ranked.rows(), data.len(), "ranks compiled from other rows");
        let n = data.len();

        // One seed per tree, drawn up front in tree order: the only master
        // RNG consumption, so the result cannot depend on scheduling.
        let seeds: Vec<u64> = (0..N_TREES).map(|_| rng.next_u64()).collect();

        // Train one tree from its seed on a bootstrap sample; returns the
        // tree plus its out-of-bag predictions as (example, vote) pairs.
        let fit_one = |seed: u64| -> FittedTree {
            let mut trng = SmallRng::seed_from_u64(seed);
            let mut idx: Vec<u32> = (0..n).map(|_| trng.gen_range(0..n) as u32).collect();
            let tree = ranked.grow(&data.labels, &mut idx, &mut trng);
            let mut in_bag = vec![false; n];
            for &i in &idx {
                in_bag[i as usize] = true;
            }
            let oob = (0..n)
                .filter(|&i| !in_bag[i])
                .map(|i| (i as u32, tree.predict(&data.features[i])))
                .collect();
            (tree, oob)
        };

        let workers = threads.clamp(1, N_TREES);
        let fitted: Vec<FittedTree> = if workers == 1 {
            seeds.iter().map(|&s| fit_one(s)).collect()
        } else {
            // Work-stealing over per-tree slots; slot order (not completion
            // order) determines merge order below.
            let slots: Vec<parking_lot::Mutex<Option<FittedTree>>> = seeds
                .iter()
                .map(|_| parking_lot::Mutex::new(None))
                .collect();
            let next = AtomicUsize::new(0);
            let scope_ok = crossbeam::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|_| loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&seed) = seeds.get(t) else { break };
                        *slots[t].lock() = Some(fit_one(seed));
                    });
                }
            });
            assert!(scope_ok.is_ok(), "forest training worker panicked");
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("all tree slots filled"))
                .collect()
        };

        // Merge trees and OOB votes deterministically in tree order.
        // oob_votes[i] = (positive votes, total votes)
        let mut oob_votes = vec![(0usize, 0usize); n];
        let mut forest = Forest {
            arity: data.arity(),
            ..Forest::default()
        };
        for (tree, oob) in fitted {
            for (i, vote) in oob {
                oob_votes[i as usize].1 += 1;
                if vote {
                    oob_votes[i as usize].0 += 1;
                }
            }
            forest.append(tree);
        }
        let scored: Vec<(usize, bool)> = oob_votes
            .iter()
            .enumerate()
            .filter(|(_, (_, total))| *total > 0)
            .map(|(i, (pos, total))| (i, *pos * 2 > *total))
            .collect();
        if !scored.is_empty() {
            let correct = scored
                .iter()
                .filter(|(i, pred)| *pred == data.labels[*i])
                .count();
            forest.oob_accuracy = Some(correct as f64 / scored.len() as f64);
        }
        forest
    }

    /// Append a row; split rows get their children afterwards.
    pub(crate) fn push_row(
        &mut self,
        feature: u32,
        threshold: f64,
        leaf_label: bool,
        pos: usize,
        neg: usize,
    ) -> u32 {
        let row = self.feature.len() as u32;
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        self.leaf_label.push(leaf_label);
        self.pos.push(pos as u32);
        self.neg.push(neg as u32);
        row
    }

    /// Append `other`'s trees after this forest's, shifting its row
    /// indices past the rows already here.
    fn append(&mut self, other: Forest) {
        let shift = self.feature.len() as u32;
        let shifted = |(&f, &child): (&u32, &u32)| {
            if f == Self::LEAF {
                child
            } else {
                child + shift
            }
        };
        self.roots.extend(other.roots.iter().map(|r| r + shift));
        self.left
            .extend(other.feature.iter().zip(&other.left).map(shifted));
        self.right
            .extend(other.feature.iter().zip(&other.right).map(shifted));
        self.feature.extend(other.feature);
        self.threshold.extend(other.threshold);
        self.leaf_label.extend(other.leaf_label);
        self.pos.extend(other.pos);
        self.neg.extend(other.neg);
    }

    /// The forest itself: the end-to-end benchmark's layer probes
    /// (`benchmark/src/layers.rs`) still call it.
    pub fn flatten(self) -> Self {
        self
    }

    /// The one walk: the leaf row `fv` reaches from the tree rooted at
    /// row `root`. A `NaN` or absent value fails `v > threshold` and
    /// takes the left branch.
    #[inline]
    fn leaf(&self, root: u32, fv: &[f64]) -> usize {
        let mut i = root as usize;
        loop {
            let f = self.feature[i];
            if f == Self::LEAF {
                return i;
            }
            let v = fv.get(f as usize).copied().unwrap_or(f64::NAN);
            i = if v > self.threshold[i] {
                self.right[i] as usize
            } else {
                self.left[i] as usize
            };
        }
    }

    /// Number of trees voting "match" for `fv`.
    fn votes(&self, fv: &[f64]) -> u32 {
        self.roots
            .iter()
            .filter(|&&root| self.leaf_label[self.leaf(root, fv)])
            .count() as u32
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
        votes.extend((0..n).map(|j| self.votes(fv(j))));
    }

    /// Positive-vote fraction, in `[0, 1]`, from a raw vote count.
    #[inline]
    pub fn fraction_from_votes(&self, votes: u32) -> f64 {
        votes as f64 / self.roots.len() as f64
    }

    /// Majority-vote prediction from a raw vote count.
    #[inline]
    pub fn predict_from_votes(&self, votes: u32) -> bool {
        self.fraction_from_votes(votes) > 0.5
    }

    /// Active-learning disagreement from a raw vote count: distance of
    /// the positive-vote fraction from a unanimous vote, in `[0, 0.5]`.
    /// Pairs with the **highest** disagreement are the "most
    /// controversial" pairs Corleone sends to the crowd.
    #[inline]
    pub fn disagreement_from_votes(&self, votes: u32) -> f64 {
        let p = self.fraction_from_votes(votes);
        0.5 - (p - 0.5).abs()
    }

    /// Fraction of trees voting "match" for this feature vector.
    pub fn positive_fraction(&self, fv: &[f64]) -> f64 {
        self.fraction_from_votes(self.votes(fv))
    }

    /// Majority-vote prediction.
    pub fn predict(&self, fv: &[f64]) -> bool {
        self.predict_from_votes(self.votes(fv))
    }

    /// Vote disagreement for this feature vector (see
    /// [`disagreement_from_votes`](Self::disagreement_from_votes)).
    pub fn disagreement(&self, fv: &[f64]) -> f64 {
        self.disagreement_from_votes(self.votes(fv))
    }

    /// Majority-vote predictions for a batch of feature vectors.
    pub fn predict_batch(&self, fvs: &[Vec<f64>]) -> Vec<bool> {
        let mut votes = Vec::new();
        self.count_votes_into(fvs.len(), |j| fvs[j].as_slice(), &mut votes);
        votes.iter().map(|&v| self.predict_from_votes(v)).collect()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True iff the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    fn noisy_separable(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            let x = i as f64 / n as f64;
            let y = (i * 7 % 13) as f64 / 13.0;
            d.push(vec![x, y], x + 0.1 * y > 0.55);
        }
        d
    }

    #[test]
    fn forest_learns() {
        let d = noisy_separable(200);
        let f = Forest::train(&d, &ForestConfig::default(), &mut rng());
        let correct = d
            .features
            .iter()
            .zip(&d.labels)
            .filter(|(x, l)| f.predict(x) == **l)
            .count();
        assert!(correct as f64 / d.len() as f64 > 0.95, "{correct}/200");
    }

    #[test]
    fn oob_accuracy_reported() {
        let d = noisy_separable(200);
        let f = Forest::train(&d, &ForestConfig::default(), &mut rng());
        let oob = f.oob_accuracy.expect("bagging produces OOB");
        assert!(oob > 0.8, "{oob}");
    }

    #[test]
    fn disagreement_range_and_extremes() {
        let d = noisy_separable(100);
        let f = Forest::train(&d, &ForestConfig::default(), &mut rng());
        for x in &d.features {
            let dis = f.disagreement(x);
            assert!((0.0..=0.5).contains(&dis));
        }
        // A clearly-positive point should have near-zero disagreement.
        assert!(f.disagreement(&[1.0, 1.0]) < 0.2);
    }

    #[test]
    fn forest_has_ten_bagged_trees() {
        let d = noisy_separable(100);
        let f = Forest::train(&d, &ForestConfig::default(), &mut rng());
        assert_eq!(f.len(), N_TREES);
        assert!(f.oob_accuracy.is_some(), "bagging leaves examples out");
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![i as f64], true);
        }
        let f = Forest::train(&d, &ForestConfig::default(), &mut rng());
        assert!(f.predict(&[3.0]));
        assert_eq!(f.positive_fraction(&[3.0]), 1.0);
    }

    /// Three trees as rows, the Figure 2.a shape among them:
    ///
    /// ```text
    /// tree 0  row 0: f0 <= 0.5 ? row 1 (No) : row 2 (Yes)
    /// tree 1  row 3: f1 <= 0.25 ? row 4 (Yes) : row 5
    ///         row 5: f0 <= 0.8 ? row 6 (No) : row 7 (Yes)
    /// tree 2  row 8: Yes
    /// ```
    fn three_trees() -> Forest {
        const L: u32 = Forest::LEAF;
        Forest {
            arity: 2,
            roots: vec![0, 3, 8],
            feature: vec![0, L, L, 1, L, 0, L, L, L],
            threshold: vec![0.5, 0.0, 0.0, 0.25, 0.0, 0.8, 0.0, 0.0, 0.0],
            left: vec![1, 0, 0, 4, 0, 6, 0, 0, 0],
            right: vec![2, 0, 0, 5, 0, 7, 0, 0, 0],
            leaf_label: vec![false, false, true, false, true, false, false, true, true],
            pos: vec![0, 0, 4, 0, 3, 0, 0, 2, 5],
            neg: vec![0, 6, 0, 0, 1, 0, 3, 0, 0],
            oob_accuracy: None,
        }
    }

    /// Vectors of the wrong length and with missing values, against leaves
    /// written out by hand: a missing value (`NaN` or past the end) routes
    /// left, extra values are ignored.
    const HAND_CASES: [(&[f64], [usize; 3]); 7] = [
        (&[], [1, 4, 8]),
        (&[f64::NAN, f64::NAN], [1, 4, 8]),
        (&[0.9], [2, 4, 8]),
        (&[0.9, 0.3, 7.0, -7.0], [2, 7, 8]),
        (&[0.6, 0.3], [2, 6, 8]),
        (&[0.1, 0.9], [1, 6, 8]),
        (&[0.5, f64::NAN], [1, 4, 8]),
    ];

    #[test]
    fn arity_mismatch_and_nan_route_left() {
        let f = three_trees();
        for (j, (fv, leaves)) in HAND_CASES.iter().enumerate() {
            let reached: Vec<usize> = f.roots.iter().map(|&r| f.leaf(r, fv)).collect();
            assert_eq!(reached, leaves, "case {j}");
            let yes = leaves.iter().filter(|&&l| f.leaf_label[l]).count();
            assert_eq!(f.votes(fv) as usize, yes, "case {j}");
            assert_eq!(f.predict(fv), yes >= 2, "case {j}");
            assert_eq!(
                f.positive_fraction(fv).to_bits(),
                (yes as f64 / 3.0).to_bits()
            );
        }
    }

    /// The batch predictors (`predict_batch`, `count_votes_into` and the
    /// `*_from_votes` readers) agree bit for bit with the one-vector ones, on
    /// the hand-built forest and on a trained one.
    #[test]
    fn batch_matches_single() {
        let d = noisy_separable(120);
        let trained = Forest::train(&d, &ForestConfig::default(), &mut rng());
        let hand: Vec<Vec<f64>> = HAND_CASES.iter().map(|(fv, _)| fv.to_vec()).collect();
        for (f, fvs) in [(three_trees(), &hand), (trained, &d.features)] {
            let mut votes = Vec::new();
            f.count_votes_into(fvs.len(), |j| fvs[j].as_slice(), &mut votes);
            let batch = f.predict_batch(fvs);
            for (j, fv) in fvs.iter().enumerate() {
                assert_eq!(votes[j], f.votes(fv), "case {j}");
                assert_eq!(batch[j], f.predict(fv), "case {j}");
                assert_eq!(f.predict_from_votes(votes[j]), f.predict(fv), "case {j}");
                assert_eq!(
                    f.positive_fraction(fv).to_bits(),
                    f.fraction_from_votes(votes[j]).to_bits()
                );
                assert_eq!(
                    f.disagreement(fv).to_bits(),
                    f.disagreement_from_votes(votes[j]).to_bits()
                );
            }
        }
    }
}
