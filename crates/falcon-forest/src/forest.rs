//! Bagged random forests: majority voting, vote fractions for active
//! learning, out-of-bag accuracy.
//!
//! Training compiles the dataset into dense ranks once per call, or takes
//! the ranks a growing [`RankedDataset`] carries ([`Forest::train_ranked`]);
//! both then run one trainer (see [`crate::tree`]). It is parallel **and**
//! deterministic: the master RNG is consumed only to draw one seed per
//! tree, up front, in tree order; each tree then trains from its own
//! `SmallRng` (bagging indices *and* per-node feature shuffles) over the
//! shared read-only ranks, so the trained forest is a pure function of the
//! seed stream and bit-identical at any thread count. Out-of-bag votes are
//! merged in tree order after all workers join, for the same reason.

use crate::flat::FlatForest;
use crate::tree::{RankMatrix, Tree, TreeConfig};
use crate::{Dataset, RankedDataset};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forest training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (Corleone uses a 10-tree forest).
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Bootstrap-sample trees (true = classic bagging).
    pub bagging: bool,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 10,
            tree: TreeConfig::default(),
            bagging: true,
        }
    }
}

/// A trained random forest.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Forest {
    /// The component trees.
    pub trees: Vec<Tree>,
    /// Feature arity.
    pub arity: usize,
    /// Out-of-bag accuracy estimate over the examples that were
    /// out-of-bag for at least one tree; `None` without bagging or when
    /// there is no such example.
    pub oob_accuracy: Option<f64>,
}

/// One trained tree plus its out-of-bag `(example, vote)` predictions.
type FittedTree = (Tree, Vec<(u32, bool)>);

/// Default worker count for parallel training: one per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Forest {
    /// Train a forest in parallel on all available cores. Output is
    /// bit-identical for the same seed at any thread count (see module
    /// docs).
    ///
    /// # Panics
    /// Panics if `data` is empty, `cfg.n_trees == 0`, or a training
    /// worker thread panics.
    pub fn train(data: &Dataset, cfg: &ForestConfig, rng: &mut impl Rng) -> Forest {
        Self::train_threads(data, cfg, rng, default_threads())
    }

    /// Train with an explicit worker count (1 = in-place sequential).
    pub fn train_threads(
        data: &Dataset,
        cfg: &ForestConfig,
        rng: &mut impl Rng,
        threads: usize,
    ) -> Forest {
        Self::fit(data, &RankMatrix::compile(data), cfg, rng, threads)
    }

    /// Train on a growing training set's carried ranks: the forest
    /// [`train_threads`](Self::train_threads) grows on `set.data()`, bit
    /// for bit and RNG draw for RNG draw, without compiling it again.
    ///
    /// # Panics
    /// As [`train`](Self::train).
    pub fn train_ranked(
        set: &RankedDataset,
        cfg: &ForestConfig,
        rng: &mut impl Rng,
        threads: usize,
    ) -> Forest {
        Self::fit(set.data(), set.ranks(), cfg, rng, threads)
    }

    /// The one trainer: `ranked` is the rank compile of `data`.
    fn fit(
        data: &Dataset,
        ranked: &RankMatrix,
        cfg: &ForestConfig,
        rng: &mut impl Rng,
        threads: usize,
    ) -> Forest {
        assert!(!data.is_empty(), "cannot train forest on empty dataset");
        assert!(cfg.n_trees > 0, "need at least one tree");
        assert_eq!(ranked.rows(), data.len(), "ranks compiled from other rows");
        let n = data.len();

        // One seed per tree, drawn up front in tree order: the only master
        // RNG consumption, so the result cannot depend on scheduling.
        let seeds: Vec<u64> = (0..cfg.n_trees).map(|_| rng.next_u64()).collect();

        // Train one tree from its seed; returns the tree plus its
        // out-of-bag predictions as (example, vote) pairs.
        let fit_one = |seed: u64| -> FittedTree {
            let mut trng = SmallRng::seed_from_u64(seed);
            let mut idx: Vec<u32> = if cfg.bagging {
                (0..n).map(|_| trng.gen_range(0..n) as u32).collect()
            } else {
                (0..n as u32).collect()
            };
            let tree = ranked.grow(&data.labels, &mut idx, &cfg.tree, &mut trng);
            let mut oob = Vec::new();
            if cfg.bagging {
                let mut in_bag = vec![false; n];
                for &i in &idx {
                    in_bag[i as usize] = true;
                }
                for (i, _) in in_bag.iter().enumerate().filter(|(_, b)| !**b) {
                    oob.push((i as u32, tree.predict(&data.features[i])));
                }
            }
            (tree, oob)
        };

        let workers = threads.clamp(1, cfg.n_trees);
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

        // Merge OOB votes deterministically in tree order.
        // oob_votes[i] = (positive votes, total votes)
        let mut oob_votes = vec![(0usize, 0usize); n];
        let mut trees = Vec::with_capacity(cfg.n_trees);
        for (tree, oob) in fitted {
            for (i, vote) in oob {
                oob_votes[i as usize].1 += 1;
                if vote {
                    oob_votes[i as usize].0 += 1;
                }
            }
            trees.push(tree);
        }
        let oob_accuracy = if cfg.bagging {
            let scored: Vec<(usize, bool)> = oob_votes
                .iter()
                .enumerate()
                .filter(|(_, (_, total))| *total > 0)
                .map(|(i, (pos, total))| (i, *pos * 2 > *total))
                .collect();
            if scored.is_empty() {
                None
            } else {
                let correct = scored
                    .iter()
                    .filter(|(i, pred)| *pred == data.labels[*i])
                    .count();
                Some(correct as f64 / scored.len() as f64)
            }
        } else {
            None
        };
        Forest {
            trees,
            arity: data.arity(),
            oob_accuracy,
        }
    }

    /// Compile into the flat SoA representation for batch prediction.
    pub fn flatten(&self) -> FlatForest {
        FlatForest::compile(self)
    }

    /// Fraction of trees voting "match" for this feature vector, in
    /// `[0, 1]`.
    pub fn positive_fraction(&self, features: &[f64]) -> f64 {
        let pos = self.trees.iter().filter(|t| t.predict(features)).count();
        pos as f64 / self.trees.len() as f64
    }

    /// Majority-vote prediction.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.positive_fraction(features) > 0.5
    }

    /// Active-learning disagreement: distance of the positive-vote fraction
    /// from a unanimous vote, in `[0, 0.5]`. Pairs with the **highest**
    /// disagreement are the "most controversial" pairs Corleone sends to
    /// the crowd.
    pub fn disagreement(&self, features: &[f64]) -> f64 {
        let p = self.positive_fraction(features);
        0.5 - (p - 0.5).abs()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True iff the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
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
    fn no_bagging_trains_identical_data() {
        let d = noisy_separable(100);
        let cfg = ForestConfig {
            bagging: false,
            n_trees: 3,
            ..Default::default()
        };
        let f = Forest::train(&d, &cfg, &mut rng());
        assert_eq!(f.len(), 3);
        assert!(f.oob_accuracy.is_none());
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
}
