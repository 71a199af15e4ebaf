//! CART-style binary decision trees with Gini impurity.
//!
//! Training is *rank-compiled*: a [`RankMatrix`] turns the `f64` feature
//! columns into dense `u32` ranks — once per training call, or carried
//! and extended between trainings by a growing [`crate::RankedDataset`] —
//! and a node sweeps the runs of equal rank of each candidate feature
//! with running class counts. The runs come from one of two sources, by
//! the node's size `n` against the feature's distinct-value count `d`: a
//! dense node (`8·n ≥ d`) counts its examples per key `rank << 1 | label`
//! into a histogram and walks the non-empty ranks in order; a sparse one
//! sorts those keys. Both yield the same `(rank, pos, neg)` runs in the
//! same order, and the sweep reads nothing else, so both pick the same
//! split. The tree grown is, bit for bit and RNG draw for RNG draw, the
//! one the textbook procedure grows — recount both sides at the midpoint
//! of every two adjacent distinct values — which lives as test code in
//! `tests/train_definition.rs`, with generators that put every node on
//! one source or the other and a growing set whose carried ranks must
//! equal a fresh compile.

use crate::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;

/// Training configuration for a single tree.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum examples required to attempt a split.
    pub min_split: usize,
    /// Number of random features considered per node; `None` means
    /// `ceil(sqrt(arity))` (the random-forest default).
    pub features_per_node: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 10,
            min_split: 2,
            features_per_node: None,
        }
    }
}

/// A tree node. Missing feature values (`NaN`) take the left branch.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node predicting `label`; `pos`/`neg` are training counts.
    Leaf {
        /// Predicted label.
        label: bool,
        /// Positive training examples that reached this leaf.
        pos: usize,
        /// Negative training examples that reached this leaf.
        neg: usize,
    },
    /// Internal split on `feature <= threshold` (left) vs `> threshold`
    /// (right).
    Split {
        /// Feature index.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `value <= threshold` (and missing values).
        left: Box<Node>,
        /// Subtree for `value > threshold`.
        right: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    /// Root node.
    pub root: Node,
    /// Feature arity the tree was trained on.
    pub arity: usize,
}

impl Tree {
    /// Train a tree on (a bootstrap view of) `data`, using the example
    /// indices in `idx` (a multiset: repeats count as often as they occur).
    pub fn train_on(data: &Dataset, idx: &[usize], cfg: &TreeConfig, rng: &mut impl Rng) -> Tree {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let mut idx: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
        RankMatrix::compile(data).grow(&data.labels, &mut idx, cfg, rng)
    }

    /// Train on the entire dataset.
    pub fn train(data: &Dataset, cfg: &TreeConfig, rng: &mut impl Rng) -> Tree {
        let idx: Vec<usize> = (0..data.len()).collect();
        Self::train_on(data, &idx, cfg, rng)
    }

    /// Predict the label for a feature vector.
    pub fn predict(&self, features: &[f64]) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = features.get(*feature).copied().unwrap_or(f64::NAN);
                    // NaN fails `v > threshold`, taking the left branch.
                    node = if v > *threshold { right } else { left };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

fn gini(pos: usize, neg: usize) -> f64 {
    let n = (pos + neg) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let p = pos as f64 / n;
    2.0 * p * (1.0 - p)
}

/// A [`Dataset`] compiled for training: per feature, the ascending table
/// of its distinct non-missing values and, per example, the value's rank —
/// `0` for NaN, else 1 + its index in the table (`-0.0` and `0.0` compare
/// equal and share a rank). Ranks order examples exactly as the values do,
/// so split search runs on integers and reads an `f64` only to form a
/// threshold. Shared read-only by the tree workers; a growing training set
/// keeps one and [`extends`](RankMatrix::extend) it by its new rows
/// instead of compiling again (see [`crate::RankedDataset`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMatrix {
    rows: usize,
    /// Column-major: `ranks[f * rows + e]`.
    ranks: Vec<u32>,
    values: Vec<Vec<f64>>,
}

impl RankMatrix {
    /// Compile every row of `data`.
    pub fn compile(data: &Dataset) -> Self {
        let mut m = Self::default();
        m.extend(data);
        m
    }

    /// Number of rows compiled.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Take in the rows of `data` past [`rows`](Self::rows) — `data` must
    /// extend the rows compiled so far. Per feature the new rows' distinct
    /// values merge into the table and every existing rank is remapped
    /// through one old → new array: `O(rows + distinct + new · log new)`.
    /// The result equals [`compile`](Self::compile) of all of `data`; only
    /// which of `-0.0` / `0.0` stands for their shared rank may differ,
    /// and `±0 + v` is the same float for every non-zero `v`, so no
    /// threshold can.
    pub fn extend(&mut self, data: &Dataset) {
        let (old, n, arity) = (self.rows, data.len(), data.arity());
        if n == old {
            return;
        }
        assert!(n > old, "a rank matrix only grows");
        if old == 0 {
            self.values = vec![Vec::new(); arity];
        }
        assert_eq!(self.values.len(), arity, "feature arity mismatch");
        // A sweep key is `rank << 1 | label` in a `u32`, and rank <= n.
        assert!(n < 1 << 31, "too many training examples");
        let mut ranks = vec![0u32; n * arity];
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(n - old);
        let mut remap: Vec<u32> = Vec::new();
        for (f, col) in ranks.chunks_exact_mut(n).enumerate() {
            order.clear();
            order.extend(
                data.features[old..]
                    .iter()
                    .enumerate()
                    .filter_map(|(e, row)| {
                        let v = row[f];
                        (!v.is_nan()).then_some((v, (old + e) as u32))
                    }),
            );
            order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
            // Merge the sorted new values into the old table; `remap[r]`
            // is old rank r's new rank (0 stays 0).
            let table = std::mem::take(&mut self.values[f]);
            let mut merged = Vec::with_capacity(table.len() + order.len());
            remap.clear();
            remap.resize(table.len() + 1, 0);
            let mut i = 0;
            for &(v, e) in &order {
                while i < table.len() && table[i] <= v {
                    merged.push(table[i]);
                    i += 1;
                    remap[i] = merged.len() as u32;
                }
                if merged.last() != Some(&v) {
                    merged.push(v);
                }
                col[e as usize] = merged.len() as u32;
            }
            for &v in &table[i..] {
                merged.push(v);
                i += 1;
                remap[i] = merged.len() as u32;
            }
            let old_col = &self.ranks[f * old..(f + 1) * old];
            for (r, &o) in col.iter_mut().zip(old_col) {
                *r = remap[o as usize];
            }
            self.values[f] = merged;
        }
        self.rows = n;
        self.ranks = ranks;
    }

    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.rows..(f + 1) * self.rows]
    }

    /// Grow a tree over the example multiset `idx` (reordered in place),
    /// with `labels` the compiled rows' labels.
    pub(crate) fn grow(
        &self,
        labels: &[bool],
        idx: &mut [u32],
        cfg: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Tree {
        let arity = self.values.len();
        let k = cfg
            .features_per_node
            .unwrap_or_else(|| (arity as f64).sqrt().ceil() as usize)
            .clamp(1, arity.max(1));
        let mut grower = Grower {
            data: self,
            labels,
            cfg,
            k,
            feats: Vec::with_capacity(arity),
            keys: Vec::with_capacity(idx.len()),
            hist: Vec::new(),
            spill: Vec::with_capacity(idx.len()),
        };
        Tree {
            root: grower.node(idx, 0, rng),
            arity,
        }
    }
}

/// One tree's growth state: the buffers every node reuses.
struct Grower<'a> {
    data: &'a RankMatrix,
    labels: &'a [bool],
    cfg: &'a TreeConfig,
    k: usize,
    feats: Vec<usize>,
    /// The node's `rank << 1 | label` keys of the feature being swept.
    keys: Vec<u32>,
    /// Dense nodes: the node's example count per key `rank << 1 | label`.
    hist: Vec<u32>,
    /// Right-side examples while a node's slice is partitioned.
    spill: Vec<u32>,
}

impl Grower<'_> {
    fn node(&mut self, idx: &mut [u32], depth: usize, rng: &mut impl Rng) -> Node {
        let labels = self.labels;
        let pos = idx.iter().filter(|&&e| labels[e as usize]).count();
        let neg = idx.len() - pos;
        let leaf = Node::Leaf {
            label: pos > neg,
            pos,
            neg,
        };
        if depth >= self.cfg.max_depth || idx.len() < self.cfg.min_split || pos == 0 || neg == 0 {
            return leaf;
        }

        // Random feature subset for this node; the shuffle (the only RNG
        // use) happens once a split is attempted, from the identity order.
        self.feats.clear();
        self.feats.extend(0..self.data.values.len());
        self.feats.shuffle(rng);
        self.feats.truncate(self.k);

        let parent = (pos, neg, gini(pos, neg));
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for &f in &self.feats {
            let (col, values) = (self.data.column(f), &self.data.values[f]);
            let keys = idx
                .iter()
                .map(|&e| (col[e as usize] << 1) | u32::from(labels[e as usize]));
            // Dense in this feature: count the keys per rank instead of
            // sorting them; the sweep reads the same runs either way.
            if 8 * idx.len() >= values.len() {
                self.hist.clear();
                self.hist.resize(2 * (values.len() + 1), 0);
                keys.for_each(|k| self.hist[k as usize] += 1);
                let runs = self.hist.chunks_exact(2).enumerate().filter_map(|(r, c)| {
                    (c[0] | c[1] != 0).then_some((r as u32, c[1] as usize, c[0] as usize))
                });
                sweep(runs, values, parent, f, &mut best);
            } else {
                self.keys.clear();
                self.keys.extend(keys);
                self.keys.sort_unstable();
                sweep(KeyRuns(&self.keys), values, parent, f, &mut best);
            }
        }
        let Some((_, feature, threshold)) = best else {
            return leaf;
        };

        // `v <= threshold || v.is_nan()` routes left; on ranks that is
        // `rank <=` the number of table values at or below the threshold.
        let left_ranks = self.data.values[feature].partition_point(|&v| v <= threshold) as u32;
        let col = self.data.column(feature);
        self.spill.clear();
        let mut n_left = 0;
        for i in 0..idx.len() {
            let e = idx[i];
            if col[e as usize] <= left_ranks {
                idx[n_left] = e;
                n_left += 1;
            } else {
                self.spill.push(e);
            }
        }
        let (left, right) = idx.split_at_mut(n_left);
        right.copy_from_slice(&self.spill);
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.node(left, depth + 1, rng)),
            right: Box::new(self.node(right, depth + 1, rng)),
        }
    }
}

/// The runs of equal rank in sorted `rank << 1 | label` keys, as
/// `(rank, pos, neg)`. Within a run the label bit sorts negatives first.
#[derive(Clone)]
struct KeyRuns<'a>(&'a [u32]);

impl Iterator for KeyRuns<'_> {
    type Item = (u32, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let rank = self.0.first()? >> 1;
        let len = self.0.iter().take_while(|&&k| k >> 1 == rank).count();
        let (run, rest) = self.0.split_at(len);
        self.0 = rest;
        let neg = run.partition_point(|&k| k & 1 == 0);
        Some((rank, len - neg, neg))
    }
}

/// Evaluate every candidate threshold of feature `f` — the midpoint of
/// each two adjacent distinct values present in the node — in one pass
/// over the node's `(rank, pos, neg)` runs in ascending rank, with running
/// left-side class counts. Missing values (rank 0, first) always count
/// left. Only whole-run counts are read, so the runs may come from sorted
/// keys or from a per-rank histogram alike.
fn sweep(
    runs: impl Iterator<Item = (u32, usize, usize)> + Clone,
    values: &[f64],
    (pos, neg, parent_gini): (usize, usize, f64),
    f: usize,
    best: &mut Option<(f64, usize, f64)>,
) {
    let n = (pos + neg) as f64;
    let (mut lp, mut ln) = (0, 0);
    let mut lower: Option<f64> = None;
    for (rank, np, nn) in runs.clone() {
        if rank == 0 {
            (lp, ln) = (np, nn);
            continue;
        }
        let v1 = values[rank as usize - 1];
        if let Some(v0) = lower {
            let t = (v0 + v1) / 2.0;
            let (clp, cln) = if v0 <= t && t < v1 {
                (lp, ln)
            } else if t == v1 {
                // The midpoint of two adjacent floats can round up onto
                // the upper value; `v1 > t` is then false and v1's whole
                // run routes left.
                (lp + np, ln + nn)
            } else {
                // `v0 + v1` overflowed, or is `-inf + inf`: the midpoint
                // lies outside the pair. Recount what is not `> t`.
                runs.clone()
                    .filter(|&(r, _, _)| r == 0 || values[r as usize - 1] <= t || t.is_nan())
                    .fold((0, 0), |(p, q), (_, rp, rn)| (p + rp, q + rn))
            };
            let (rp, rn) = (pos - clp, neg - cln);
            if clp + cln != 0 && rp + rn != 0 {
                let child =
                    (clp + cln) as f64 / n * gini(clp, cln) + (rp + rn) as f64 / n * gini(rp, rn);
                let gain = parent_gini - child;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    *best = Some((gain, f, t));
                }
            }
        }
        lp += np;
        ln += nn;
        lower = Some(v1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn separable() -> Dataset {
        let mut d = Dataset::new();
        for i in 0..50 {
            let x = i as f64 / 50.0;
            d.push(vec![x, 1.0 - x], x > 0.5);
        }
        d
    }

    #[test]
    fn learns_separable_data() {
        let d = separable();
        let t = Tree::train(&d, &TreeConfig::default(), &mut rng());
        for (f, l) in d.features.iter().zip(&d.labels) {
            assert_eq!(t.predict(f), *l);
        }
    }

    #[test]
    fn pure_data_is_single_leaf() {
        let mut d = Dataset::new();
        for _ in 0..10 {
            d.push(vec![1.0], true);
        }
        let t = Tree::train(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(t.size(), 1);
        assert!(t.predict(&[0.0]));
    }

    #[test]
    fn depth_limit_respected() {
        let d = separable();
        let cfg = TreeConfig {
            max_depth: 1,
            ..Default::default()
        };
        let t = Tree::train(&d, &cfg, &mut rng());
        assert!(t.size() <= 3);
    }

    #[test]
    fn missing_values_go_left() {
        // Single split on feature 0 at 0.5: left=false, right=true.
        let t = Tree {
            root: Node::Split {
                feature: 0,
                threshold: 0.5,
                left: Box::new(Node::Leaf {
                    label: false,
                    pos: 0,
                    neg: 1,
                }),
                right: Box::new(Node::Leaf {
                    label: true,
                    pos: 1,
                    neg: 0,
                }),
            },
            arity: 1,
        };
        assert!(!t.predict(&[f64::NAN]));
        assert!(!t.predict(&[0.2]));
        assert!(t.predict(&[0.9]));
    }

    #[test]
    fn handles_nan_training_values() {
        let mut d = Dataset::new();
        for i in 0..20 {
            let v = if i % 5 == 0 { f64::NAN } else { i as f64 };
            d.push(vec![v], i >= 10);
        }
        // Must not panic, and should fit the non-missing part reasonably.
        let t = Tree::train(&d, &TreeConfig::default(), &mut rng());
        assert!(t.predict(&[19.0]));
        assert!(!t.predict(&[1.0]));
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(0, 0), 0.0);
        assert_eq!(gini(5, 0), 0.0);
        assert!((gini(5, 5) - 0.5).abs() < 1e-12);
    }
}
