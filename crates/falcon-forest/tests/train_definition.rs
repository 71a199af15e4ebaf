//! The forest trainer against its definition.
//!
//! `grow` below is the textbook CART procedure, written to be obviously
//! correct: at every node shuffle the features, and for each of the first
//! `k` collect the node's values, sort and dedup them, and for the
//! midpoint of every two adjacent distinct values recount the whole node
//! on both sides, and append the node to the rows in preorder, down to
//! depth `MAX_DEPTH` and nodes of `MIN_SPLIT` examples. `forest` wraps it
//! in the bagging and out-of-bag scheme of the module docs, growing
//! `N_TREES` trees into one arena. The production trainer (dense
//! ranks compiled once or carried between trainings, then per candidate
//! feature a per-rank histogram or an integer key sort, and one run
//! sweep, into rows of its own per tree) must grow the same trees bit for
//! bit **and** leave the RNG in the same state — on the inputs a rank
//! compile can get wrong: missing values, signed zeros, infinities,
//! adjacent floats, sums that overflow, heavy duplicates and bootstrap
//! multisets with repeated ids. Two generators pin each sweep source on
//! every node: few distinct values (histograms everywhere) and
//! all-distinct values under small bags (key sorts everywhere).

use falcon_forest::{
    Dataset, Forest, ForestConfig, RankMatrix, RankedDataset, MAX_DEPTH, MIN_SPLIT, N_TREES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

fn gini(pos: usize, neg: usize) -> f64 {
    let n = (pos + neg) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let p = pos as f64 / n;
    2.0 * p * (1.0 - p)
}

/// Append a row to `out` and return its index.
fn push(
    out: &mut Forest,
    feature: u32,
    threshold: f64,
    label: bool,
    pos: usize,
    neg: usize,
) -> u32 {
    out.feature.push(feature);
    out.threshold.push(threshold);
    out.left.push(0);
    out.right.push(0);
    out.leaf_label.push(label);
    out.pos.push(pos as u32);
    out.neg.push(neg as u32);
    out.feature.len() as u32 - 1
}

/// Grow the subtree over `idx` into `out` and return its root row.
fn grow(
    out: &mut Forest,
    data: &Dataset,
    idx: &[usize],
    k: usize,
    depth: usize,
    rng: &mut impl Rng,
) -> u32 {
    let pos = idx.iter().filter(|&&i| data.labels[i]).count();
    let neg = idx.len() - pos;
    if depth >= MAX_DEPTH || idx.len() < MIN_SPLIT || pos == 0 || neg == 0 {
        return push(out, Forest::LEAF, 0.0, pos > neg, pos, neg);
    }
    let mut feats: Vec<usize> = (0..data.arity()).collect();
    feats.shuffle(rng);
    feats.truncate(k);

    let n = idx.len() as f64;
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    for &f in &feats {
        let mut vals: Vec<f64> = idx.iter().map(|&i| data.features[i][f]).collect();
        vals.retain(|v| !v.is_nan());
        vals.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        vals.dedup();
        for w in vals.windows(2) {
            let t = (w[0] + w[1]) / 2.0;
            // Missing values fail `v > t` and count left.
            let right = |&&i: &&usize| data.features[i][f] > t;
            let (rp, rn) = idx.iter().filter(right).fold((0, 0), |(p, q), &i| {
                (
                    p + usize::from(data.labels[i]),
                    q + usize::from(!data.labels[i]),
                )
            });
            let (lp, ln) = (pos - rp, neg - rn);
            if lp + ln == 0 || rp + rn == 0 {
                continue;
            }
            let child = (lp + ln) as f64 / n * gini(lp, ln) + (rp + rn) as f64 / n * gini(rp, rn);
            let gain = gini(pos, neg) - child;
            if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, f, t));
            }
        }
    }
    let Some((_, feature, threshold)) = best else {
        return push(out, Forest::LEAF, 0.0, pos > neg, pos, neg);
    };
    let (left, right): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| {
        let v = data.features[i][feature];
        v <= threshold || v.is_nan()
    });
    let row = push(out, feature as u32, threshold, false, 0, 0) as usize;
    out.left[row] = grow(out, data, &left, k, depth + 1, rng);
    out.right[row] = grow(out, data, &right, k, depth + 1, rng);
    row as u32
}

/// Append one tree over the example multiset `idx` to `out`, each node
/// considering `ceil(sqrt(arity))` features.
fn tree_into(out: &mut Forest, data: &Dataset, idx: &[usize], rng: &mut impl Rng) {
    let arity = data.arity();
    let k = ((arity as f64).sqrt().ceil() as usize).clamp(1, arity.max(1));
    let root = grow(out, data, idx, k, 0, rng);
    out.roots.push(root);
}

/// `Forest::train_on` by definition.
fn tree(data: &Dataset, idx: &[usize], rng: &mut impl Rng) -> Forest {
    let mut out = Forest {
        arity: data.arity(),
        ..Forest::default()
    };
    tree_into(&mut out, data, idx, rng);
    out
}

/// The label of the leaf `fv` reaches from row `i`: missing values go left.
fn vote(f: &Forest, mut i: usize, fv: &[f64]) -> bool {
    while f.feature[i] != Forest::LEAF {
        let v = fv[f.feature[i] as usize];
        i = if v <= f.threshold[i] || v.is_nan() {
            f.left[i]
        } else {
            f.right[i]
        } as usize;
    }
    f.leaf_label[i]
}

/// `Forest::train` by definition: one seed per tree drawn up front, each
/// tree bagging and growing from its own `SmallRng` into the next rows;
/// the out-of-bag estimate is the majority of the trees that did not see
/// an example, over the examples some tree did not see.
fn forest(data: &Dataset, rng: &mut impl Rng) -> Forest {
    let n = data.len();
    let seeds: Vec<u64> = (0..N_TREES).map(|_| rng.next_u64()).collect();
    let mut oob = vec![(0usize, 0usize); n]; // (positive votes, votes)
    let mut out = Forest {
        arity: data.arity(),
        ..Forest::default()
    };
    for seed in seeds {
        let mut trng = SmallRng::seed_from_u64(seed);
        let idx: Vec<usize> = (0..n).map(|_| trng.gen_range(0..n)).collect();
        tree_into(&mut out, data, &idx, &mut trng);
        let root = *out.roots.last().expect("a tree was just grown") as usize;
        for i in (0..n).filter(|i| !idx.contains(i)) {
            oob[i].0 += usize::from(vote(&out, root, &data.features[i]));
            oob[i].1 += 1;
        }
    }
    let scored: Vec<bool> = (0..n)
        .filter(|&i| oob[i].1 > 0)
        .map(|i| (oob[i].0 * 2 > oob[i].1) == data.labels[i])
        .collect();
    let correct = scored.iter().filter(|c| **c).count();
    out.oob_accuracy = (!scored.is_empty()).then(|| correct as f64 / scored.len() as f64);
    out
}

/// The least float above a positive finite `v`.
fn next_up(v: f64) -> f64 {
    f64::from_bits(v.to_bits() + 1)
}

/// Values a rank compile can get wrong.
fn feat() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => Just(f64::NAN),
        2 => prop_oneof![Just(0.0), Just(-0.0)],
        2 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        // Heavy duplicates.
        4 => prop_oneof![Just(0.5), Just(1.0), Just(-1.0)],
        // Adjacent floats: (1 + next_up(1)) / 2 rounds to even, onto 1;
        // (next_up(1) + next_up(next_up(1))) / 2 rounds onto the upper one.
        3 => prop_oneof![Just(next_up(1.0)), Just(next_up(next_up(1.0)))],
        // Pairwise sums overflow to +inf / -inf.
        1 => prop_oneof![Just(f64::MAX), Just(f64::MAX / 1.5), Just(f64::MIN), Just(f64::MIN / 1.5)],
        // Subnormal midpoints.
        1 => prop_oneof![Just(f64::MIN_POSITIVE), Just(5e-324), Just(-5e-324)],
        4 => -5.0f64..5.0,
    ]
}

const MAX_ARITY: usize = 5;

/// `n` labeled rows at `arity`, with every feature of index in `dead`
/// all-NaN and the labels forced to one class when `single` says so.
fn dataset() -> impl Strategy<Value = Dataset> {
    (
        proptest::collection::vec(
            (
                proptest::collection::vec(feat(), MAX_ARITY),
                proptest::arbitrary::any::<bool>(),
            ),
            1..40,
        ),
        1usize..=MAX_ARITY,
        proptest::collection::vec(0usize..MAX_ARITY, 0..2),
        prop_oneof![4 => Just(None), 1 => proptest::arbitrary::any::<bool>().prop_map(Some)],
    )
        .prop_map(|(rows, arity, dead, single)| {
            let mut d = Dataset::new();
            for (mut fv, label) in rows {
                fv.truncate(arity);
                for &f in dead.iter().filter(|&&f| f < arity) {
                    fv[f] = f64::NAN;
                }
                d.push(fv, single.unwrap_or(label));
            }
            d
        })
}

/// A node of `n` examples sweeps feature `f` from a per-rank histogram
/// iff `8 · n >= d`, where `d` is `f`'s number of distinct values.
fn distinct(d: &Dataset, f: usize) -> usize {
    let mut vals: Vec<f64> = d
        .features
        .iter()
        .map(|r| r[f])
        .filter(|v| !v.is_nan())
        .collect();
    vals.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    vals.dedup();
    vals.len()
}

/// At most three distinct values per feature (plus NaN), so every node,
/// however deep, counts a histogram.
fn few_distinct() -> impl Strategy<Value = Dataset> {
    let cell = prop_oneof![
        1 => Just(f64::NAN),
        4 => prop_oneof![Just(-0.0), Just(0.5), Just(f64::INFINITY)],
    ];
    proptest::collection::vec(
        (
            proptest::collection::vec(cell, 3),
            proptest::arbitrary::any::<bool>(),
        ),
        1..40,
    )
    .prop_map(|rows| {
        let mut d = Dataset::new();
        rows.into_iter().for_each(|(fv, l)| d.push(fv, l));
        d
    })
}

/// 100–200 rows whose values are distinct within every feature (row `e`
/// maps to `e · mul mod 211`, injective as 211 is prime, scaled and
/// shifted; row 0 is NaN under even multipliers), for bags
/// of at most 12 examples: `8 · 12 < 100`, so every node sorts keys.
fn all_distinct() -> impl Strategy<Value = Dataset> {
    (
        100usize..200,
        proptest::collection::vec((1u64..211, -5.0f64..5.0), 3),
        proptest::collection::vec(proptest::arbitrary::any::<bool>(), 200),
    )
        .prop_map(|(n, shapes, labels)| {
            let mut d = Dataset::new();
            for (e, l) in labels.into_iter().take(n).enumerate() {
                let fv = shapes
                    .iter()
                    .map(|&(mul, shift)| {
                        let r = (e as u64 * mul) % 211;
                        if r == 0 && mul % 2 == 0 {
                            f64::NAN
                        } else {
                            r as f64 / 7.0 + shift
                        }
                    })
                    .collect();
                d.push(fv, l);
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram sweep on every node: trees and RNG state equal.
    #[test]
    fn histogram_nodes_equal_the_definition(
        d in few_distinct(),
        picks in proptest::collection::vec(0usize..1 << 16, 1..60),
        seed in 0u64..1 << 48,
    ) {
        prop_assert!((0..d.arity()).all(|f| distinct(&d, f) <= 3));
        let idx: Vec<usize> = picks.iter().map(|p| p % d.len()).collect();
        let (mut fast_rng, mut def_rng) =
            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let fast = Forest::train_on(&d, &idx, &mut fast_rng);
        prop_assert_eq!(fast, tree(&d, &idx, &mut def_rng));
        prop_assert_eq!(fast_rng.next_u64(), def_rng.next_u64(), "RNG streams diverged");
    }

    /// The key-sort sweep on every node: trees and RNG state equal.
    #[test]
    fn sorted_nodes_equal_the_definition(
        d in all_distinct(),
        picks in proptest::collection::vec(0usize..1 << 16, 1..=12),
        seed in 0u64..1 << 48,
    ) {
        let present = |f: usize| d.features.iter().filter(|r| !r[f].is_nan()).count();
        prop_assert!((0..d.arity()).all(|f| distinct(&d, f) == present(f)));
        prop_assert!((0..d.arity()).all(|f| 8 * picks.len() < distinct(&d, f)));
        let idx: Vec<usize> = picks.iter().map(|p| p % d.len()).collect();
        let (mut fast_rng, mut def_rng) =
            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let fast = Forest::train_on(&d, &idx, &mut fast_rng);
        prop_assert_eq!(fast, tree(&d, &idx, &mut def_rng));
        prop_assert_eq!(fast_rng.next_u64(), def_rng.next_u64(), "RNG streams diverged");
    }

    /// A training set grown 20 rows at a time — NaN, `±0.0`, `±inf`,
    /// adjacent floats, repeats, values in between, and a new minimum and
    /// maximum per batch: at every size the carried ranks equal a fresh
    /// compile, and the forest trained on them equals `Forest::train_threads`
    /// on the same rows, master RNG state included.
    #[test]
    fn carried_ranks_equal_a_fresh_compile(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec((feat(), 0u8..8), MAX_ARITY),
                 proptest::arbitrary::any::<bool>()),
                20,
            ),
            1..6,
        ),
        seed in 0u64..1 << 48,
        threads in 1usize..=2,
    ) {
        let mut set = RankedDataset::new();
        for (b, rows) in batches.into_iter().enumerate() {
            let edge = 1e3 * (b + 1) as f64;
            set.extend(rows.into_iter().map(|(cells, label)| {
                let fv = cells
                    .into_iter()
                    .map(|(v, kind)| match kind {
                        0 => edge,
                        1 => -edge,
                        _ => v,
                    })
                    .collect();
                (fv, label)
            }));
            prop_assert_eq!(set.ranks(), &RankMatrix::compile(set.data()));
            let (mut carried_rng, mut fresh_rng) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            let carried = Forest::train_ranked(&set, &mut carried_rng, threads);
            let fresh = Forest::train_threads(set.data(), &mut fresh_rng, threads);
            prop_assert_eq!(carried, fresh);
            prop_assert_eq!(carried_rng.next_u64(), fresh_rng.next_u64(), "RNG streams diverged");
        }
    }

    /// One tree over an arbitrary multiset of example ids (repeats, ids
    /// never drawn, a single id): same tree, same RNG state afterwards.
    #[test]
    fn tree_equals_its_definition(
        d in dataset(),
        picks in proptest::collection::vec(0usize..1 << 16, 1..60),
        seed in 0u64..1 << 48,
    ) {
        let idx: Vec<usize> = picks.iter().map(|p| p % d.len()).collect();
        let (mut fast_rng, mut def_rng) =
            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let fast = Forest::train_on(&d, &idx, &mut fast_rng);
        let def = tree(&d, &idx, &mut def_rng);
        prop_assert_eq!(fast, def);
        prop_assert_eq!(fast_rng.next_u64(), def_rng.next_u64(), "RNG streams diverged");
    }

    /// A whole forest at 1..4 workers: same trees, same out-of-bag
    /// estimate, same master RNG state afterwards.
    #[test]
    fn forest_equals_its_definition(
        d in dataset(),
        seed in 0u64..1 << 48,
        threads in 1usize..=4,
    ) {
        let (mut fast_rng, mut def_rng) =
            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        let fast = Forest::train_threads(&d, &mut fast_rng, threads);
        let def = forest(&d, &mut def_rng);
        prop_assert_eq!(fast, def);
        prop_assert_eq!(fast_rng.next_u64(), def_rng.next_u64(), "RNG streams diverged");
    }
}

/// Continuous, duplicated and missing values at a training-set size the
/// proptest does not reach, through every public training entry point.
#[test]
fn larger_fixtures_equal_their_definitions() {
    let mut d = Dataset::new();
    for i in 0..150 {
        let x = if i % 11 == 0 {
            f64::NAN
        } else {
            i as f64 / 150.0
        };
        let y = ((i * 7) % 13) as f64 / 13.0;
        let z = if i % 4 == 0 { 0.5 } else { y * x.max(0.0) };
        d.push(vec![x, y, z], (i * 3) % 150 >= 71);
    }
    for seed in [5u64, 77] {
        let def = forest(&d, &mut SmallRng::seed_from_u64(seed));
        for threads in [1, 8] {
            let fast = Forest::train_threads(&d, &mut SmallRng::seed_from_u64(seed), threads);
            assert_eq!(fast, def, "seed {seed}, {threads} threads");
        }
        assert_eq!(
            Forest::train(
                &d,
                &ForestConfig::default(),
                &mut SmallRng::seed_from_u64(seed)
            ),
            def
        );
        let idx: Vec<usize> = (0..d.len()).map(|i| (i * 31) % d.len()).collect();
        assert_eq!(
            Forest::train_on(&d, &idx, &mut SmallRng::seed_from_u64(seed)),
            tree(&d, &idx, &mut SmallRng::seed_from_u64(seed)),
        );
    }
}
