//! Seed-stability of parallel forest training: for a fixed master seed,
//! `Forest::train` must produce byte-identical forests at every worker
//! thread count (the per-tree seed stream makes the result independent of
//! scheduling). Run under `--release` in CI, where thread interleaving
//! actually varies.

use falcon_forest::{Dataset, Forest, ForestConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A dataset with continuous, duplicated, and missing (NaN) values.
fn fixture() -> Dataset {
    let mut d = Dataset::new();
    for i in 0..150 {
        let x = if i % 11 == 0 {
            f64::NAN
        } else {
            i as f64 / 150.0
        };
        let y = ((i * 7) % 13) as f64 / 13.0;
        let z = if i % 4 == 0 { 0.5 } else { y };
        d.push(vec![x, y, z], (i * 3) % 150 >= 71);
    }
    d
}

#[test]
fn forest_identical_across_thread_counts() {
    let d = fixture();
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let baseline = Forest::train_threads(&d, &mut SmallRng::seed_from_u64(seed), 1);
        for threads in [2, 8] {
            let f = Forest::train_threads(&d, &mut SmallRng::seed_from_u64(seed), threads);
            assert_eq!(f, baseline, "seed {seed}, {threads} threads");
        }
        assert!(
            baseline.oob_accuracy.is_some(),
            "seed {seed} lost OOB accounting"
        );
    }
}

#[test]
fn default_train_matches_explicit_thread_counts() {
    let d = fixture();
    let auto = Forest::train(
        &d,
        &ForestConfig::default(),
        &mut SmallRng::seed_from_u64(9),
    );
    let one = Forest::train_threads(&d, &mut SmallRng::seed_from_u64(9), 1);
    assert_eq!(auto, one);
}
