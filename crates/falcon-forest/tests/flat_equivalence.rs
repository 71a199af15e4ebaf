//! Property test for the flat prediction path: `FlatForest` batch kernels
//! must be **bit-identical** to the `Node`-walking `Forest::predict` /
//! `positive_fraction` / `disagreement` — across random datasets with NaN
//! (missing) feature values, tiny single-example leaves, and query vectors
//! whose arity does not match the training arity. (Training against its
//! definition is `train_definition.rs`.)

use falcon_forest::{Dataset, Forest, ForestConfig, TreeConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Feature values that exercise missing-value routing, duplicate runs,
/// signed zero, and plain continuous values.
fn feat() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(0.5),
        Just(1.0),
        -5.0f64..5.0,
    ]
}

/// One labeled row at the maximum arity; tests truncate to the real arity.
fn row() -> impl Strategy<Value = (f64, f64, f64, f64, bool)> {
    (
        feat(),
        feat(),
        feat(),
        feat(),
        proptest::arbitrary::any::<bool>(),
    )
}

fn dataset(rows: Vec<(f64, f64, f64, f64, bool)>, arity: usize) -> Dataset {
    let mut d = Dataset::new();
    for (a, b, c, e, label) in rows {
        let mut fv = vec![a, b, c, e];
        fv.truncate(arity);
        d.push(fv, label);
    }
    d
}

fn small_forest() -> ForestConfig {
    ForestConfig {
        n_trees: 7,
        tree: TreeConfig {
            max_depth: 6,
            min_split: 2,
            features_per_node: None,
        },
        bagging: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat kernels equal the Node walk bit for bit, single and batch,
    /// including on vectors shorter/longer than the training arity.
    #[test]
    fn flat_kernels_bit_identical(
        rows in proptest::collection::vec(row(), 2..40),
        arity in 1usize..=4,
        seed in 0u64..1 << 48,
    ) {
        let d = dataset(rows, arity);
        let forest = Forest::train(&d, &small_forest(), &mut SmallRng::seed_from_u64(seed));
        let flat = forest.flatten();

        // Queries: every training vector plus arity-mismatched and
        // all-missing vectors.
        let mut queries: Vec<Vec<f64>> = d.features.clone();
        queries.push(vec![]);
        queries.push(vec![0.25]);
        queries.push(vec![0.25; 6]);
        queries.push(vec![f64::NAN; arity]);

        let preds = flat.predict_batch(&queries);
        let dis = flat.disagreement_batch(&queries);
        for (j, fv) in queries.iter().enumerate() {
            prop_assert_eq!(flat.predict(fv), forest.predict(fv), "query {}", j);
            prop_assert_eq!(preds[j], forest.predict(fv), "batch predict, query {}", j);
            prop_assert_eq!(
                flat.positive_fraction(fv).to_bits(),
                forest.positive_fraction(fv).to_bits(),
                "fraction, query {}", j
            );
            prop_assert_eq!(
                dis[j].to_bits(),
                forest.disagreement(fv).to_bits(),
                "batch disagreement, query {}", j
            );
        }
    }
}
