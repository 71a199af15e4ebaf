//! Direct calls into single layers on a workload's own tables, with
//! fixture inputs: rates that do not depend on what a run happened to
//! learn. Each rate is the median of [`REPS`] calls.

use crate::alloc::PeakScope;
use crate::stats::summarize;
use falcon::core::features::{generate_features, FeatureSet};
use falcon::core::indexing::{BuiltIndexes, ConjunctSpecs, PreFilterConfig};
use falcon::core::ops::gen_fvs::gen_fvs;
use falcon::core::physical::{self, PhysicalOp};
use falcon::core::rules::{Predicate, Rule, RuleSequence};
use falcon::core::tokens;
use falcon::forest::{Dataset, Forest, ForestConfig, SplitOp};
use falcon::prelude::*;
use falcon::table::csv;
use falcon::table::IdPair;
use falcon::textsim::TokenDict;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 3;
/// Labelled vectors the forest trains on (half matches, half random).
const TRAIN_EXAMPLES: usize = 1_500;
/// Threshold of the one-rule set-similarity blocking fixture
/// (`blocking_bench`'s default).
const FIXTURE_THRESHOLD: f64 = 0.4;

/// Median seconds of `REPS` calls of `f`.
fn median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&secs).map_or(f64::NAN, |s| s.median)
}

/// `blocking_bench`'s fixture: one drop rule `sim(attr) <= t` on the
/// first set-similarity blocking feature, whose complement is a
/// signature-accelerated set-similarity filter.
fn fixture_rules(features: &FeatureSet) -> Option<RuleSequence> {
    let feature = features
        .features
        .iter()
        .position(|f| f.sim.is_set_based())?;
    Some(RuleSequence::new(vec![Rule {
        predicates: vec![Predicate {
            feature,
            op: SplitOp::Le,
            threshold: FIXTURE_THRESHOLD,
            nan_is_high: true,
        }],
    }]))
}

fn random_pairs(n: usize, a_len: usize, b_len: usize, rng: &mut SmallRng) -> Vec<IdPair> {
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..a_len as u32),
                rng.gen_range(0..b_len as u32),
            )
        })
        .collect()
}

/// Measure every layer the workload uses. `blocking` is false for a
/// match-only workload, whose run never touches `falcon-index` or
/// `physical.rs`: those rates are then left out (and read 0).
/// `fixture_pairs` random pairs (fewer on tables whose whole cross product
/// is smaller) feed the `gen_fvs` and forest-scoring calls.
pub fn measure(
    a_csv: &[u8],
    b_csv: &[u8],
    truth: &[IdPair],
    blocking: bool,
    fixture_pairs: usize,
    seed: u64,
) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("layer {what}: {e}");

    let read_both = || -> std::io::Result<(Table, Table)> {
        Ok((csv::read_table("A", a_csv)?, csv::read_table("B", b_csv)?))
    };
    let scope = PeakScope::start();
    let (a, b) = read_both().map_err(|e| fail("csv_read", &e))?;
    out.insert(
        "table.csv_read.peak_alloc_bytes".into(),
        scope.peak_bytes() as f64,
    );
    let rows = (a.len() + b.len()) as f64;
    out.insert(
        "table.csv_read.rows_per_s".into(),
        rows / median_secs(read_both),
    );

    let cluster = Cluster::new(ClusterConfig::default());
    let lib = generate_features(&a, &b);
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_pairs = fixture_pairs.min(a.len() * b.len());
    let pairs = random_pairs(n_pairs, a.len(), b.len(), &mut rng);

    let (a_spec, b_spec) = tokens::requirements(&lib.matching.features);
    let secs = median_secs(|| {
        let mut dict = TokenDict::new();
        let pa = tokens::build_profile_par(&cluster, &a, &a_spec, &mut dict, None);
        let pb = tokens::build_profile_par(&cluster, &b, &b_spec, &mut dict, None);
        (pa.is_ok(), pb.is_ok())
    });
    out.insert("tokens.profile_build.tuples_per_s".into(), rows / secs);

    if blocking {
        if let Some(seq) = fixture_rules(&lib.blocking) {
            let conjuncts = ConjunctSpecs::derive(&seq, &lib.blocking)
                .with_signatures(&PreFilterConfig::default());
            let build = || -> Result<BuiltIndexes, String> {
                let mut built = BuiltIndexes::new();
                for spec in conjuncts.all_specs() {
                    built
                        .build_spec(&cluster, &a, &spec)
                        .map_err(|e| fail("index.build", &e))?;
                }
                Ok(built)
            };
            let built = build()?;
            out.insert(
                "index.build.tuples_per_s".into(),
                a.len() as f64 / median_secs(build),
            );
            let probe = || {
                physical::execute(
                    PhysicalOp::ApplyAll,
                    &cluster,
                    &a,
                    &b,
                    &lib.blocking,
                    &seq,
                    &conjuncts,
                    &built,
                    &[0.5],
                    u128::MAX,
                )
            };
            let examined = probe()
                .map_err(|e| fail("physical.probe", &e))?
                .blocking
                .pairs_examined();
            out.insert(
                "physical.probe.pairs_per_s".into(),
                examined as f64 / median_secs(probe),
            );
        }
        let secs = median_secs(|| gen_fvs(&cluster, &a, &b, &pairs, &lib.blocking).is_ok());
        out.insert("fv.blocking.pairs_per_s".into(), pairs.len() as f64 / secs);
    }

    let fvs = gen_fvs(&cluster, &a, &b, &pairs, &lib.matching)
        .map_err(|e| fail("fv.matching", &e))?
        .fvs;
    let secs = median_secs(|| gen_fvs(&cluster, &a, &b, &pairs, &lib.matching).is_ok());
    out.insert("fv.matching.pairs_per_s".into(), pairs.len() as f64 / secs);

    // Forest: true matches against random pairs, labelled by ground truth.
    let truth_set: HashSet<IdPair> = truth.iter().copied().collect();
    let mut train_pairs: Vec<IdPair> = truth.iter().copied().take(TRAIN_EXAMPLES / 2).collect();
    train_pairs.extend(pairs.iter().copied().take(TRAIN_EXAMPLES / 2));
    let train_fvs = gen_fvs(&cluster, &a, &b, &train_pairs, &lib.matching)
        .map_err(|e| fail("forest.train", &e))?
        .fvs;
    let mut data = Dataset::new();
    for (pair, fv) in train_fvs.iter() {
        data.push(fv.to_vec(), truth_set.contains(&pair));
    }
    let cfg = ForestConfig::default();
    let train = || Forest::train(&data, &cfg, &mut SmallRng::seed_from_u64(seed));
    let flat = train().flatten();
    out.insert(
        "forest.train.examples_per_s".into(),
        data.len() as f64 / median_secs(train),
    );
    let secs = median_secs(|| {
        let mut votes = Vec::new();
        flat.count_votes_into(fvs.len(), |j| fvs.fvs[j].as_slice(), &mut votes);
        votes
            .iter()
            .filter(|&&v| flat.predict_from_votes(v))
            .count()
    });
    out.insert("forest.score.preds_per_s".into(), fvs.len() as f64 / secs);
    Ok(out)
}
