//! Frozen outputs of `sample_pairs`: for three datasets at fixed seeds,
//! two sampler seeds and three `(n, y)` shapes — a full sample, one
//! smaller than a split, and one smaller than the fan-out — the pair
//! count, an FNV-1a digest of the sorted pair list and its first and
//! last three pairs must equal the lines of `goldens/sample.txt`, at 1, 2
//! and 8 threads and under a seeded fault plan.
//!
//! The golden file was recorded at `85753bd`, the commit before the
//! sampler moved from `String`-keyed MapReduce jobs onto the run's token
//! columns, so it pins "same sample" against the retired implementation
//! without keeping it alive: the same `B` shuffle, the same per-tuple
//! seeds, the same top `y/2` by `(shared tokens, id)` descending, the same
//! random fill. To re-record after an intended change, empty the file and
//! run this test: it fails printing the full replacement content.

mod common;

use common::{datasets, fnv1a};
use falcon_core::ops::sample_pairs::sample_pairs;
use falcon_dataflow::{Cluster, ClusterConfig, FaultPlan};
use falcon_table::IdPair;

const GOLDEN: &str = include_str!("goldens/sample.txt");

const SHAPES: [(usize, usize); 3] = [(8000, 20), (200, 10), (10, 4)];
const SEEDS: [u64; 2] = [1, 42];

/// One golden line: everything deterministic about a sample.
fn line(dataset: &str, (n, y): (usize, usize), seed: u64, pairs: &[IdPair]) -> String {
    let tail = &pairs[pairs.len().saturating_sub(3)..];
    format!(
        "{dataset} n={n} y={y} seed={seed} pairs={} digest={:016x} first={:?} last={:?}",
        pairs.len(),
        fnv1a(pairs),
        &pairs[..pairs.len().min(3)],
        tail,
    )
}

#[test]
fn samples_match_the_recorded_goldens() {
    // The plan `blocking_golden` runs under.
    let faults = FaultPlan::seeded(7)
        .with_failure_rate(0.3)
        .with_straggler_rate(0.1)
        .with_node_loss(1, 0)
        .with_max_attempts(8);
    let clusters = [
        Cluster::new(ClusterConfig::small(1)).with_threads(1),
        Cluster::new(ClusterConfig::small(2)).with_threads(2),
        Cluster::new(ClusterConfig::small(8)).with_threads(8),
        Cluster::new(ClusterConfig::small(4))
            .with_threads(4)
            .with_faults(faults),
    ];
    let mut recorded = Vec::new();
    let mut mismatches = Vec::new();
    for (name, d, _) in &datasets() {
        for shape in SHAPES {
            for seed in SEEDS {
                let lines: Vec<String> = clusters
                    .iter()
                    .map(|cluster| {
                        let out = sample_pairs(cluster, &d.a, &d.b, shape.0, shape.1, seed)
                            .unwrap_or_else(|e| panic!("{name} {shape:?} seed {seed}: {e}"));
                        assert!(
                            out.pairs.windows(2).all(|w| w[0] < w[1]),
                            "{name} {shape:?} seed {seed}: pairs not sorted and distinct"
                        );
                        line(name, shape, seed, &out.pairs)
                    })
                    .collect();
                for (l, cluster) in lines.iter().zip(&clusters) {
                    assert_eq!(
                        l,
                        &lines[0],
                        "{name} {shape:?} seed {seed}: sample moved with the schedule ({} threads, faults {})",
                        cluster.threads(),
                        cluster.fault_injector().is_some()
                    );
                }
                if !GOLDEN.lines().any(|g| g == lines[0]) {
                    mismatches.push(lines[0].clone());
                }
                recorded.push(lines[0].clone());
            }
        }
    }
    assert!(
        mismatches.is_empty() && GOLDEN.lines().count() == recorded.len(),
        "samples differ from goldens/sample.txt; lines not in it:\n{}\n\nfull replacement:\n{}\n",
        mismatches.join("\n"),
        recorded.join("\n")
    );
}
