//! Frozen outputs of `apply_blocking_rules`: for three datasets at fixed
//! seeds and all six physical operators, the candidate set (as an
//! FNV-1a digest), the per-conjunct probe counters and the number of
//! shuffled records must equal the lines of `goldens/blocking.txt`, at 1,
//! 2 and 8 threads and under a seeded fault plan — and every candidate
//! set must be the exhaustive single-machine baseline's, whichever probe
//! modes (`off`, `gate`, `dense` all occur) the planner picked, and
//! whether the probe and the evaluator read the run's token store (as
//! under the driver) or one `execute` profiles for the call.
//!
//! The golden file was recorded at the commit *before* the probe and
//! evaluation kernels were compiled (lazy rule evaluation, shared probe
//! plans, verdict tables), so it pins "same work, same answer" against
//! the retired kernels without keeping them alive. One later
//! re-recording, on top of `bac7e52`: the `stats=` counters of the three
//! `apply-all` lines, when that operator began probing each conjunct
//! within the running candidate set of the more selective ones (fewer
//! pairs examined, ids an earlier conjunct refuted counted as exact
//! prunes); every other field and line is the original recording. The
//! `map-side` and `reduce-split` lines were added later, recorded on
//! `61aa839`, before ReduceSplit became the probe job over an empty plan,
//! so they pin that its job shape and output did not move. To re-record after an intended change, empty the file and run this test:
//! it fails printing the full replacement content.

mod common;

use common::{datasets, fnv1a, sequence};
use falcon_core::corleone::corleone_blocking;
use falcon_core::features::generate_features;
use falcon_core::indexing::{BuiltIndexes, ConjunctSpecs};
use falcon_core::physical::{self, PhysicalOp};
use falcon_core::tokens::{requirements, TokenStore};
use falcon_dataflow::{Cluster, ClusterConfig, FaultPlan};

const GOLDEN: &str = include_str!("goldens/blocking.txt");

/// One golden line: everything deterministic about a blocking execution.
fn line(dataset: &str, out: &physical::BlockingOutput) -> String {
    let shuffled: usize = out.jobs.iter().map(|j| j.shuffled_records).sum();
    let stats: Vec<String> = out
        .blocking
        .conjuncts
        .iter()
        .map(|c| {
            format!(
                "c{}[{}]:{}/{}/{}/{}",
                c.conjunct,
                c.modes
                    .iter()
                    .map(|m| m.name())
                    .collect::<Vec<_>>()
                    .join(","),
                c.pairs_examined,
                c.pruned_by_signature,
                c.pruned_by_exact,
                c.survived
            )
        })
        .collect();
    format!(
        "{dataset} {} candidates={} digest={:016x} jobs={} shuffled={shuffled} stats={}",
        out.op.name(),
        out.candidates.len(),
        fnv1a(&out.candidates),
        out.jobs.len(),
        stats.join(";"),
    )
}

const OPS: [PhysicalOp; 6] = [
    PhysicalOp::ApplyAll,
    PhysicalOp::ApplyGreedy,
    PhysicalOp::ApplyConjunct,
    PhysicalOp::ApplyPredicate,
    PhysicalOp::MapSide,
    PhysicalOp::ReduceSplit,
];

#[test]
fn blocking_outputs_match_the_recorded_goldens() {
    let datasets = datasets();
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
    for (name, d, rules) in &datasets {
        let features = generate_features(&d.a, &d.b).blocking;
        let seq = sequence(&features, rules);
        let conjuncts = ConjunctSpecs::derive(&seq, &features);
        // Filled on demand, and over a token store that was asked for
        // every blocking column first, as the driver's is.
        let mut store = TokenStore::default();
        let needs = requirements(&features.features);
        let profiled = store.require(&clusters[0], &d.a, &d.b, &needs, None);
        assert_eq!(profiled.expect("profiles").len(), 2);
        let mut stores = [BuiltIndexes::new(), BuiltIndexes::over(&store)];
        for built in &mut stores {
            for spec in conjuncts.all_specs() {
                built.build_spec(&clusters[0], &d.a, &spec).expect("build");
            }
        }
        let sels: Vec<f64> = (0..seq.len()).map(|i| 0.2 + 0.1 * i as f64).collect();
        let exhaustive = corleone_blocking(&d.a, &d.b, &features, &seq, 1 << 40)
            .expect("baseline")
            .candidates;
        for op in OPS {
            let lines: Vec<String> = clusters
                .iter()
                .flat_map(|cluster| stores.iter().map(move |built| (cluster, built)))
                .map(|(cluster, built)| {
                    let out = physical::execute(
                        op,
                        cluster,
                        &d.a,
                        &d.b,
                        &features,
                        &seq,
                        &conjuncts,
                        built,
                        &sels,
                        1 << 40,
                    )
                    .unwrap_or_else(|e| panic!("{name} {op:?}: {e}"));
                    assert_eq!(out.candidates, exhaustive, "{name} {op:?} vs A x B");
                    line(name, &out)
                })
                .collect();
            for (l, cluster) in lines.iter().zip(clusters.iter().flat_map(|c| [c, c])) {
                assert_eq!(
                    l,
                    &lines[0],
                    "{name} {op:?}: output moved with the schedule or the store ({} threads, faults {})",
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
    assert!(
        mismatches.is_empty() && GOLDEN.lines().count() == recorded.len(),
        "blocking output differs from goldens/blocking.txt; lines not in it:\n{}\n\nfull replacement:\n{}\n",
        mismatches.join("\n"),
        recorded.join("\n")
    );
}
