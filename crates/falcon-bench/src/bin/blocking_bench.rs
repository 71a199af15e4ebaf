//! Signature pre-filter benchmark: run `apply_blocking_rules` with the
//! pre-filter disabled (exact probes only) and enabled (Bloom-signature
//! popcount gate before the exact filters), on the same hand-built rule
//! sequence, and emit `BENCH_blocking.json` with the candidate-probe
//! reduction and the end-to-end blocking wall-time speedup. The final
//! candidate sets of the two paths are asserted byte-identical — the
//! pre-filter is provably lossless, so it may only change how much work
//! the probes and reducers do, never what survives. The output records
//! the host's parallelism and the cluster's thread count.
//!
//! Runs at 10× the standard bench scale by default (`--scale` multiplies
//! further) so the probe volume is large enough for timing to be stable.

use falcon::core::features::generate_features;
use falcon::core::indexing::{BuiltIndexes, ConjunctSpecs, PreFilterConfig};
use falcon::core::physical::{self, BlockingStats, PhysicalOp};
use falcon::core::rules::{Predicate, Rule, RuleSequence};
use falcon::forest::SplitOp;
use falcon::prelude::*;
use falcon_bench::{dataset, mean, title, Args};
use std::time::Instant;

/// Build a drop-rule sequence from the dataset's set-similarity blocking
/// features: up to `n` single-predicate rules `sim(attr) <= t -> drop`,
/// whose complements are the signature-accelerated set-sim filters. The
/// default single-rule sequence sends every probe survivor straight to
/// exact rule evaluation, which is where the pre-filter's pruning pays;
/// longer sequences shift the balance toward the conjunct intersection.
fn fixture_rules(
    features: &falcon::core::features::FeatureSet,
    threshold: f64,
    n: usize,
) -> RuleSequence {
    let mut rules = Vec::new();
    let mut seen_attrs = std::collections::HashSet::new();
    for (i, f) in features.features.iter().enumerate() {
        if f.sim.is_set_based() && seen_attrs.insert(f.a_attr.clone()) {
            rules.push(Rule {
                predicates: vec![Predicate {
                    feature: i,
                    op: SplitOp::Le,
                    threshold,
                    nan_is_high: true,
                }],
            });
        }
        if rules.len() == n {
            break;
        }
    }
    assert!(!rules.is_empty(), "dataset has no set-similarity feature");
    RuleSequence::new(rules)
}

struct PathResult {
    wall: Vec<f64>,
    build_secs: f64,
    candidates: Vec<falcon::table::IdPair>,
    stats: BlockingStats,
}

#[allow(clippy::too_many_arguments)]
fn run_path(
    label: &str,
    cluster: &Cluster,
    a: &falcon::table::Table,
    b: &falcon::table::Table,
    features: &falcon::core::features::FeatureSet,
    seq: &RuleSequence,
    prefilter: &PreFilterConfig,
    runs: usize,
) -> PathResult {
    let conjuncts = ConjunctSpecs::derive(seq, features).with_signatures(prefilter);
    let t0 = Instant::now();
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(cluster, a, &spec).expect("build");
    }
    let build_secs = t0.elapsed().as_secs_f64();
    let mut wall = Vec::new();
    let mut out = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = physical::execute(
            PhysicalOp::ApplyAll,
            cluster,
            a,
            b,
            features,
            seq,
            &conjuncts,
            &built,
            &vec![0.5; seq.len()],
            1 << 60,
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        wall.push(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    let out = out.expect("at least one run");
    println!(
        "{label:<12} wall {:.3}s (build {build_secs:.3}s), {} candidates",
        mean(&wall),
        out.candidates.len()
    );
    for c in &out.blocking.conjuncts {
        println!(
            "  conjunct[{}] modes [{}]: {} examined, {} sig-pruned, {} exact-pruned, {} survived",
            c.conjunct,
            c.modes.join(", "),
            c.pairs_examined,
            c.pruned_by_signature,
            c.pruned_by_exact,
            c.survived
        );
    }
    PathResult {
        wall,
        build_secs,
        candidates: out.candidates,
        stats: out.blocking,
    }
}

fn main() {
    let args = Args::parse();
    // 10x the standard bench scale: probe volume large enough that the
    // popcount gate's savings dominate timing noise.
    let scale: f64 = args.get("scale", 1.0) * 10.0;
    let runs: usize = args.get("runs", 3);
    let seed: u64 = args.get("seed", 1);
    let name: String = args.get("dataset", "songs".to_string());
    let threshold: f64 = args.get("threshold", 0.4);
    let words: usize = args.get("words", PreFilterConfig::default().words);
    let n_rules: usize = args.get("rules", 1);

    let d = dataset(&name, scale, seed);
    let cluster = Cluster::new(ClusterConfig::default());
    let lib = generate_features(&d.a, &d.b);
    let seq = fixture_rules(&lib.blocking, threshold, n_rules);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "dataset {name}: {}x{} tuples, {} drop rules at threshold {threshold}, {words}-word signatures, nproc {nproc}, {} cluster threads",
        d.a.len(),
        d.b.len(),
        seq.len(),
        cluster.threads()
    );

    title("Blocking with and without the signature pre-filter");
    let exact = run_path(
        "exact",
        &cluster,
        &d.a,
        &d.b,
        &lib.blocking,
        &seq,
        &PreFilterConfig {
            enabled: false,
            words: 0,
        },
        runs,
    );
    let pre = run_path(
        "prefiltered",
        &cluster,
        &d.a,
        &d.b,
        &lib.blocking,
        &seq,
        &PreFilterConfig {
            enabled: true,
            words,
        },
        runs,
    );

    // The load-bearing assertion: at the final post-rule-evaluation level
    // the two paths are equivalent — identical candidate pairs.
    assert_eq!(
        exact.candidates, pre.candidates,
        "pre-filtered candidates diverge from the exact path"
    );

    // Candidate-probe reduction: probes that had to run the exact filter
    // + reducer pipeline. Without signatures every examined probe pays
    // that cost; the popcount gate refutes `pruned_by_signature` of them
    // before any exact work.
    let exact_probes = exact.stats.pruned_by_exact() + exact.stats.survived();
    let pre_probes = pre.stats.pruned_by_exact() + pre.stats.survived();
    let probe_reduction = exact_probes as f64 / pre_probes.max(1) as f64;
    let wall_speedup = mean(&exact.wall) / mean(&pre.wall);
    println!(
        "\ncandidate probes reaching exact filters: {exact_probes} -> {pre_probes} ({probe_reduction:.2}x reduction)"
    );
    println!(
        "blocking wall time: {:.3}s -> {:.3}s ({wall_speedup:.2}x speedup)",
        mean(&exact.wall),
        mean(&pre.wall)
    );

    let modes: Vec<String> = pre
        .stats
        .conjuncts
        .iter()
        .map(|c| format!("\"{}\"", c.modes.join(",")))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"blocking\",\n  \"dataset\": \"{name}\",\n  \"scale\": {scale},\n  \"runs\": {runs},\n  \"nproc\": {nproc},\n  \"cluster_threads\": {},\n  \"rows_a\": {},\n  \"rows_b\": {},\n  \"rules\": {},\n  \"threshold\": {threshold},\n  \"signature_words\": {words},\n  \"planned_modes\": [{}],\n  \"exact\": {{ \"mean_wall_secs\": {:.6}, \"build_secs\": {:.6}, \"pairs_examined\": {}, \"pruned_by_exact\": {}, \"survived\": {} }},\n  \"prefiltered\": {{ \"mean_wall_secs\": {:.6}, \"build_secs\": {:.6}, \"pairs_examined\": {}, \"pruned_by_signature\": {}, \"pruned_by_exact\": {}, \"survived\": {} }},\n  \"candidate_probe_reduction\": {probe_reduction:.3},\n  \"wall_speedup\": {wall_speedup:.3},\n  \"final_sets_identical\": true\n}}\n",
        cluster.threads(),
        d.a.len(),
        d.b.len(),
        seq.len(),
        modes.join(", "),
        mean(&exact.wall),
        exact.build_secs,
        exact.stats.pairs_examined(),
        exact.stats.pruned_by_exact(),
        exact.stats.survived(),
        mean(&pre.wall),
        pre.build_secs,
        pre.stats.pairs_examined(),
        pre.stats.pruned_by_signature(),
        pre.stats.pruned_by_exact(),
        pre.stats.survived(),
    );
    std::fs::write("BENCH_blocking.json", &json).expect("write BENCH_blocking.json");
    println!("\nwrote BENCH_blocking.json");
}
