//! Feature-vector throughput: `gen_fvs` on the legacy
//! render-and-tokenize-per-feature path vs the token-profile path
//! (per-tuple token / tf·idf / char columns + rendered-value cache), and
//! where the token-profile path spends its time: the matching feature set
//! re-run one similarity measure at a time. Emits `BENCH_fv.json` with the
//! host's parallelism, pairs/sec for both modes and the per-measure
//! breakdown. A per-layer history file: `benchmark/` is what performance
//! claims are measured with.

use falcon::core::features::{generate_features, FeatureSet};
use falcon::core::ops::gen_fvs::{gen_fvs_with, FvMode};
use falcon::prelude::*;
use falcon::table::IdPair;
use falcon_bench::{dataset, mean, title, Args};
use std::time::Instant;

/// Deterministic pseudo-random pairs (splitmix-style LCG keyed by seed).
fn random_pairs(n: usize, a_len: usize, b_len: usize, seed: u64) -> Vec<IdPair> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    (0..n)
        .map(|_| {
            (
                (next() % a_len as u64) as u32,
                (next() % b_len as u64) as u32,
            )
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let runs: usize = args.get("runs", 3);
    let seed: u64 = args.get("seed", 1);
    let name: String = args.get("dataset", "songs".to_string());
    let n_pairs: usize = args.get("pairs", 20_000);

    let d = dataset(&name, scale, seed);
    let cluster = Cluster::new(ClusterConfig::default());
    let lib = generate_features(&d.a, &d.b);
    let pairs = random_pairs(
        n_pairs.min(d.a.len() * d.b.len()),
        d.a.len(),
        d.b.len(),
        seed,
    );

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    title(&format!(
        "gen_fvs throughput: {name} {}x{} tuples, {} pairs, {runs} runs, nproc {nproc}, {} cluster threads",
        d.a.len(),
        d.b.len(),
        pairs.len(),
        cluster.threads(),
    ));

    let mut sections = Vec::new();
    for (lib_name, features) in [("blocking", &lib.blocking), ("matching", &lib.matching)] {
        let mut wall = [Vec::new(), Vec::new()];
        let mut outputs = Vec::new();
        for (slot, mode) in [(0usize, FvMode::Legacy), (1, FvMode::TokenProfile)] {
            for r in 0..runs {
                let t0 = Instant::now();
                let out =
                    gen_fvs_with(&cluster, &d.a, &d.b, &pairs, features, mode).expect("gen_fvs");
                wall[slot].push(t0.elapsed().as_secs_f64());
                if r == 0 {
                    outputs.push(out);
                }
            }
        }

        // Sanity: both modes must produce bit-identical feature vectors.
        let (legacy, profiled) = (&outputs[0].fvs, &outputs[1].fvs);
        assert_eq!(legacy.pairs, profiled.pairs, "pair order diverged");
        for (l, p) in legacy.fvs.iter().zip(&profiled.fvs) {
            for (x, y) in l.iter().zip(p) {
                assert_eq!(x.to_bits(), y.to_bits(), "feature vectors diverged");
            }
        }

        let rate = |w: &[f64]| pairs.len() as f64 / mean(w);
        let (legacy_rate, profile_rate) = (rate(&wall[0]), rate(&wall[1]));
        let speedup = profile_rate / legacy_rate;
        println!(
            "\n{lib_name} feature set ({} features):",
            features.features.len()
        );
        println!("{:<14} {:>12} {:>14}", "mode", "mean wall", "pairs/sec");
        for (label, w) in [("legacy", &wall[0]), ("token-profile", &wall[1])] {
            println!(
                "{label:<14} {:>11.3}s {:>14.0}",
                mean(w),
                pairs.len() as f64 / mean(w)
            );
        }
        println!("speedup: {speedup:.2}x (vectors bit-identical across modes)");
        sections.push(format!(
            "  \"{lib_name}\": {{\n    \"features\": {},\n    \"legacy\": {{ \"mean_wall_secs\": {:.6}, \"pairs_per_sec\": {:.1} }},\n    \"token_profile\": {{ \"mean_wall_secs\": {:.6}, \"pairs_per_sec\": {:.1} }},\n    \"speedup\": {:.3}\n  }}",
            features.features.len(),
            mean(&wall[0]),
            legacy_rate,
            mean(&wall[1]),
            profile_rate,
            speedup,
        ));
    }

    // Where the token-profile path spends its time: the matching set, one
    // measure (all of its features) at a time. Shares are of the summed
    // per-measure walls; each run repeats the profile build for its
    // columns, as a stage over only that measure would.
    let mut by_measure: Vec<(String, usize, f64)> = Vec::new();
    for f in &lib.matching.features {
        let measure = f.sim.name();
        if by_measure.iter().any(|(m, _, _)| *m == measure) {
            continue;
        }
        let only = FeatureSet {
            features: lib
                .matching
                .features
                .iter()
                .filter(|g| g.sim == f.sim)
                .cloned()
                .collect(),
        };
        let wall: Vec<f64> = (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                gen_fvs_with(&cluster, &d.a, &d.b, &pairs, &only, FvMode::TokenProfile)
                    .expect("gen_fvs");
                t0.elapsed().as_secs_f64()
            })
            .collect();
        by_measure.push((measure, only.len(), mean(&wall)));
    }
    by_measure.sort_by(|x, y| y.2.total_cmp(&x.2));
    let total: f64 = by_measure.iter().map(|(_, _, w)| w).sum();
    println!("\nmatching feature set by measure (token-profile mode):");
    println!(
        "{:<24} {:>8} {:>11} {:>7}",
        "measure", "features", "mean wall", "share"
    );
    for (measure, n, wall) in &by_measure {
        println!(
            "{measure:<24} {n:>8} {:>9.1}ms {:>6.1}%",
            wall * 1e3,
            100.0 * wall / total
        );
    }
    let measures: Vec<String> = by_measure
        .iter()
        .map(|(measure, n, wall)| {
            format!(
                "    {{ \"measure\": \"{measure}\", \"features\": {n}, \"mean_wall_secs\": {wall:.6}, \"share\": {:.4} }}",
                wall / total
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"fv_throughput\",\n  \"dataset\": \"{name}\",\n  \"scale\": {scale},\n  \"runs\": {runs},\n  \"nproc\": {nproc},\n  \"cluster_threads\": {},\n  \"pairs\": {},\n{},\n  \"matching_by_measure\": [\n{}\n  ],\n  \"bit_identical\": true\n}}\n",
        cluster.threads(),
        pairs.len(),
        sections.join(",\n"),
        measures.join(",\n"),
    );
    std::fs::write("BENCH_fv.json", &json).expect("write BENCH_fv.json");
    println!("\nwrote BENCH_fv.json");
}
