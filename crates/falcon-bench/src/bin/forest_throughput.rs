//! Forest train/score throughput in the two shapes the pipeline has.
//!
//! * `wide`: one training on 1 500 examples × 8 features, then 40 000
//!   vectors through the compiled `FlatForest` batch kernels.
//! * `al`: what `al_matcher` does per run — the real operator over 16 000
//!   synthetic vectors × 40 features with a 5 %-error crowd and
//!   `convergence_eps = 0`, so it goes the full 30 rounds: 31 trainings on
//!   a labeled set growing 10 → 590 by 20, each of the 29 in-loop ones
//!   followed by scoring and selection over every unlabeled vector.
//!   Reports labels bought and latency per round, with the training
//!   share timed separately on the same labeled prefixes.
//!
//! Emits `BENCH_forest.json`. The baseline for any number here is the
//! same bin at the previous commit.

use falcon::core::fv::FvSet;
use falcon::core::ops::al_matcher::{al_matcher, AlConfig};
use falcon::core::timeline::Timeline;
use falcon::forest::{Dataset, Forest, ForestConfig};
use falcon::prelude::*;
use falcon_bench::{mean, title, Args};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// The AL cell's shape, about what `al_matcher` sees on the end-to-end
/// benchmark's workloads (arity 29–41, up to 16 264 pairs). Fixed:
/// `--scale` sizes the wide cell only, the 30-round schedule needs the
/// whole universe.
const AL_ARITY: usize = 40;
const AL_VECTORS: usize = 16_000;

/// Deterministic pseudo-random stream (splitmix-style LCG keyed by seed).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }
}

/// Synthetic labeled vectors: continuous features (many distinct split
/// candidates), sprinkled NaNs, and a noisy linear decision rule.
fn synthetic(n: usize, arity: usize, seed: u64) -> Dataset {
    let mut lcg = Lcg::new(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        let mut fv = Vec::with_capacity(arity);
        let mut signal = 0.0;
        for f in 0..arity {
            let v = lcg.unit();
            if lcg.next().is_multiple_of(13) {
                fv.push(f64::NAN);
            } else {
                fv.push(v);
                signal += v * (f + 1) as f64;
            }
        }
        let noisy = lcg.next().is_multiple_of(20);
        let label = (signal > 0.55 * (arity * (arity + 1) / 2) as f64) != noisy;
        d.push(fv, label);
    }
    d
}

struct Wide {
    train_secs: f64,
    score_secs: f64,
    preds_per_sec: f64,
}

fn wide(train: &Dataset, queries: &[Vec<f64>], threads: usize, runs: usize, seed: u64) -> Wide {
    let cfg = ForestConfig::default();
    let (mut train_secs, mut score_secs) = (Vec::new(), Vec::new());
    for run in 0..runs {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(run as u64));
        let t0 = Instant::now();
        let forest = Forest::train_threads(train, &cfg, &mut rng, threads);
        train_secs.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let flat = forest.flatten();
        let mut votes = Vec::new();
        flat.count_votes_into(queries.len(), |j| queries[j].as_slice(), &mut votes);
        let dis: Vec<f64> = votes
            .iter()
            .map(|&v| flat.disagreement_from_votes(v))
            .collect();
        let pred: Vec<bool> = votes.iter().map(|&v| flat.predict_from_votes(v)).collect();
        score_secs.push(t0.elapsed().as_secs_f64());
        std::hint::black_box((dis, pred));
    }
    Wide {
        train_secs: mean(&train_secs),
        score_secs: mean(&score_secs),
        // Disagreement + prediction per vector.
        preds_per_sec: (queries.len() * 2) as f64 / mean(&score_secs),
    }
}

struct Al {
    trainings: usize,
    trained_examples: usize,
    labels: usize,
    rounds: usize,
    wall_secs: f64,
    train_secs: f64,
}

fn al(universe: &Dataset, threads: usize, runs: usize, seed: u64) -> Al {
    let n = universe.len();
    let fvs = FvSet {
        pairs: (0..n as u32).map(|i| (i, i)).collect(),
        fvs: universe.features.clone(),
    };
    let matches = (0..n as u32).filter(|&i| universe.labels[i as usize]);
    let truth = GroundTruth::new(matches.map(|i| (i, i)));
    let higher = vec![true; universe.arity()];
    let cluster = Cluster::new(ClusterConfig::small(threads)).with_threads(threads);
    let cfg = AlConfig {
        convergence_eps: 0.0,
        seed,
        ..AlConfig::default()
    };
    let (mut wall, mut train) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..runs.max(1) {
        let mut session = CrowdSession::new(RandomWorkerCrowd::new(truth.clone(), 0.05, seed));
        let mut timeline = Timeline::new();
        let t0 = Instant::now();
        let learned = al_matcher(
            &cluster,
            &mut session,
            &mut timeline,
            "al",
            &fvs,
            &higher,
            &cfg,
        )
        .expect("al_matcher");
        wall.push(t0.elapsed().as_secs_f64());

        // The trainings that run made, replayed on their own: one on the
        // seed set, one per in-loop round before its batch is folded in,
        // one final.
        let seeds = learned
            .labeled
            .len()
            .saturating_sub((learned.iterations - 1) * cfg.batch);
        let mut sizes = vec![seeds];
        sizes.extend((0..learned.iterations - 1).map(|r| seeds + r * cfg.batch));
        sizes.push(learned.labeled.len());
        let mut rng = SmallRng::seed_from_u64(seed);
        let t0 = Instant::now();
        for &size in &sizes {
            let mut data = Dataset::new();
            for &(i, l) in &learned.labeled[..size] {
                data.push(fvs.fvs[i].clone(), l);
            }
            std::hint::black_box(Forest::train_threads(&data, &cfg.forest, &mut rng, threads));
        }
        train.push(t0.elapsed().as_secs_f64());
        last = Some((learned, sizes));
    }
    // Every run is the same run: same seed, same crowd, same labels.
    let (learned, sizes) = last.expect("at least one run");
    Al {
        trainings: sizes.len(),
        trained_examples: sizes.iter().sum(),
        labels: learned.labeled.len(),
        rounds: learned.iterations,
        wall_secs: mean(&wall),
        train_secs: mean(&train),
    }
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let runs: usize = args.get("runs", 3);
    let seed: u64 = args.get("seed", 1);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads: usize = args.get("threads", nproc);
    let scaled = |n: usize| ((n as f64 * scale) as usize).max(10);

    let wide_arity: usize = args.get("arity", 8);
    let wide_train = synthetic(scaled(args.get("train", 1500)), wide_arity, seed);
    let wide_score = synthetic(scaled(args.get("score", 40_000)), wide_arity, seed ^ 0x5eed);
    let al_universe = synthetic(AL_VECTORS, AL_ARITY, seed ^ 0xa1);

    title(&format!(
        "forest throughput: {} trees, {runs} runs, nproc {nproc}, {threads} threads",
        ForestConfig::default().n_trees,
    ));
    let w = wide(&wide_train, &wide_score.features, threads, runs, seed);
    println!(
        "wide  {} x {wide_arity} train {:.4}s ({:.0} examples/s), {} vectors scored {:.4}s ({:.0} preds/s)",
        wide_train.len(),
        w.train_secs,
        wide_train.len() as f64 / w.train_secs,
        wide_score.len(),
        w.score_secs,
        w.preds_per_sec,
    );
    let a = al(&al_universe, threads, runs, seed);
    println!(
        "al    {} x {AL_ARITY} universe: {} labels in {} rounds; {:.4}s per run, {:.2} ms per round; {} trainings ({} examples) {:.4}s = {:.0} examples/s",
        al_universe.len(),
        a.labels,
        a.rounds,
        a.wall_secs,
        a.wall_secs / a.rounds as f64 * 1e3,
        a.trainings,
        a.trained_examples,
        a.train_secs,
        a.trained_examples as f64 / a.train_secs,
    );

    let json = format!(
        "{{\n  \"bench\": \"forest_throughput\",\n  \"trees\": {},\n  \"runs\": {runs},\n  \"nproc\": {nproc},\n  \"threads\": {threads},\n  \"wide\": {{ \"train_examples\": {}, \"arity\": {wide_arity}, \"score_vectors\": {}, \"train_secs\": {:.6}, \"train_examples_per_sec\": {:.1}, \"score_secs\": {:.6}, \"preds_per_sec\": {:.1} }},\n  \"al\": {{ \"vectors\": {}, \"arity\": {AL_ARITY}, \"rounds\": {}, \"labels\": {}, \"wall_secs\": {:.6}, \"ms_per_round\": {:.3}, \"trainings\": {}, \"trained_examples\": {}, \"train_secs\": {:.6}, \"train_examples_per_sec\": {:.1} }}\n}}\n",
        ForestConfig::default().n_trees,
        wide_train.len(),
        wide_score.len(),
        w.train_secs,
        wide_train.len() as f64 / w.train_secs,
        w.score_secs,
        w.preds_per_sec,
        al_universe.len(),
        a.rounds,
        a.labels,
        a.wall_secs,
        a.wall_secs / a.rounds as f64 * 1e3,
        a.trainings,
        a.trained_examples,
        a.train_secs,
        a.trained_examples as f64 / a.train_secs,
    );
    std::fs::write("BENCH_forest.json", &json).expect("write BENCH_forest.json");
    println!("\nwrote BENCH_forest.json");
}
