//! Frozen outputs of `al_matcher`: for the matching feature vectors of
//! three datasets at fixed seeds, with and without masked pair selection,
//! with and without `priority_indices`, stopped by convergence and by the
//! iteration cap, the learned forest (as an FNV-1a digest of every node),
//! the labeled list, the iteration count, the convergence flag and the
//! crowd ledger must equal the lines of `goldens/al.txt` at 1, 2 and 8
//! cluster threads — and a forest retrained on the labeled examples must
//! hash the same at 1, 2 and 8 training threads.
//!
//! The golden file was recorded at the commit *before* the forest trainer
//! was rank-compiled and the selection step fused, so it pins "same RNG
//! stream, same forest, same pairs" against the retired presorted-column
//! trainer and the sort-everything selection without keeping them alive.
//! To re-record after an intended change, empty the file and run this
//! test: it fails printing the full replacement content.

use falcon_core::features::generate_features;
use falcon_core::fv::FvSet;
use falcon_core::ops::al_matcher::{al_matcher, AlConfig, AlOutput};
use falcon_core::ops::gen_fvs::gen_fvs;
use falcon_core::timeline::Timeline;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_crowd::{CrowdSession, Ledger};
use falcon_dataflow::{Cluster, ClusterConfig};
use falcon_datagen::EmDataset;
use falcon_forest::{Dataset, Forest};
use falcon_table::IdPair;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("goldens/al.txt");

/// FNV-1a accumulator over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every field of every node in preorder, every tree in order, plus the
/// arity and the out-of-bag estimate: the forest's serialized content.
/// Each tree's rows are its preorder, from its root to the next tree's.
fn forest_digest(forest: &Forest) -> u64 {
    let mut h = Fnv::new();
    h.eat(forest.arity as u64);
    h.eat(forest.roots.len() as u64);
    h.eat(forest.oob_accuracy.map_or(u64::MAX, f64::to_bits));
    let ends = forest.roots[1..]
        .iter()
        .copied()
        .chain([forest.feature.len() as u32]);
    for (&root, end) in forest.roots.iter().zip(ends) {
        h.eat(forest.arity as u64);
        for i in root as usize..end as usize {
            if forest.feature[i] == Forest::LEAF {
                h.eat(0);
                h.eat(u64::from(forest.leaf_label[i]));
                h.eat(u64::from(forest.pos[i]));
                h.eat(u64::from(forest.neg[i]));
            } else {
                h.eat(1);
                h.eat(u64::from(forest.feature[i]));
                h.eat(forest.threshold[i].to_bits());
            }
        }
    }
    h.0
}

fn labeled_digest(labeled: &[(usize, bool)]) -> u64 {
    let mut h = Fnv::new();
    for &(i, l) in labeled {
        h.eat(i as u64);
        h.eat(u64::from(l));
    }
    h.0
}

/// A fixed pair list per dataset: a quarter true matches, the rest
/// pseudo-random (the `fv_equivalence` recipe).
fn golden_pairs(d: &EmDataset, n: usize) -> Vec<IdPair> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |m: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % m as u64) as u32
    };
    let mut pairs: Vec<IdPair> = d.truth.iter().copied().take(n / 4).collect();
    while pairs.len() < n {
        pairs.push((next(d.a.len()), next(d.b.len())));
    }
    pairs
}

fn cluster(threads: usize) -> Cluster {
    Cluster::new(ClusterConfig::small(threads)).with_threads(threads)
}

/// `masked` and `priority` are `al_matcher`'s arguments of that name.
fn run(
    d: &EmDataset,
    fvs: &FvSet,
    higher: &[bool],
    cfg: &AlConfig,
    (masked, priority): (bool, &[usize]),
    threads: usize,
) -> String {
    // 5 % worker error: labels are noisy, so runs neither converge in two
    // rounds nor agree with the seed heuristic.
    let crowd = RandomWorkerCrowd::new(GroundTruth::new(d.truth.iter().copied()), 0.05, 23);
    let mut session = CrowdSession::new(crowd);
    let mut timeline = Timeline::new();
    let out = al_matcher(
        &cluster(threads),
        &mut session,
        &mut timeline,
        "al",
        fvs,
        higher,
        cfg,
        masked,
        priority,
        11,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", d.name));
    let ledger = session.ledger();
    line(d, fvs, cfg, (masked, priority.len()), &out, ledger)
}

/// One golden line: everything deterministic about an `al_matcher` run.
fn line(
    d: &EmDataset,
    fvs: &FvSet,
    cfg: &AlConfig,
    (masked, priority): (bool, usize),
    out: &AlOutput,
    ledger: Ledger,
) -> String {
    // The forest a fresh RNG grows from the labeled examples, at explicit
    // worker counts: the trainer itself on an AL-shaped training set.
    let mut data = Dataset::new();
    for &(i, l) in &out.labeled {
        data.push(fvs.fvs[i].clone(), l);
    }
    let retrain = |threads: usize| {
        let forest = Forest::train_threads(&data, &mut SmallRng::seed_from_u64(0xA1), threads);
        forest_digest(&forest)
    };
    let retrained = retrain(1);
    for threads in [2, 8] {
        assert_eq!(
            retrain(threads),
            retrained,
            "{}: retrained forest moved at {threads} training threads",
            d.name
        );
    }
    format!(
        "{} masked={} priority={} eps={} cap={} forest={:016x} retrained={retrained:016x} labeled={}:{:016x} \
         iterations={} converged={} ledger=q{}/a{}/l{}/e{}/h{}/r{}/${:.2}/{}s",
        d.name,
        masked,
        priority,
        cfg.convergence_eps,
        cfg.max_iterations,
        forest_digest(&out.forest),
        out.labeled.len(),
        labeled_digest(&out.labeled),
        out.iterations,
        out.converged,
        ledger.questions,
        ledger.answers,
        ledger.lost_answers,
        ledger.escalations,
        ledger.hits,
        ledger.rounds,
        ledger.cost,
        ledger.crowd_time.as_secs(),
    )
}

#[test]
fn al_matcher_outputs_match_the_recorded_goldens() {
    let datasets = [
        falcon_datagen::products::generate(0.015, 7),
        falcon_datagen::songs::generate(0.001, 7),
        falcon_datagen::citations::generate(0.0005, 7),
    ];
    let mut recorded = Vec::new();
    let mut mismatches = Vec::new();
    for d in &datasets {
        let lib = generate_features(&d.a, &d.b);
        let pairs = golden_pairs(d, 1200);
        let fvs = gen_fvs(&cluster(2), &d.a, &d.b, &pairs, &lib.matching)
            .expect("gen_fvs")
            .fvs;
        let higher: Vec<bool> = lib
            .matching
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        // In range, repeated, and out of range (dropped by the seed round)
        // indices.
        let priority = vec![3, 700, 3, 41, 1_000_000, 1199, 256];
        for masked in [false, true] {
            // Default convergence, with and without priority pairs; then
            // `eps = 0`, which only the iteration cap stops.
            for (priority, convergence_eps, max_iterations) in [
                (vec![], 0.05, 30),
                (priority.clone(), 0.05, 30),
                (vec![], 0.0, 12),
            ] {
                let cfg = AlConfig {
                    convergence_eps,
                    max_iterations,
                };
                let args = (masked, &priority[..]);
                let lines: Vec<String> = [1usize, 2, 8]
                    .iter()
                    .map(|&threads| run(d, &fvs, &higher, &cfg, args, threads))
                    .collect();
                for (l, threads) in lines.iter().zip([1, 2, 8]) {
                    assert_eq!(
                        l, &lines[0],
                        "{}: output moved with the schedule ({threads} threads)",
                        d.name
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
        "al_matcher output differs from goldens/al.txt; lines not in it:\n{}\n\nfull replacement:\n{}\n",
        mismatches.join("\n"),
        recorded.join("\n")
    );
}
