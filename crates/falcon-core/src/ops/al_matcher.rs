//! `al_matcher` (Sections 4.2, 9, 10.2): crowdsourced active learning of a
//! random-forest matcher.
//!
//! Each iteration trains a forest on the labeled pairs so far, scores the
//! unlabeled pairs by vote disagreement on the cluster, sends the 20 most
//! controversial pairs to the crowd, and folds the labels back in — until
//! convergence or the iteration cap `k = 30` (the crowd-time cap of
//! Section 3.4).
//!
//! With [`AlConfig::mask_pair_selection`] the operator runs the paper's
//! Optimization 3: the first iteration selects a double batch, and from
//! then on model retraining and next-batch selection happen *during* the
//! crowd's labeling round — pair-selection machine time is recorded
//! against the masking budget rather than the critical path. The learned
//! matcher is an approximation (selection is one round stale), which the
//! paper shows costs negligible accuracy.

use crate::error::FalconError;
use crate::fv::FvSet;
use crate::ops::bitmap::Bitmap;
use crate::stage::StageCost;
use crate::timeline::{check_cancel, Timeline};
use falcon_crowd::{Crowd, CrowdSession};
use falcon_dataflow::{run_map_only, Cluster};
use falcon_forest::{FlatForest, Forest, ForestConfig, RankedDataset};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Active-learning configuration.
#[derive(Debug, Clone)]
pub struct AlConfig {
    /// Iteration cap `k` (paper: 30).
    pub max_iterations: usize,
    /// Pairs labeled per iteration (paper: 20).
    pub batch: usize,
    /// Convergence threshold on the maximum vote disagreement.
    pub convergence_eps: f64,
    /// Seed positives/negatives requested in the first round (half each).
    pub seeds: usize,
    /// Enable the masked-pair-selection optimization.
    pub mask_pair_selection: bool,
    /// Pair indices to label in the very first round (the Difficult
    /// Pairs' Locator feeds these in the iterative workflow).
    pub priority_indices: Vec<usize>,
    /// Forest configuration.
    pub forest: ForestConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlConfig {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            batch: 20,
            convergence_eps: 0.05,
            seeds: 10,
            mask_pair_selection: false,
            priority_indices: Vec::new(),
            forest: ForestConfig::default(),
            seed: 7,
        }
    }
}

/// Output of `al_matcher`.
pub struct AlOutput {
    /// The learned matcher.
    pub forest: Forest,
    /// Labeled examples as `(index into the FvSet, label)`.
    pub labeled: Vec<(usize, bool)>,
    /// Crowd iterations executed.
    pub iterations: usize,
    /// True iff stopped by convergence rather than the cap.
    pub converged: bool,
}

/// Heuristic "likely match" score for seeding: mean of the non-missing
/// similarity-oriented feature values.
fn seed_score(fv: &[f64], higher: &[bool]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (v, &h) in fv.iter().zip(higher) {
        if h && !v.is_nan() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Positive-vote counts of the pairs `idxs`, scored on the cluster and
/// aligned with `idxs`, plus the price of the job.
fn score_votes(
    cluster: &Cluster,
    flat: &FlatForest,
    fvs: &FvSet,
    idxs: &[usize],
) -> Result<(Vec<u32>, StageCost), FalconError> {
    // A map task scores its whole split with the compiled forest's batch
    // kernel instead of pointer-chasing `Node`s one vector at a time. The
    // scoped dataflow workers borrow the indices, flat forest and vectors
    // directly — no per-iteration copies.
    let splits = cluster.split_slice(idxs);
    let out = run_map_only(cluster, splits, |idx_chunk: &[usize], out| {
        let mut votes = Vec::new();
        flat.count_votes_into(
            idx_chunk.len(),
            |j| fvs.fvs[idx_chunk[j]].as_slice(),
            &mut votes,
        );
        out.append(&mut votes);
    })?;
    // One count per index, task outputs concatenated in split order.
    assert_eq!(out.output.len(), idxs.len());
    Ok((out.output, StageCost::of([&out.stats], &cluster.config)))
}

/// The `batch` most controversial of `idxs` and the maximum disagreement
/// among them all. Defined as: sort by `(disagreement descending under
/// total_cmp, index ascending)` and take `batch`; the maximum is the
/// `f64::max` fold from 0. Only the kept prefix is ever sorted.
fn top_controversial(
    flat: &FlatForest,
    idxs: &[usize],
    votes: &[u32],
    batch: usize,
) -> (Vec<usize>, f64) {
    // `v` and `n_trees - v` votes can differ in the last bit, so rank by
    // the score itself, not by distance from an even split.
    let mut scored: Vec<(f64, usize)> = votes
        .iter()
        .zip(idxs)
        .map(|(&v, &i)| (flat.disagreement_from_votes(v), i))
        .collect();
    let max_dis = scored.iter().map(|s| s.0).fold(0.0f64, f64::max);
    let most_first = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if batch < scored.len() {
        scored.select_nth_unstable_by(batch, most_first);
        scored.truncate(batch);
    }
    scored.sort_unstable_by(most_first);
    (scored.into_iter().map(|(_, i)| i).collect(), max_dis)
}

/// The seed round's pairs: the in-range `priority` entries (repeats
/// kept), then the `half` highest- and the `half` lowest-scoring pairs not
/// already listed. Defined as: sort every pair by `(score descending under
/// total_cmp, index ascending)`, take `half` from the front, then `half`
/// from the back walking backwards. Only the two kept ends are sorted.
fn seed_pairs(scores: &[f64], priority: &[usize], half: usize) -> Vec<usize> {
    let n = scores.len();
    let mut scored: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
    let most_first = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    let half = half.min(n);
    if 2 * half < n {
        // The first `half` in order, then the last `half` of the rest.
        scored.select_nth_unstable_by(half, most_first);
        scored[half..].select_nth_unstable_by(n - 2 * half, most_first);
        scored[..half].sort_unstable_by(most_first);
        scored[n - half..].sort_unstable_by(most_first);
    } else {
        scored.sort_unstable_by(most_first);
    }
    let mut listed = Bitmap::zeros(n);
    let mut picks: Vec<usize> = priority.iter().copied().filter(|&i| i < n).collect();
    picks.iter().for_each(|&i| listed.set(i));
    let ends = scored[..half].iter().chain(scored[n - half..].iter().rev());
    for &(_, i) in ends {
        if !listed.get(i) {
            listed.set(i);
            picks.push(i);
        }
    }
    picks
}

/// The pair indices outside `taken`, ascending.
fn untaken(taken: &Bitmap) -> Vec<usize> {
    (0..taken.len()).filter(|&i| !taken.get(i)).collect()
}

/// Score every pair outside `taken` with `forest` and pick the next
/// batch: `(picked, maximum disagreement, price of the scoring job)`.
fn select(
    cluster: &Cluster,
    forest: &Forest,
    fvs: &FvSet,
    taken: &Bitmap,
    batch: usize,
) -> Result<(Vec<usize>, f64, StageCost), FalconError> {
    let flat = forest.flatten();
    let idxs = untaken(taken);
    let (votes, cost) = score_votes(cluster, &flat, fvs, &idxs)?;
    let (picked, max_dis) = top_controversial(&flat, &idxs, &votes, batch);
    Ok((picked, max_dis, cost))
}

/// Run `al_matcher` over a feature-vector set. `higher` flags which
/// features are similarity-oriented (for seeding); crowd interaction goes
/// through `session` and timings through `timeline` under `label`.
pub fn al_matcher<C: Crowd>(
    cluster: &Cluster,
    session: &mut CrowdSession<C>,
    timeline: &mut Timeline,
    label: &str,
    fvs: &FvSet,
    higher: &[bool],
    cfg: &AlConfig,
) -> Result<AlOutput, FalconError> {
    if fvs.is_empty() {
        return Err(FalconError::EmptyInput {
            what: "feature vectors",
        });
    }
    // Every pair index below is used on both fields.
    assert_eq!(fvs.fvs.len(), fvs.pairs.len(), "one vector per pair");
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x414c4d41);
    // Pairs out of the running for selection: labeled, or (masked mode)
    // picked and waiting for the crowd.
    let mut taken = Bitmap::zeros(fvs.len());
    // The labeled set keeps its rank compile from round to round.
    let mut data = RankedDataset::new();
    let mut labeled: Vec<(usize, bool)> = Vec::new();
    let mut iterations = 0usize;
    let mut converged = false;

    let label_batch = |idxs: &[usize],
                       session: &mut CrowdSession<C>,
                       timeline: &mut Timeline,
                       data: &mut RankedDataset,
                       labeled: &mut Vec<(usize, bool)>,
                       taken: &mut Bitmap| {
        let pairs: Vec<_> = idxs.iter().map(|&i| fvs.pairs[i]).collect();
        let (answers, latency) = session.label_batch(&pairs);
        timeline.crowd(label, latency);
        let start = labeled.len();
        for (&i, (_, l)) in idxs.iter().zip(answers) {
            taken.set(i);
            labeled.push((i, l));
        }
        data.extend(
            labeled[start..]
                .iter()
                .map(|&(i, l)| (fvs.fvs[i].clone(), l)),
        );
    };
    let train = |data: &RankedDataset, rng: &mut SmallRng| {
        Forest::train_ranked(data, &cfg.forest, rng, cluster.threads())
    };
    // Training is a driver-local pass: every tree reads every labeled
    // example.
    let train_cost =
        |data: &RankedDataset| StageCost::local(data.data().len() * cfg.forest.n_trees);

    // ---- Seed round: likely positives + likely negatives ----
    let scores: Vec<f64> = fvs.fvs.iter().map(|fv| seed_score(fv, higher)).collect();
    let half = (cfg.seeds / 2).max(1).min(fvs.len() / 2 + 1);
    let seed_idx = seed_pairs(&scores, &cfg.priority_indices, half);
    // Seed scoring is a driver-local pass over every vector.
    timeline.machine(label, StageCost::local(fvs.len()));
    label_batch(
        &seed_idx,
        session,
        timeline,
        &mut data,
        &mut labeled,
        &mut taken,
    );
    iterations += 1;

    // Guarantee two classes if possible: label random extras (up to 3
    // extra rounds).
    let mut guard = 0;
    while (data.data().positives() == 0 || data.data().positives() == data.data().len())
        && guard < 3
    {
        let mut rest = untaken(&taken);
        if rest.is_empty() {
            break;
        }
        rest.shuffle(&mut rng);
        rest.truncate(cfg.batch);
        label_batch(
            &rest,
            session,
            timeline,
            &mut data,
            &mut labeled,
            &mut taken,
        );
        iterations += 1;
        guard += 1;
    }

    let mut forest = train(&data, &mut rng);

    // ---- Active-learning iterations ----
    // In masked mode `pending` is the batch currently "at the crowd";
    // selection of the following batch happens during that round.
    let mut pending: Vec<usize> = Vec::new();
    if cfg.mask_pair_selection {
        let (picked, _, scored) = select(cluster, &forest, fvs, &taken, cfg.batch * 2)?;
        // First (double) selection cannot be masked: nothing is at the
        // crowd yet.
        timeline.machine(label, scored);
        picked.iter().for_each(|&i| taken.set(i));
        pending = picked;
    }

    // Stop once every pair is labeled: `taken` minus the picked-but-unasked.
    while iterations < cfg.max_iterations && taken.count() - pending.len() < fvs.len() {
        // Cancellation point: a scheduler-cancelled tenant stops asking
        // crowd questions between AL iterations, with its journal intact.
        check_cancel(timeline, session)?;
        if cfg.mask_pair_selection {
            if pending.is_empty() {
                converged = true;
                break;
            }
            let now_batch: Vec<usize> = pending.drain(..pending.len().min(cfg.batch)).collect();
            // Post `now_batch`; while the crowd works, retrain and select
            // the next batch (masked machine time) among the pairs neither
            // labeled nor already picked.
            forest = train(&data, &mut rng);
            let (picked, max_dis, scored) = select(cluster, &forest, fvs, &taken, cfg.batch)?;
            timeline.masked_machine(label, train_cost(&data) + scored);
            if max_dis >= cfg.convergence_eps {
                picked.iter().for_each(|&i| taken.set(i));
                pending.extend(picked);
            }
            label_batch(
                &now_batch,
                session,
                timeline,
                &mut data,
                &mut labeled,
                &mut taken,
            );
            iterations += 1;
        } else {
            // Unmasked: select with the freshest model, on the critical
            // path.
            forest = train(&data, &mut rng);
            let (batch, max_dis, scored) = select(cluster, &forest, fvs, &taken, cfg.batch)?;
            timeline.machine(label, train_cost(&data) + scored);
            if max_dis < cfg.convergence_eps || batch.is_empty() {
                converged = true;
                break;
            }
            label_batch(
                &batch,
                session,
                timeline,
                &mut data,
                &mut labeled,
                &mut taken,
            );
            iterations += 1;
        }
    }

    // Final matcher trained on everything labeled.
    let forest = train(&data, &mut rng);
    timeline.machine(label, train_cost(&data));

    Ok(AlOutput {
        forest,
        labeled,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_crowd::sim::{GroundTruth, OracleCrowd};
    use falcon_dataflow::ClusterConfig;
    use rand::Rng;

    /// A linearly separable synthetic pair universe: pairs (i, i) match.
    fn fixture(n: usize) -> (FvSet, GroundTruth, Vec<bool>) {
        let mut fvs = FvSet::default();
        let mut matches = Vec::new();
        for i in 0..n as u32 {
            for j in 0..3u32 {
                let b = (i + j * 7) % n as u32;
                let is_match = i == b;
                let sim = if is_match { 0.9 } else { 0.1 };
                fvs.pairs.push((i, b));
                fvs.fvs.push(vec![sim, 1.0 - sim]);
                if is_match {
                    matches.push((i, b));
                }
            }
        }
        (fvs, GroundTruth::new(matches), vec![true, false])
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    #[test]
    fn learns_separable_matcher() {
        let (fvs, truth, higher) = fixture(40);
        let mut session = CrowdSession::new(OracleCrowd::new(truth.clone()));
        let mut tl = Timeline::new();
        let out = al_matcher(
            &cluster(),
            &mut session,
            &mut tl,
            "al_matcher",
            &fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        // Perfect on the training universe.
        for (pair, fv) in fvs.iter() {
            assert_eq!(out.forest.predict(fv), truth.is_match(pair), "{pair:?}");
        }
        assert!(out.iterations <= 30);
        assert!(!out.labeled.is_empty());
    }

    #[test]
    fn converges_before_cap_on_easy_data() {
        let (fvs, truth, higher) = fixture(40);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = al_matcher(
            &cluster(),
            &mut session,
            &mut tl,
            "al",
            &fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        assert!(out.converged);
        assert!(out.iterations < 30, "{}", out.iterations);
    }

    #[test]
    fn iteration_cap_respected() {
        let (fvs, truth, higher) = fixture(60);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let cfg = AlConfig {
            max_iterations: 3,
            convergence_eps: 0.0,
            ..Default::default()
        };
        let out =
            al_matcher(&cluster(), &mut session, &mut tl, "al", &fvs, &higher, &cfg).expect("al");
        assert!(out.iterations <= 3);
    }

    #[test]
    fn masked_selection_matches_accuracy() {
        let (fvs, truth, higher) = fixture(40);
        let mut tl = Timeline::new();
        let mut session = CrowdSession::new(OracleCrowd::new(truth.clone()));
        let cfg = AlConfig {
            mask_pair_selection: true,
            ..Default::default()
        };
        let out =
            al_matcher(&cluster(), &mut session, &mut tl, "al", &fvs, &higher, &cfg).expect("al");
        let correct = fvs
            .iter()
            .filter(|(p, fv)| out.forest.predict(fv) == truth.is_match(*p))
            .count();
        assert!(correct as f64 / fvs.len() as f64 > 0.95);
        // Masked mode must have logged masked machine segments.
        assert!(tl
            .segments()
            .iter()
            .any(|s| matches!(s, crate::timeline::Segment::MaskedMachine { .. })));
    }

    #[test]
    fn crowd_rounds_equal_iterations() {
        let (fvs, truth, higher) = fixture(30);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let out = al_matcher(
            &cluster(),
            &mut session,
            &mut tl,
            "al",
            &fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        assert_eq!(session.ledger().rounds, out.iterations);
    }

    /// The seed picks against their definition — sort every pair by
    /// `(score descending under total_cmp, index ascending)`, list the
    /// in-range priority entries (repeats kept), then append the first
    /// `half` and the last `half` walking backwards, skipping listed
    /// pairs — over heavily tied scores (index order decides), `±0.0`
    /// and NaN, ends that overlap, and priority lists with repeats and
    /// out-of-range entries.
    #[test]
    fn seed_pairs_equal_their_definition() {
        let mut rng = SmallRng::seed_from_u64(11);
        let palette = [0.0, -0.0, 0.25, 0.5, 1.0, f64::NAN];
        for case in 0..2000 {
            let n = rng.gen_range(0..40usize);
            let scores: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    0 => palette[rng.gen_range(0..palette.len())],
                    1 => 0.5,
                    _ => rng.gen::<f64>(),
                })
                .collect();
            let priority: Vec<usize> = (0..rng.gen_range(0..4))
                .map(|_| rng.gen_range(0..n + 3))
                .collect();
            let half = rng.gen_range(1..8usize).min(n / 2 + 1);

            let mut sorted: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
            sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut want: Vec<usize> = priority.iter().copied().filter(|&i| i < n).collect();
            for (i, _) in sorted
                .iter()
                .take(half)
                .chain(sorted.iter().rev().take(half))
            {
                if !want.contains(i) {
                    want.push(*i);
                }
            }
            assert_eq!(seed_pairs(&scores, &priority, half), want, "case {case}");
        }
    }

    /// The partial selection against its definition — sort every pair
    /// outside `taken` by `(disagreement descending under total_cmp, index
    /// ascending)`, take `batch`, fold the maximum from 0 — over random
    /// votes, all-equal votes (index order decides), votes confined to
    /// `v` / `n_trees - v` (scores that differ in the last bit), nothing /
    /// some (labeled plus pending) / everything taken, and batches from 0
    /// to beyond the unlabeled count.
    #[test]
    fn selection_equals_its_definition() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut mirrored_scores_differ = false;
        for n_trees in [1usize, 2, 7, 10, 11] {
            let flat = FlatForest {
                arity: 0,
                n_trees,
                roots: Vec::new(),
                feature: Vec::new(),
                threshold: Vec::new(),
                left: Vec::new(),
                right: Vec::new(),
                leaf_label: Vec::new(),
            };
            let dis = |v: u32| flat.disagreement_from_votes(v);
            let top = n_trees as u32;
            mirrored_scores_differ |= (0..=top).any(|v| dis(v).to_bits() != dis(top - v).to_bits());
            for case in 0..270 {
                let n = rng.gen_range(0..90usize);
                let v = rng.gen_range(0..=top);
                let all_votes: Vec<u32> = (0..n)
                    .map(|_| match case % 3 {
                        0 => rng.gen_range(0..=top),
                        1 => v,
                        _ => [v, top - v][rng.gen_range(0..2usize)],
                    })
                    .collect();
                let taken_rate = [0.0, 0.4, 1.0][case / 3 % 3];
                let mut taken = Bitmap::zeros(n);
                (0..n)
                    .filter(|_| rng.gen_bool(taken_rate))
                    .for_each(|i| taken.set(i));
                let batch = [0, 1, 20, n, n + 5][case / 9 % 5];

                let mut sorted: Vec<(usize, f64)> = (0..n)
                    .filter(|&i| !taken.get(i))
                    .map(|i| (i, dis(all_votes[i])))
                    .collect();
                let want_max = sorted.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let want: Vec<usize> = sorted.into_iter().take(batch).map(|(i, _)| i).collect();

                let idxs = untaken(&taken);
                let votes: Vec<u32> = idxs.iter().map(|&i| all_votes[i]).collect();
                let (got, got_max) = top_controversial(&flat, &idxs, &votes, batch);
                assert_eq!(got, want, "{n_trees} trees, case {case}, batch {batch}");
                assert_eq!(got_max.to_bits(), want_max.to_bits());
            }
        }
        assert!(mirrored_scores_differ, "the unequal-mirror case never ran");
    }
}
