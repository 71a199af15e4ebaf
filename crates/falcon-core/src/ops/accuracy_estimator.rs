//! The Accuracy Estimator module of Corleone's EM workflow (Figure 1 of
//! the paper; listed in Section 12 as the next operator to add to
//! Falcon's plans).
//!
//! Estimates the matcher's precision and recall **over the candidate set**
//! using only crowd labels — no ground truth. Stratified sampling: one
//! stratum of predicted-positive pairs (estimates precision directly) and
//! one of predicted-negative pairs (estimates the false-negative density,
//! which combined with the strata sizes yields recall). Normal-
//! approximation error margins with finite-population correction, like
//! `eval_rules`.

use crate::fv::FvSet;
use crate::ops::eval_rules::error_margin;
use crate::timeline::Timeline;
use falcon_crowd::{Crowd, CrowdSession};
use falcon_forest::Forest;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Pairs sampled from the predicted-positive stratum.
pub const POSITIVE_SAMPLE: usize = 60;

/// Pairs sampled from the predicted-negative stratum.
pub const NEGATIVE_SAMPLE: usize = 60;

/// Pairs per crowd round (the paper's HIT shape: 20).
pub const ESTIMATOR_BATCH: usize = 20;

/// Crowd-estimated matcher accuracy over a candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyEstimate {
    /// Estimated precision.
    pub precision: f64,
    /// Error margin on precision.
    pub precision_margin: f64,
    /// Estimated recall (relative to the candidate set).
    pub recall: f64,
    /// Error margin on recall (first-order propagation).
    pub recall_margin: f64,
    /// Estimated F1.
    pub f1: f64,
    /// Crowd questions spent.
    pub questions: usize,
}

/// Estimate matcher accuracy on `fvs` with crowd labels; `seed` draws
/// the strata samples.
pub fn estimate_accuracy<C: Crowd>(
    session: &mut CrowdSession<C>,
    timeline: &mut Timeline,
    forest: &Forest,
    fvs: &FvSet,
    seed: u64,
) -> AccuracyEstimate {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x41434345);
    let mut positives = Vec::new();
    let mut negatives = Vec::new();
    // Stratify with one batch vote pass.
    for (i, pred) in forest.predict_batch(&fvs.fvs).into_iter().enumerate() {
        if pred {
            positives.push(i);
        } else {
            negatives.push(i);
        }
    }
    let (n_pos, n_neg) = (positives.len(), negatives.len());
    positives.shuffle(&mut rng);
    negatives.shuffle(&mut rng);
    positives.truncate(POSITIVE_SAMPLE);
    negatives.truncate(NEGATIVE_SAMPLE);

    let mut label_all = |idxs: &[usize]| -> Vec<bool> {
        let mut labels = Vec::with_capacity(idxs.len());
        for chunk in idxs.chunks(ESTIMATOR_BATCH) {
            let pairs: Vec<_> = chunk.iter().map(|&i| fvs.pairs[i]).collect();
            let (answers, latency) = session.label_batch(&pairs);
            timeline.crowd("accuracy_estimator", latency);
            labels.extend(answers.into_iter().map(|(_, l)| l));
        }
        labels
    };

    let pos_labels = label_all(&positives);
    let neg_labels = label_all(&negatives);
    let questions = pos_labels.len() + neg_labels.len();

    // Precision: fraction of sampled predicted-positives that are true.
    let tp_rate = if pos_labels.is_empty() {
        0.0
    } else {
        pos_labels.iter().filter(|l| **l).count() as f64 / pos_labels.len() as f64
    };
    let precision_margin = error_margin(tp_rate, pos_labels.len(), n_pos.max(2));

    // False-negative density among predicted negatives.
    let fn_rate = if neg_labels.is_empty() {
        0.0
    } else {
        neg_labels.iter().filter(|l| **l).count() as f64 / neg_labels.len() as f64
    };
    let fn_margin = error_margin(fn_rate, neg_labels.len(), n_neg.max(2));

    // Scale rates by strata sizes: TP ≈ tp_rate·|P|, FN ≈ fn_rate·|N|.
    let tp = tp_rate * n_pos as f64;
    let fn_ = fn_rate * n_neg as f64;
    let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
    // First-order margin propagation for recall.
    let recall_margin = if tp + fn_ > 0.0 {
        let dr_dtp = fn_ / (tp + fn_).powi(2);
        let dr_dfn = tp / (tp + fn_).powi(2);
        (dr_dtp * precision_margin * n_pos as f64).hypot(dr_dfn * fn_margin * n_neg as f64)
    } else {
        1.0
    }
    .min(1.0);

    let f1 = if tp_rate + recall > 0.0 {
        2.0 * tp_rate * recall / (tp_rate + recall)
    } else {
        0.0
    };
    AccuracyEstimate {
        precision: tp_rate,
        precision_margin,
        recall,
        recall_margin,
        f1,
        questions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_crowd::sim::{GroundTruth, OracleCrowd};
    use falcon_forest::{Dataset, ForestConfig};
    use rand::Rng;

    /// The seed the tests draw strata samples with.
    const SEED: u64 = 31;

    /// Candidate universe where feature 0 separates matches, and a forest
    /// trained to a known (imperfect) quality.
    fn fixture(flip_train: f64) -> (FvSet, GroundTruth, Forest) {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut fvs = FvSet::default();
        let mut matches = Vec::new();
        let mut data = Dataset::new();
        for i in 0..600u32 {
            let is_match = i % 5 == 0;
            let v = if is_match { 0.8 } else { 0.2 };
            // Add noise so the matcher is imperfect when flip_train > 0.
            let noisy = v + rng.gen_range(-0.15..0.15);
            fvs.pairs.push((i, i));
            fvs.fvs.push(vec![noisy]);
            if is_match {
                matches.push((i, i));
            }
            let label = if rng.gen_bool(flip_train) {
                !is_match
            } else {
                is_match
            };
            data.push(vec![noisy], label);
        }
        let forest = Forest::train(&data, &ForestConfig::default(), &mut rng);
        (fvs, GroundTruth::new(matches), forest)
    }

    #[test]
    fn near_perfect_matcher_estimates_high() {
        let (fvs, truth, forest) = fixture(0.0);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let est = estimate_accuracy(&mut session, &mut tl, &forest, &fvs, SEED);
        assert!(est.precision > 0.9, "{est:?}");
        assert!(est.recall > 0.85, "{est:?}");
        assert!(est.questions > 0);
        assert!(est.precision_margin < 0.2);
    }

    #[test]
    fn estimate_tracks_true_quality() {
        // Degrade the matcher; the estimate must notice.
        let (fvs, truth, forest) = fixture(0.25);
        // True quality against ground truth:
        let mut conf = falcon_forest::Confusion::default();
        for (pair, fv) in fvs.iter() {
            conf.record(forest.predict(fv), truth.is_match(pair));
        }
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let est = estimate_accuracy(&mut session, &mut tl, &forest, &fvs, SEED);
        assert!(
            (est.precision - conf.precision()).abs() < 0.2,
            "est {} vs true {}",
            est.precision,
            conf.precision()
        );
        assert!(
            (est.recall - conf.recall()).abs() < 0.25,
            "est {} vs true {}",
            est.recall,
            conf.recall()
        );
    }

    #[test]
    fn crowd_rounds_accounted() {
        let (fvs, truth, forest) = fixture(0.0);
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let est = estimate_accuracy(&mut session, &mut tl, &forest, &fvs, SEED);
        assert_eq!(session.ledger().questions, est.questions);
        assert!(tl.crowd_time() > std::time::Duration::ZERO);
    }
}
