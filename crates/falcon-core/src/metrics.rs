//! End-to-end EM quality metrics against ground truth.

use falcon_table::IdPair;
use falcon_textsim::DetSet;

/// Precision / recall / F1 of a predicted match set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmQuality {
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1.
    pub f1: f64,
    /// Predicted matches.
    pub predicted: usize,
    /// True matches.
    pub actual: usize,
}

/// Score predicted matches against the ground-truth match set.
pub fn em_quality(predicted: &[IdPair], truth: &[IdPair]) -> EmQuality {
    let truth_set: DetSet<IdPair> = truth.iter().copied().collect();
    let mut pred_set = DetSet::new();
    let tp = predicted
        .iter()
        .filter(|&&p| pred_set.insert(p) && truth_set.contains(&p))
        .count();
    let precision = if pred_set.is_empty() {
        0.0
    } else {
        tp as f64 / pred_set.len() as f64
    };
    let recall = if truth_set.is_empty() {
        1.0
    } else {
        tp as f64 / truth_set.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    EmQuality {
        precision,
        recall,
        f1,
        predicted: pred_set.len(),
        actual: truth_set.len(),
    }
}

/// Blocking recall: fraction of true matches surviving a candidate set.
pub fn blocking_recall(candidates: &[IdPair], truth: &[IdPair]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let cand: DetSet<IdPair> = candidates.iter().copied().collect();
    truth.iter().filter(|p| cand.contains(*p)).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let truth = vec![(0, 0), (1, 1)];
        let q = em_quality(&truth, &truth);
        assert_eq!((q.precision, q.recall, q.f1), (1.0, 1.0, 1.0));
    }

    #[test]
    fn partial_prediction() {
        let truth = vec![(0, 0), (1, 1), (2, 2), (3, 3)];
        let pred = vec![(0, 0), (1, 1), (9, 9)];
        let q = em_quality(&pred, &truth);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        let q = em_quality(&[], &[(0, 0)]);
        assert_eq!(q.f1, 0.0);
        let q = em_quality(&[(0, 0)], &[]);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.precision, 0.0);
    }

    #[test]
    fn blocking_recall_counts() {
        let truth = vec![(0, 0), (1, 1)];
        assert_eq!(blocking_recall(&[(0, 0), (5, 5)], &truth), 0.5);
        assert_eq!(blocking_recall(&[], &[]), 1.0);
    }
}
