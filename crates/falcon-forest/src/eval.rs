//! Classifier evaluation: confusion counts, precision, recall, F1.

/// Confusion-matrix counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Record one (predicted, actual) observation.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Record a batch of parallel (predicted, actual) observations, e.g.
    /// the output of [`crate::Forest::predict_batch`] against known labels.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn record_batch(&mut self, predicted: &[bool], actual: &[bool]) {
        assert_eq!(predicted.len(), actual.len());
        for (p, a) in predicted.iter().zip(actual) {
            self.record(*p, *a);
        }
    }

    /// Precision `tp / (tp + fp)`; 0 when undefined.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 0 when undefined.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 — harmonic mean of precision and recall; 0 when undefined.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accuracy over all observations; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }
}

/// Build a confusion matrix from parallel prediction/label slices.
pub fn confusion(predicted: &[bool], actual: &[bool]) -> Confusion {
    let mut c = Confusion::default();
    c.record_batch(predicted, actual);
    c
}

/// F1 from parallel prediction/label slices.
pub fn f1_score(predicted: &[bool], actual: &[bool]) -> f64 {
    confusion(predicted, actual).f1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let c = confusion(&[true, false, true], &[true, false, true]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn known_values() {
        // tp=2 fp=1 fn=1 tn=1.
        let c = confusion(
            &[true, true, true, false, false],
            &[true, true, false, true, false],
        );
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.accuracy() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_do_not_nan() {
        let c = Confusion::default();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
        let all_neg = confusion(&[false, false], &[false, false]);
        assert_eq!(all_neg.f1(), 0.0);
        assert_eq!(all_neg.accuracy(), 1.0);
    }
}
