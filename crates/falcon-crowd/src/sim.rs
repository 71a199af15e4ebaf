//! Simulated crowds backed by ground truth.

use crate::Crowd;
use falcon_table::IdPair;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Ground truth: the set of matching pairs.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    matches: HashSet<IdPair>,
}

impl GroundTruth {
    /// Build from an iterator of matching pairs.
    pub fn new(matches: impl IntoIterator<Item = IdPair>) -> Self {
        Self {
            matches: matches.into_iter().collect(),
        }
    }

    /// True iff the pair is a real match.
    pub fn is_match(&self, pair: IdPair) -> bool {
        self.matches.contains(&pair)
    }

    /// Number of true matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True iff there are no matches.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Iterate over all matching pairs.
    pub fn iter(&self) -> impl Iterator<Item = &IdPair> {
        self.matches.iter()
    }
}

/// Perfect crowd: always answers the truth. Zero-cost MTurk-latency crowd
/// for isolating machine-side behaviour in tests.
pub struct OracleCrowd {
    truth: GroundTruth,
    latency: Duration,
}

impl OracleCrowd {
    /// Oracle with MTurk-like latency (1.5 min per round).
    pub fn new(truth: GroundTruth) -> Self {
        Self {
            truth,
            latency: Duration::from_secs(90),
        }
    }

    /// Override round latency.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }
}

impl Crowd for OracleCrowd {
    fn answer(&self, pair: IdPair) -> bool {
        self.truth.is_match(pair)
    }
    fn latency_per_round(&self) -> Duration {
        self.latency
    }
    fn cost_per_answer(&self) -> f64 {
        0.0
    }
    fn name(&self) -> &str {
        "oracle"
    }
}

/// The paper's random-worker model (Section 11.4): each individual answer
/// is flipped with probability `error_rate`. MTurk pricing ($0.02/answer)
/// and latency (1.5 min per 10-question HIT round) by default.
pub struct RandomWorkerCrowd {
    truth: GroundTruth,
    error_rate: f64,
    latency: Duration,
    cost_per_answer: f64,
    rng: Mutex<SmallRng>,
}

impl RandomWorkerCrowd {
    /// Create with a fixed per-answer error rate and RNG seed.
    pub fn new(truth: GroundTruth, error_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&error_rate));
        Self {
            truth,
            error_rate,
            latency: Duration::from_secs(90),
            cost_per_answer: 0.02,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Override round latency.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }
}

impl Crowd for RandomWorkerCrowd {
    fn answer(&self, pair: IdPair) -> bool {
        let truth = self.truth.is_match(pair);
        let flip = self.rng.lock().gen_bool(self.error_rate);
        truth ^ flip
    }
    fn fast_forward(&self, draws: usize) {
        // One error draw per answer: consume exactly what `answer` would.
        let mut rng = self.rng.lock();
        for _ in 0..draws {
            let _ = rng.gen_bool(self.error_rate);
        }
    }
    fn latency_per_round(&self) -> Duration {
        self.latency
    }
    fn cost_per_answer(&self) -> f64 {
        self.cost_per_answer
    }
    fn name(&self) -> &str {
        "random-worker"
    }
}

/// In-house expert "crowd of one" (the drug-matching deployment of Section
/// 11.1): near-perfect answers, no marginal cost, much lower latency.
pub struct ExpertCrowd {
    inner: RandomWorkerCrowd,
}

impl ExpertCrowd {
    /// Expert with a small error rate (default 1%) and ~12 s per round
    /// (830 pairs in 1h 37m in the paper's deployment).
    pub fn new(truth: GroundTruth, seed: u64) -> Self {
        let mut inner = RandomWorkerCrowd::new(truth, 0.01, seed);
        inner.latency = Duration::from_secs(12);
        inner.cost_per_answer = 0.0;
        Self { inner }
    }
}

impl Crowd for ExpertCrowd {
    fn answer(&self, pair: IdPair) -> bool {
        self.inner.answer(pair)
    }
    fn fast_forward(&self, draws: usize) {
        self.inner.fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        self.inner.latency
    }
    fn cost_per_answer(&self) -> f64 {
        0.0
    }
    fn name(&self) -> &str {
        "expert"
    }
}

/// A crowd whose workers sometimes never answer: each [`Crowd::try_answer`]
/// is *lost* with probability `loss_rate` (the HIT expired, the worker
/// abandoned it, or the result never came back). Wraps any inner crowd;
/// the loss decision is drawn from its own seeded RNG, so runs are
/// reproducible. Voting layers re-post lost questions
/// ([`crate::vote::majority`]) — the MTurk analogue of re-posting an
/// expired HIT for fresh workers.
pub struct UnreliableCrowd<C: Crowd> {
    inner: C,
    loss_rate: f64,
    rng: Mutex<SmallRng>,
    lost: AtomicUsize,
}

impl<C: Crowd> UnreliableCrowd<C> {
    /// Wrap `inner`, losing each answer with probability `loss_rate`
    /// (must be `< 1` — a crowd that never answers can never converge).
    pub fn new(inner: C, loss_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss_rate),
            "loss_rate must be in [0, 1)"
        );
        Self {
            inner,
            loss_rate,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            lost: AtomicUsize::new(0),
        }
    }

    /// Answers lost so far (live draws only; fast-forwarded losses from a
    /// journal replay are not re-counted).
    pub fn lost_count(&self) -> usize {
        self.lost.load(Ordering::Relaxed)
    }

    /// The wrapped crowd.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Crowd> Crowd for UnreliableCrowd<C> {
    fn answer(&self, pair: IdPair) -> bool {
        // A plain `answer` models a caller willing to re-post forever.
        loop {
            if let Some(a) = self.try_answer(pair) {
                return a;
            }
        }
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        let lost = self.rng.lock().gen_bool(self.loss_rate);
        if lost {
            self.lost.fetch_add(1, Ordering::Relaxed);
            None
        } else {
            Some(self.inner.answer(pair))
        }
    }
    fn fast_forward(&self, draws: usize) {
        // Re-draw the loss sequence; the inner crowd only consumed state
        // for the draws that were actually delivered.
        let delivered = {
            let mut rng = self.rng.lock();
            (0..draws).filter(|_| !rng.gen_bool(self.loss_rate)).count()
        };
        self.inner.fast_forward(delivered);
    }
    fn latency_per_round(&self) -> Duration {
        self.inner.latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        self.inner.cost_per_answer()
    }
    fn name(&self) -> &str {
        "unreliable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        GroundTruth::new([(0, 0), (1, 1), (2, 2)])
    }

    #[test]
    fn oracle_is_perfect() {
        let c = OracleCrowd::new(truth());
        assert!(c.answer((0, 0)));
        assert!(!c.answer((0, 1)));
        assert_eq!(c.cost_per_answer(), 0.0);
    }

    #[test]
    fn zero_error_random_crowd_is_oracle() {
        let c = RandomWorkerCrowd::new(truth(), 0.0, 1);
        for pair in [(0, 0), (1, 1), (0, 2), (9, 9)] {
            assert_eq!(c.answer(pair), truth().is_match(pair));
        }
    }

    #[test]
    fn full_error_crowd_always_lies() {
        let c = RandomWorkerCrowd::new(truth(), 1.0, 1);
        assert!(!c.answer((0, 0)));
        assert!(c.answer((0, 1)));
    }

    #[test]
    fn error_rate_is_approximately_respected() {
        let c = RandomWorkerCrowd::new(truth(), 0.2, 42);
        let n = 10_000;
        let wrong = (0..n).filter(|_| c.answer((0, 1))).count();
        let rate = wrong as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn expert_is_cheap_and_fast() {
        let c = ExpertCrowd::new(truth(), 3);
        assert_eq!(c.cost_per_answer(), 0.0);
        assert!(c.latency_per_round() < Duration::from_secs(60));
    }

    #[test]
    fn unreliable_crowd_loses_answers_at_the_configured_rate() {
        let c = UnreliableCrowd::new(OracleCrowd::new(truth()), 0.3, 7);
        let n = 10_000;
        let lost = (0..n).filter(|_| c.try_answer((0, 0)).is_none()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed loss rate {rate}");
        assert_eq!(c.lost_count(), lost);
        // Delivered answers are the inner crowd's.
        assert!(c.try_answer((0, 1)).into_iter().all(|a| !a));
    }

    #[test]
    fn unreliable_answer_retries_until_delivered() {
        let c = UnreliableCrowd::new(OracleCrowd::new(truth()), 0.9, 11);
        for _ in 0..50 {
            assert!(c.answer((1, 1)));
        }
    }

    #[test]
    fn fast_forward_reaches_the_same_rng_state_as_live_draws() {
        let truth = truth();
        let make = || UnreliableCrowd::new(RandomWorkerCrowd::new(truth.clone(), 0.2, 5), 0.25, 9);
        // Live: consume 100 try_answer draws, then observe a tail.
        let live = make();
        for _ in 0..100 {
            let _ = live.try_answer((0, 0));
        }
        let live_tail: Vec<Option<bool>> = (0..50).map(|_| live.try_answer((1, 1))).collect();
        // Fast-forwarded: skip the same 100 draws without answering.
        let ff = make();
        ff.fast_forward(100);
        let ff_tail: Vec<Option<bool>> = (0..50).map(|_| ff.try_answer((1, 1))).collect();
        assert_eq!(live_tail, ff_tail);
    }
}
