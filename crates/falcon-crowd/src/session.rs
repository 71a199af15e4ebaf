//! HIT batching, voting and the cost/latency ledger.
//!
//! The paper's crowdsourcing shape, fixed system values of a hands-off
//! service: questions are grouped 10 per HIT ([`QUESTIONS_PER_HIT`]), a
//! labeling iteration posts `h = 2` HITs (20 pairs), every answer costs
//! `c = $0.02`, `al_matcher` takes a majority of `v_m = 3` answers per
//! question ([`MAJORITY_VOTES`]), and `eval_rules` uses a strong-majority
//! scheme with up to `v_e = 7` answers ([`STRONG_MAJORITY_MAX`]). One
//! iteration's HITs are posted concurrently, so an iteration consumes one
//! round of crowd latency — plus one extra round per re-post wave when
//! workers abandon questions.
//!
//! With a [`CrowdJournal`] attached, every labeled batch is checkpointed
//! to disk before its labels are returned, and a resumed session replays
//! journaled batches — recorded labels, recorded cost and latency, zero
//! live crowd questions — before going live where the crashed run
//! stopped.

use crate::journal::{BatchRecord, CrowdJournal, JournalError, QuestionRecord};
use crate::vote::{majority, strong_majority, Vote};
use crate::Crowd;
use falcon_table::IdPair;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Questions per HIT (`q`).
pub const QUESTIONS_PER_HIT: usize = 10;

/// Majority size for active-learning questions (`v_m`).
pub const MAJORITY_VOTES: usize = 3;

/// Maximum answers for rule-evaluation questions (`v_e`).
pub const STRONG_MAJORITY_MAX: usize = 7;

/// Running totals of crowd activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// Questions asked (each = one pair labeled by vote).
    pub questions: usize,
    /// Individual answers collected.
    pub answers: usize,
    /// Answers lost to worker timeouts/abandonment (re-posted).
    pub lost_answers: usize,
    /// Questions whose vote needed escalation to reach consensus.
    pub escalations: usize,
    /// HITs posted.
    pub hits: usize,
    /// Labeling rounds (each consumes one round of latency; re-post
    /// waves count as extra rounds).
    pub rounds: usize,
    /// Total dollars spent (delivered answers only — expired HITs are
    /// not paid).
    pub cost: f64,
    /// Total virtual crowd latency.
    pub crowd_time: Duration,
}

/// Which voting scheme a batch used (also the journal's scheme tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Majority,
    Strong,
}

impl Scheme {
    fn tag(self) -> &'static str {
        match self {
            Self::Majority => "maj",
            Self::Strong => "strong",
        }
    }
}

/// A crowdsourcing session: a crowd, the paper's HIT shape and voting
/// schemes, and a ledger.
///
/// ```
/// use falcon_crowd::CrowdSession;
/// use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
///
/// let truth = GroundTruth::new([(1, 1)]);
/// let crowd = RandomWorkerCrowd::new(truth, 0.0, 42); // 0% error
/// let mut session = CrowdSession::new(crowd);
/// let (labels, _latency) = session.label_batch(&[(1, 1), (1, 2)]);
/// assert_eq!(labels, vec![((1, 1), true), ((1, 2), false)]);
/// assert_eq!(session.ledger().answers, 6); // majority of 3 per question
/// ```
pub struct CrowdSession<C: Crowd> {
    crowd: C,
    ledger: Ledger,
    journal: Option<CrowdJournal>,
    journal_error: Option<JournalError>,
}

impl<C: Crowd> CrowdSession<C> {
    /// Start a session over a crowd.
    pub fn new(crowd: C) -> Self {
        Self {
            crowd,
            ledger: Ledger::default(),
            journal: None,
            journal_error: None,
        }
    }

    /// Attach a checkpoint journal: labeled batches are recorded to it,
    /// and batches it already holds are replayed instead of asked.
    pub fn with_journal(mut self, journal: CrowdJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&CrowdJournal> {
        self.journal.as_ref()
    }

    /// A journal write failure, if one occurred. Checkpointing failure
    /// does not abort labeling — the session degrades to unjournaled
    /// operation and stashes the error here for the driver to surface.
    pub fn journal_error(&self) -> Option<&JournalError> {
        self.journal_error.as_ref()
    }

    /// The underlying crowd.
    pub fn crowd(&self) -> &C {
        &self.crowd
    }

    /// Ledger snapshot.
    pub fn ledger(&self) -> Ledger {
        self.ledger
    }

    /// Latency one labeling round will consume (exposed so the optimizer
    /// can size masking windows before posting).
    pub fn round_latency(&self) -> Duration {
        self.crowd.latency_per_round()
    }

    /// Flush and `fsync` the attached journal (no-op without one).
    /// Called by the driver when a gated run is cancelled, so every
    /// journaled batch is durable before the unwind and the run can be
    /// resumed without re-asking the crowd. A sync failure degrades to
    /// unjournaled operation exactly like a write failure.
    pub fn finalize_journal(&mut self) {
        self.journaled(CrowdJournal::finalize);
    }

    /// Record an operator boundary in the journal (or replay past the
    /// marker when resuming).
    pub fn mark_op(&mut self, label: &str) {
        self.journaled(|j| j.mark_op(label));
    }

    /// Apply `op` to the attached journal, if any. A journal failure does
    /// not abort labeling: the session degrades to unjournaled operation
    /// and stashes the error for [`Self::journal_error`].
    fn journaled<T>(
        &mut self,
        op: impl FnOnce(&mut CrowdJournal) -> Result<T, JournalError>,
    ) -> Option<T> {
        match op(self.journal.as_mut()?) {
            Ok(v) => Some(v),
            Err(e) => {
                self.journal_error = Some(e);
                self.journal = None;
                None
            }
        }
    }

    /// Label one iteration's batch with majority-of-`v_m` voting (the
    /// `al_matcher` scheme). Returns the labels plus the round's latency.
    pub fn label_batch(&mut self, pairs: &[IdPair]) -> (Vec<(IdPair, bool)>, Duration) {
        self.label_batch_impl(pairs, Scheme::Majority)
    }

    /// Label one iteration's batch with the strong-majority scheme (the
    /// `eval_rules` scheme).
    pub fn label_batch_strong(&mut self, pairs: &[IdPair]) -> (Vec<(IdPair, bool)>, Duration) {
        self.label_batch_impl(pairs, Scheme::Strong)
    }

    fn label_batch_impl(
        &mut self,
        pairs: &[IdPair],
        scheme: Scheme,
    ) -> (Vec<(IdPair, bool)>, Duration) {
        if let Some(batch) = self
            .journaled(|j| j.try_replay_batch(scheme.tag(), pairs))
            .flatten()
        {
            return self.apply_replayed(&batch);
        }
        let mut labels = Vec::with_capacity(pairs.len());
        let mut questions = Vec::with_capacity(pairs.len());
        let mut answers = 0usize;
        let mut lost = 0usize;
        let mut escalations = 0usize;
        let mut worst_lost = 0usize;
        for &p in pairs {
            let v: Vote = match scheme {
                Scheme::Majority => majority(&self.crowd, p, MAJORITY_VOTES),
                Scheme::Strong => strong_majority(&self.crowd, p, STRONG_MAJORITY_MAX),
            };
            answers += v.answers;
            lost += v.lost;
            escalations += usize::from(v.escalated);
            worst_lost = worst_lost.max(v.lost);
            labels.push((p, v.label));
            questions.push(QuestionRecord {
                pair: p,
                label: v.label,
                answers: v.answers,
                lost: v.lost,
            });
        }
        // HITs are posted concurrently, so the batch costs one latency
        // round plus one per re-post wave of its worst question.
        let rounds = 1 + worst_lost;
        let latency = self.crowd.latency_per_round() * rounds as u32;
        self.account(pairs.len(), answers, lost, escalations, rounds, latency);
        let record = BatchRecord {
            scheme: scheme.tag().to_string(),
            questions,
            rounds,
            escalations,
            latency,
        };
        self.journaled(|j| j.record_batch(&record));
        (labels, latency)
    }

    /// Charge a replayed batch to the ledger from its recorded numbers,
    /// fast-forward the crowd past the draws the live batch consumed,
    /// and return the recorded labels — zero crowd questions spent.
    fn apply_replayed(&mut self, batch: &BatchRecord) -> (Vec<(IdPair, bool)>, Duration) {
        let answers = batch.answers();
        let lost = batch.lost();
        self.account(
            batch.questions.len(),
            answers,
            lost,
            batch.escalations,
            batch.rounds,
            batch.latency,
        );
        self.crowd.fast_forward(batch.draws());
        let labels = batch.questions.iter().map(|q| (q.pair, q.label)).collect();
        (labels, batch.latency)
    }

    fn account(
        &mut self,
        questions: usize,
        answers: usize,
        lost: usize,
        escalations: usize,
        rounds: usize,
        latency: Duration,
    ) {
        let hits = questions.div_ceil(QUESTIONS_PER_HIT);
        self.ledger.questions += questions;
        self.ledger.answers += answers;
        self.ledger.lost_answers += lost;
        self.ledger.escalations += escalations;
        self.ledger.hits += hits;
        self.ledger.rounds += rounds;
        self.ledger.cost += answers as f64 * self.crowd.cost_per_answer();
        self.ledger.crowd_time += latency;
    }
}

/// The paper's hard cap on crowd cost (Section 3.4):
/// `C_max = (2·n_m·v_m + k·n_e·v_e) · h · q · c = $349.60` with
/// `n_m = 29, v_m = 3, k = 20, n_e = 5, v_e = 7, h = 2, q = 10, c = $0.02`.
#[allow(clippy::too_many_arguments)] // one argument per symbol in the paper's formula
pub fn cost_cap(
    n_m: usize,
    v_m: usize,
    k: usize,
    n_e: usize,
    v_e: usize,
    h: usize,
    q: usize,
    c: f64,
) -> f64 {
    ((2 * n_m * v_m + k * n_e * v_e) * h * q) as f64 * c
}

/// The cap with the paper's exact parameter setting.
pub fn paper_cost_cap() -> f64 {
    cost_cap(29, 3, 20, 5, 7, 2, 10, 0.02)
}

/// Proposition 3's upper bound on total crowd time:
/// `t_c <= t_a · (2·k·q1 + 20·n·q2)` where `t_a` is the average time to
/// label one pair, `k` the active-learning iteration cap, `q1` pairs per
/// AL iteration, `n` the number of rules evaluated, and `q2` pairs per
/// rule-evaluation iteration (the 20 comes from Proposition 2's bound on
/// iterations per rule).
pub fn crowd_time_bound(t_a: Duration, k: usize, q1: usize, n: usize, q2: usize) -> Duration {
    t_a * (2 * k * q1 + 20 * n * q2) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{GroundTruth, OracleCrowd, RandomWorkerCrowd, UnreliableCrowd};

    fn truth() -> GroundTruth {
        GroundTruth::new([(0, 0), (1, 1)])
    }

    #[test]
    fn ledger_accounts_batches() {
        let crowd = RandomWorkerCrowd::new(truth(), 0.0, 5);
        let mut s = CrowdSession::new(crowd);
        let pairs: Vec<IdPair> = (0..20).map(|i| (i, i)).collect();
        let (labels, latency) = s.label_batch(&pairs);
        assert_eq!(labels.len(), 20);
        assert!(labels[0].1); // (0,0) is a match
        assert!(!labels[5].1);
        let l = s.ledger();
        assert_eq!(l.questions, 20);
        assert_eq!(l.answers, 60); // 3 votes each
        assert_eq!(l.lost_answers, 0);
        assert_eq!(l.hits, 2); // 20 questions / 10 per HIT
        assert_eq!(l.rounds, 1);
        assert!((l.cost - 60.0 * 0.02).abs() < 1e-9);
        assert_eq!(l.crowd_time, latency);
    }

    #[test]
    fn strong_majority_batch_uses_three_answers_when_unanimous() {
        let mut s = CrowdSession::new(OracleCrowd::new(truth()));
        let (_, _) = s.label_batch_strong(&[(0, 0), (0, 1)]);
        assert_eq!(s.ledger().answers, 6);
        assert_eq!(s.ledger().cost, 0.0); // oracle is free
    }

    #[test]
    fn paper_cost_cap_is_349_60() {
        assert!((paper_cost_cap() - 349.60).abs() < 1e-9);
    }

    #[test]
    fn proposition3_bound_dominates_observed_crowd_time() {
        // With the paper's parameters and t_a = 9s/pair (1.5 min per
        // 10-question HIT), the bound is about 9·(2·30·20 + 20·20·20)
        // = 9·9200s ≈ 23h — and any actual capped run stays below it.
        let bound = crowd_time_bound(Duration::from_secs(9), 30, 20, 20, 20);
        assert_eq!(bound, Duration::from_secs(9 * 9200));
        // An actual session: 30 AL rounds + 20 rules × 5 rounds of latency.
        let per_round = Duration::from_secs(90);
        let actual = per_round * (30 + 20 * 5);
        assert!(actual < bound);
    }

    #[test]
    fn rounds_accumulate_latency() {
        let mut s = CrowdSession::new(OracleCrowd::new(truth()));
        let lat = s.round_latency();
        s.label_batch(&[(0, 0)]);
        s.label_batch(&[(1, 1)]);
        assert_eq!(s.ledger().crowd_time, lat * 2);
        assert_eq!(s.ledger().rounds, 2);
    }

    #[test]
    fn abandonment_costs_latency_but_not_money_and_labels_converge() {
        let reliable = {
            let mut s = CrowdSession::new(OracleCrowd::new(truth()));
            s.label_batch(&[(0, 0), (0, 1), (1, 1)]).0
        };
        let mut s = CrowdSession::new(UnreliableCrowd::new(OracleCrowd::new(truth()), 0.4, 17));
        let (labels, latency) = s.label_batch(&[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(labels, reliable, "re-posting converges to the same labels");
        let l = s.ledger();
        assert!(l.lost_answers > 0, "{l:?}");
        assert!(l.rounds > 1, "re-post waves cost extra rounds: {l:?}");
        assert_eq!(latency, s.round_latency() * l.rounds as u32);
        assert_eq!(l.cost, 0.0, "lost answers are never paid (oracle is free)");
        assert_eq!(l.answers, 9, "3 delivered votes per question");
    }

    #[test]
    fn journaled_batches_replay_without_crowd_questions() {
        let path = std::env::temp_dir().join(format!(
            "falcon-session-replay-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let pairs: Vec<IdPair> = vec![(0, 0), (0, 1), (1, 1)];
        // Uninterrupted baseline: two batches, then a live tail question.
        let make_crowd = || RandomWorkerCrowd::new(truth(), 0.2, 77);
        let (baseline_labels, baseline_tail, baseline_ledger) = {
            let mut s = CrowdSession::new(make_crowd());
            let a = s.label_batch(&pairs).0;
            let b = s.label_batch_strong(&pairs).0;
            let tail = s.label_batch(&[(1, 0)]).0;
            (vec![a, b], tail, s.ledger())
        };
        // Journaled run: label two batches, "crash".
        {
            let journal = CrowdJournal::open(&path).expect("open");
            let mut s = CrowdSession::new(make_crowd()).with_journal(journal);
            s.label_batch(&pairs);
            s.label_batch_strong(&pairs);
        }
        // Resumed run: the two batches replay (fast-forwarding the seeded
        // crowd), then the tail question goes live — and everything is
        // bit-identical to the uninterrupted run.
        let journal = CrowdJournal::open(&path).expect("reopen");
        assert_eq!(journal.pending_batches(), 2);
        let mut s = CrowdSession::new(make_crowd()).with_journal(journal);
        let a = s.label_batch(&pairs).0;
        let b = s.label_batch_strong(&pairs).0;
        assert_eq!(
            s.journal().map(CrowdJournal::replayed_batches),
            Some(2),
            "both batches must come from the journal"
        );
        let tail = s.label_batch(&[(1, 0)]).0;
        assert_eq!(vec![a, b], baseline_labels);
        assert_eq!(tail, baseline_tail);
        assert_eq!(s.ledger(), baseline_ledger);
        assert!(s.journal_error().is_none());
        std::fs::remove_file(&path).ok();
    }
}
