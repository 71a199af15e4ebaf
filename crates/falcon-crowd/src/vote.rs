//! Voting schemes over repeated crowd answers, including re-posting of
//! lost answers and escalation on no-consensus.

use crate::Crowd;
use falcon_table::IdPair;

/// Re-posts allowed per question before voting gives up on further
/// answers (MTurk HITs are re-posted when they expire unanswered).
pub const MAX_REPOSTS: usize = 25;

/// Extra votes from fresh workers when the base votes end without
/// consensus (a tie — only reachable when answers were lost or the vote
/// count is even).
pub const ESCALATION_VOTES: usize = 3;

/// Outcome of voting on one question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The decided label.
    pub label: bool,
    /// Number of answers actually delivered.
    pub answers: usize,
    /// Answers lost to worker timeouts/abandonment (each forced a re-post).
    pub lost: usize,
    /// True when the base votes ended without consensus and extra
    /// escalation votes were requested.
    pub escalated: bool,
}

/// Collect one delivered answer, re-posting lost ones while the per-
/// question repost budget lasts. `None` means the budget ran out.
fn collect_one(
    crowd: &impl Crowd,
    pair: IdPair,
    reposts_left: &mut usize,
    lost: &mut usize,
) -> Option<bool> {
    loop {
        match crowd.try_answer(pair) {
            Some(a) => return Some(a),
            None => {
                *lost += 1;
                if *reposts_left == 0 {
                    return None;
                }
                *reposts_left -= 1;
            }
        }
    }
}

/// Break a tie with up to [`ESCALATION_VOTES`] extra answers from fresh
/// workers (the paper's substrate re-posts a no-consensus HIT with a
/// higher assignment count). Returns true when escalation was attempted.
fn escalate(
    crowd: &impl Crowd,
    pair: IdPair,
    reposts_left: &mut usize,
    pos: &mut usize,
    neg: &mut usize,
    lost: &mut usize,
) -> bool {
    if *pos != *neg {
        return false;
    }
    for _ in 0..ESCALATION_VOTES {
        if *pos != *neg {
            break;
        }
        match collect_one(crowd, pair, reposts_left, lost) {
            Some(true) => *pos += 1,
            Some(false) => *neg += 1,
            None => break,
        }
    }
    true
}

/// Simple majority over `n` answers (the paper's `v_m = 3` scheme for
/// `al_matcher`). `n` should be odd. Lost answers are re-posted within
/// [`MAX_REPOSTS`]; if the delivered answers end in a tie (possible only
/// when answers were lost or `n` is even), up to [`ESCALATION_VOTES`]
/// extra votes break it; a surviving tie labels `false` (don't pay for an
/// uncertain match).
///
/// With a lossless crowd and odd `n` this asks *exactly* the same
/// question sequence as the pre-fault-model implementation, so seeded
/// simulated runs are unchanged.
pub fn majority(crowd: &impl Crowd, pair: IdPair, n: usize) -> Vote {
    let n = n.max(1);
    let mut reposts_left = MAX_REPOSTS;
    let mut lost = 0usize;
    let mut pos = 0usize;
    let mut neg = 0usize;
    for _ in 0..n {
        match collect_one(crowd, pair, &mut reposts_left, &mut lost) {
            Some(true) => pos += 1,
            Some(false) => neg += 1,
            None => break,
        }
    }
    let escalated = escalate(
        crowd,
        pair,
        &mut reposts_left,
        &mut pos,
        &mut neg,
        &mut lost,
    );
    Vote {
        label: pos > neg,
        answers: pos + neg,
        lost,
        escalated,
    }
}

/// Corleone's strong-majority scheme used by `eval_rules` (`v_e = 7`):
/// collect three answers; keep collecting one at a time until one side
/// leads by at least two, or `max` answers (7) have been collected; the
/// final label is the simple majority. Lost answers are re-posted and
/// ties escalated exactly as in [`majority`].
pub fn strong_majority(crowd: &impl Crowd, pair: IdPair, max: usize) -> Vote {
    let max = max.max(3);
    let mut reposts_left = MAX_REPOSTS;
    let mut lost = 0usize;
    let mut pos = 0usize;
    let mut neg = 0usize;
    let mut budget_dry = false;
    for _ in 0..3 {
        match collect_one(crowd, pair, &mut reposts_left, &mut lost) {
            Some(true) => pos += 1,
            Some(false) => neg += 1,
            None => {
                budget_dry = true;
                break;
            }
        }
    }
    while !budget_dry && pos.abs_diff(neg) < 2 && pos + neg < max {
        match collect_one(crowd, pair, &mut reposts_left, &mut lost) {
            Some(true) => pos += 1,
            Some(false) => neg += 1,
            None => budget_dry = true,
        }
    }
    let escalated = escalate(
        crowd,
        pair,
        &mut reposts_left,
        &mut pos,
        &mut neg,
        &mut lost,
    );
    Vote {
        label: pos > neg,
        answers: pos + neg,
        lost,
        escalated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{GroundTruth, OracleCrowd, RandomWorkerCrowd, UnreliableCrowd};

    fn truth() -> GroundTruth {
        GroundTruth::new([(1, 1)])
    }

    #[test]
    fn majority_with_oracle() {
        let c = OracleCrowd::new(truth());
        let v = majority(&c, (1, 1), 3);
        assert!(v.label);
        assert_eq!(v.answers, 3);
        assert_eq!(v.lost, 0);
        assert!(!v.escalated);
        assert!(!majority(&c, (0, 1), 3).label);
    }

    #[test]
    fn strong_majority_unanimous_stops_at_three() {
        let c = OracleCrowd::new(truth());
        let v = strong_majority(&c, (1, 1), 7);
        assert_eq!(v.answers, 3);
        assert!(v.label);
    }

    #[test]
    fn strong_majority_caps_at_max() {
        // A maximally-confusing crowd: alternates answers.
        struct Alternating(std::sync::atomic::AtomicUsize);
        impl Crowd for Alternating {
            fn answer(&self, _: IdPair) -> bool {
                self.0
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    .is_multiple_of(2)
            }
            fn latency_per_round(&self) -> std::time::Duration {
                std::time::Duration::ZERO
            }
            fn cost_per_answer(&self) -> f64 {
                0.0
            }
            fn name(&self) -> &str {
                "alt"
            }
        }
        let c = Alternating(Default::default());
        let v = strong_majority(&c, (0, 0), 7);
        assert_eq!(v.answers, 7);
        assert!(!v.escalated, "7 odd answers cannot tie");
    }

    #[test]
    fn majority_beats_single_answer_under_noise() {
        // With 20% error, majority-of-3 error rate is ~10%; check that over
        // many trials majority is more accurate than single answers.
        let c = RandomWorkerCrowd::new(truth(), 0.2, 7);
        let trials = 2000;
        let single_ok = (0..trials).filter(|_| c.answer((1, 1))).count();
        let maj_ok = (0..trials)
            .filter(|_| majority(&c, (1, 1), 3).label)
            .count();
        assert!(maj_ok > single_ok, "{maj_ok} vs {single_ok}");
    }

    #[test]
    fn even_n_majority_requires_strict_majority() {
        let c = OracleCrowd::new(truth());
        // n=1 trivially works.
        assert!(majority(&c, (1, 1), 1).label);
        assert_eq!(majority(&c, (1, 1), 0).answers, 1);
    }

    #[test]
    fn lost_answers_are_reposted_to_the_same_label() {
        // An abandoning crowd over a perfect oracle: votes converge to the
        // oracle's labels anyway, they just cost re-posts.
        let c = UnreliableCrowd::new(OracleCrowd::new(truth()), 0.4, 21);
        for _ in 0..200 {
            let v = majority(&c, (1, 1), 3);
            assert!(v.label);
            assert_eq!(v.answers, 3, "all three votes eventually delivered");
        }
        let v = majority(&c, (0, 1), 3);
        assert!(!v.label);
        assert!(c.lost_count() > 0, "the crowd did abandon along the way");
    }

    #[test]
    fn exhausted_repost_budget_escalates_then_defaults_negative() {
        // A crowd that never answers within the budget: zero delivered
        // votes is a 0-0 tie; escalation also dies; label must be false.
        struct Void;
        impl Crowd for Void {
            fn answer(&self, _: IdPair) -> bool {
                unreachable!("try_answer never delivers")
            }
            fn try_answer(&self, _: IdPair) -> Option<bool> {
                None
            }
            fn latency_per_round(&self) -> std::time::Duration {
                std::time::Duration::ZERO
            }
            fn cost_per_answer(&self) -> f64 {
                0.0
            }
            fn name(&self) -> &str {
                "void"
            }
        }
        let v = majority(&Void, (1, 1), 3);
        assert!(!v.label);
        assert_eq!(v.answers, 0);
        assert!(v.escalated);
        // Initial post + the budgeted re-posts in the base vote, plus one
        // more lost attempt when escalation tries to break the tie.
        assert_eq!(v.lost, 1 + MAX_REPOSTS + 1);
    }

    #[test]
    fn lossless_policy_voting_matches_legacy_draw_sequence() {
        // Same seed, same questions: the repost-aware path must consume
        // exactly the same RNG draws as the pre-fault-model scheme.
        let a = RandomWorkerCrowd::new(truth(), 0.3, 99);
        let b = RandomWorkerCrowd::new(truth(), 0.3, 99);
        for i in 0..100u32 {
            let pair = (i, i);
            let legacy = {
                // Inline the legacy scheme: n fixed answers, 2·pos > n.
                let n = 3;
                let pos = (0..n).filter(|_| a.answer(pair)).count();
                (pos * 2 > n, n)
            };
            let v = majority(&b, pair, 3);
            assert_eq!((v.label, v.answers), legacy, "question {i}");
        }
    }
}
