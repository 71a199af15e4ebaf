//! Crowdsourcing substrate for Falcon.
//!
//! The paper runs on Mechanical Turk with real workers; its sensitivity
//! analysis (Section 11.4) falls back to a *simulated crowd of random
//! workers with a fixed error rate and fixed HIT latency* — exactly the
//! model this crate implements. Three crowds are provided:
//!
//! * [`sim::OracleCrowd`] — perfect answers from ground truth (used in
//!   tests and to isolate machine-side behaviour),
//! * [`sim::RandomWorkerCrowd`] — each answer is flipped with probability
//!   `error_rate` (the paper's Figure 9 model; MTurk-like latency),
//! * [`sim::ExpertCrowd`] — an in-house "crowd of one" with low latency
//!   and zero marginal cost (the drug-matching deployment of Section 11.1).
//!
//! For hands-on labeling without any crowd, [`interactive::InteractiveCrowd`]
//! asks a human at a terminal (the "label it yourself" mode of the
//! paper's Example 1).
//!
//! [`session::CrowdSession`] layers HIT batching (10 questions/HIT, 2
//! cents/answer), majority-of-3 and strong-majority-up-to-7 voting, and a
//! cost/latency ledger on top of any [`Crowd`]; lost answers are re-posted
//! and ties escalated within the fixed budgets of [`vote`].

pub mod interactive;
pub mod journal;
pub mod session;
pub mod sim;
pub mod vote;

use falcon_table::IdPair;
use std::time::Duration;

pub use journal::{CrowdJournal, JournalError};
pub use session::{CrowdSession, Ledger};

/// A source of (possibly noisy) match/no-match answers about tuple pairs.
///
/// `answer` models a *single worker's* answer; voting schemes combine
/// several answers per question. Implementations must be thread safe so
/// answers can be collected while the machine side keeps working (the
/// masking optimizations of Section 10.2).
pub trait Crowd: Send + Sync {
    /// One worker's answer for one pair (`true` = match).
    fn answer(&self, pair: IdPair) -> bool;

    /// One worker's answer, allowing for failure: `None` models a HIT
    /// that expired or was abandoned before the worker answered (the
    /// dominant failure mode on real MTurk). The default implementation
    /// never fails; [`sim::UnreliableCrowd`] loses answers at a seeded
    /// rate. Voting re-posts lost questions — see [`vote::majority`].
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        Some(self.answer(pair))
    }

    /// Advance the crowd's internal state as if `draws` calls to
    /// [`Self::try_answer`] had happened, without producing answers.
    ///
    /// Used when resuming from a [`journal::CrowdJournal`]: replayed
    /// batches skip the crowd, so a seeded simulated crowd must fast
    /// forward its RNG to the state an uninterrupted run would be in —
    /// that is what makes a resumed run bit-identical to an
    /// uninterrupted one. Stateless crowds need not override.
    fn fast_forward(&self, draws: usize) {
        let _ = draws;
    }

    /// Virtual latency of one HIT round (posting a batch of HITs and
    /// waiting for all answers). MTurk ≈ 1.5 min per 10-question HIT in the
    /// paper's simulations; in-house experts are much faster.
    fn latency_per_round(&self) -> Duration;

    /// Reward paid per answer in dollars (MTurk: $0.02; in-house: $0).
    fn cost_per_answer(&self) -> f64;

    /// Human-readable crowd name.
    fn name(&self) -> &str;
}

impl<C: Crowd + ?Sized> Crowd for &C {
    fn answer(&self, pair: IdPair) -> bool {
        (**self).answer(pair)
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        (**self).try_answer(pair)
    }
    fn fast_forward(&self, draws: usize) {
        (**self).fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        (**self).latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        (**self).cost_per_answer()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<C: Crowd + ?Sized> Crowd for std::sync::Arc<C> {
    fn answer(&self, pair: IdPair) -> bool {
        (**self).answer(pair)
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        (**self).try_answer(pair)
    }
    fn fast_forward(&self, draws: usize) {
        (**self).fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        (**self).latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        (**self).cost_per_answer()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}
