//! Deterministic fault injection: seeded task failures, stragglers,
//! node loss and Hadoop-style retry/speculation accounting.
//!
//! The paper inherits fault tolerance from Hadoop — failed task attempts
//! are re-executed (up to `mapred.map.max.attempts`), slow tasks get
//! speculative duplicate attempts, and a lost node's tasks are re-run
//! elsewhere. This module reproduces that failure model *deterministically*:
//! every fault decision is a pure function of `(seed, job, phase, task,
//! attempt)` drawn from an explicit splitmix64 stream, never from wall
//! clocks or global RNG state. Two consequences the test suite relies on:
//!
//! * fault decisions are identical at any worker-thread count and on any
//!   toolchain, so a fault-injected run's *output* is bit-identical to the
//!   fault-free run — only the simulated timeline (slot durations, retry
//!   and backoff charges) differs;
//! * the per-task attempt counts reported in [`FaultStats`] are exactly
//!   reproducible for a fixed seed, so timelines can be asserted on.
//!
//! Failed attempts do not re-execute the user closure (map/reduce
//! functions are deterministic, so a re-execution would produce the same
//! bytes); they charge the attempt's price — the task's slot time, priced
//! from its records — plus exponential backoff to the task's *slot time*,
//! so [`FaultStats::time_lost`] is as seed-deterministic as the attempt
//! counts. The slot time flows through
//! [`JobStats::sim_duration`](crate::job::JobStats::sim_duration) into the
//! driver timeline. Real worker panics, by contrast, are caught and
//! retried for re-runnable phases (map, map-only) and surface as
//! [`DataflowError::WorkerPanicked`](crate::error::DataflowError) with full
//! job/phase/task/attempt context once attempts are exhausted.

use crate::error::{DataflowError, Phase};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A node-loss event: during job number `job` (0-based, in cluster job
/// submission order), the given simulated node dies. Every task of that
/// job placed on the node (tasks are placed round-robin, `task % nodes`)
/// loses its first attempt and is re-executed elsewhere — the Hadoop
/// "TaskTracker lost" path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLoss {
    /// Which job (0-based submission index) the node dies during.
    pub job: u64,
    /// Which node dies.
    pub node: usize,
}

/// A seeded, deterministic fault model for the simulated cluster.
///
/// All probabilities are per *task attempt* and drawn from an explicit
/// counter-based RNG keyed by `(seed, job, phase, task, attempt)`, so a
/// given plan produces the same faults regardless of thread count,
/// scheduling order or toolchain.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability an individual task attempt fails (Hadoop re-executes it).
    pub task_failure_rate: f64,
    /// Probability a task is a straggler (runs `straggler_slowdown`× slower).
    pub straggler_rate: f64,
    /// Slowdown factor applied to straggler tasks (must be ≥ 1).
    pub straggler_slowdown: f64,
    /// Launch speculative duplicate attempts for stragglers (Hadoop's
    /// speculative execution); the first finisher wins and the loser's
    /// work is discarded.
    pub speculation: bool,
    /// When the backup attempt launches, as a fraction of the task's
    /// normal duration (Hadoop launches backups once a task looks slow).
    pub speculation_delay_factor: f64,
    /// Maximum attempts per task before the job fails
    /// (`mapred.*.max.attempts`; Hadoop default 4).
    pub max_attempts: u32,
    /// Base of the exponential retry backoff charged to the sim clock
    /// (attempt `a` waits `backoff_base · 2^a` before re-execution).
    pub backoff_base: Duration,
    /// At most one node-loss event.
    pub node_loss: Option<NodeLoss>,
    /// Seed for every fault decision.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            task_failure_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            speculation: true,
            speculation_delay_factor: 1.0,
            max_attempts: 4,
            backoff_base: Duration::from_millis(100),
            node_loss: None,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// A plan with the given seed and everything else at defaults (no
    /// faults until rates are raised).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the per-attempt task failure rate.
    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        self.task_failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the straggler rate.
    pub fn with_straggler_rate(mut self, rate: f64) -> Self {
        self.straggler_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the node-loss event.
    pub fn with_node_loss(mut self, job: u64, node: usize) -> Self {
        self.node_loss = Some(NodeLoss { job, node });
        self
    }

    /// Set the per-task attempt cap.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Exponential backoff charged before re-executing attempt `attempt`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.backoff_base * (1u32 << attempt.min(6))
    }
}

/// A splitmix64 counter RNG: the explicit, order-independent randomness
/// source behind every fault decision.
#[derive(Debug, Clone)]
pub struct DetRng(u64);

impl DetRng {
    /// An RNG keyed to one `(seed, job, phase, task, stream)` cell.
    pub fn for_task(seed: u64, job: u64, phase: Phase, task: usize, stream: u64) -> Self {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(job.wrapping_add(1));
        s = s.wrapping_add((phase as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        s = s.wrapping_add((task as u64 + 1).wrapping_mul(0x94d0_49bb_1331_11eb));
        s = s.wrapping_add(stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        let mut rng = DetRng(s);
        rng.next_u64(); // discard the first output to decorrelate keys
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

/// The fault schedule resolved for one task: how many attempts fail
/// before one succeeds, and whether the surviving attempt straggles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskFaultOutcome {
    /// Injected failed attempts preceding the (potentially) successful one.
    pub failed_attempts: u32,
    /// True when the first failure came from the node-loss event.
    pub node_lost: bool,
    /// True when the surviving attempt runs `straggler_slowdown`× slower.
    pub straggler: bool,
}

/// Per-task (and, summed, per-job / per-run) fault accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Task attempts executed or charged (≥ the task count).
    pub attempts: usize,
    /// Failed attempts that were re-executed.
    pub retries: usize,
    /// Speculative duplicate attempts launched.
    pub speculative: usize,
    /// Speculative attempts that finished before the original.
    pub speculative_wins: usize,
    /// First-attempt failures caused by a node loss.
    pub node_loss_failures: usize,
    /// Simulated slot time lost to failed attempts, backoff waits and
    /// straggler slowdown (beyond the clean single-attempt duration).
    pub time_lost: Duration,
}

impl FaultStats {
    /// Fold another stats record into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.speculative += other.speculative;
        self.speculative_wins += other.speculative_wins;
        self.node_loss_failures += other.node_loss_failures;
        self.time_lost += other.time_lost;
    }
}

/// The shared fault-decision engine a [`Cluster`](crate::cluster::Cluster)
/// carries: the plan, the cluster's node count (for task placement) and
/// run-wide fault totals.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    nodes: usize,
    totals: Mutex<FaultStats>,
}

impl FaultInjector {
    /// Build an injector for a cluster with `nodes` simulated nodes.
    pub fn new(plan: FaultPlan, nodes: usize) -> Self {
        Self {
            plan,
            nodes: nodes.max(1),
            totals: Mutex::new(FaultStats::default()),
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Run-wide fault totals so far.
    pub fn totals(&self) -> FaultStats {
        *self.totals.lock()
    }

    fn record(&self, stats: &FaultStats) {
        self.totals.lock().absorb(stats);
    }

    /// Resolve the deterministic fault schedule for one task.
    pub fn outcome(&self, job: u64, phase: Phase, task: usize) -> TaskFaultOutcome {
        let p = &self.plan;
        let mut failed = 0u32;
        let mut node_lost = false;
        if let Some(nl) = p.node_loss {
            if nl.job == job && task % self.nodes == nl.node % self.nodes {
                node_lost = true;
                failed = 1;
            }
        }
        while failed < p.max_attempts {
            let mut rng = DetRng::for_task(p.seed, job, phase, task, u64::from(failed));
            if rng.gen_bool(p.task_failure_rate) {
                failed += 1;
            } else {
                break;
            }
        }
        let straggler = p.straggler_rate > 0.0
            && DetRng::for_task(p.seed, job, phase, task, 0xF00D).gen_bool(p.straggler_rate);
        TaskFaultOutcome {
            failed_attempts: failed,
            node_lost,
            straggler,
        }
    }
}

fn scale(d: Duration, factor: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * factor.max(0.0))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one task with fault injection and panic containment.
///
/// Runs `body` once (map/reduce closures are deterministic, so failed
/// attempts charge simulated time instead of burning a re-execution),
/// catches panics, and — when `retry_panics` is set and a [`FaultPlan`]
/// allows more attempts — re-runs a panicked body Hadoop-style. `price`
/// is the slot time of one clean attempt. Returns the task's output, the
/// total *slot time* the task occupied (all attempts at `price`, backoff
/// waits, straggler slowdown / speculative rescue) and its fault stats;
/// or a fully-contextualized [`DataflowError`].
pub(crate) fn run_attempts<T>(
    injector: Option<&FaultInjector>,
    job: u64,
    phase: Phase,
    task: usize,
    retry_panics: bool,
    price: Duration,
    mut body: impl FnMut() -> T,
) -> Result<(T, Duration, FaultStats), DataflowError> {
    let outcome = injector.map_or_else(TaskFaultOutcome::default, |f| f.outcome(job, phase, task));
    let plan = injector.map(FaultInjector::plan);
    let max_attempts = plan.map_or(1, |p| p.max_attempts).max(1);

    if outcome.failed_attempts >= max_attempts {
        if let Some(f) = injector {
            f.record(&FaultStats {
                attempts: max_attempts as usize,
                retries: max_attempts as usize,
                node_loss_failures: usize::from(outcome.node_lost),
                ..FaultStats::default()
            });
        }
        return Err(DataflowError::AttemptsExhausted {
            job,
            phase,
            task,
            attempts: max_attempts,
        });
    }

    // Real (panic) failures consume attempts on top of the injected ones.
    let mut panic_failures = 0u32;
    let mut panic_lost = Duration::ZERO;
    loop {
        match catch_unwind(AssertUnwindSafe(&mut body)) {
            Ok(out) => {
                if injector.is_none() {
                    // No fault plan: no accounting, the slot time is the
                    // clean attempt's price.
                    return Ok((out, price, FaultStats::default()));
                }
                let mut stats = FaultStats {
                    attempts: (outcome.failed_attempts + panic_failures + 1) as usize,
                    retries: (outcome.failed_attempts + panic_failures) as usize,
                    node_loss_failures: usize::from(outcome.node_lost),
                    ..FaultStats::default()
                };
                // Injected failed attempts: full re-execution plus backoff.
                let mut slot = panic_lost;
                for a in 0..outcome.failed_attempts {
                    slot += price + plan.map_or(Duration::ZERO, |p| p.backoff(a));
                }
                // The surviving attempt, possibly straggling / rescued.
                let final_dur = match (outcome.straggler, plan) {
                    (true, Some(p)) => {
                        let slow = scale(price, p.straggler_slowdown);
                        if p.speculation {
                            stats.speculative += 1;
                            let backup = scale(price, p.speculation_delay_factor) + price;
                            if backup < slow {
                                stats.speculative_wins += 1;
                                backup
                            } else {
                                slow
                            }
                        } else {
                            slow
                        }
                    }
                    _ => price,
                };
                slot += final_dur;
                stats.time_lost = slot.saturating_sub(price);
                if let Some(f) = injector {
                    f.record(&stats);
                }
                return Ok((out, slot, stats));
            }
            Err(payload) => {
                let attempt = outcome.failed_attempts + panic_failures;
                panic_lost += price + plan.map_or(Duration::ZERO, |p| p.backoff(attempt));
                panic_failures += 1;
                if !retry_panics || outcome.failed_attempts + panic_failures >= max_attempts {
                    if let Some(f) = injector {
                        f.record(&FaultStats {
                            attempts: (outcome.failed_attempts + panic_failures) as usize,
                            retries: (outcome.failed_attempts + panic_failures) as usize,
                            node_loss_failures: usize::from(outcome.node_lost),
                            time_lost: panic_lost,
                            ..FaultStats::default()
                        });
                    }
                    return Err(DataflowError::WorkerPanicked {
                        job,
                        phase,
                        task,
                        attempts: outcome.failed_attempts + panic_failures,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_deterministic_and_key_sensitive() {
        let inj = FaultInjector::new(FaultPlan::seeded(7).with_failure_rate(0.5), 4);
        let a = inj.outcome(0, Phase::Map, 3);
        let b = inj.outcome(0, Phase::Map, 3);
        assert_eq!(a, b);
        // Different cells see independent draws: over many tasks both
        // failure and success must occur at rate 0.5.
        let outcomes: Vec<_> = (0..64).map(|t| inj.outcome(0, Phase::Map, t)).collect();
        assert!(outcomes.iter().any(|o| o.failed_attempts > 0));
        assert!(outcomes.iter().any(|o| o.failed_attempts == 0));
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::seeded(1), 10);
        for t in 0..100 {
            assert_eq!(
                inj.outcome(5, Phase::Reduce, t),
                TaskFaultOutcome::default()
            );
        }
    }

    #[test]
    fn node_loss_fails_exactly_that_nodes_tasks() {
        let inj = FaultInjector::new(FaultPlan::seeded(1).with_node_loss(2, 1), 4);
        for t in 0..16 {
            let o = inj.outcome(2, Phase::Map, t);
            assert_eq!(o.node_lost, t % 4 == 1, "task {t}");
            if o.node_lost {
                assert!(o.failed_attempts >= 1);
            }
        }
        // Other jobs are untouched.
        assert!(!inj.outcome(3, Phase::Map, 1).node_lost);
    }

    #[test]
    fn run_attempts_charges_retries_without_reexecuting() {
        let inj = FaultInjector::new(
            FaultPlan::seeded(11)
                .with_failure_rate(0.9)
                .with_max_attempts(8),
            4,
        );
        let mut calls = 0usize;
        let price = Duration::from_millis(7);
        let (out, slot, stats) = run_attempts(Some(&inj), 0, Phase::Map, 0, true, price, || {
            calls += 1;
            42u32
        })
        .expect("task");
        assert_eq!(out, 42);
        assert_eq!(calls, 1, "injected failures must not re-run the body");
        assert_eq!(stats.attempts, stats.retries + 1);
        // Every failed attempt pays the price again plus its backoff.
        let failed = inj.outcome(0, Phase::Map, 0).failed_attempts;
        assert_eq!(stats.retries, failed as usize);
        let backoff: Duration = (0..failed).map(|a| inj.plan().backoff(a)).sum();
        assert_eq!(stats.time_lost, price * failed + backoff);
        assert_eq!(slot, price + stats.time_lost);
    }

    #[test]
    fn exhausted_attempts_surface_with_context() {
        let inj = FaultInjector::new(
            FaultPlan::seeded(3)
                .with_failure_rate(1.0)
                .with_max_attempts(3),
            4,
        );
        let err = run_attempts(
            Some(&inj),
            9,
            Phase::Reduce,
            5,
            false,
            Duration::ZERO,
            || 0u8,
        )
        .expect_err("must exhaust");
        assert_eq!(
            err,
            DataflowError::AttemptsExhausted {
                job: 9,
                phase: Phase::Reduce,
                task: 5,
                attempts: 3
            }
        );
    }

    #[test]
    fn panics_are_retried_only_when_allowed() {
        let inj = FaultInjector::new(FaultPlan::seeded(5).with_max_attempts(4), 4);
        // A flaky body that panics twice then succeeds.
        let mut calls = 0usize;
        let price = Duration::from_millis(3);
        let res = run_attempts(Some(&inj), 0, Phase::Map, 0, true, price, || {
            calls += 1;
            assert!(calls > 2, "flaky");
            calls
        });
        // Two panicked attempts: each pays the price and its backoff.
        let lost = price * 2 + inj.plan().backoff(0) + inj.plan().backoff(1);
        assert_eq!(
            res.map(|(v, slot, st)| (v, slot, st.time_lost)),
            Ok((3, price + lost, lost))
        );
        // Without retry_panics the first panic is fatal, with context.
        let err = run_attempts(Some(&inj), 1, Phase::Reduce, 2, false, price, || {
            panic!("poisoned")
        })
        .map(|(v, _, _): (u8, _, _)| v)
        .expect_err("panic must surface");
        match err {
            DataflowError::WorkerPanicked {
                job,
                phase,
                task,
                attempts,
                message,
            } => {
                assert_eq!((job, phase, task, attempts), (1, Phase::Reduce, 2, 1));
                assert!(message.contains("poisoned"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn straggler_speculation_rescues_when_profitable() {
        // slowdown 4× with a backup launched after 1× → backup wins at 2×.
        let plan = FaultPlan {
            straggler_rate: 1.0,
            straggler_slowdown: 4.0,
            speculation: true,
            speculation_delay_factor: 1.0,
            ..FaultPlan::seeded(2)
        };
        let inj = FaultInjector::new(plan, 4);
        let price = Duration::from_millis(5);
        let (_, slot, stats) =
            run_attempts(Some(&inj), 0, Phase::Map, 0, true, price, || ()).expect("task");
        assert_eq!(stats.speculative, 1);
        assert_eq!(stats.speculative_wins, 1);
        // Rescued at 2× instead of 4×.
        assert_eq!((slot, stats.time_lost), (price * 2, price));
        // Without speculation the full slowdown is charged.
        let plan = FaultPlan {
            speculation: false,
            ..inj.plan().clone()
        };
        let inj2 = FaultInjector::new(plan, 4);
        let (_, slot2, stats2) =
            run_attempts(Some(&inj2), 0, Phase::Map, 0, true, price, || ()).expect("task");
        assert_eq!(stats2.speculative, 0);
        assert_eq!(slot2, price * 4);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = FaultPlan {
            backoff_base: Duration::from_millis(10),
            ..FaultPlan::default()
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(60), p.backoff(6));
    }
}
