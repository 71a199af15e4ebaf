//! Admission control and backpressure for the multi-tenant scheduler.
//!
//! A production service cannot start every job the moment it arrives: the
//! pool is finite, and an unbounded backlog just converts overload into
//! unbounded latency. `falcon-serve` models the standard discipline:
//!
//! * at most [`AdmissionConfig::max_active`] tenants run concurrently
//!   (0 = unbounded, the pre-admission behaviour);
//! * everyone else waits in a bounded queue of capacity
//!   [`AdmissionConfig::max_queue`] (0 = unbounded);
//! * when the queue is full, [`AdmissionPolicy`] decides who loses:
//!   reject the newcomer, shed the lowest-priority waiter, or admit
//!   anyway but stamp the newcomer with a queue deadline so it cancels
//!   itself rather than rot in the backlog.
//!
//! Per-tenant quotas ([`TenantQuota`]) bound what an admitted job may
//! consume: a stage-count budget (attempt-budget overruns show up here)
//! and a node-seconds budget. Quota overruns cancel just that tenant —
//! the isolation tests pin down that every *other* tenant's bytes are
//! unchanged.
//!
//! All decisions are functions of `(job list, config)` only — no wall
//! clock — so admission replays bit-identically on crash-resume and is
//! journaled/verified like every other scheduler decision.

use std::time::Duration;

/// What to do with a new job when the wait queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the newcomer with [`ServeError::QueueFull`](crate::ServeError).
    Reject,
    /// Evict the lowest-priority queued job (ties: latest arrival) to
    /// make room; the evicted job is reported as shed.
    ShedLowestPriority,
    /// Admit the newcomer anyway, but stamp it with
    /// [`AdmissionConfig::queue_deadline`] so overload converts into
    /// deadline cancellations instead of an unbounded backlog.
    QueueWithDeadline,
}

impl AdmissionPolicy {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reject" => Some(Self::Reject),
            "shed" | "shed-lowest-priority" => Some(Self::ShedLowestPriority),
            "queue" | "queue-with-deadline" => Some(Self::QueueWithDeadline),
            _ => None,
        }
    }

    /// Stable CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Reject => "reject",
            Self::ShedLowestPriority => "shed-lowest-priority",
            Self::QueueWithDeadline => "queue-with-deadline",
        }
    }
}

/// Per-tenant consumption budgets. `None` = unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantQuota {
    /// Maximum machine-kind stages a tenant may run (a coarse
    /// attempt-budget: a fault-looping driver burns stages fast).
    pub max_stages: Option<u64>,
    /// Maximum node-seconds of machine service (`Σ duration × nodes`).
    pub node_seconds: Option<Duration>,
}

/// Admission-control configuration. The default disables every limit, so
/// existing callers see the pre-admission behaviour unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Queue-overflow policy.
    pub policy: AdmissionPolicy,
    /// Max concurrently active tenants (0 = unbounded).
    pub max_active: usize,
    /// Max jobs waiting beyond the active set (0 = unbounded).
    pub max_queue: usize,
    /// Deadline stamped on overflow admissions under
    /// [`AdmissionPolicy::QueueWithDeadline`], relative to arrival.
    pub queue_deadline: Option<Duration>,
    /// Per-tenant consumption budgets.
    pub quota: TenantQuota,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            policy: AdmissionPolicy::Reject,
            max_active: 0,
            max_queue: 0,
            queue_deadline: None,
            quota: TenantQuota::default(),
        }
    }
}

impl AdmissionConfig {
    /// Effective active-set bound.
    pub(crate) fn active_cap(&self) -> usize {
        if self.max_active == 0 {
            usize::MAX
        } else {
            self.max_active
        }
    }

    /// Effective queue bound.
    pub(crate) fn queue_cap(&self) -> usize {
        if self.max_queue == 0 {
            usize::MAX
        } else {
            self.max_queue
        }
    }
}

/// Admission-time verdict for one job, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Starts immediately (an activation slot was free at arrival).
    Active,
    /// Waits for a slot.
    Queued,
    /// Waits for a slot under a freshly stamped queue deadline.
    QueuedWithDeadline,
    /// Refused: queue full under [`AdmissionPolicy::Reject`].
    Rejected,
    /// Evicted from the queue by a higher-priority arrival.
    Shed,
}

impl AdmitDecision {
    /// Stable journal tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Active => "active",
            Self::Queued => "queued",
            Self::QueuedWithDeadline => "queued-deadline",
            Self::Rejected => "rejected",
            Self::Shed => "shed",
        }
    }
}

/// Compute admission decisions for jobs presented in arrival order.
/// `priorities[i]` is job `i`'s priority (higher = more important).
/// Returns one [`AdmitDecision`] per job.
pub(crate) fn admit(cfg: &AdmissionConfig, priorities: &[i32]) -> Vec<AdmitDecision> {
    let active_cap = cfg.active_cap();
    let queue_cap = cfg.queue_cap();
    let mut decisions = vec![AdmitDecision::Active; priorities.len()];
    let mut active = 0usize;
    // Queue members by job index; decisions are revised when a waiter is
    // shed by a later, more important arrival.
    let mut queue: Vec<usize> = Vec::new();
    for (i, &prio) in priorities.iter().enumerate() {
        if active < active_cap {
            active += 1;
            decisions[i] = AdmitDecision::Active;
            continue;
        }
        if queue.len() < queue_cap {
            decisions[i] = AdmitDecision::Queued;
            queue.push(i);
            continue;
        }
        match cfg.policy {
            AdmissionPolicy::Reject => decisions[i] = AdmitDecision::Rejected,
            AdmissionPolicy::ShedLowestPriority => {
                // Find the least important waiter (lowest priority;
                // ties broken toward the latest arrival, so earlier
                // equals are favoured). The newcomer competes too.
                let mut victim = i;
                let mut victim_prio = prio;
                for &q in &queue {
                    if priorities[q] < victim_prio
                        || (priorities[q] == victim_prio && q > victim && victim == i)
                    {
                        victim = q;
                        victim_prio = priorities[q];
                    }
                }
                // Among queued with equal lowest priority, shed the
                // latest arrival.
                if victim != i {
                    for &q in &queue {
                        if priorities[q] == victim_prio && q > victim {
                            victim = q;
                        }
                    }
                }
                decisions[victim] = AdmitDecision::Shed;
                if victim != i {
                    queue.retain(|&q| q != victim);
                    decisions[i] = AdmitDecision::Queued;
                    queue.push(i);
                }
            }
            AdmissionPolicy::QueueWithDeadline => {
                decisions[i] = AdmitDecision::QueuedWithDeadline;
                queue.push(i);
            }
        }
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: AdmissionPolicy, max_active: usize, max_queue: usize) -> AdmissionConfig {
        AdmissionConfig {
            policy,
            max_active,
            max_queue,
            queue_deadline: Some(Duration::from_secs(60)),
            quota: TenantQuota::default(),
        }
    }

    #[test]
    fn unbounded_admits_everyone() {
        let d = admit(&AdmissionConfig::default(), &[0, 1, 2, 3]);
        assert!(d.iter().all(|x| *x == AdmitDecision::Active));
    }

    #[test]
    fn overflow_rejects_under_reject() {
        let d = admit(&cfg(AdmissionPolicy::Reject, 1, 1), &[0, 0, 0]);
        assert_eq!(
            d,
            vec![
                AdmitDecision::Active,
                AdmitDecision::Queued,
                AdmitDecision::Rejected
            ]
        );
    }

    #[test]
    fn shed_evicts_lowest_priority_waiter() {
        // Active: job0. Queue cap 1: job1 (prio 1) queues; job2 (prio 5)
        // arrives -> job1 is shed, job2 takes the slot.
        let d = admit(&cfg(AdmissionPolicy::ShedLowestPriority, 1, 1), &[9, 1, 5]);
        assert_eq!(
            d,
            vec![
                AdmitDecision::Active,
                AdmitDecision::Shed,
                AdmitDecision::Queued
            ]
        );
    }

    #[test]
    fn shed_drops_newcomer_when_least_important() {
        let d = admit(&cfg(AdmissionPolicy::ShedLowestPriority, 1, 1), &[9, 5, 1]);
        assert_eq!(
            d,
            vec![
                AdmitDecision::Active,
                AdmitDecision::Queued,
                AdmitDecision::Shed
            ]
        );
    }

    #[test]
    fn shed_ties_evict_latest_arrival() {
        let d = admit(
            &cfg(AdmissionPolicy::ShedLowestPriority, 1, 2),
            &[9, 3, 3, 3],
        );
        // job3 ties with job1/job2 at priority 3; the newcomer (latest
        // arrival) loses.
        assert_eq!(d[3], AdmitDecision::Shed);
    }

    #[test]
    fn queue_with_deadline_never_refuses() {
        let d = admit(
            &cfg(AdmissionPolicy::QueueWithDeadline, 1, 1),
            &[0, 0, 0, 0],
        );
        assert_eq!(
            d,
            vec![
                AdmitDecision::Active,
                AdmitDecision::Queued,
                AdmitDecision::QueuedWithDeadline,
                AdmitDecision::QueuedWithDeadline
            ]
        );
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            AdmissionPolicy::Reject,
            AdmissionPolicy::ShedLowestPriority,
            AdmissionPolicy::QueueWithDeadline,
        ] {
            assert_eq!(AdmissionPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(AdmissionPolicy::parse("bogus"), None);
    }
}
