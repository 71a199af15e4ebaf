//! # falcon-serve — Falcon as a multi-tenant cloud service
//!
//! The paper's Section 10.2 masks a *single* job's machine time under its
//! own crowd waits. A cloud service runs **many** EM jobs at once, and
//! the same idea generalizes: while tenant A waits on the crowd, its
//! share of the node pool is idle — so give those nodes to tenant B's
//! machine stages. This crate is that generalization:
//!
//! * [`JobSpec`] — one tenant's admission request: tables, driver
//!   config (fault plan included), crowd, priority, arrival, optional
//!   crash journal;
//! * [`serve`] — runs a batch of jobs concurrently on one shared
//!   simulated node pool, decomposing each into stages via the
//!   `falcon-core` stage gate and scheduling machine stages with a
//!   [`Policy`] (FIFO / fair-share / priority / seeded random);
//! * [`ServeReport`] — per-tenant outcomes (virtual latency, machine
//!   service, the tenant's full `RunReport`) plus aggregate makespan,
//!   pool utilization, and a run-jobs-serially baseline replayed from
//!   the recorded stage traces.
//!
//! The service layer on top of the scheduler makes it production-shaped:
//!
//! * **admission control** ([`AdmissionConfig`]) — a bounded active set
//!   and wait queue, with reject / shed-lowest-priority /
//!   queue-with-deadline overflow policies and per-tenant quotas;
//! * **deadlines and cancellation** — per-job virtual-clock deadlines
//!   enforced at round boundaries; the driver unwinds cooperatively with
//!   its crowd journal finalized;
//! * **quarantine** — an erroring tenant is isolated without perturbing
//!   any other tenant's bytes;
//! * **elastic pool** ([`PoolEvent`], [`DegradedPolicy`]) — seeded node
//!   loss/join mid-run, with degraded mode shedding speculative work
//!   first;
//! * **crash-resume** ([`resume`]) — every scheduler decision is
//!   committed to an append-only service journal; resume re-executes and
//!   verifies the schedule, reaching byte-identical reports without
//!   re-asking a single crowd question;
//! * **chaos harness** ([`chaos`]) — a kill-point × fault × pool-shrink
//!   matrix asserting resume-identity and isolation per cell.
//!
//! Three properties the tests pin down:
//!
//! * **isolation** — gating never changes what a run computes, each
//!   tenant gets its own simulated cluster and journal, and scheduler
//!   state is per-tenant, so one tenant's node loss, crowd loss, crash
//!   recovery, deadline or quarantine cannot perturb another tenant's
//!   bit-identical results;
//! * **determinism** — the scheduler drains tenants in lockstep rounds
//!   and prices each stage with the solo driver's one price
//!   ([`TaskShape::price`](falcon_dataflow::TaskShape::price) of the
//!   stage's tasks, on the tenant's own cluster config and the nodes it
//!   grants), so placements, ledgers, timelines and every virtual-time
//!   statistic are a function of inputs, config and seed — identical at
//!   any [`ServeConfig::threads`] setting and on any host;
//! * **resume-identity** — kill the service after any journaled round,
//!   resume, and every per-tenant report, crowd journal and the
//!   aggregate ledger is byte-identical to an uninterrupted run.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod admission;
pub mod chaos;
pub mod error;
pub mod gate;
pub mod job;
pub mod journal;
pub mod sched;

pub use admission::{AdmissionConfig, AdmissionPolicy, TenantQuota};
pub use error::{QuotaLimit, ServeError, SERVICE_TENANT};
pub use job::JobSpec;
pub use sched::{
    resume, serve, DegradedPolicy, Policy, PoolEvent, ServeConfig, ServeReport, TenantOutcome,
    TenantStatus,
};

use falcon_table::IdPair;

/// Everything in a [`ServeReport`] that must be invariant across thread
/// counts and kill/resume, flattened to an easily-diffable form:
/// per-tenant virtual times, service, stage counts, statuses, match
/// digests, ledger counters and solo timelines (every segment is priced,
/// none measured), plus the aggregates. Shared by the
/// determinism proptest, the chaos harness and `repro --section chaos` so
/// they all assert the same notion of identity.
pub fn serve_fingerprint(rep: &ServeReport) -> Vec<(String, u128)> {
    let mut fp = Vec::new();
    for o in &rep.outcomes {
        fp.push((format!("{}/finish", o.name), o.finish.as_nanos()));
        fp.push((format!("{}/latency", o.name), o.latency.as_nanos()));
        fp.push((format!("{}/service", o.name), o.machine_service.as_nanos()));
        fp.push((format!("{}/stages", o.name), o.stages as u128));
        fp.push((format!("{}/status", o.name), o.status as u128));
        match &o.result {
            Ok(report) => {
                fp.push((
                    format!("{}/matches", o.name),
                    u128::from(match_digest(&report.matches)),
                ));
                fp.push((
                    format!("{}/questions", o.name),
                    report.ledger.questions as u128,
                ));
                fp.push((
                    format!("{}/cost_cents", o.name),
                    (report.ledger.cost * 100.0).round() as u128,
                ));
                fp.push((
                    format!("{}/crowd_time", o.name),
                    report.ledger.crowd_time.as_nanos(),
                ));
                let segments = format!("{:?}", report.timeline.segments());
                fp.push((
                    format!("{}/timeline", o.name),
                    u128::from(journal::fnv64(&segments)),
                ));
            }
            Err(e) => fp.push((
                format!("{}/error", o.name),
                u128::from(journal::fnv64(&e.to_string())),
            )),
        }
    }
    let agg = rep.aggregate_ledger();
    fp.push(("agg/questions".into(), agg.questions as u128));
    fp.push(("agg/answers".into(), agg.answers as u128));
    fp.push(("agg/cost_cents".into(), (agg.cost * 100.0).round() as u128));
    fp.push(("agg/crowd_time".into(), agg.crowd_time.as_nanos()));
    fp.push(("makespan".into(), rep.makespan.as_nanos()));
    fp.push(("serial_makespan".into(), rep.serial_makespan.as_nanos()));
    fp.push((
        "utilization_ppm".into(),
        (rep.utilization * 1e6).round() as u128,
    ));
    fp
}

/// Order-sensitive 64-bit digest of a match set, for cheap bit-identity
/// assertions across solo and shared-pool runs (FNV-1a over the pairs).
pub fn match_digest(pairs: &[IdPair]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (a, b) in pairs {
        eat(u64::from(*a));
        eat(u64::from(*b));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let x = vec![(1, 2), (3, 4)];
        let y = vec![(3, 4), (1, 2)];
        assert_ne!(match_digest(&x), match_digest(&y));
        assert_eq!(match_digest(&x), match_digest(&x.clone()));
        assert_ne!(match_digest(&x), match_digest(&[]));
    }
}
