//! Typed service-level errors.
//!
//! Every variant carries the `(tenant, round)` pair that locates the
//! failure in the scheduler's lockstep execution, and the exhaustive
//! [`ServeError::tenant`] / [`ServeError::round`] accessors make rustc
//! reject a variant without it — the same discipline as
//! `DataflowError::{job, phase}`. Service-scoped failures (journal
//! corruption before any tenant ran, say) use the reserved tenant name
//! `"service"`.

use std::fmt;
use std::time::Duration;

/// Reserved tenant name for failures not attributable to one tenant.
pub const SERVICE_TENANT: &str = "service";

/// A service-level failure, always located at `(tenant, round)`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission refused: the wait queue is full.
    QueueFull {
        /// Tenant whose admission was refused.
        tenant: String,
        /// Scheduler round (0 for admission-time decisions).
        round: u64,
        /// Jobs already waiting.
        queued: usize,
        /// Configured queue bound.
        max_queue: usize,
    },
    /// A per-tenant quota (stage count or node-seconds budget) ran out.
    QuotaExceeded {
        /// Tenant that exhausted its quota.
        tenant: String,
        /// Round at which the quota check fired.
        round: u64,
        /// Which quota, with its configured limit.
        limit: QuotaLimit,
    },
    /// The job's virtual-clock deadline passed.
    DeadlineExceeded {
        /// Tenant whose deadline passed.
        tenant: String,
        /// Round at which the deadline check fired.
        round: u64,
        /// The absolute deadline (virtual time since service start).
        deadline: Duration,
        /// Virtual time the tenant had reached when cancelled.
        reached: Duration,
    },
    /// The tenant's driver failed (error or attempt-budget overrun) and
    /// was isolated from the rest of the service.
    Quarantined {
        /// Tenant that was quarantined.
        tenant: String,
        /// Round at which the failure surfaced.
        round: u64,
        /// The underlying driver failure, rendered.
        cause: String,
    },
    /// The job was shed by admission control to make room for others.
    Shed {
        /// Tenant that was shed.
        tenant: String,
        /// Round (0 for admission-time shedding).
        round: u64,
        /// What shed it (e.g. `"queue overflow"`).
        by: &'static str,
    },
    /// The scheduler shut down while the tenant still had live work.
    Shutdown {
        /// Tenant whose work was cut short.
        tenant: String,
        /// Round at which shutdown reached the tenant.
        round: u64,
    },
    /// The service journal is unusable: I/O failure, structural
    /// corruption, or divergence between the journal and the re-executed
    /// schedule on resume.
    ServiceJournal {
        /// Tenant implicated by the failing record ([`SERVICE_TENANT`]
        /// when no single tenant is).
        tenant: String,
        /// Round of the failing record (0 when outside any round).
        round: u64,
        /// What went wrong.
        message: String,
    },
}

/// A per-tenant quota's configured limit, in the quota's own unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaLimit {
    /// Machine-kind stages placed.
    Stages(u64),
    /// Machine service, `Σ duration × nodes`.
    NodeSeconds(Duration),
}

impl ServeError {
    /// A journal failure of the service as a whole, attributed to
    /// [`SERVICE_TENANT`].
    pub(crate) fn service_journal(round: u64, message: impl fmt::Display) -> Self {
        Self::ServiceJournal {
            tenant: SERVICE_TENANT.to_string(),
            round,
            message: message.to_string(),
        }
    }

    /// The tenant this error is attributed to.
    pub fn tenant(&self) -> &str {
        match self {
            Self::QueueFull { tenant, .. }
            | Self::QuotaExceeded { tenant, .. }
            | Self::DeadlineExceeded { tenant, .. }
            | Self::Quarantined { tenant, .. }
            | Self::Shed { tenant, .. }
            | Self::Shutdown { tenant, .. }
            | Self::ServiceJournal { tenant, .. } => tenant,
        }
    }

    /// The scheduler round this error is located at.
    pub fn round(&self) -> u64 {
        match self {
            Self::QueueFull { round, .. }
            | Self::QuotaExceeded { round, .. }
            | Self::DeadlineExceeded { round, .. }
            | Self::Quarantined { round, .. }
            | Self::Shed { round, .. }
            | Self::Shutdown { round, .. }
            | Self::ServiceJournal { round, .. } => *round,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull {
                tenant,
                round,
                queued,
                max_queue,
            } => write!(
                f,
                "tenant {tenant} (round {round}): admission queue full ({queued}/{max_queue})"
            ),
            Self::QuotaExceeded {
                tenant,
                round,
                limit,
            } => {
                let (what, limit) = match limit {
                    QuotaLimit::Stages(n) => ("stages", n.to_string()),
                    QuotaLimit::NodeSeconds(d) => ("node-seconds", format!("{d:?}")),
                };
                write!(
                    f,
                    "tenant {tenant} (round {round}): {what} quota exhausted (limit {limit})"
                )
            }
            Self::DeadlineExceeded {
                tenant,
                round,
                deadline,
                reached,
            } => write!(
                f,
                "tenant {tenant} (round {round}): deadline {deadline:?} exceeded at {reached:?}"
            ),
            Self::Quarantined {
                tenant,
                round,
                cause,
            } => write!(f, "tenant {tenant} (round {round}): quarantined: {cause}"),
            Self::Shed { tenant, round, by } => {
                write!(f, "tenant {tenant} (round {round}): shed by {by}")
            }
            Self::Shutdown { tenant, round } => {
                write!(f, "tenant {tenant} (round {round}): scheduler shut down")
            }
            Self::ServiceJournal {
                tenant,
                round,
                message,
            } => write!(
                f,
                "tenant {tenant} (round {round}): service journal: {message}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_carries_tenant_and_round() {
        let errs = [
            ServeError::QueueFull {
                tenant: "a".into(),
                round: 0,
                queued: 3,
                max_queue: 3,
            },
            ServeError::QuotaExceeded {
                tenant: "b".into(),
                round: 2,
                limit: QuotaLimit::Stages(10),
            },
            ServeError::DeadlineExceeded {
                tenant: "c".into(),
                round: 5,
                deadline: Duration::from_secs(60),
                reached: Duration::from_secs(90),
            },
            ServeError::Quarantined {
                tenant: "d".into(),
                round: 1,
                cause: "worker panicked".into(),
            },
            ServeError::Shed {
                tenant: "e".into(),
                round: 0,
                by: "queue overflow",
            },
            ServeError::Shutdown {
                tenant: "f".into(),
                round: 7,
            },
            ServeError::ServiceJournal {
                tenant: SERVICE_TENANT.into(),
                round: 3,
                message: "divergence".into(),
            },
        ];
        for (i, e) in errs.iter().enumerate() {
            let shown = e.to_string();
            assert!(shown.contains("tenant "), "{shown}");
            assert!(shown.contains("round "), "{shown}");
            assert_eq!(e.round(), [0, 2, 5, 1, 0, 7, 3][i]);
        }
        assert_eq!(errs[0].tenant(), "a");
    }
}
