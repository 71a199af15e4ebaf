//! Stage boundaries: the unit a multi-tenant scheduler reasons about.
//!
//! A Falcon run is a sequence of *stages* — MapReduce jobs, local model
//! work and crowd rounds — that [`crate::timeline::Timeline`] records as
//! segments. For a single job the record is enough; a shared service
//! additionally needs to *intervene* at each boundary so one tenant's
//! machine stages can fill the node pool while another tenant waits on
//! the crowd (`falcon-serve`). This module defines that boundary
//! protocol: a [`StageEvent`] describing the stage that just ran and a
//! [`StageGate`] callback the timeline notifies (and, for machine
//! stages, blocks on) after recording each segment.
//!
//! Because crowd answers in this codebase are computed synchronously and
//! crowd latency is purely virtual accounting, gating at stage
//! boundaries cannot change *what* a run computes — only when its
//! machine stages are deemed to occupy cluster nodes. That is the
//! foundation of the per-tenant determinism argument in DESIGN.md §13.

use falcon_dataflow::{local_time, ClusterConfig, JobStats};
use std::ops::{Add, AddAssign};
use std::sync::Arc;
use std::time::Duration;

/// The deterministic price of one machine stage: what the run's own
/// timeline charges for it (`dur`) and the shape a shared scheduler
/// re-prices on the slots it grants (`tasks`, `records`). It is the only
/// thing [`crate::timeline::Timeline`]'s machine recorders accept and can
/// only be built from a job's [`JobStats`] or a record count — never from
/// a measured `Duration` — so every virtual time is a function of the
/// inputs, the config and the seed, not of the host's speed or cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCost {
    dur: Duration,
    tasks: u32,
    records: u64,
}

impl StageCost {
    /// Cluster jobs run one after the other on the cluster `cfg`
    /// describes: the sum of their simulated durations, map tasks and
    /// input records.
    pub fn of<'a>(jobs: impl IntoIterator<Item = &'a JobStats>, cfg: &ClusterConfig) -> Self {
        jobs.into_iter().fold(Self::default(), |sum, j| {
            sum + Self {
                dur: j.sim_duration(cfg),
                tasks: j.map_tasks as u32,
                records: j.input_records as u64,
            }
        })
    }

    /// A driver-local pass over `records` records. It launches no cluster
    /// job, so it pays per-record compute and no job or task overhead
    /// (`tasks: 0`, as crowd rounds report).
    pub fn local(records: usize) -> Self {
        Self {
            dur: local_time(records as u64),
            tasks: 0,
            records: records as u64,
        }
    }

    /// The simulated duration on the run's own cluster.
    pub fn dur(&self) -> Duration {
        self.dur
    }

    pub(crate) fn shape(&self) -> (u32, u64) {
        (self.tasks, self.records)
    }
}

impl Add for StageCost {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            dur: self.dur + other.dur,
            tasks: self.tasks.saturating_add(other.tasks),
            records: self.records.saturating_add(other.records),
        }
    }
}

impl AddAssign for StageCost {
    fn add_assign(&mut self, other: Self) {
        *self = *self + other;
    }
}

/// What kind of work a stage performed, mirroring
/// [`crate::timeline::Segment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Machine work on the critical path; a scheduler must lease nodes
    /// and may not start it before the tenant's crowd frontier.
    Machine,
    /// Machine work the optimizer scheduled during crowdsourcing; a
    /// scheduler leases nodes but may run it under pending crowd waits.
    MaskedMachine,
    /// A crowd round: virtual latency, no nodes consumed.
    CrowdWait,
}

/// One completed stage, reported to a [`StageGate`] at its boundary.
///
/// `dur` is the stage's simulated duration on the run's own cluster
/// (what the timeline recorded). `tasks` and `records` are its shape —
/// map-task and input-record counts of the cluster jobs it ran, `tasks:
/// 0` for a driver-local pass over `records` records — from which a
/// scheduler re-prices the stage on the slots it grants
/// ([`ClusterConfig::stage_time`]). All three are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct StageEvent {
    /// Operator label, matching the timeline segment label.
    pub label: String,
    /// Kind of work.
    pub kind: StageKind,
    /// Simulated duration as recorded on the timeline.
    pub dur: Duration,
    /// Map tasks of the underlying cluster jobs (`0` when the stage
    /// launched none: a driver-local pass or a crowd round).
    pub tasks: u32,
    /// Input records of the underlying cluster jobs, or records scanned
    /// by a driver-local pass.
    pub records: u64,
}

/// Why a scheduler asked a gated run to stop at a stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// The tenant's virtual-clock deadline passed.
    Deadline,
    /// The tenant exhausted a per-tenant quota (stages or node-seconds).
    Quota,
    /// The scheduler shut down (dropped, failed, or finished early)
    /// while the tenant was still running.
    Shutdown,
    /// A simulated service crash (chaos harness kill point).
    Kill,
    /// Admission control refused the job before it ever started; used
    /// only in service reports, never as a gate verdict.
    Admission,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Deadline => "deadline exceeded",
            Self::Quota => "quota exhausted",
            Self::Shutdown => "scheduler shut down",
            Self::Kill => "service killed",
            Self::Admission => "refused at admission",
        })
    }
}

/// The scheduler's verdict at a stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageControl {
    /// Keep running: the next stage's lease is granted.
    Continue,
    /// Stop: the driver must unwind with a typed cancellation error at
    /// its next cancellation point, finalizing its crowd journal so the
    /// run stays resumable.
    Cancel(CancelReason),
}

/// Callback invoked at every stage boundary of a gated run.
///
/// `on_stage` is called *after* the segment is recorded. For
/// [`StageKind::Machine`] and [`StageKind::MaskedMachine`] events the
/// gate may block until a scheduler grants the tenant a node lease for
/// its next stage — that blocking is what turns the monolithic driver
/// loop into a resumable stage iterator without rewriting its call tree
/// into an explicit state machine. For [`StageKind::CrowdWait`] events
/// implementations should return promptly: crowd latency is virtual, so
/// blocking the driver thread on it would serialize tenants for no
/// reason.
///
/// The returned [`StageControl`] is the scheduler's verdict: `Continue`
/// keeps the run going, `Cancel` makes the driver unwind cleanly with
/// [`FalconError::Cancelled`](crate::error::FalconError) at its next
/// cancellation point. A gate whose scheduler is *gone* (channel
/// disconnected) must return `Cancel(CancelReason::Shutdown)` rather
/// than blocking forever or silently letting the run continue ungated.
pub trait StageGate: Send + Sync {
    /// Observe one stage boundary; may block (see trait docs).
    fn on_stage(&self, event: StageEvent) -> StageControl;
}

/// Shared handle to a gate, carried inside [`crate::timeline::Timeline`].
///
/// A newtype so `Timeline` can keep deriving `Debug`/`Clone` (trait
/// objects have no `Debug`).
#[derive(Clone)]
pub struct GateHandle(Arc<dyn StageGate>);

impl GateHandle {
    /// Wrap a gate for installation into a timeline.
    pub fn new(gate: Arc<dyn StageGate>) -> Self {
        Self(gate)
    }

    /// Notify the gate of a stage boundary, returning its verdict.
    pub fn on_stage(&self, event: StageEvent) -> StageControl {
        self.0.on_stage(event)
    }
}

impl std::fmt::Debug for GateHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GateHandle(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    struct Recorder(Mutex<Vec<StageEvent>>);

    impl StageGate for Recorder {
        fn on_stage(&self, event: StageEvent) -> StageControl {
            self.0.lock().push(event);
            StageControl::Continue
        }
    }

    #[test]
    fn gate_handle_forwards_events() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let handle = GateHandle::new(rec.clone());
        handle.on_stage(StageEvent {
            label: "x".into(),
            kind: StageKind::Machine,
            dur: Duration::from_secs(1),
            tasks: 4,
            records: 100,
        });
        let seen = rec.0.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].kind, StageKind::Machine);
        assert_eq!(seen[0].tasks, 4);
    }

    #[test]
    fn gate_handle_debug_is_opaque() {
        let rec = Arc::new(Recorder(Mutex::new(Vec::new())));
        let handle = GateHandle::new(rec);
        assert_eq!(format!("{handle:?}"), "GateHandle(..)");
    }
}
