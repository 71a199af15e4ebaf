//! One tenant's admission request: a complete EM job plus service-level
//! metadata (priority, virtual arrival time, crash journal).

use falcon_core::driver::{Falcon, FalconConfig, RunCtl, RunReport};
use falcon_core::error::FalconError;
use falcon_core::stage::StageGate;
use falcon_crowd::{Crowd, CrowdJournal};
use falcon_table::Table;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A tenant job submitted to the service.
///
/// The crowd is held as `Arc<dyn Crowd>` so heterogeneous tenants (MTurk
/// workers, in-house experts, oracles) can share one queue; the blanket
/// `impl Crowd for Arc<C>` means the driver consumes it unchanged.
pub struct JobSpec {
    /// Tenant name, used in reports and manifests.
    pub name: String,
    /// Table A.
    pub a: Table,
    /// Table B.
    pub b: Table,
    /// Full driver configuration, fault plan included. Each tenant gets
    /// its own simulated cluster built from this config, so one tenant's
    /// fault plan or job numbering can never leak into another's run.
    pub config: FalconConfig,
    /// The tenant's crowd.
    pub crowd: Arc<dyn Crowd>,
    /// Scheduling priority (higher = served first under
    /// [`Policy::Priority`](crate::sched::Policy)).
    pub priority: i32,
    /// Virtual submission time (default: all jobs arrive at `t = 0`).
    pub arrival: Duration,
    /// `> 0` runs the accuracy-driven workflow with this outer-round cap
    /// instead of a single pass.
    pub workflow_rounds: usize,
    /// Optional per-tenant crash-recovery journal path.
    pub journal: Option<PathBuf>,
    /// Optional virtual-clock deadline, relative to [`JobSpec::arrival`].
    /// The scheduler cancels the job at the first round boundary past it.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A job with default service metadata (priority 0, arrival 0,
    /// single-pass, no journal).
    pub fn new(
        name: impl Into<String>,
        a: Table,
        b: Table,
        config: FalconConfig,
        crowd: Arc<dyn Crowd>,
    ) -> Self {
        Self {
            name: name.into(),
            a,
            b,
            config,
            crowd,
            priority: 0,
            arrival: Duration::ZERO,
            workflow_rounds: 0,
            journal: None,
            deadline: None,
        }
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Set the virtual arrival time.
    pub fn with_arrival(mut self, arrival: Duration) -> Self {
        self.arrival = arrival;
        self
    }

    /// Run the accuracy-driven workflow with this many outer rounds.
    pub fn with_workflow(mut self, rounds: usize) -> Self {
        self.workflow_rounds = rounds;
        self
    }

    /// Attach a crash-recovery journal at `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Set a virtual-clock deadline relative to arrival.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Run this job: under `gate` as a tenant of the shared pool, or
    /// alone with `None`. Both open the crash journal (if any) and take
    /// the same driver entry, so a tenant's shared-pool report can match
    /// its solo report bit-for-bit.
    ///
    /// Note that stateful simulated crowds advance their RNG as they
    /// answer; for identity comparisons construct a *fresh* crowd with
    /// the same seed rather than reusing one that already served.
    pub fn run(&self, gate: Option<Arc<dyn StageGate>>) -> Result<RunReport, FalconError> {
        let journal = self.journal.as_ref().map(CrowdJournal::open).transpose()?;
        Falcon::new(self.config.clone()).try_run_with(
            &self.a,
            &self.b,
            self.crowd.clone(),
            self.workflow_rounds,
            RunCtl { journal, gate },
        )
    }

    /// [`JobSpec::run`] ungated — the reference a tenant's shared-pool
    /// report must match.
    pub fn run_solo(&self) -> Result<RunReport, FalconError> {
        self.run(None)
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("a", &self.a.len())
            .field("b", &self.b.len())
            .field("crowd", &self.crowd.name())
            .field("priority", &self.priority)
            .field("arrival", &self.arrival)
            .field("workflow_rounds", &self.workflow_rounds)
            .field("journal", &self.journal)
            .field("deadline", &self.deadline)
            .finish()
    }
}
