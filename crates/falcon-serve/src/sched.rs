//! The multi-tenant scheduler: lockstep rounds over gated drivers, a
//! discrete-event *elastic* node pool, admission control, deadlines,
//! quarantine, and crash-resume from a service journal.
//!
//! # Lockstep rounds
//!
//! Every tenant runs the ordinary `falcon-core` driver on its own OS
//! thread, gated at stage boundaries (see [`crate::gate`]). The
//! scheduler loops in *rounds*: drain each active tenant's event channel
//! until the tenant is parked on a machine-kind boundary (crowd events
//! are folded into its virtual clocks on the way) or its channel
//! disconnects (the run finished); then place every parked stage on the
//! shared [`PoolSim`] in policy order; then grant all parked tenants
//! their next lease. Because a round's content never depends on *when*
//! threads ran — only on the order events sit in per-tenant FIFO
//! channels, which is each driver's program order — every virtual-time
//! outcome is identical at any `threads` setting. The permit count
//! throttles real CPU use and nothing else.
//!
//! # Virtual time
//!
//! Per tenant the scheduler keeps two clocks: `machine_ready` (when its
//! last machine stage finished) and `crowd_free` (when its pending crowd
//! rounds complete). A crowd stage starts at `max(machine_ready,
//! crowd_free)` and pushes `crowd_free`; it occupies **zero** nodes. A
//! masked machine stage may start at `machine_ready` — under the
//! tenant's own open crowd window — while an unmasked one must wait for
//! `max(machine_ready, crowd_free)`. Either kind then waits for enough
//! free nodes in the shared pool. One tenant's crowd waits therefore
//! leave nodes free exactly when another tenant's machine stages want
//! them: the paper's single-job masking optimization, generalized across
//! tenants.
//!
//! # Fault tolerance
//!
//! Everything the scheduler decides is a pure function of the job list
//! and [`ServeConfig`], so the service survives by *recording decisions
//! and re-deriving them*:
//!
//! * **Admission** ([`crate::admission`]) bounds the active set and the
//!   wait queue; overflow is rejected, shed, or queued under a deadline.
//! * **Deadlines and quotas** are enforced at round boundaries: the
//!   scheduler answers the tenant's parked stage with
//!   [`StageControl::Cancel`] and the driver unwinds through its
//!   cancellation points with the crowd journal finalized.
//! * **Quarantine**: a tenant whose driver errors (including dataflow
//!   attempt-budget overruns) is isolated; its outcome records the
//!   failure and no other tenant's bytes change.
//! * **Elastic pool**: seeded [`PoolEvent`]s shrink or grow [`PoolSim`]
//!   capacity mid-run; parked stages re-place on whatever capacity
//!   remains, and a [`DegradedPolicy`] sheds speculative (masked) work
//!   first when capacity drops below a threshold.
//! * **Crash-resume**: with [`ServeConfig::journal`] set, every round is
//!   committed to a [`ServeJournal`](crate::journal::ServeJournal);
//!   [`resume`] re-executes the schedule, verifies each regenerated
//!   round against the record (tenants replay their own crowd journals,
//!   so no crowd question is re-asked), and continues live where the
//!   record ends. Any divergence is a typed [`ServeError`].

use crate::admission::{admit, AdmitDecision};
use crate::error::{ServeError, SERVICE_TENANT};
use crate::gate::{Permits, ServeGate};
use crate::job::JobSpec;
use crate::journal::{fnv64, ServeJournal};
use falcon_core::driver::RunReport;
use falcon_core::error::FalconError;
use falcon_core::stage::{CancelReason, StageControl, StageEvent, StageKind};
use falcon_crowd::Ledger;
use falcon_dataflow::{ClusterConfig, DataflowError, DetRng, Phase};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How parked stages are ordered within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Policy {
    /// Earliest arrival first (ties: tenant index).
    Fifo,
    /// Least machine service so far first, and each stage's node grant is
    /// capped at `pool / active_tenants`.
    #[default]
    FairShare,
    /// Highest [`JobSpec::priority`] first (ties: least machine service).
    Priority,
    /// Seeded random order, keyed by `(seed, round, tenant)` through
    /// [`DetRng::for_task`] — reproducible at any thread count.
    Random,
}

impl Policy {
    /// Parse a policy name as used by the CLI manifest.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(Self::Fifo),
            "fair" | "fairshare" | "fair-share" => Some(Self::FairShare),
            "priority" => Some(Self::Priority),
            "random" => Some(Self::Random),
            _ => None,
        }
    }
}

/// One seeded capacity change applied to the shared pool mid-run: a node
/// join (`delta > 0`) or node loss (`delta < 0`) at virtual time `at`.
/// Capacity never drops below one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolEvent {
    /// Virtual time of the change.
    pub at: Duration,
    /// Signed node-count change.
    pub delta: i64,
}

/// What the scheduler sheds first when the pool degrades.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradedPolicy {
    /// Enter degraded mode when current capacity falls below
    /// `threshold × pool_nodes` (`0.0` disables).
    pub threshold: f64,
    /// Node cap applied to masked (speculative/prebuild) stages while
    /// degraded; they are also sorted after all critical-path stages.
    pub masked_node_cap: usize,
}

impl Default for DegradedPolicy {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            masked_node_cap: 1,
        }
    }
}

/// Service configuration: the shared pool and scheduling knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ServeConfig {
    /// Nodes in the shared pool at start.
    pub pool_nodes: usize,
    /// Concurrent tasks per node (used to size node grants).
    pub slots_per_node: usize,
    /// Placement policy.
    pub policy: Policy,
    /// Real-concurrency cap: how many tenant drivers may compute at
    /// once. Affects wall-clock time only — never virtual outcomes.
    pub threads: usize,
    /// Seed for [`Policy::Random`].
    pub seed: u64,
    /// Admission control and per-tenant quotas.
    pub admission: crate::admission::AdmissionConfig,
    /// Seeded mid-run capacity changes (node loss / node join).
    pub pool_events: Vec<PoolEvent>,
    /// Degraded-mode shedding policy.
    pub degraded: DegradedPolicy,
    /// Service journal path; enables crash-resume.
    pub journal: Option<PathBuf>,
    /// Chaos harness: simulate a service crash by killing the scheduler
    /// right after journaling round `k` (grants for that round are never
    /// delivered — every live tenant unwinds with
    /// [`CancelReason::Kill`]).
    pub kill_after_rounds: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            pool_nodes: 10,
            slots_per_node: 4,
            policy: Policy::FairShare,
            threads: 4,
            seed: 0,
            admission: crate::admission::AdmissionConfig::default(),
            pool_events: Vec::new(),
            degraded: DegradedPolicy::default(),
            journal: None,
            kill_after_rounds: None,
        }
    }
}

impl ServeConfig {
    fn digest(&self) -> u64 {
        // Wall-clock-only and per-run knobs (threads, journal path, kill
        // point) are excluded so a resumed run matches its original.
        fnv64(&format!(
            "{} {} {:?} {} {:?} {:?} {:?}",
            self.pool_nodes,
            self.slots_per_node,
            self.policy,
            self.seed,
            self.admission,
            self.pool_events,
            self.degraded,
        ))
    }
}

/// Discrete-event view of the shared node pool: step functions of node
/// *usage* and node *capacity* over virtual time, stored as sorted delta
/// maps. Capacity is elastic — [`PoolEvent`]s raise or lower it mid-run.
#[derive(Debug)]
struct PoolSim {
    /// Capacity after the last [`PoolEvent`] (steady state).
    final_cap: i64,
    /// `time (ns) → capacity delta`; entry at 0 holds the initial size.
    caps: BTreeMap<u64, i64>,
    /// `time (ns) → usage delta`; a stage on `[s, e)` adds `+n` at `s`
    /// and `-n` at `e`, so usage at `t` is the prefix sum through `t`.
    deltas: BTreeMap<u64, i64>,
    /// Node·nanoseconds committed (for utilization).
    busy: u128,
    /// Latest committed stage end.
    horizon: u64,
}

impl PoolSim {
    fn new(nodes: usize, events: &[PoolEvent]) -> Self {
        let nodes = nodes.max(1) as i64;
        let mut caps = BTreeMap::new();
        caps.insert(0u64, nodes);
        let mut sorted: Vec<&PoolEvent> = events.iter().collect();
        sorted.sort_by_key(|e| ns(e.at));
        let mut cap = nodes;
        for e in sorted {
            // Capacity is clamped at one node: a "total outage" still
            // makes progress, just slowly — the degraded-mode tests pin
            // this down.
            let next = (cap + e.delta).max(1);
            let d = next - cap;
            if d != 0 {
                *caps.entry(ns(e.at)).or_insert(0) += d;
                cap = next;
            }
        }
        caps.retain(|t, d| *t == 0 || *d != 0);
        Self {
            final_cap: cap,
            caps,
            deltas: BTreeMap::new(),
            busy: 0,
            horizon: 0,
        }
    }

    /// Capacity at virtual time `t`.
    fn cap_at(&self, t: u64) -> i64 {
        self.caps.range(..=t).map(|(_, d)| *d).sum()
    }

    /// Largest capacity at any time `≥ t` (bounds what a stage ready at
    /// `t` could ever be granted).
    fn max_cap_from(&self, t: u64) -> i64 {
        let mut cap = self.cap_at(t);
        let mut best = cap;
        for (_, d) in self.caps.range(t + 1..) {
            cap += d;
            best = best.max(cap);
        }
        best.max(1)
    }

    /// Free nodes (capacity − usage) at virtual time `t`.
    fn free_at(&self, t: u64) -> i64 {
        self.cap_at(t) - self.deltas.range(..=t).map(|(_, d)| *d).sum::<i64>()
    }

    /// Earliest `start ≥ ready` at which `want` nodes stay free for
    /// `dur` ns, or `None` when free capacity never again reaches
    /// `want` (the pool shrank for good). Single forward sweep over the
    /// merged usage/capacity delta maps: candidates only move right, so
    /// the scan is linear in committed stages plus capacity events.
    fn try_earliest(&self, ready: u64, want: i64, dur: u64) -> Option<u64> {
        // Merge both step functions into free-node deltas after `ready`.
        let mut merged: BTreeMap<u64, i64> = BTreeMap::new();
        for (k, d) in self.caps.range(ready + 1..) {
            *merged.entry(*k).or_insert(0) += *d;
        }
        for (k, d) in self.deltas.range(ready + 1..) {
            *merged.entry(*k).or_insert(0) -= *d;
        }
        let events: Vec<(u64, i64)> = merged.into_iter().filter(|(_, d)| *d != 0).collect();
        let mut free = self.free_at(ready);
        let mut cand = ready;
        let mut i = 0;
        loop {
            if free >= want {
                // Check the whole window [cand, cand + dur).
                let end = cand.saturating_add(dur);
                let mut window_free = free;
                let mut j = i;
                let mut conflict = None;
                while j < events.len() && events[j].0 < end {
                    window_free += events[j].1;
                    if window_free < want {
                        conflict = Some(j);
                        break;
                    }
                    j += 1;
                }
                match conflict {
                    None => return Some(cand),
                    Some(j) => {
                        // Jump the candidate to the conflict point; the
                        // outer loop keeps advancing until free recovers.
                        while i <= j {
                            free += events[i].1;
                            i += 1;
                        }
                        cand = events[j].0;
                    }
                }
            } else if i < events.len() {
                free += events[i].1;
                cand = events[i].0;
                i += 1;
            } else {
                // Past every event all commitments have ended, so free
                // equals the steady-state capacity — if that still can't
                // fit the stage, nothing ever will.
                return None;
            }
        }
    }

    /// Commit `want` nodes over `[start, end)`.
    fn commit(&mut self, start: u64, end: u64, want: i64) {
        if end <= start || want <= 0 {
            return;
        }
        *self.deltas.entry(start).or_insert(0) += want;
        *self.deltas.entry(end).or_insert(0) -= want;
        self.deltas.retain(|_, d| *d != 0);
        self.busy += u128::from(end - start) * want.unsigned_abs() as u128;
        self.horizon = self.horizon.max(end);
    }

    /// Node·nanoseconds of capacity over `[0, makespan)` — the
    /// utilization denominator under an elastic pool.
    fn node_time(&self, makespan: u64) -> u128 {
        let mut total: u128 = 0;
        let mut cap: i64 = 0;
        let mut prev: u64 = 0;
        for (&t, &d) in &self.caps {
            let t_clamped = t.min(makespan);
            if t_clamped > prev {
                total += u128::from(t_clamped - prev) * cap.unsigned_abs() as u128;
            }
            prev = prev.max(t_clamped);
            cap += d;
        }
        if makespan > prev {
            total += u128::from(makespan - prev) * cap.unsigned_abs() as u128;
        }
        total
    }

    /// Fraction of available node·time spent busy.
    fn utilization(&self, makespan: u64) -> f64 {
        let denom = self.node_time(makespan);
        if denom == 0 {
            return 0.0;
        }
        self.busy as f64 / denom as f64
    }
}

/// One tenant's virtual clocks.
#[derive(Debug, Clone, Copy)]
struct TenantClock {
    machine_ready: u64,
    crowd_free: u64,
    /// Node·nanoseconds of machine service consumed (fair-share key).
    machine_service: u128,
}

impl TenantClock {
    fn at(arrival: u64) -> Self {
        Self {
            machine_ready: arrival,
            crowd_free: arrival,
            machine_service: 0,
        }
    }

    fn finish(&self) -> u64 {
        self.machine_ready.max(self.crowd_free)
    }
}

/// Where a placed stage landed (journal record content).
#[derive(Debug, Clone, Copy)]
struct Placed {
    start: u64,
    end: u64,
    nodes: i64,
}

/// How the shared pool prices a machine stage: as a simulated cluster
/// with the default job and task overheads, on the slots of the nodes it
/// grants. The formula is [`ClusterConfig::stage_time`], the one the solo
/// driver's timeline is priced by; measured time never enters it.
fn pool_pricing() -> ClusterConfig {
    ClusterConfig::default()
}

/// Place one stage for one tenant; shared by the live loop and the
/// serial replay so both price work identically.
fn apply_stage(
    clock: &mut TenantClock,
    pool: &mut PoolSim,
    pricing: &ClusterConfig,
    slots_per_node: usize,
    node_cap: usize,
    ev: &StageEvent,
) -> Placed {
    match ev.kind {
        StageKind::CrowdWait => {
            let start = clock.finish();
            clock.crowd_free = start.saturating_add(ns(ev.dur));
            Placed {
                start,
                end: clock.crowd_free,
                nodes: 0,
            }
        }
        StageKind::Machine | StageKind::MaskedMachine => {
            let ready = if ev.kind == StageKind::MaskedMachine {
                clock.machine_ready
            } else {
                clock.finish()
            };
            let slots_per_node = slots_per_node.max(1);
            // One slot per task, expressed in nodes (a local pass holds one).
            let mut want = (ev.tasks.max(1) as usize)
                .div_ceil(slots_per_node)
                .min(node_cap.max(1)) as i64;
            want = want.min(pool.max_cap_from(ready));
            let dur_on = |nodes: i64| {
                let slots = nodes as usize * slots_per_node;
                ns(pricing.stage_time(ev.tasks, ev.records, slots)).max(1)
            };
            let mut dur = dur_on(want);
            let start = match pool.try_earliest(ready, want, dur) {
                Some(s) => s,
                None => {
                    // The pool's peak window can't hold this grant for
                    // its whole duration (capacity shrank for good):
                    // re-place on the steady-state capacity — fewer
                    // nodes, more waves, but guaranteed to fit.
                    want = want.min(pool.final_cap).max(1);
                    dur = dur_on(want);
                    pool.try_earliest(ready, want, dur)
                        .unwrap_or(pool.horizon.max(ready))
                }
            };
            let end = start.saturating_add(dur);
            pool.commit(start, end, want);
            clock.machine_ready = end;
            clock.machine_service += u128::from(dur) * want.unsigned_abs() as u128;
            Placed {
                start,
                end,
                nodes: want,
            }
        }
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Service-level disposition of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TenantStatus {
    /// Completed normally; the [`RunReport`] is bit-identical to a solo
    /// run.
    Ok,
    /// Cancelled because its virtual-clock deadline passed.
    Deadline,
    /// Isolated after a driver failure (error or attempt-budget overrun).
    Quarantined,
    /// Shed by admission control or a quota.
    Shed,
    /// Refused at admission (queue full).
    Rejected,
    /// Cut short by a simulated service crash (chaos kill point).
    Killed,
}

impl TenantStatus {
    /// Stable lowercase tag (journal `f` lines, CLI `status=` output).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Deadline => "deadline",
            Self::Quarantined => "quarantined",
            Self::Shed => "shed",
            Self::Rejected => "rejected",
            Self::Killed => "killed",
        }
    }
}

/// One tenant's service-level outcome.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Tenant name from the [`JobSpec`].
    pub name: String,
    /// Scheduling priority the tenant ran with.
    pub priority: i32,
    /// Virtual submission time.
    pub arrival: Duration,
    /// Virtual completion time on the shared pool.
    pub finish: Duration,
    /// `finish − arrival`.
    pub latency: Duration,
    /// Node·time of machine service consumed.
    pub machine_service: Duration,
    /// Stage boundaries observed (machine + masked + crowd).
    pub stages: usize,
    /// Service-level disposition.
    pub status: TenantStatus,
    /// The service error that removed the tenant, when one did.
    pub service_error: Option<ServeError>,
    /// The tenant's run result — a full [`RunReport`] on success. Gating
    /// never alters a report, so this is bit-identical to a solo run.
    pub result: Result<RunReport, FalconError>,
}

/// Aggregate service report, with the run-jobs-serially baseline replayed
/// from the recorded stage traces.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-tenant outcomes in submission order.
    pub outcomes: Vec<TenantOutcome>,
    /// Virtual completion time of the last tenant on the shared pool.
    pub makespan: Duration,
    /// Virtual makespan of the same stage traces run one job at a time.
    pub serial_makespan: Duration,
    /// Busy fraction of available node·time over the shared makespan.
    pub utilization: f64,
    /// Busy fraction over the serial makespan.
    pub serial_utilization: f64,
    /// Per-tenant latencies of the serial baseline, in submission order.
    pub serial_latencies: Vec<Duration>,
    /// Scheduler rounds executed (replayed + live).
    pub rounds: u64,
    /// Rounds verified against the service journal on resume.
    pub replayed_rounds: u64,
    /// Round after which a simulated crash cut the run short, if any.
    pub killed_at_round: Option<u64>,
    /// Pool size the report was produced with.
    pub pool_nodes: usize,
}

impl ServeReport {
    /// Aggregate-throughput speedup over running the jobs serially.
    pub fn throughput_speedup(&self) -> f64 {
        let shared = self.makespan.as_secs_f64();
        if shared == 0.0 {
            return 1.0;
        }
        self.serial_makespan.as_secs_f64() / shared
    }

    /// `p`-th percentile (0–100, nearest-rank) of shared-pool latencies.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        percentile(self.outcomes.iter().map(|o| o.latency).collect(), p)
    }

    /// `p`-th percentile of the serial baseline's latencies.
    pub fn serial_latency_percentile(&self, p: f64) -> Duration {
        percentile(self.serial_latencies.clone(), p)
    }

    /// Sum of every successful tenant's crowd ledger — the service-wide
    /// crowd bill. Resume-identity tests pin this aggregate down.
    pub fn aggregate_ledger(&self) -> Ledger {
        let mut total = Ledger::default();
        for o in &self.outcomes {
            if let Ok(rep) = &o.result {
                let l = &rep.ledger;
                total.questions += l.questions;
                total.answers += l.answers;
                total.lost_answers += l.lost_answers;
                total.escalations += l.escalations;
                total.hits += l.hits;
                total.rounds += l.rounds;
                total.cost += l.cost;
                total.crowd_time += l.crowd_time;
            }
        }
        total
    }
}

fn percentile(mut xs: Vec<Duration>, p: f64) -> Duration {
    if xs.is_empty() {
        return Duration::ZERO;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Per-tenant scheduler state.
struct Tenant {
    name: String,
    meta_priority: i32,
    arrival_ns: u64,
    /// Absolute virtual-clock deadline, when the job has one.
    deadline_ns: Option<u64>,
    /// The job, held until activation spawns its driver thread.
    job: Option<JobSpec>,
    events: Option<Receiver<StageEvent>>,
    grants: Option<Sender<StageControl>>,
    handle: Option<JoinHandle<Result<RunReport, FalconError>>>,
    clock: TenantClock,
    trace: Vec<StageEvent>,
    /// Stage events observed so far (journal sequence key).
    seq: u64,
    /// Machine-kind stages placed (stage-quota key).
    machine_stages: u64,
    finished: bool,
    /// Pending cancellation; sticky once set.
    cancel: Option<CancelReason>,
    status: TenantStatus,
    service_error: Option<ServeError>,
    result: Option<Result<RunReport, FalconError>>,
}

impl Tenant {
    fn started(&self) -> bool {
        self.events.is_some()
    }
}

/// Spawn `t`'s driver thread, activating it at virtual time `start_ns`.
fn spawn_tenant(t: &mut Tenant, permits: &Arc<Permits>, start_ns: u64) {
    let Some(job) = t.job.take() else { return };
    let (ev_tx, ev_rx) = channel();
    let (grant_tx, grant_rx) = channel();
    let gate = Arc::new(ServeGate::new(ev_tx, grant_rx, permits.clone()));
    let permits_for_thread = permits.clone();
    t.events = Some(ev_rx);
    t.grants = Some(grant_tx);
    t.clock = TenantClock::at(start_ns);
    t.handle = Some(std::thread::spawn(move || {
        permits_for_thread.acquire();
        let res = job.run(Some(gate.clone()));
        // Disconnect the event channel *before* releasing the permit
        // so the scheduler sees a clean end-of-stream.
        drop(gate);
        permits_for_thread.release();
        res
    }));
}

/// Run `jobs` on one shared node pool under full service semantics:
/// admission control, deadlines, quotas, quarantine, elastic capacity,
/// and (with [`ServeConfig::journal`]) crash-resume.
///
/// Index order is submission order. The call returns `Ok` when every
/// admitted tenant has completed or been removed — one tenant's failure
/// never aborts the others; per-tenant failures live in
/// [`TenantOutcome::status`]. `Err` means the *service* failed: an
/// unusable or diverging service journal.
pub fn serve(jobs: Vec<JobSpec>, cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    let permits = Permits::new(cfg.threads);

    // ---- Admission (pure) -------------------------------------------
    let priorities: Vec<i32> = jobs.iter().map(|j| j.priority).collect();
    let decisions = admit(&cfg.admission, &priorities);
    let mut prefix: Vec<String> = vec![format!("config {:016x}", cfg.digest())];
    for (i, (job, d)) in jobs.iter().zip(&decisions).enumerate() {
        prefix.push(format!(
            "admit {i} {} {} {} {}",
            job.name,
            ns(job.arrival),
            job.priority,
            d.tag()
        ));
    }

    // ---- Journal open + prefix verify/write -------------------------
    let mut journal = match &cfg.journal {
        Some(p) => Some(ServeJournal::open(p).map_err(|e| ServeError::service_journal(0, e))?),
        None => None,
    };
    if let Some(j) = journal.as_mut() {
        if j.is_fresh() {
            j.write_prefix(&prefix)
                .map_err(|e| ServeError::service_journal(0, e))?;
        } else if j.prefix() != prefix.as_slice() {
            return Err(ServeError::service_journal(
                0,
                format!(
                    "journal belongs to a different service run: recorded prefix {:?} vs {:?}",
                    j.prefix(),
                    prefix
                ),
            ));
        }
    }

    // ---- Build tenants ----------------------------------------------
    let mut tenants: Vec<Tenant> = Vec::with_capacity(jobs.len());
    let mut wait_q: VecDeque<usize> = VecDeque::new();
    for (i, (job, d)) in jobs.into_iter().zip(decisions.iter().copied()).enumerate() {
        let arrival_ns = ns(job.arrival);
        let mut deadline_ns = job.deadline.map(|dl| arrival_ns.saturating_add(ns(dl)));
        if d == AdmitDecision::QueuedWithDeadline {
            if let Some(q) = cfg.admission.queue_deadline {
                let qd = arrival_ns.saturating_add(ns(q));
                deadline_ns = Some(deadline_ns.map_or(qd, |dl| dl.min(qd)));
            }
        }
        let name = job.name.clone();
        let mut t = Tenant {
            name: name.clone(),
            meta_priority: job.priority,
            arrival_ns,
            deadline_ns,
            job: Some(job),
            events: None,
            grants: None,
            handle: None,
            clock: TenantClock::at(arrival_ns),
            trace: Vec::new(),
            seq: 0,
            machine_stages: 0,
            finished: false,
            cancel: None,
            status: TenantStatus::Ok,
            service_error: None,
            result: None,
        };
        match d {
            AdmitDecision::Active => spawn_tenant(&mut t, &permits, arrival_ns),
            AdmitDecision::Queued | AdmitDecision::QueuedWithDeadline => wait_q.push_back(i),
            AdmitDecision::Rejected => {
                t.finished = true;
                t.status = TenantStatus::Rejected;
                t.job = None;
                t.result = Some(Err(FalconError::Cancelled {
                    reason: CancelReason::Admission,
                }));
                t.service_error = Some(ServeError::QueueFull {
                    tenant: name,
                    round: 0,
                    queued: cfg.admission.max_queue,
                    max_queue: cfg.admission.max_queue,
                });
            }
            AdmitDecision::Shed => {
                t.finished = true;
                t.status = TenantStatus::Shed;
                t.job = None;
                t.result = Some(Err(FalconError::Cancelled {
                    reason: CancelReason::Admission,
                }));
                t.service_error = Some(ServeError::Shed {
                    tenant: name,
                    round: 0,
                    by: "queue overflow",
                });
            }
        }
        tenants.push(t);
    }

    // ---- Round loop -------------------------------------------------
    let mut pool = PoolSim::new(cfg.pool_nodes, &cfg.pool_events);
    let pricing = pool_pricing();
    let mut round: u64 = 0;
    let mut replayed_rounds: u64 = 0;
    let mut killed_at: Option<u64> = None;

    loop {
        if !tenants.iter().any(|t| t.started() && !t.finished) {
            break;
        }
        let mut lines: Vec<String> = Vec::new();
        let mut pending: Vec<(usize, u64, StageEvent)> = Vec::new();

        // Drain each active tenant to its next machine boundary (or to
        // completion), folding crowd events into its clocks.
        for idx in 0..tenants.len() {
            if !tenants[idx].started() || tenants[idx].finished {
                continue;
            }
            // Not `while let`: the receiver borrow must end before the
            // body mutates `tenants[idx]` (seq bump, trace push, finish).
            #[allow(clippy::while_let_loop)]
            loop {
                let msg = match tenants[idx].events.as_ref() {
                    Some(rx) => rx.recv(),
                    None => break,
                };
                match msg {
                    Ok(ev) => {
                        if let Some(reason) = tenants[idx].cancel {
                            // Already cancelled: keep answering its
                            // parked stages with the same verdict until
                            // the driver unwinds; drop its events so a
                            // cancelled tenant perturbs nothing.
                            if ev.kind != StageKind::CrowdWait {
                                if let Some(g) = tenants[idx].grants.as_ref() {
                                    let _ = g.send(StageControl::Cancel(reason));
                                }
                                lines.push(format!("x {idx} {reason:?}"));
                            }
                            continue;
                        }
                        tenants[idx].seq += 1;
                        let seq = tenants[idx].seq;
                        if ev.kind == StageKind::CrowdWait {
                            let t = &mut tenants[idx];
                            let placed = apply_stage(
                                &mut t.clock,
                                &mut pool,
                                &pricing,
                                cfg.slots_per_node,
                                cfg.pool_nodes,
                                &ev,
                            );
                            lines.push(format!(
                                "c {idx} {seq} {} {} {} {} {} {}",
                                ev.label,
                                ns(ev.dur),
                                ev.tasks,
                                ev.records,
                                placed.start,
                                placed.end
                            ));
                            t.trace.push(ev);
                        } else {
                            tenants[idx].trace.push(ev.clone());
                            pending.push((idx, seq, ev));
                            break;
                        }
                    }
                    Err(_) => {
                        let res = join_tenant(tenants[idx].handle.take());
                        finish_tenant(&mut tenants[idx], idx, res, round, &mut lines);
                        let freed_at = tenants[idx].clock.finish();
                        activate_waiters(
                            &mut tenants,
                            &mut wait_q,
                            freed_at,
                            round,
                            &permits,
                            &mut lines,
                        );
                        break;
                    }
                }
            }
        }

        // Deadline and quota checks at the round boundary: cancelled
        // tenants get their verdict instead of a lease.
        let mut kept: Vec<(usize, u64, StageEvent)> = Vec::with_capacity(pending.len());
        for (idx, seq, ev) in pending {
            let verdict = boundary_verdict(&tenants[idx], &cfg.admission.quota, round);
            match verdict {
                Some((reason, err)) => {
                    let t = &mut tenants[idx];
                    t.cancel = Some(reason);
                    t.service_error.get_or_insert(err);
                    if let Some(g) = t.grants.as_ref() {
                        let _ = g.send(StageControl::Cancel(reason));
                    }
                    lines.push(format!("x {idx} {reason:?}"));
                }
                None => kept.push((idx, seq, ev)),
            }
        }
        let mut pending = kept;

        // Degraded mode: when capacity at the round's earliest ready
        // time has fallen below the threshold, critical-path stages go
        // first and masked (speculative/prebuild) work is node-capped.
        let degraded = cfg.degraded.threshold > 0.0
            && pending
                .iter()
                .map(|(idx, _, ev)| stage_ready(&tenants[*idx].clock, ev.kind))
                .min()
                .map(|t0| {
                    (pool.cap_at(t0) as f64) < cfg.degraded.threshold * cfg.pool_nodes.max(1) as f64
                })
                .unwrap_or(false);

        // Policy order, then place sequentially against the shared pool.
        let active = tenants
            .iter()
            .filter(|t| t.started() && !t.finished)
            .count()
            .max(1);
        let node_cap = match cfg.policy {
            Policy::FairShare => (cfg.pool_nodes / active).max(1),
            _ => cfg.pool_nodes,
        };
        sort_pending(&mut pending, &tenants, cfg, round);
        if degraded {
            // Stable partition: unmasked (critical-path) stages keep
            // their policy order ahead of every masked stage.
            pending.sort_by_key(|(_, _, ev)| ev.kind == StageKind::MaskedMachine);
        }
        for (idx, seq, ev) in &pending {
            let stage_cap = if degraded && ev.kind == StageKind::MaskedMachine {
                node_cap.min(cfg.degraded.masked_node_cap.max(1))
            } else {
                node_cap
            };
            let t = &mut tenants[*idx];
            let placed = apply_stage(
                &mut t.clock,
                &mut pool,
                &pricing,
                cfg.slots_per_node,
                stage_cap,
                ev,
            );
            t.machine_stages += 1;
            let kind = match ev.kind {
                StageKind::Machine => "m",
                StageKind::MaskedMachine => "k",
                StageKind::CrowdWait => "w",
            };
            // Journal the duration priced on the granted nodes, not the
            // tenant's solo-cluster `ev.dur`.
            lines.push(format!(
                "p {idx} {seq} {kind} {} {} {} {} {} {} {}",
                ev.label,
                placed.end.saturating_sub(placed.start),
                ev.tasks,
                ev.records,
                placed.start,
                placed.end,
                placed.nodes
            ));
        }

        // Journal: verify against the record while resuming, append once
        // live. Writes happen *before* grants so a crash between the two
        // is recoverable (the grants regenerate on resume).
        let mut replayed_this_round = false;
        if let Some(j) = journal.as_mut() {
            let failure = match j.next_round() {
                Some((_, recorded)) => {
                    replayed_this_round = true;
                    replayed_rounds += 1;
                    (recorded != lines)
                        .then(|| divergence_error(&tenants, round, &recorded, &lines))
                }
                None if killed_at.is_none() => j
                    .write_round(round, &lines)
                    .err()
                    .map(|e| ServeError::service_journal(round, e)),
                None => None,
            };
            if let Some(err) = failure {
                shutdown_tenants(&mut tenants);
                return Err(err);
            }
        }

        // Chaos kill point: the journal has committed this round, but
        // its grants are never delivered — exactly the state a crash
        // between commit and grant leaves behind.
        if cfg.kill_after_rounds == Some(round) && !replayed_this_round && killed_at.is_none() {
            killed_at = Some(round);
            for t in tenants.iter_mut() {
                if t.started() && !t.finished && t.cancel.is_none() {
                    t.cancel = Some(CancelReason::Kill);
                    t.service_error.get_or_insert(ServeError::Shutdown {
                        tenant: t.name.clone(),
                        round,
                    });
                }
            }
            for (idx, _, _) in &pending {
                if let Some(g) = tenants[*idx].grants.as_ref() {
                    let _ = g.send(StageControl::Cancel(CancelReason::Kill));
                }
            }
            // Queued jobs never start after the crash.
            while let Some(widx) = wait_q.pop_front() {
                let t = &mut tenants[widx];
                t.finished = true;
                t.status = TenantStatus::Killed;
                t.job = None;
                t.result = Some(Err(FalconError::Cancelled {
                    reason: CancelReason::Kill,
                }));
                t.service_error.get_or_insert(ServeError::Shutdown {
                    tenant: t.name.clone(),
                    round,
                });
            }
            round += 1;
            continue;
        }

        // Release every surviving parked tenant for its next stage.
        for (idx, _, _) in &pending {
            if let Some(g) = tenants[*idx].grants.as_ref() {
                let _ = g.send(StageControl::Continue);
            }
        }
        round += 1;
    }

    // ---- Assemble the report ----------------------------------------
    let mut makespan_ns: u64 = 0;
    let mut outcomes = Vec::with_capacity(tenants.len());
    for t in tenants.iter_mut() {
        let finish = t.clock.finish();
        if t.started() {
            makespan_ns = makespan_ns.max(finish);
        }
        outcomes.push(TenantOutcome {
            name: t.name.clone(),
            priority: t.meta_priority,
            arrival: Duration::from_nanos(t.arrival_ns),
            finish: Duration::from_nanos(finish),
            latency: Duration::from_nanos(finish.saturating_sub(t.arrival_ns)),
            machine_service: Duration::from_nanos(
                u64::try_from(t.clock.machine_service).unwrap_or(u64::MAX),
            ),
            stages: t.trace.len(),
            status: t.status,
            service_error: t.service_error.clone(),
            result: t.result.take().unwrap_or(Err(FalconError::EmptyInput {
                what: "tenant result",
            })),
        });
    }
    let utilization = pool.utilization(makespan_ns);
    let (serial_makespan_ns, serial_utilization, serial_latencies) = replay_serial(&tenants, cfg);

    Ok(ServeReport {
        outcomes,
        makespan: Duration::from_nanos(makespan_ns),
        serial_makespan: Duration::from_nanos(serial_makespan_ns),
        utilization,
        serial_utilization,
        serial_latencies,
        rounds: round,
        replayed_rounds,
        killed_at_round: killed_at,
        pool_nodes: cfg.pool_nodes,
    })
}

/// Resume a journaled service run after a crash: requires
/// [`ServeConfig::journal`] and replays the committed schedule before
/// going live. Pure sugar over [`serve`] that rejects a config without a
/// journal and refuses to re-kill.
pub fn resume(jobs: Vec<JobSpec>, cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    if cfg.journal.is_none() {
        return Err(ServeError::service_journal(
            0,
            "resume requires ServeConfig::journal",
        ));
    }
    let mut cfg = cfg.clone();
    cfg.kill_after_rounds = None;
    serve(jobs, &cfg)
}

/// Deadline/quota verdict for a tenant parked at a round boundary.
fn boundary_verdict(
    t: &Tenant,
    quota: &crate::admission::TenantQuota,
    round: u64,
) -> Option<(CancelReason, ServeError)> {
    let finish = t.clock.finish();
    if let Some(d) = t.deadline_ns {
        if finish > d {
            return Some((
                CancelReason::Deadline,
                ServeError::DeadlineExceeded {
                    tenant: t.name.clone(),
                    round,
                    deadline: Duration::from_nanos(d),
                    reached: Duration::from_nanos(finish),
                },
            ));
        }
    }
    if let Some(max) = quota.max_stages {
        if t.machine_stages >= max {
            return Some((
                CancelReason::Quota,
                ServeError::QuotaExceeded {
                    tenant: t.name.clone(),
                    round,
                    what: "stages",
                    limit: max,
                },
            ));
        }
    }
    if let Some(budget) = quota.node_seconds {
        if t.clock.machine_service >= budget.as_nanos() {
            return Some((
                CancelReason::Quota,
                ServeError::QuotaExceeded {
                    tenant: t.name.clone(),
                    round,
                    what: "node-seconds",
                    limit: budget.as_secs(),
                },
            ));
        }
    }
    None
}

/// Ready time of a parked stage (mirrors [`apply_stage`]).
fn stage_ready(clock: &TenantClock, kind: StageKind) -> u64 {
    if kind == StageKind::MaskedMachine {
        clock.machine_ready
    } else {
        clock.finish()
    }
}

/// Record a tenant's completion: classify its result, stash the outcome
/// fields, and journal the `f` line.
fn finish_tenant(
    t: &mut Tenant,
    idx: usize,
    res: Result<RunReport, FalconError>,
    round: u64,
    lines: &mut Vec<String>,
) {
    t.finished = true;
    t.status = match (t.cancel, &res) {
        (None, Ok(_)) => TenantStatus::Ok,
        (Some(CancelReason::Deadline), _) => TenantStatus::Deadline,
        (Some(CancelReason::Quota), _) => TenantStatus::Shed,
        (Some(CancelReason::Kill | CancelReason::Shutdown), _) => TenantStatus::Killed,
        (Some(CancelReason::Admission), _) => TenantStatus::Rejected,
        (None, Err(FalconError::Cancelled { reason })) => match reason {
            CancelReason::Deadline => TenantStatus::Deadline,
            CancelReason::Quota => TenantStatus::Shed,
            CancelReason::Admission => TenantStatus::Rejected,
            _ => TenantStatus::Killed,
        },
        (None, Err(_)) => TenantStatus::Quarantined,
    };
    if t.status == TenantStatus::Quarantined {
        if let Err(e) = &res {
            t.service_error.get_or_insert(ServeError::Quarantined {
                tenant: t.name.clone(),
                round,
                cause: e.to_string(),
            });
        }
    }
    t.result = Some(res);
    lines.push(format!(
        "f {idx} {} {}",
        t.clock.finish(),
        t.status.as_str()
    ));
}

/// A tenant finished at `freed_at`: start the longest-waiting queued job
/// on the freed activation slot, expiring waiters whose deadline already
/// passed.
fn activate_waiters(
    tenants: &mut [Tenant],
    wait_q: &mut VecDeque<usize>,
    freed_at: u64,
    round: u64,
    permits: &Arc<Permits>,
    lines: &mut Vec<String>,
) {
    while let Some(widx) = wait_q.pop_front() {
        let start = tenants[widx].arrival_ns.max(freed_at);
        if let Some(d) = tenants[widx].deadline_ns {
            if start >= d {
                // Expired in the queue: never start it, slot stays free
                // for the next waiter.
                let t = &mut tenants[widx];
                t.finished = true;
                t.status = TenantStatus::Deadline;
                t.job = None;
                t.result = Some(Err(FalconError::Cancelled {
                    reason: CancelReason::Deadline,
                }));
                t.service_error = Some(ServeError::DeadlineExceeded {
                    tenant: t.name.clone(),
                    round,
                    deadline: Duration::from_nanos(d),
                    reached: Duration::from_nanos(start),
                });
                lines.push(format!("f {widx} {start} deadline"));
                continue;
            }
        }
        spawn_tenant(&mut tenants[widx], permits, start);
        lines.push(format!("a {widx} {start}"));
        break;
    }
}

/// Unwind every live tenant before the service returns an error: drop
/// grant channels (parked gates unpark with a typed shutdown), drain
/// events to end-of-stream, join threads.
fn shutdown_tenants(tenants: &mut [Tenant]) {
    for t in tenants.iter_mut() {
        t.grants = None;
    }
    for t in tenants.iter_mut() {
        if let Some(rx) = t.events.take() {
            while rx.recv().is_ok() {}
        }
        if t.handle.is_some() {
            let _ = join_tenant(t.handle.take());
        }
    }
}

/// Build the typed divergence error for a resume mismatch, attributing
/// it to the tenant named in the first differing line.
fn divergence_error(
    tenants: &[Tenant],
    round: u64,
    recorded: &[String],
    regenerated: &[String],
) -> ServeError {
    let mut tenant = SERVICE_TENANT.to_string();
    let mut detail = String::new();
    for i in 0..recorded.len().max(regenerated.len()) {
        let rec = recorded.get(i).map(String::as_str).unwrap_or("<missing>");
        let gen = regenerated
            .get(i)
            .map(String::as_str)
            .unwrap_or("<missing>");
        if rec != gen {
            detail = format!("recorded {rec:?} vs re-executed {gen:?}");
            let line = if rec == "<missing>" { gen } else { rec };
            if let Some(idx) = line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<usize>().ok())
            {
                if let Some(t) = tenants.get(idx) {
                    tenant = t.name.clone();
                }
            }
            break;
        }
    }
    ServeError::ServiceJournal {
        tenant,
        round,
        message: format!("schedule diverges from journal at round {round}: {detail}"),
    }
}

fn join_tenant(
    handle: Option<JoinHandle<Result<RunReport, FalconError>>>,
) -> Result<RunReport, FalconError> {
    let Some(handle) = handle else {
        return Err(FalconError::EmptyInput {
            what: "tenant thread",
        });
    };
    match handle.join() {
        Ok(res) => res,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "tenant driver thread panicked".to_string());
            Err(FalconError::Dataflow(DataflowError::WorkerPanicked {
                job: 0,
                phase: Phase::Map,
                task: 0,
                attempts: 1,
                message,
            }))
        }
    }
}

fn sort_pending(
    pending: &mut [(usize, u64, StageEvent)],
    tenants: &[Tenant],
    cfg: &ServeConfig,
    round: u64,
) {
    match cfg.policy {
        Policy::Fifo => pending.sort_by_key(|(idx, _, _)| (tenants[*idx].arrival_ns, *idx)),
        Policy::FairShare => pending.sort_by_key(|(idx, _, _)| {
            (
                tenants[*idx].clock.machine_service,
                u128::from(tenants[*idx].arrival_ns),
                *idx as u128,
            )
        }),
        Policy::Priority => pending.sort_by_key(|(idx, _, _)| {
            (
                std::cmp::Reverse(tenants[*idx].meta_priority),
                tenants[*idx].clock.machine_service,
                *idx as u128,
            )
        }),
        Policy::Random => pending.sort_by(|(x, _, _), (y, _, _)| {
            let key = |idx: usize| DetRng::for_task(cfg.seed, round, Phase::Map, idx, 0).gen_f64();
            key(*x).total_cmp(&key(*y)).then_with(|| x.cmp(y))
        }),
    }
}

fn replay_serial(tenants: &[Tenant], cfg: &ServeConfig) -> (u64, f64, Vec<Duration>) {
    let mut pool = PoolSim::new(cfg.pool_nodes, &cfg.pool_events);
    let pricing = pool_pricing();
    // Serve in submission order, respecting arrivals: the next job starts
    // no earlier than its arrival or the previous job's finish.
    let mut clock_base: u64 = 0;
    let mut latencies = Vec::with_capacity(tenants.len());
    for t in tenants {
        let start = clock_base.max(t.arrival_ns);
        let mut clock = TenantClock::at(start);
        for ev in &t.trace {
            apply_stage(
                &mut clock,
                &mut pool,
                &pricing,
                cfg.slots_per_node,
                cfg.pool_nodes,
                ev,
            );
        }
        clock_base = clock.finish();
        latencies.push(Duration::from_nanos(
            clock_base.saturating_sub(t.arrival_ns),
        ));
    }
    (clock_base, pool.utilization(clock_base), latencies)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: StageKind, dur_s: u64, tasks: u32, records: u64) -> StageEvent {
        StageEvent {
            label: "t".into(),
            kind,
            dur: Duration::from_secs(dur_s),
            tasks,
            records,
        }
    }

    fn fixed(nodes: usize) -> PoolSim {
        PoolSim::new(nodes, &[])
    }

    #[test]
    fn pool_places_at_ready_when_free() {
        let pool = fixed(4);
        assert_eq!(pool.try_earliest(100, 4, 50), Some(100));
    }

    #[test]
    fn pool_waits_for_capacity() {
        let mut pool = fixed(4);
        pool.commit(0, 100, 3);
        // Wants 2, only 1 free until 100.
        assert_eq!(pool.try_earliest(0, 2, 10), Some(100));
        // Wants 1: fits immediately.
        assert_eq!(pool.try_earliest(0, 1, 10), Some(0));
    }

    #[test]
    fn pool_backfills_gaps() {
        let mut pool = fixed(4);
        pool.commit(100, 200, 4);
        // A 50ns stage fits before the existing commitment.
        assert_eq!(pool.try_earliest(0, 2, 50), Some(0));
        // A 150ns stage cannot: it must wait out the busy window.
        assert_eq!(pool.try_earliest(0, 2, 150), Some(200));
    }

    #[test]
    fn utilization_counts_node_time() {
        let mut pool = fixed(2);
        pool.commit(0, 100, 1);
        assert!((pool.utilization(100) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn node_loss_shrinks_capacity() {
        let pool = PoolSim::new(
            4,
            &[PoolEvent {
                at: Duration::from_nanos(100),
                delta: -3,
            }],
        );
        assert_eq!(pool.cap_at(0), 4);
        assert_eq!(pool.cap_at(100), 1);
        assert_eq!(pool.final_cap, 1);
        // A 4-node stage fits only before the loss.
        assert_eq!(pool.try_earliest(0, 4, 50), Some(0));
        // ... and never after it.
        assert_eq!(pool.try_earliest(60, 4, 50), None);
        // One node always works.
        assert_eq!(pool.try_earliest(60, 1, 50), Some(60));
    }

    #[test]
    fn node_join_restores_capacity() {
        let pool = PoolSim::new(
            2,
            &[
                PoolEvent {
                    at: Duration::from_nanos(50),
                    delta: -1,
                },
                PoolEvent {
                    at: Duration::from_nanos(200),
                    delta: 3,
                },
            ],
        );
        // 4 nodes exist only after the join at t=200.
        assert_eq!(pool.try_earliest(0, 4, 10), Some(200));
        assert_eq!(pool.max_cap_from(0), 4);
    }

    #[test]
    fn capacity_never_below_one() {
        let pool = PoolSim::new(
            2,
            &[PoolEvent {
                at: Duration::from_nanos(10),
                delta: -99,
            }],
        );
        assert_eq!(pool.cap_at(10), 1);
        assert_eq!(pool.final_cap, 1);
    }

    #[test]
    fn elastic_node_time_integrates_capacity() {
        let pool = PoolSim::new(
            4,
            &[PoolEvent {
                at: Duration::from_nanos(100),
                delta: -2,
            }],
        );
        // 4 nodes × 100ns + 2 nodes × 100ns.
        assert_eq!(pool.node_time(200), 600);
        // Events beyond the makespan contribute nothing.
        assert_eq!(pool.node_time(50), 200);
    }

    #[test]
    fn stage_replaces_on_shrunken_pool() {
        // Pool shrinks to 1 node at t=0 ns effectively; a stage wanting
        // 4 nodes is clamped and still placed.
        let mut pool = PoolSim::new(
            4,
            &[PoolEvent {
                at: Duration::from_nanos(1),
                delta: -3,
            }],
        );
        let cost = ClusterConfig::small(1);
        let mut clock = TenantClock::at(1000);
        let placed = apply_stage(
            &mut clock,
            &mut pool,
            &cost,
            4,
            4,
            &ev(StageKind::Machine, 1, 16, 100),
        );
        assert_eq!(placed.nodes, 1);
        assert!(placed.end > placed.start);
    }

    #[test]
    fn masked_stages_run_under_crowd_windows() {
        let cost = ClusterConfig::small(1);
        let mut pool = fixed(4);
        let mut clock = TenantClock::at(0);
        apply_stage(
            &mut clock,
            &mut pool,
            &cost,
            4,
            4,
            &ev(StageKind::CrowdWait, 100, 0, 0),
        );
        let crowd_free = clock.crowd_free;
        apply_stage(
            &mut clock,
            &mut pool,
            &cost,
            4,
            4,
            &ev(StageKind::MaskedMachine, 999, 4, 100),
        );
        // The masked stage started before the crowd window closed.
        assert!(clock.machine_ready < crowd_free);
        // An unmasked stage must wait for the crowd.
        apply_stage(
            &mut clock,
            &mut pool,
            &cost,
            4,
            4,
            &ev(StageKind::Machine, 999, 4, 100),
        );
        assert!(clock.machine_ready > crowd_free);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<Duration> = (1..=10).map(Duration::from_secs).collect();
        assert_eq!(percentile(xs.clone(), 50.0), Duration::from_secs(5));
        assert_eq!(percentile(xs.clone(), 99.0), Duration::from_secs(10));
        assert_eq!(percentile(xs, 100.0), Duration::from_secs(10));
        assert_eq!(percentile(Vec::new(), 50.0), Duration::ZERO);
    }

    #[test]
    fn config_digest_ignores_run_only_knobs() {
        let a = ServeConfig::default();
        let mut b = a.clone();
        b.threads = 16;
        b.journal = Some(PathBuf::from("/tmp/x"));
        b.kill_after_rounds = Some(3);
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.pool_nodes = 99;
        assert_ne!(a.digest(), c.digest());
    }
}
