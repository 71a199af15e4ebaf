//! The multi-tenant scheduler: lockstep rounds over gated drivers, a
//! discrete-event *elastic* node pool, admission control, deadlines,
//! quarantine, and crash-resume from a service journal.
//!
//! # Lockstep rounds
//!
//! Every tenant runs the ordinary `falcon-core` driver on its own OS
//! thread, gated at stage boundaries (see [`crate::gate`]). [`serve`] is
//! only the mechanism: it spawns those threads, drains their channels,
//! journals and grants, while a core with no threads and no files,
//! `Rounds`, makes every decision. Each round drains every running tenant,
//! in index order, until it parks on a machine-kind boundary (crowd
//! events are folded into its clocks on the way) or its driver returns;
//! then answers every parked stage — cancellations first, then placements
//! on the shared [`PoolSim`] in policy order; then commits the round's
//! `Decision`s and grants. Because a round's content never depends on
//! *when* threads ran — only on the order events sit in per-tenant FIFO
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
//! free nodes in the shared pool: the nodes that run each of its jobs'
//! phases in one wave, capped by the tenant's own node count, the
//! fair-share cap and the pool. It lasts the solo driver's one price of
//! its tasks ([`TaskShape::price`](falcon_dataflow::TaskShape::price)) on the tenant's own cluster config
//! and those nodes, so a tenant granted its own nodes is charged its
//! solo price. One tenant's crowd waits therefore
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
//! * **Quarantine**: a tenant whose driver errors or panics (including
//!   dataflow attempt-budget overruns) is isolated; its outcome records
//!   the failure and no other tenant's bytes change.
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

use crate::admission::{admit, AdmitDecision, TenantQuota};
use crate::error::{QuotaLimit, ServeError, SERVICE_TENANT};
use crate::gate::{Permits, ServeGate, Stage};
use crate::job::JobSpec;
use crate::journal::{fnv64, ServeJournal};
use falcon_core::driver::RunReport;
use falcon_core::error::FalconError;
use falcon_core::stage::{CancelReason, StageControl, StageEvent, StageKind};
use falcon_crowd::Ledger;
use falcon_dataflow::{ClusterConfig, DataflowError, DetRng, Phase};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How parked stages are ordered within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEvent {
    /// Virtual time of the change.
    pub at: Duration,
    /// Signed node-count change.
    pub delta: i64,
}

/// What the scheduler sheds first when the pool degrades.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Nodes in the shared pool at start.
    pub pool_nodes: usize,
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
            "{} {:?} {} {:?} {:?} {:?}",
            self.pool_nodes,
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

    /// Place one stage of the tenant whose clocks are `clock` and whose
    /// own cluster is `cluster`, granting at most `node_cap` nodes. A
    /// machine stage is granted the nodes that run each phase of each of
    /// its jobs in one wave — at least one, and at most the tenant's own
    /// node count, `node_cap` and the pool — and lasts the one price of
    /// its task shape on them ([`TaskShape::price`]), as the solo driver
    /// charges on the tenant's own nodes. The rounds and the serial
    /// replay both place here; measured time never enters.
    ///
    /// [`TaskShape::price`]: falcon_dataflow::TaskShape::price
    fn place(
        &mut self,
        clock: &mut TenantClock,
        stage: &Stage,
        cluster: &ClusterConfig,
        node_cap: usize,
    ) -> Placed {
        let kind = stage.event.kind;
        let ready = clock.ready(kind);
        if kind == StageKind::CrowdWait {
            clock.crowd_free = ready.saturating_add(ns(stage.event.dur));
            return Placed {
                start: ready,
                end: clock.crowd_free,
                nodes: 0,
            };
        }
        let shape = stage.cost.shape();
        let grant = shape.wave_nodes(cluster).min(cluster.nodes).min(node_cap);
        let mut want = (grant.max(1) as i64).min(self.max_cap_from(ready));
        let dur_on = |nodes: i64| ns(shape.price(cluster, nodes.unsigned_abs() as usize));
        let mut dur = dur_on(want);
        let start = match self.try_earliest(ready, want, dur) {
            Some(s) => s,
            None => {
                // The pool's peak window can't hold this grant for its
                // whole duration (capacity shrank for good): re-place on
                // the steady-state capacity — fewer nodes, more waves,
                // but guaranteed to fit.
                want = want.min(self.final_cap).max(1);
                dur = dur_on(want);
                self.try_earliest(ready, want, dur)
                    .unwrap_or(self.horizon.max(ready))
            }
        };
        let end = start.saturating_add(dur);
        self.commit(start, end, want);
        clock.machine_ready = end;
        clock.machine_service += u128::from(dur) * want.unsigned_abs() as u128;
        Placed {
            start,
            end,
            nodes: want,
        }
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

    /// The one ready-time rule: a masked stage may start as soon as the
    /// machine is free — under the tenant's own open crowd window — while
    /// an unmasked stage or a crowd wait waits for both clocks.
    fn ready(&self, kind: StageKind) -> u64 {
        match kind {
            StageKind::MaskedMachine => self.machine_ready,
            StageKind::Machine | StageKind::CrowdWait => self.finish(),
        }
    }
}

/// Where a placed stage landed.
#[derive(Debug, Clone, Copy)]
struct Placed {
    start: u64,
    end: u64,
    nodes: i64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One scheduling decision. Its `Display` is the only place a
/// service-journal line is written; resume renders the re-executed
/// decisions and compares them with the recorded lines.
#[derive(Debug)]
enum Decision {
    /// `config <fnv64>` of the outcome-relevant config.
    Config(u64),
    /// `admit <tenant> <name> <arrival_ns> <priority> <verdict>`.
    Admit(usize, String, u64, i32, AdmitDecision),
    /// `c <tenant> <seq> <label> <dur_ns> <tasks> <records> <start> <end>`:
    /// a crowd wait folded into the tenant's clocks.
    Crowd(usize, u64, StageEvent, Placed),
    /// `p <tenant> <seq> <m|k> <label> <dur_ns> <tasks> <records> <start>
    /// <end> <nodes>`: a machine-kind stage placed on the pool. `dur_ns`
    /// is the event's, the stage's price on the tenant's own nodes;
    /// `end − start` is its price on the `nodes` granted.
    Place(usize, u64, StageEvent, Placed),
    /// `x <tenant> <reason>`: a cancellation verdict delivered.
    Cancel(usize, CancelReason),
    /// `f <tenant> <finish_ns> <status>`: the tenant left the service.
    Finish(usize, u64, TenantStatus),
    /// `a <tenant> <start_ns>`: a waiter activated on a freed slot.
    Activate(usize, u64),
}

impl Decision {
    fn tenant(&self) -> Option<usize> {
        match self {
            Self::Config(_) => None,
            Self::Admit(t, ..) | Self::Crowd(t, ..) | Self::Place(t, ..) => Some(*t),
            Self::Cancel(t, _) | Self::Finish(t, ..) | Self::Activate(t, _) => Some(*t),
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(digest) => write!(f, "config {digest:016x}"),
            Self::Admit(t, name, arrival, priority, verdict) => {
                write!(f, "admit {t} {name} {arrival} {priority} {}", verdict.tag())
            }
            Self::Crowd(t, seq, s, p) => {
                let (label, dur, tasks, records) = (&s.label, ns(s.dur), s.tasks, s.records);
                write!(
                    f,
                    "c {t} {seq} {label} {dur} {tasks} {records} {} {}",
                    p.start, p.end
                )
            }
            Self::Place(t, seq, s, p) => {
                let kind = ["m", "k"][usize::from(s.kind == StageKind::MaskedMachine)];
                let (label, dur, tasks, records) = (&s.label, ns(s.dur), s.tasks, s.records);
                let (start, end, nodes) = (p.start, p.end, p.nodes);
                write!(
                    f,
                    "p {t} {seq} {kind} {label} {dur} {tasks} {records} {start} {end} {nodes}"
                )
            }
            Self::Cancel(t, reason) => write!(f, "x {t} {reason:?}"),
            Self::Finish(t, at, status) => write!(f, "f {t} {at} {}", status.as_str()),
            Self::Activate(t, at) => write!(f, "a {t} {at}"),
        }
    }
}

/// Service-level disposition of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Where a tenant stands: `Queued` (no driver yet), `Running` (its driver
/// runs or unwinds), `Finished` (its driver returned), or `Closed` before
/// its driver ever started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    Queued,
    Running,
    Finished,
    Closed,
}

/// One tenant as the policy sees it.
struct Tenant {
    name: String,
    priority: i32,
    arrival: u64,
    /// Absolute virtual-clock deadline, when the job has one.
    deadline: Option<u64>,
    /// The tenant's own simulated cluster: its stages are priced on
    /// nodes of it.
    cluster: ClusterConfig,
    standing: Standing,
    clock: TenantClock,
    /// Every stage observed, in program order (serial baseline input).
    trace: Vec<Stage>,
    /// Stage events observed so far (journal sequence key).
    seq: u64,
    /// Machine-kind stages placed (stage-quota key).
    machine_stages: u64,
    /// Pending cancellation; sticky once set.
    cancel: Option<CancelReason>,
    status: TenantStatus,
    service_error: Option<ServeError>,
    result: Option<Result<RunReport, FalconError>>,
}

impl Tenant {
    /// Deadline or quota verdict for the tenant parked at a round
    /// boundary.
    fn verdict(&self, quota: &TenantQuota, round: u64) -> Option<(CancelReason, ServeError)> {
        let finish = self.clock.finish();
        if let Some(d) = self.deadline.filter(|d| finish > *d) {
            let err = ServeError::DeadlineExceeded {
                tenant: self.name.clone(),
                round,
                deadline: Duration::from_nanos(d),
                reached: Duration::from_nanos(finish),
            };
            return Some((CancelReason::Deadline, err));
        }
        let limit = match (quota.max_stages, quota.node_seconds) {
            (Some(max), _) if self.machine_stages >= max => QuotaLimit::Stages(max),
            (_, Some(budget)) if self.clock.machine_service >= budget.as_nanos() => {
                QuotaLimit::NodeSeconds(budget)
            }
            _ => return None,
        };
        let err = ServeError::QuotaExceeded {
            tenant: self.name.clone(),
            round,
            limit,
        };
        Some((CancelReason::Quota, err))
    }

    fn outcome(self) -> TenantOutcome {
        let finish = self.clock.finish();
        let service = u64::try_from(self.clock.machine_service).unwrap_or(u64::MAX);
        TenantOutcome {
            name: self.name,
            priority: self.priority,
            arrival: Duration::from_nanos(self.arrival),
            finish: Duration::from_nanos(finish),
            latency: Duration::from_nanos(finish.saturating_sub(self.arrival)),
            machine_service: Duration::from_nanos(service),
            stages: self.trace.len(),
            status: self.status,
            service_error: self.service_error,
            result: self.result.unwrap_or(Err(FalconError::EmptyInput {
                what: "tenant result",
            })),
        }
    }
}

/// The scheduling policy, with no threads and no files: the pool, every
/// tenant's clocks, quota counters, deadline and standing, the wait
/// queue and the round counter. Within a round its decisions come in
/// this order, the order the journal records and resume compares:
///
/// 1. drain-phase decisions (`c`, `x` of already-cancelled tenants, `f`,
///    `a`) in tenant-index order, each tenant's in its program order; a
///    waiter activated while tenant `i` drains is drained in the same
///    round exactly when its index is greater than `i`;
/// 2. boundary cancellations (`x`) of parked tenants, in tenant-index
///    order;
/// 3. placements (`p`) in policy order — [`Policy::Random`] keyed on
///    `(seed, round, tenant)` — with unmasked stages ahead of masked
///    ones in a degraded round (a stable partition of the policy order).
struct Rounds<'c> {
    cfg: &'c ServeConfig,
    pool: PoolSim,
    tenants: Vec<Tenant>,
    queue: VecDeque<usize>,
    round: u64,
    /// Decisions since the last commit, in journal order.
    decisions: Vec<Decision>,
    /// This round's parked machine stages `(tenant, seq, stage)`.
    parked: Vec<(usize, u64, Stage)>,
}

impl<'c> Rounds<'c> {
    /// Admit `jobs` (index order is submission order), leaving the
    /// journal prefix — the config and admission decisions — in
    /// `decisions`.
    fn new(cfg: &'c ServeConfig, jobs: &[JobSpec]) -> Self {
        let priorities: Vec<i32> = jobs.iter().map(|j| j.priority).collect();
        let mut rounds = Self {
            cfg,
            pool: PoolSim::new(cfg.pool_nodes, &cfg.pool_events),
            tenants: Vec::with_capacity(jobs.len()),
            queue: VecDeque::new(),
            round: 0,
            decisions: vec![Decision::Config(cfg.digest())],
            parked: Vec::new(),
        };
        let verdicts = admit(&cfg.admission, &priorities);
        for (t, (job, verdict)) in jobs.iter().zip(verdicts).enumerate() {
            let (name, arrival) = (job.name.clone(), ns(job.arrival));
            let mut deadline = job.deadline.map(|d| arrival.saturating_add(ns(d)));
            if let (AdmitDecision::QueuedWithDeadline, Some(q)) =
                (verdict, cfg.admission.queue_deadline)
            {
                let qd = arrival.saturating_add(ns(q));
                deadline = Some(deadline.map_or(qd, |d| d.min(qd)));
            }
            let admit = Decision::Admit(t, name.clone(), arrival, job.priority, verdict);
            rounds.decisions.push(admit);
            rounds.tenants.push(Tenant {
                name: name.clone(),
                priority: job.priority,
                arrival,
                deadline,
                cluster: job.config.cluster.clone(),
                standing: Standing::Queued,
                clock: TenantClock::at(arrival),
                trace: Vec::new(),
                seq: 0,
                machine_stages: 0,
                cancel: None,
                status: TenantStatus::Ok,
                service_error: None,
                result: None,
            });
            let max_queue = cfg.admission.max_queue;
            match verdict {
                AdmitDecision::Active => rounds.tenants[t].standing = Standing::Running,
                AdmitDecision::Queued | AdmitDecision::QueuedWithDeadline => {
                    rounds.queue.push_back(t)
                }
                AdmitDecision::Rejected => {
                    let err = ServeError::QueueFull {
                        tenant: name,
                        round: 0,
                        queued: max_queue,
                        max_queue,
                    };
                    rounds.close(t, TenantStatus::Rejected, CancelReason::Admission, err);
                }
                AdmitDecision::Shed => {
                    let err = ServeError::Shed {
                        tenant: name,
                        round: 0,
                        by: "queue overflow",
                    };
                    rounds.close(t, TenantStatus::Shed, CancelReason::Admission, err);
                }
            }
        }
        rounds
    }

    fn running(&self, t: usize) -> bool {
        self.tenants[t].standing == Standing::Running
    }

    /// Does any tenant still run?
    fn live(&self) -> bool {
        (0..self.tenants.len()).any(|t| self.running(t))
    }

    /// Remove tenant `t` before its driver ever started — rejected, shed,
    /// expired in the queue, or still queued when the service was killed
    /// — with its run cancelled for `reason`.
    fn close(&mut self, t: usize, status: TenantStatus, reason: CancelReason, err: ServeError) {
        let tenant = &mut self.tenants[t];
        tenant.standing = Standing::Closed;
        tenant.status = status;
        tenant.cancel = Some(reason);
        tenant.service_error.get_or_insert(err);
        tenant.result = Some(Err(FalconError::Cancelled { reason }));
    }

    /// Fold the next stage event drained from running tenant `t`; a
    /// machine-kind stage parks the tenant until this round's verdicts.
    /// Returns the verdict to answer at once: the tenant was already
    /// cancelled, and is answered the same way until its driver unwinds.
    fn observe(&mut self, t: usize, stage: Stage) -> Option<CancelReason> {
        let tenant = &mut self.tenants[t];
        let kind = stage.event.kind;
        if let Some(reason) = tenant.cancel {
            // Drop a cancelled tenant's events so it perturbs nothing.
            if kind == StageKind::CrowdWait {
                return None;
            }
            self.decisions.push(Decision::Cancel(t, reason));
            return Some(reason);
        }
        tenant.seq += 1;
        tenant.trace.push(stage.clone());
        if kind != StageKind::CrowdWait {
            self.parked.push((t, tenant.seq, stage));
            return None;
        }
        let cap = self.cfg.pool_nodes;
        let placed = self
            .pool
            .place(&mut tenant.clock, &stage, &tenant.cluster, cap);
        self.decisions
            .push(Decision::Crowd(t, tenant.seq, stage.event, placed));
        None
    }

    /// Tenant `t`'s driver returned `res`: classify it, record its finish,
    /// and hand its activation slot to the longest waiter, expiring
    /// waiters whose deadline already passed. Returns the waiter whose
    /// driver must start now.
    fn finish(&mut self, t: usize, res: Result<RunReport, FalconError>) -> Option<usize> {
        let round = self.round;
        let tenant = &mut self.tenants[t];
        let reason = tenant.cancel.or(match &res {
            Err(FalconError::Cancelled { reason }) => Some(*reason),
            _ => None,
        });
        tenant.status = match (reason, &res) {
            (Some(CancelReason::Deadline), _) => TenantStatus::Deadline,
            (Some(CancelReason::Quota), _) => TenantStatus::Shed,
            (Some(CancelReason::Admission), _) => TenantStatus::Rejected,
            (Some(CancelReason::Kill | CancelReason::Shutdown), _) => TenantStatus::Killed,
            (None, Ok(_)) => TenantStatus::Ok,
            (None, Err(e)) => {
                let err = ServeError::Quarantined {
                    tenant: tenant.name.clone(),
                    round,
                    cause: e.to_string(),
                };
                tenant.service_error.get_or_insert(err);
                TenantStatus::Quarantined
            }
        };
        tenant.standing = Standing::Finished;
        tenant.result = Some(res);
        let freed_at = tenant.clock.finish();
        let finished = Decision::Finish(t, freed_at, tenant.status);
        self.decisions.push(finished);
        while let Some(w) = self.queue.pop_front() {
            let waiter = &mut self.tenants[w];
            let start = waiter.arrival.max(freed_at);
            let Some(d) = waiter.deadline.filter(|d| start >= *d) else {
                waiter.standing = Standing::Running;
                waiter.clock = TenantClock::at(start);
                self.decisions.push(Decision::Activate(w, start));
                return Some(w);
            };
            // Expired in the queue: never started; the slot stays free for
            // the next waiter.
            let err = ServeError::DeadlineExceeded {
                tenant: waiter.name.clone(),
                round,
                deadline: Duration::from_nanos(d),
                reached: Duration::from_nanos(start),
            };
            self.close(w, TenantStatus::Deadline, CancelReason::Deadline, err);
            let expired = Decision::Finish(w, start, TenantStatus::Deadline);
            self.decisions.push(expired);
        }
        None
    }

    /// Answer every stage parked this round: tenants past their deadline
    /// or quota are cancelled, the rest placed on the pool in policy
    /// order. Returns one verdict per parked tenant.
    fn place(&mut self) -> Vec<(usize, StageControl)> {
        let cfg = self.cfg;
        let mut verdicts = Vec::with_capacity(self.parked.len());
        let mut kept = Vec::with_capacity(self.parked.len());
        for (t, seq, ev) in std::mem::take(&mut self.parked) {
            let tenant = &mut self.tenants[t];
            let Some((reason, err)) = tenant.verdict(&cfg.admission.quota, self.round) else {
                kept.push((t, seq, ev));
                continue;
            };
            tenant.cancel = Some(reason);
            tenant.service_error.get_or_insert(err);
            self.decisions.push(Decision::Cancel(t, reason));
            verdicts.push((t, StageControl::Cancel(reason)));
        }
        // Degraded mode: when capacity at the round's earliest ready time
        // has fallen below the threshold, critical-path stages go first
        // and masked (speculative/prebuild) work is node-capped.
        let earliest = kept
            .iter()
            .map(|(t, _, stage)| self.tenants[*t].clock.ready(stage.event.kind));
        let degraded = cfg.degraded.threshold > 0.0
            && earliest.min().is_some_and(|t0| {
                (self.pool.cap_at(t0) as f64)
                    < cfg.degraded.threshold * cfg.pool_nodes.max(1) as f64
            });
        let node_cap = match cfg.policy {
            Policy::FairShare => {
                let active = (0..self.tenants.len()).filter(|&t| self.running(t)).count();
                (cfg.pool_nodes / active.max(1)).max(1)
            }
            _ => cfg.pool_nodes,
        };
        self.order(&mut kept);
        if degraded {
            // Stable partition: unmasked (critical-path) stages keep
            // their policy order ahead of every masked stage.
            kept.sort_by_key(|(_, _, stage)| stage.event.kind == StageKind::MaskedMachine);
        }
        for (t, seq, stage) in kept {
            let cap = match degraded && stage.event.kind == StageKind::MaskedMachine {
                true => node_cap.min(cfg.degraded.masked_node_cap.max(1)),
                false => node_cap,
            };
            let tenant = &mut self.tenants[t];
            let placed = (self.pool).place(&mut tenant.clock, &stage, &tenant.cluster, cap);
            tenant.machine_stages += 1;
            self.decisions
                .push(Decision::Place(t, seq, stage.event, placed));
            verdicts.push((t, StageControl::Continue));
        }
        verdicts
    }

    /// Sort parked stages into policy order.
    fn order(&self, stages: &mut [(usize, u64, Stage)]) {
        let tenant = |t: usize| &self.tenants[t];
        let service = |t: usize| tenant(t).clock.machine_service;
        match self.cfg.policy {
            Policy::Fifo => stages.sort_by_key(|(t, _, _)| (tenant(*t).arrival, *t)),
            Policy::FairShare => {
                stages.sort_by_key(|(t, _, _)| (service(*t), tenant(*t).arrival, *t))
            }
            Policy::Priority => {
                stages.sort_by_key(|(t, _, _)| (Reverse(tenant(*t).priority), service(*t), *t))
            }
            Policy::Random => stages.sort_by(|(x, _, _), (y, _, _)| {
                let key =
                    |t| DetRng::for_task(self.cfg.seed, self.round, Phase::Map, t, 0).gen_f64();
                key(*x).total_cmp(&key(*y)).then_with(|| x.cmp(y))
            }),
        }
    }

    /// The service crashes right after this round's commit: every running
    /// tenant unwinds with [`CancelReason::Kill`] — a placed stage's
    /// `Continue` becomes `Cancel(Kill)` — and no waiter ever starts.
    fn kill(&mut self, verdicts: &mut [(usize, StageControl)]) {
        let round = self.round;
        for tenant in &mut self.tenants {
            if tenant.standing == Standing::Running && tenant.cancel.is_none() {
                tenant.cancel = Some(CancelReason::Kill);
                let err = ServeError::Shutdown {
                    tenant: tenant.name.clone(),
                    round,
                };
                tenant.service_error.get_or_insert(err);
            }
        }
        for (_, verdict) in verdicts.iter_mut() {
            if *verdict == StageControl::Continue {
                *verdict = StageControl::Cancel(CancelReason::Kill);
            }
        }
        while let Some(w) = self.queue.pop_front() {
            let tenant = self.tenants[w].name.clone();
            let err = ServeError::Shutdown { tenant, round };
            self.close(w, TenantStatus::Killed, CancelReason::Kill, err);
        }
    }

    fn into_report(self, replayed_rounds: u64, killed_at_round: Option<u64>) -> ServeReport {
        let finished = (self.tenants.iter()).filter(|t| t.standing == Standing::Finished);
        let makespan = finished.map(|t| t.clock.finish()).max().unwrap_or(0);
        let utilization = self.pool.utilization(makespan);
        let (serial, serial_utilization, serial_latencies) = replay_serial(&self.tenants, self.cfg);
        ServeReport {
            outcomes: self.tenants.into_iter().map(Tenant::outcome).collect(),
            makespan: Duration::from_nanos(makespan),
            serial_makespan: Duration::from_nanos(serial),
            utilization,
            serial_utilization,
            serial_latencies,
            rounds: self.round,
            replayed_rounds,
            killed_at_round,
            pool_nodes: self.cfg.pool_nodes,
        }
    }
}

/// A tenant's driver thread and its two channels: the mechanism side of
/// a tenant.
#[derive(Default)]
struct Driver {
    /// The job, held until activation spawns its thread.
    job: Option<JobSpec>,
    events: Option<Receiver<Stage>>,
    grants: Option<Sender<StageControl>>,
    handle: Option<JoinHandle<Result<RunReport, FalconError>>>,
}

impl Driver {
    fn spawn(&mut self, permits: &Arc<Permits>) {
        let Some(job) = self.job.take() else { return };
        let (ev_tx, ev_rx) = channel();
        let (grant_tx, grant_rx) = channel();
        let permits = permits.clone();
        self.events = Some(ev_rx);
        self.grants = Some(grant_tx);
        // The gate holds the thread's CPU permit until it drops — when the
        // run returns or unwinds — so a panicking driver cannot keep it.
        self.handle = Some(std::thread::spawn(move || {
            job.run(Some(Arc::new(ServeGate::new(ev_tx, grant_rx, permits))))
        }));
    }

    /// Read tenant `t`'s events in program order until it parks on a
    /// machine stage or its driver returns. Returns the waiter its finish
    /// activated.
    fn drain(&mut self, t: usize, rounds: &mut Rounds) -> Option<usize> {
        let events = self.events.as_ref()?;
        loop {
            let Ok(stage) = events.recv() else {
                return rounds.finish(t, join_tenant(self.handle.take()));
            };
            let parks = stage.event.kind != StageKind::CrowdWait;
            match rounds.observe(t, stage) {
                Some(reason) => self.grant(StageControl::Cancel(reason)),
                None if parks => return None,
                None => {}
            }
        }
    }

    fn grant(&self, control: StageControl) {
        if let Some(g) = &self.grants {
            let _ = g.send(control);
        }
    }
}

/// Open the service journal: write the prefix of a fresh run, or check
/// the recorded one.
fn open_log(cfg: &ServeConfig, prefix: &[Decision]) -> Result<Option<ServeJournal>, ServeError> {
    let Some(path) = &cfg.journal else {
        return Ok(None);
    };
    let fail = |e| ServeError::service_journal(0, e);
    let mut j = ServeJournal::open(path).map_err(fail)?;
    let prefix: Vec<String> = prefix.iter().map(ToString::to_string).collect();
    if j.is_fresh() {
        j.write_prefix(&prefix).map_err(fail)?;
    } else if j.prefix() != prefix.as_slice() {
        let recorded = j.prefix();
        let message = format!(
            "journal belongs to a different service run: recorded prefix {recorded:?} vs {prefix:?}"
        );
        return Err(ServeError::service_journal(0, message));
    }
    Ok(Some(j))
}

/// Commit a round's `decisions`: compare them with the next recorded
/// round while one remains, else append them when `live`. Returns whether
/// the round was replayed.
fn commit(
    j: &mut ServeJournal,
    rounds: &Rounds,
    decisions: &[Decision],
    live: bool,
) -> Result<bool, ServeError> {
    let round = rounds.round;
    let lines: Vec<String> = decisions.iter().map(ToString::to_string).collect();
    let Some((_, recorded)) = j.next_round() else {
        if live {
            (j.write_round(round, &lines)).map_err(|e| ServeError::service_journal(round, e))?;
        }
        return Ok(false);
    };
    let n = recorded.len().max(lines.len());
    let Some(i) = (0..n).find(|&i| recorded.get(i) != lines.get(i)) else {
        return Ok(true);
    };
    // Blame the tenant of the first re-executed decision that differs.
    let tenant = match decisions.get(i).and_then(Decision::tenant) {
        Some(t) => rounds.tenants[t].name.clone(),
        None => SERVICE_TENANT.to_string(),
    };
    let shown = |line: Option<&String>| line.map_or("<missing>", String::as_str).to_string();
    let (rec, gen) = (shown(recorded.get(i)), shown(lines.get(i)));
    let message = format!(
        "schedule diverges from journal at round {round}: recorded {rec:?} vs re-executed {gen:?}"
    );
    Err(ServeError::ServiceJournal {
        tenant,
        round,
        message,
    })
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
    let mut rounds = Rounds::new(cfg, &jobs);
    let mut journal = open_log(cfg, &std::mem::take(&mut rounds.decisions))?;
    let permits = Permits::new(cfg.threads);
    let mut drivers: Vec<Driver> = (jobs.into_iter())
        .map(|job| Driver {
            job: Some(job),
            ..Driver::default()
        })
        .collect();
    for (t, driver) in drivers.iter_mut().enumerate() {
        if rounds.running(t) {
            driver.spawn(&permits);
        }
    }
    let (mut replayed_rounds, mut killed_at) = (0, None);
    while rounds.live() {
        for t in 0..drivers.len() {
            if rounds.running(t) {
                if let Some(waiter) = drivers[t].drain(t, &mut rounds) {
                    drivers[waiter].spawn(&permits);
                }
            }
        }
        let mut verdicts = rounds.place();
        let decisions = std::mem::take(&mut rounds.decisions);
        // Commit before granting, so a crash between the two is
        // recoverable: the grants regenerate on resume.
        let live = killed_at.is_none();
        let replayed = match journal
            .as_mut()
            .map(|j| commit(j, &rounds, &decisions, live))
        {
            None | Some(Ok(false)) => false,
            Some(Ok(true)) => true,
            Some(Err(err)) => {
                shutdown_tenants(&mut drivers);
                return Err(err);
            }
        };
        replayed_rounds += u64::from(replayed);
        // Chaos kill point: the journal has committed this round, but its
        // grants are never delivered — exactly the state a crash between
        // commit and grant leaves behind.
        if cfg.kill_after_rounds == Some(rounds.round) && !replayed && live {
            killed_at = Some(rounds.round);
            rounds.kill(&mut verdicts);
        }
        for (t, verdict) in verdicts {
            drivers[t].grant(verdict);
        }
        rounds.round += 1;
    }
    Ok(rounds.into_report(replayed_rounds, killed_at))
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

/// Unwind every live tenant before the service returns an error: drop
/// grant channels (parked gates unpark with a typed shutdown), drain
/// events to end-of-stream, join threads.
fn shutdown_tenants(drivers: &mut [Driver]) {
    for d in drivers.iter_mut() {
        d.grants = None;
    }
    for d in drivers.iter_mut() {
        if let Some(rx) = d.events.take() {
            while rx.recv().is_ok() {}
        }
        if d.handle.is_some() {
            let _ = join_tenant(d.handle.take());
        }
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

/// The recorded stage traces run one tenant at a time, in submission
/// order, on a fresh pool: each starts no earlier than its arrival or the
/// previous tenant's finish. Returns the makespan, its utilization and
/// each tenant's latency.
fn replay_serial(tenants: &[Tenant], cfg: &ServeConfig) -> (u64, f64, Vec<Duration>) {
    let mut pool = PoolSim::new(cfg.pool_nodes, &cfg.pool_events);
    let mut clock_base: u64 = 0;
    let mut latencies = Vec::with_capacity(tenants.len());
    for t in tenants {
        let mut clock = TenantClock::at(clock_base.max(t.arrival));
        for stage in &t.trace {
            pool.place(&mut clock, stage, &t.cluster, cfg.pool_nodes);
        }
        clock_base = clock.finish();
        latencies.push(Duration::from_nanos(clock_base.saturating_sub(t.arrival)));
    }
    (clock_base, pool.utilization(clock_base), latencies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_core::stage::StageCost;
    use falcon_dataflow::JobStats;

    /// A crowd round of `dur_s` seconds.
    fn crowd(dur_s: u64) -> Stage {
        let event = StageEvent {
            label: "t".into(),
            kind: StageKind::CrowdWait,
            dur: Duration::from_secs(dur_s),
            tasks: 0,
            records: 0,
        };
        let cost = StageCost::default();
        Stage { event, cost }
    }

    /// A machine stage of `kind`: one job of `tasks` one-second map tasks
    /// on `cluster`.
    fn job(kind: StageKind, tasks: usize, cluster: &ClusterConfig) -> Stage {
        let stats = JobStats {
            map_tasks: tasks,
            map_durations: vec![Duration::from_secs(1); tasks],
            ..JobStats::default()
        };
        let cost = StageCost::of([&stats], cluster);
        let event = StageEvent {
            label: "t".into(),
            kind,
            dur: cost.dur(),
            tasks: tasks as u32,
            records: 0,
        };
        Stage { event, cost }
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
        let mut clock = TenantClock::at(1000);
        let cluster = ClusterConfig::small(4);
        let stage = job(StageKind::Machine, 16, &cluster);
        let placed = pool.place(&mut clock, &stage, &cluster, 4);
        assert_eq!(placed.nodes, 1);
        let one_node = stage.cost.shape().price(&cluster, 1);
        assert_eq!(placed.end - placed.start, ns(one_node));
    }

    #[test]
    fn grants_fill_one_wave_within_the_tenants_own_nodes() {
        let mut pool = fixed(16);
        let mut clock = TenantClock::at(0);
        let cluster = ClusterConfig::small(4); // 2 map slots per node
        let five = job(StageKind::Machine, 5, &cluster);
        let placed = pool.place(&mut clock, &five, &cluster, 16);
        // Three nodes run the five tasks in one wave, at the solo price.
        assert_eq!(placed.nodes, 3);
        assert_eq!(placed.end - placed.start, ns(five.cost.dur()));
        // Twenty tasks want ten nodes; the tenant owns four.
        let twenty = job(StageKind::Machine, 20, &cluster);
        let placed = pool.place(&mut clock, &twenty, &cluster, 16);
        assert_eq!(placed.nodes, 4);
        assert_eq!(placed.end - placed.start, ns(twenty.cost.dur()));
        // A fair-share cap of two doubles the waves.
        let placed = pool.place(&mut clock, &twenty, &cluster, 2);
        assert_eq!(placed.nodes, 2);
        assert_eq!(
            placed.end - placed.start,
            ns(twenty.cost.shape().price(&cluster, 2))
        );
        assert!(twenty.cost.shape().price(&cluster, 2) > twenty.cost.dur());
    }

    #[test]
    fn masked_stages_run_under_crowd_windows() {
        let mut pool = fixed(4);
        let mut clock = TenantClock::at(0);
        let cluster = ClusterConfig::small(4);
        pool.place(&mut clock, &crowd(100), &cluster, 4);
        let crowd_free = clock.crowd_free;
        let masked = job(StageKind::MaskedMachine, 4, &cluster);
        pool.place(&mut clock, &masked, &cluster, 4);
        // The masked stage started before the crowd window closed.
        assert!(clock.machine_ready < crowd_free);
        // An unmasked stage must wait for the crowd.
        let unmasked = job(StageKind::Machine, 4, &cluster);
        pool.place(&mut clock, &unmasked, &cluster, 4);
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

#[cfg(test)]
mod policy {
    //! The policy core with no driver threads: synthetic stage streams
    //! drained the way `serve` drains its channels, under random pools,
    //! admission limits, deadlines and quotas, with every round's decisions
    //! held to the rules the scheduler promises.

    use super::*;
    use crate::admission::{AdmissionConfig, AdmissionPolicy};
    use falcon_core::driver::FalconConfig;
    use falcon_core::stage::StageCost;
    use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
    use falcon_dataflow::JobStats;
    use falcon_table::{AttrType, Schema, Table, Value};
    use proptest::collection;
    use proptest::prelude::*;
    use proptest::test_runner::rng_for_test;
    use std::collections::BTreeSet;

    /// A synthetic tenant: arrival (s), priority, relative deadline (s),
    /// its cluster's node count, and the stage stream its driver reports;
    /// the stream's end is its driver returning.
    type Script = (u64, i32, Option<u64>, usize, Vec<Stage>);

    /// A crowd round of up to 900 s, or a machine stage of up to three
    /// jobs — map and reduce tasks of up to 2 s each — and a local pass.
    fn stage() -> impl Strategy<Value = Stage> {
        let ms = || collection::vec(1u64..2_000, 0..48);
        let job = (ms(), collection::vec(1u64..2_000, 0..8));
        let jobs = collection::vec(job, 0..3);
        (0..3usize, 1u64..900, jobs, 0usize..40_000).prop_map(|(kind, dur, jobs, local)| {
            let kind = [
                StageKind::Machine,
                StageKind::MaskedMachine,
                StageKind::CrowdWait,
            ][kind];
            let durations = |ms: Vec<u64>| ms.into_iter().map(Duration::from_millis).collect();
            let stats: Vec<JobStats> = (jobs.into_iter())
                .map(|(map, reduce)| JobStats {
                    map_durations: durations(map),
                    reduce_durations: durations(reduce),
                    ..JobStats::default()
                })
                .collect();
            let cost = match kind {
                StageKind::CrowdWait => StageCost::default(),
                _ => StageCost::of(&stats, &ClusterConfig::default()) + StageCost::local(local),
            };
            let event = StageEvent {
                label: "s".into(),
                kind,
                dur: match kind {
                    StageKind::CrowdWait => Duration::from_secs(dur),
                    _ => cost.dur(),
                },
                tasks: cost.shape().map_tasks() as u32,
                records: local as u64,
            };
            Stage { event, cost }
        })
    }

    fn script() -> impl Strategy<Value = Script> {
        let deadline = prop_oneof![3 => Just(None), 1 => (1u64..4000).prop_map(Some)];
        (
            0u64..300,
            -2i32..3,
            deadline,
            1usize..13,
            collection::vec(stage(), 0..24),
        )
    }

    fn config() -> impl Strategy<Value = ServeConfig> {
        let pool = (1usize..13, 0..4usize, any::<u64>());
        let events = collection::vec((0u64..3000, -8i64..8), 0..4);
        let degraded = (prop_oneof![Just(0.0), 0.3f64..0.9], 1usize..3);
        let quota = prop_oneof![
            4 => Just(TenantQuota::default()),
            1 => (2u64..10).prop_map(|n| TenantQuota { max_stages: Some(n), node_seconds: None }),
            1 => (1u64..20).prop_map(|s| TenantQuota {
                max_stages: None,
                node_seconds: Some(Duration::from_secs(s)),
            }),
        ];
        let queue_deadline = prop_oneof![Just(None), (1u64..2000).prop_map(Some)];
        let admission = (0..3usize, 0usize..3, 0usize..3, queue_deadline, quota);
        (pool, events, degraded, admission).prop_map(
            |((nodes, policy, seed), events, (threshold, cap), admission)| {
                let (admit, max_active, max_queue, queue_deadline, quota) = admission;
                let admit_policies = [
                    AdmissionPolicy::Reject,
                    AdmissionPolicy::ShedLowestPriority,
                    AdmissionPolicy::QueueWithDeadline,
                ];
                ServeConfig {
                    pool_nodes: nodes,
                    policy: [
                        Policy::Fifo,
                        Policy::FairShare,
                        Policy::Priority,
                        Policy::Random,
                    ][policy],
                    seed,
                    admission: AdmissionConfig {
                        policy: admit_policies[admit],
                        max_active,
                        max_queue,
                        queue_deadline: queue_deadline.map(Duration::from_secs),
                        quota,
                    },
                    pool_events: (events.into_iter())
                        .map(|(at, delta)| PoolEvent {
                            at: Duration::from_secs(at),
                            delta,
                        })
                        .collect(),
                    degraded: DegradedPolicy {
                        threshold,
                        masked_node_cap: cap,
                    },
                    ..ServeConfig::default()
                }
            },
        )
    }

    fn job(t: usize, (arrival, priority, deadline, nodes, _): &Script) -> JobSpec {
        let schema = Schema::new([("title", AttrType::Str)]);
        let table = || Table::new("t", schema.clone(), Vec::<Vec<Value>>::new());
        let crowd = Arc::new(RandomWorkerCrowd::new(GroundTruth::new([]), 0.0, 1));
        let config = FalconConfig {
            cluster: ClusterConfig {
                nodes: *nodes,
                ..ClusterConfig::default()
            },
            ..FalconConfig::default()
        };
        let mut job = JobSpec::new(format!("t{t}"), table(), table(), config, crowd)
            .with_priority(*priority)
            .with_arrival(Duration::from_secs(*arrival));
        job.deadline = deadline.map(Duration::from_secs);
        job
    }

    /// What the checks of one case saw, summed over all cases.
    #[derive(Default)]
    struct Seen {
        rounds: u64,
        placements: u64,
        degraded_rounds: u64,
        cancels: u64,
        activations: u64,
    }

    /// Drain `scripts` through `Rounds` round by round as `serve` drains
    /// its channels, checking each round; returns every journal line.
    fn simulate(cfg: &ServeConfig, scripts: &[Script], seen: &mut Seen) -> Vec<String> {
        let jobs: Vec<JobSpec> = scripts.iter().enumerate().map(|(t, s)| job(t, s)).collect();
        let mut streams: Vec<VecDeque<Stage>> = scripts
            .iter()
            .map(|s| s.4.iter().cloned().collect())
            .collect();
        let mut rounds = Rounds::new(cfg, &jobs);
        let mut log: Vec<String> = rounds.decisions.drain(..).map(|d| d.to_string()).collect();
        while rounds.live() {
            let busy = rounds.pool.busy;
            for (t, stream) in streams.iter_mut().enumerate() {
                while rounds.running(t) {
                    let Some(stage) = stream.pop_front() else {
                        rounds.finish(t, Err(FalconError::EmptyInput { what: "synthetic" }));
                        break;
                    };
                    let parks = stage.event.kind != StageKind::CrowdWait;
                    if rounds.observe(t, stage).is_none() && parks {
                        break;
                    }
                }
            }
            assert_eq!(rounds.pool.busy, busy, "crowd waits occupied nodes");
            let clocks: Vec<TenantClock> = rounds.tenants.iter().map(|t| t.clock).collect();
            let active = (0..streams.len()).filter(|&t| rounds.running(t)).count();
            let parked = rounds.parked.len();
            assert_eq!(
                rounds.place().len(),
                parked,
                "one verdict per parked tenant"
            );
            check_round(&rounds, &clocks, active, seen);
            log.extend(rounds.decisions.drain(..).map(|d| d.to_string()));
            rounds.round += 1;
        }
        check_capacity(&rounds.pool);
        log
    }

    /// The rules one round's decisions keep, given every tenant's clocks
    /// after the drain and the number of running tenants.
    fn check_round(rounds: &Rounds, clocks: &[TenantClock], active: usize, seen: &mut Seen) {
        let cfg = rounds.cfg;
        seen.rounds += 1;
        let mut placed = Vec::new();
        for d in &rounds.decisions {
            match d {
                Decision::Crowd(_, _, _, p) => assert_eq!(p.nodes, 0, "crowd wait on nodes"),
                Decision::Place(t, seq, s, p) => {
                    // Priced on the grant, within the tenant's own nodes.
                    let tenant = &rounds.tenants[*t];
                    let shape = tenant.trace[*seq as usize - 1].cost.shape();
                    assert!(p.nodes as usize <= tenant.cluster.nodes);
                    assert_eq!(
                        p.end - p.start,
                        ns(shape.price(&tenant.cluster, p.nodes as usize))
                    );
                    placed.push((*t, s.kind, *p));
                }
                Decision::Cancel(..) => seen.cancels += 1,
                Decision::Activate(..) => seen.activations += 1,
                _ => {}
            }
        }
        seen.placements += placed.len() as u64;
        let masked = |kind: StageKind| kind == StageKind::MaskedMachine;
        for &(t, kind, p) in &placed {
            let clock = clocks[t];
            let ready = match masked(kind) {
                true => clock.machine_ready,
                false => clock.machine_ready.max(clock.crowd_free),
            };
            assert!(
                p.start >= ready,
                "{kind:?} stage of t{t} starts before it is ready"
            );
            if cfg.policy == Policy::FairShare {
                assert!(p.nodes as usize <= (cfg.pool_nodes / active.max(1)).max(1));
            }
        }
        let earliest = placed.iter().map(|&(t, kind, _)| match masked(kind) {
            true => clocks[t].machine_ready,
            false => clocks[t].machine_ready.max(clocks[t].crowd_free),
        });
        let threshold = cfg.degraded.threshold * cfg.pool_nodes.max(1) as f64;
        let degraded = cfg.degraded.threshold > 0.0
            && earliest
                .min()
                .is_some_and(|t0| (rounds.pool.cap_at(t0) as f64) < threshold);
        let kinds: Vec<bool> = placed.iter().map(|&(_, kind, _)| masked(kind)).collect();
        if degraded {
            seen.degraded_rounds += 1;
            assert!(
                kinds.windows(2).all(|w| w[0] <= w[1]),
                "masked before unmasked"
            );
            for &(_, kind, p) in &placed {
                assert!(!masked(kind) || p.nodes as usize <= cfg.degraded.masked_node_cap.max(1));
            }
        }
        if cfg.policy == Policy::Priority {
            // In policy order within each partition (the whole round when
            // it is not degraded).
            let priority = |t: usize| rounds.tenants[t].priority;
            for w in placed.windows(2) {
                if !degraded || masked(w[0].1) == masked(w[1].1) {
                    assert!(
                        priority(w[0].0) >= priority(w[1].0),
                        "priority order broken"
                    );
                }
            }
        }
    }

    /// Committed usage never exceeds capacity, at any virtual instant.
    fn check_capacity(pool: &PoolSim) {
        let mut steps: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
        for (k, d) in &pool.caps {
            steps.entry(*k).or_default().0 += d;
        }
        for (k, d) in &pool.deltas {
            steps.entry(*k).or_default().1 += d;
        }
        let (mut cap, mut used) = (0, 0);
        for (at, (dc, du)) in steps {
            (cap, used) = (cap + dc, used + du);
            assert!(
                0 <= used && used <= cap,
                "{used} nodes used of {cap} at {at}"
            );
        }
    }

    #[test]
    fn rounds_keep_the_placement_rules() {
        let mut rng = rng_for_test("rounds_keep_the_placement_rules");
        let world = (config(), collection::vec(script(), 1..7));
        let mut seen = Seen::default();
        for _ in 0..1000 {
            let (cfg, scripts) = world.new_value(&mut rng);
            let log = simulate(&cfg, &scripts, &mut seen);
            // The same inputs give the same decisions.
            assert_eq!(simulate(&cfg, &scripts, &mut Seen::default()), log);
        }
        assert!(
            seen.rounds >= 10_000,
            "only {} synthetic rounds",
            seen.rounds
        );
        for (what, n) in [
            ("placements", seen.placements),
            ("degraded rounds", seen.degraded_rounds),
            ("cancellations", seen.cancels),
            ("activations", seen.activations),
        ] {
            assert!(n > 0, "no {what} exercised");
        }
    }

    /// Earliest fit by definition: the first candidate start — `ready`, or
    /// a capacity or usage breakpoint after it — with `want` nodes free at
    /// it and at every breakpoint inside `[start, start + dur)`.
    fn earliest_by_definition(pool: &PoolSim, ready: u64, want: i64, dur: u64) -> Option<u64> {
        let sum = |m: &BTreeMap<u64, i64>, t: u64| m.range(..=t).map(|(_, d)| d).sum::<i64>();
        let free = |t: u64| sum(&pool.caps, t) - sum(&pool.deltas, t);
        let points: BTreeSet<u64> = pool
            .caps
            .keys()
            .chain(pool.deltas.keys())
            .copied()
            .collect();
        let candidates = std::iter::once(ready).chain(points.range(ready + 1..).copied());
        candidates.into_iter().find(|&s| {
            free(s) >= want
                && points
                    .range(s + 1..s.saturating_add(dur))
                    .all(|&k| free(k) >= want)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn try_earliest_is_the_earliest_fit(
            events in collection::vec((0u64..400, -6i64..6), 0..5),
            commits in collection::vec((0u64..400, 1u64..200, 1i64..4), 0..12),
            query in (0u64..500, 1i64..10, 1u64..300),
        ) {
            let events: Vec<PoolEvent> = (events.into_iter())
                .map(|(at, delta)| PoolEvent { at: Duration::from_nanos(at), delta })
                .collect();
            let mut pool = PoolSim::new(6, &events);
            for (ready, dur, want) in commits {
                if let Some(start) = pool.try_earliest(ready, want, dur) {
                    pool.commit(start, start + dur, want);
                }
            }
            let (ready, want, dur) = query;
            prop_assert_eq!(
                pool.try_earliest(ready, want, dur),
                earliest_by_definition(&pool, ready, want, dur)
            );
        }
    }
}
