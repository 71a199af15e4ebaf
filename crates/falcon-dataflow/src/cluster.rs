//! Simulated cluster description and the execution handle.

use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Records per input split — Hadoop's input-split rule with the block
/// size counted in records. A job over `n` records has
/// `n.div_ceil(SPLIT_RECORDS)` map tasks on every host and every
/// simulated cluster; more nodes mean fewer waves, never other tasks.
/// Sized on the 2-vCPU benchmark host so the hot jobs (probe, `gen_fvs`,
/// index build, vote scoring) keep at least `2 × nproc` tasks
/// (EXPERIMENTS.md, "Pricing fit").
pub const SPLIT_RECORDS: usize = 512;

/// Simulated compute time per record a task reads (input records for map
/// tasks, shuffled records for reduce tasks, scanned records for a
/// driver-local pass). The fit is in EXPERIMENTS.md, "Pricing fit".
pub const PER_RECORD: Duration = Duration::from_micros(1);

/// Price of a pass over `records` records that launches no cluster job:
/// per-record compute only, no job or task overhead.
pub fn local_time(records: u64) -> Duration {
    PER_RECORD.saturating_mul(u32::try_from(records).unwrap_or(u32::MAX))
}

/// Static description of the simulated Hadoop cluster.
///
/// The defaults mirror the paper's testbed: 10 nodes, 8 cores each split
/// between map and reduce slots, 2 GB of mapper memory (the setting under
/// which `apply_all`/`apply_greedy` fit their indexes in Section 11.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Memory budget available to each mapper for in-memory indexes.
    pub mapper_memory_bytes: usize,
    /// Fixed simulated overhead per job (JVM spin-up, scheduling).
    pub job_overhead: Duration,
    /// Fixed simulated overhead per task.
    pub task_overhead: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 10,
            map_slots_per_node: 4,
            reduce_slots_per_node: 2,
            mapper_memory_bytes: 2 << 30,
            job_overhead: Duration::from_millis(500),
            task_overhead: Duration::from_millis(20),
        }
    }
}

impl ClusterConfig {
    /// A config scaled for unit tests and small examples: small overheads so
    /// simulated times stay legible.
    pub fn small(nodes: usize) -> Self {
        Self {
            nodes,
            map_slots_per_node: 2,
            reduce_slots_per_node: 1,
            job_overhead: Duration::from_millis(10),
            task_overhead: Duration::from_millis(1),
            ..Self::default()
        }
    }

    /// Total map slots across the cluster.
    pub fn map_slots(&self) -> usize {
        (self.nodes * self.map_slots_per_node).max(1)
    }

    /// Total reduce slots across the cluster.
    pub fn reduce_slots(&self) -> usize {
        (self.nodes * self.reduce_slots_per_node).max(1)
    }

    /// Simulated slot time of one task attempt over `records` records.
    pub fn task_time(&self, records: u64) -> Duration {
        self.task_overhead + local_time(records)
    }

    /// The one pricing function: simulated duration of a stage of `tasks`
    /// equal tasks over `records` records on `slots` concurrent slots —
    /// job overhead, then `ceil(tasks / slots)` waves of
    /// [`Self::task_time`]. `tasks == 0` is a driver-local pass
    /// ([`local_time`]). The solo driver's
    /// [`JobStats::sim_duration`](crate::job::JobStats::sim_duration) is
    /// the same price with the makespan taken over the job's actual tasks
    /// (uneven splits, a reduce phase, fault charges); `falcon-serve`
    /// calls this with the slots it granted.
    pub fn stage_time(&self, tasks: u32, records: u64, slots: usize) -> Duration {
        if tasks == 0 {
            return local_time(records);
        }
        let tasks = u64::from(tasks);
        let waves = tasks.div_ceil(slots.max(1) as u64);
        self.job_overhead
            + self
                .task_time(records.div_ceil(tasks))
                .saturating_mul(u32::try_from(waves).unwrap_or(u32::MAX))
    }
}

/// An execution handle: the simulated configuration plus the real thread
/// budget used to run tasks locally.
///
/// Clones share the job counter and fault injector, so every handle
/// derived from the same `Cluster` sees one consistent job numbering —
/// the coordinate [`FaultPlan`] node-loss events are keyed on.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Simulated cluster description.
    pub config: ClusterConfig,
    threads: usize,
    job_counter: Arc<AtomicU64>,
    faults: Option<Arc<FaultInjector>>,
}

impl Cluster {
    /// Create a cluster handle with the given simulated config; local
    /// execution uses all available host parallelism.
    pub fn new(config: ClusterConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            config,
            threads,
            job_counter: Arc::new(AtomicU64::new(0)),
            faults: None,
        }
    }

    /// Override the number of local worker threads (mainly for tests).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attach a deterministic fault plan; every job run on this handle
    /// (or a clone of it) is subject to the plan's injected failures,
    /// stragglers and node loss.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let nodes = self.config.nodes;
        self.faults = Some(Arc::new(FaultInjector::new(plan, nodes)));
        self
    }

    /// Width of the physical worker pool that executes tasks. Affects
    /// wall time only: no job shape, price or fault coordinate reads it.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Input splits of a job over `records` records, as consecutive index
    /// ranges of [`SPLIT_RECORDS`] (the last one shorter) — the only split
    /// rule, a function of the record count alone.
    pub fn splits(&self, records: usize) -> Vec<Range<usize>> {
        (0..records)
            .step_by(SPLIT_RECORDS)
            .map(|start| start..(start + SPLIT_RECORDS).min(records))
            .collect()
    }

    /// [`Self::splits`] of a slice, lent to the job without copying.
    pub fn split_slice<'a, T>(&self, records: &'a [T]) -> Vec<&'a [T]> {
        records.chunks(SPLIT_RECORDS).collect()
    }

    /// Reduce partitions of a job: one per simulated reduce slot.
    pub fn reduce_partitions(&self) -> usize {
        self.config.reduce_slots()
    }

    /// Per-mapper memory budget of the simulated cluster.
    pub fn mapper_memory(&self) -> usize {
        self.config.mapper_memory_bytes
    }

    /// The fault injector, when a plan is attached.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_deref()
    }

    /// Run-wide fault totals across every job executed so far, when a
    /// plan is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.totals())
    }

    /// Number of jobs submitted to this cluster (shared across clones).
    pub fn jobs_run(&self) -> u64 {
        self.job_counter.load(Ordering::Relaxed)
    }

    /// Claim the next cluster-wide job number.
    pub(crate) fn next_job_id(&self) -> u64 {
        self.job_counter.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new(ClusterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts() {
        let c = ClusterConfig::default();
        assert_eq!(c.map_slots(), 40);
        assert_eq!(c.reduce_slots(), 20);
        let tiny = ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        };
        assert_eq!(tiny.map_slots(), 1);
    }

    #[test]
    fn stage_time_is_overheads_plus_waves_of_records() {
        let c = ClusterConfig::small(2); // 10 ms job, 1 ms task
        let ms = Duration::from_millis;
        // 16 tasks × 1000 records: 4 waves on 4 slots, 1 on 16.
        assert_eq!(c.stage_time(16, 16_000, 4), ms(10) + 4 * (ms(1) + ms(1)));
        assert_eq!(c.stage_time(16, 16_000, 16), ms(10) + ms(1) + ms(1));
        // A local pass pays per-record compute only.
        assert_eq!(c.stage_time(0, 3_000, 4), ms(3));
        assert_eq!(c.stage_time(1, 0, 0), ms(11));
    }

    #[test]
    fn splits_depend_on_the_record_count_only() {
        let one = Cluster::new(ClusterConfig::small(1)).with_threads(1);
        let many = Cluster::new(ClusterConfig::default()).with_threads(8);
        for n in [
            0,
            1,
            SPLIT_RECORDS,
            SPLIT_RECORDS + 1,
            10 * SPLIT_RECORDS - 3,
        ] {
            let splits = one.splits(n);
            assert_eq!(splits, many.splits(n));
            assert_eq!(splits.len(), n.div_ceil(SPLIT_RECORDS));
            assert_eq!(splits.iter().map(Range::len).sum::<usize>(), n);
            assert!(splits.windows(2).all(|w| w[0].end == w[1].start));
            let lent: Vec<usize> = one
                .split_slice(&vec![0u8; n])
                .iter()
                .map(|s| s.len())
                .collect();
            assert_eq!(lent, splits.iter().map(Range::len).collect::<Vec<_>>());
        }
        assert_eq!(many.reduce_partitions(), 20);
    }

    #[test]
    fn cluster_threads_positive() {
        let c = Cluster::default();
        assert!(c.threads() >= 1);
        assert_eq!(c.clone().with_threads(0).threads(), 1);
    }

    #[test]
    fn clones_share_job_numbering_and_faults() {
        let a = Cluster::new(ClusterConfig::small(2)).with_faults(FaultPlan::seeded(1));
        let b = a.clone();
        assert_eq!(a.next_job_id(), 0);
        assert_eq!(b.next_job_id(), 1);
        assert_eq!(a.jobs_run(), 2);
        assert!(b.fault_injector().is_some());
        assert_eq!(a.fault_stats(), Some(FaultStats::default()));
        assert_eq!(Cluster::default().fault_stats(), None);
    }
}
