//! Simulated-time accounting: schedule priced task slot times onto the
//! simulated cluster's slots and report the makespan, and the one price
//! of a stage's tasks on some number of a cluster's nodes.

use crate::cluster::{local_time, ClusterConfig};
use crate::job::JobStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Makespan of scheduling `tasks` onto `slots` identical slots using the
/// Longest-Processing-Time-first greedy rule (the classic 4/3-approximation,
/// and a good model of Hadoop's slot scheduler for our purposes).
pub fn makespan(tasks: &[Duration], slots: usize) -> Duration {
    let slots = slots.max(1);
    if tasks.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = tasks.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    // Min-heap of slot finish times.
    let mut heap: BinaryHeap<Reverse<Duration>> =
        (0..slots).map(|_| Reverse(Duration::ZERO)).collect();
    for t in sorted {
        // The heap holds exactly `slots >= 1` entries throughout.
        let earliest = heap.pop().map_or(Duration::ZERO, |Reverse(d)| d);
        heap.push(Reverse(earliest + t));
    }
    heap.into_iter()
        .map(|Reverse(d)| d)
        .max()
        .unwrap_or(Duration::ZERO)
}

/// The priced tasks of one cluster job: the slot time of each map task
/// and of each reduce task, retries, backoff and straggler time included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobTasks {
    /// Slot time of each map task.
    pub map: Vec<Duration>,
    /// Slot time of each reduce task.
    pub reduce: Vec<Duration>,
}

impl JobTasks {
    /// The priced tasks of an executed job.
    pub fn of(job: &JobStats) -> Self {
        Self {
            map: job.map_durations.clone(),
            reduce: job.reduce_durations.clone(),
        }
    }
}

/// What a stage asks of a cluster: the priced tasks of each cluster job
/// it ran, one job after the other, plus the records its driver-local
/// passes scanned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskShape {
    /// The stage's cluster jobs, in the order they ran.
    pub jobs: Vec<JobTasks>,
    /// Records scanned by passes that launched no cluster job.
    pub local_records: u64,
}

impl TaskShape {
    /// The one price of simulated work: the shape run on `nodes` nodes of
    /// `cfg`. Each job costs `cfg.job_overhead`, plus the LPT makespan of
    /// its map tasks over `nodes × map_slots_per_node` slots, plus that of
    /// its reduce tasks over `nodes × reduce_slots_per_node` (at least one
    /// slot each); the local passes cost [`local_time`] of their records.
    pub fn price(&self, cfg: &ClusterConfig, nodes: usize) -> Duration {
        let map_slots = (nodes * cfg.map_slots_per_node).max(1);
        let reduce_slots = (nodes * cfg.reduce_slots_per_node).max(1);
        let jobs = self.jobs.iter().map(|j| {
            cfg.job_overhead + makespan(&j.map, map_slots) + makespan(&j.reduce, reduce_slots)
        });
        jobs.sum::<Duration>() + local_time(self.local_records)
    }

    /// Fewest nodes of `cfg` on which every job runs each of its phases
    /// in one wave, at least one: past it, more nodes cannot lower
    /// [`Self::price`].
    pub fn wave_nodes(&self, cfg: &ClusterConfig) -> usize {
        let nodes = |tasks: usize, per_node: usize| tasks.div_ceil(per_node.max(1));
        (self.jobs.iter())
            .map(|j| {
                let map = nodes(j.map.len(), cfg.map_slots_per_node);
                map.max(nodes(j.reduce.len(), cfg.reduce_slots_per_node))
            })
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Map tasks over every job.
    pub fn map_tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.map.len()).sum()
    }
}

/// The single wall-clock read of the engine, private to this crate: it
/// stamps [`JobStats::wall`](crate::job::JobStats::wall), a reported
/// sibling of the simulated clock that nothing prices or branches on.
/// Every simulated duration is priced from records, so no operator or
/// driver can reach a measured `Duration` to feed a timeline with, and
/// the workspace `clippy.toml` bans `Instant::now` everywhere else.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the engine's one wall-clock read; it stamps JobStats::wall only"
)]
pub(crate) fn wall_now() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn single_slot_is_sum() {
        let tasks = [ms(5), ms(10), ms(3)];
        assert_eq!(makespan(&tasks, 1), ms(18));
    }

    #[test]
    fn enough_slots_is_max() {
        let tasks = [ms(5), ms(10), ms(3)];
        assert_eq!(makespan(&tasks, 3), ms(10));
        assert_eq!(makespan(&tasks, 100), ms(10));
    }

    #[test]
    fn lpt_balances() {
        // 4 tasks of 3ms on 2 slots -> 6ms.
        let tasks = [ms(3); 4];
        assert_eq!(makespan(&tasks, 2), ms(6));
        let tasks = [ms(7), ms(5), ms(4), ms(4)];
        assert_eq!(makespan(&tasks, 2), ms(11));
    }

    #[test]
    fn price_is_overheads_plus_makespans_plus_local_records() {
        let c = ClusterConfig::small(2); // 10 ms job; 2 map, 1 reduce slot per node
        let shape = TaskShape {
            jobs: vec![
                JobTasks {
                    map: vec![ms(4); 5],
                    reduce: vec![ms(3); 2],
                },
                JobTasks::default(),
            ],
            local_records: 3_000,
        };
        // 5 maps on 4 slots take 2 waves, 2 reduces on 2 slots take 1.
        assert_eq!(shape.price(&c, 2), ms(10) + ms(8) + ms(3) + ms(10) + ms(3));
        // 3 nodes run every phase in one wave, so more nodes cost the same.
        assert_eq!(shape.wave_nodes(&c), 3);
        assert_eq!(shape.price(&c, 3), ms(10) + ms(4) + ms(3) + ms(10) + ms(3));
        assert_eq!(shape.price(&c, 16), shape.price(&c, 3));
        // No node still has one slot per phase.
        assert_eq!(shape.price(&c, 0), ms(10) + ms(20) + ms(6) + ms(10) + ms(3));
        assert_eq!(TaskShape::default().wave_nodes(&c), 1);
        assert_eq!(shape.map_tasks(), 5);
    }

    #[test]
    fn empty_and_zero_slots() {
        assert_eq!(makespan(&[], 4), Duration::ZERO);
        assert_eq!(makespan(&[ms(2)], 0), ms(2));
    }

    #[test]
    fn more_slots_never_slower() {
        let tasks: Vec<Duration> = (1..20).map(ms).collect();
        let mut prev = makespan(&tasks, 1);
        for slots in 2..10 {
            let m = makespan(&tasks, slots);
            assert!(m <= prev);
            prev = m;
        }
    }
}
