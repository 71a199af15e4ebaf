//! Job-side types: the emitter handed to map functions and the statistics /
//! output produced by a job run.

use crate::cluster::ClusterConfig;
use crate::fault::FaultStats;
use crate::runner::partition_of;
use crate::sim_time::{JobTasks, TaskShape};
use std::hash::Hash;
use std::time::Duration;

/// Collector for the key-value pairs one map attempt emits. A pair goes
/// straight into the bucket of the reduce partition that owns its key, so
/// the shuffle hands buckets on without looking at a record again.
pub struct Emitter<K, V> {
    buckets: Vec<Vec<(K, V)>>,
}

impl<K: Hash, V> Emitter<K, V> {
    /// `partitions` is the job's reduce partition count, at least 1.
    pub(crate) fn new(partitions: usize) -> Self {
        Self {
            buckets: (0..partitions).map(|_| Vec::new()).collect(),
        }
    }

    /// Emit one intermediate key-value pair.
    pub fn emit(&mut self, key: K, value: V) {
        let p = partition_of(&key, self.buckets.len());
        self.buckets[p].push((key, value));
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// True iff nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// The emitted pairs, one bucket per reduce partition in emit order,
    /// each trimmed of its growth slack: buckets live until their reduce
    /// task drains them.
    pub(crate) fn into_buckets(mut self) -> Vec<Vec<(K, V)>> {
        self.buckets.iter_mut().for_each(Vec::shrink_to_fit);
        self.buckets
    }
}

/// Statistics for one executed job. Every field but [`Self::wall`] is a
/// function of the job's input, the [`ClusterConfig`] and the fault seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Number of map tasks (input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks (partitions).
    pub reduce_tasks: usize,
    /// Records read by mappers.
    pub input_records: usize,
    /// Intermediate records shuffled from mappers to reducers.
    pub shuffled_records: usize,
    /// Records produced by reducers (or mappers for map-only jobs).
    pub output_records: usize,
    /// Simulated slot time of each map task: priced from its records
    /// ([`ClusterConfig::task_time`] of the split's length), inflated by
    /// any retries, backoff waits and straggler slowdown, so fault time
    /// flows into [`Self::sim_duration`].
    pub map_durations: Vec<Duration>,
    /// Simulated slot time of each reduce task, priced from the records
    /// shuffled to its partition (see `map_durations`).
    pub reduce_durations: Vec<Duration>,
    /// Measured local wall-clock duration of the job — reporting only;
    /// nothing prices or branches on it.
    pub wall: Duration,
    /// Fault accounting summed over every task of the job (all zeros
    /// when the cluster has no fault plan).
    pub faults: FaultStats,
}

impl JobStats {
    /// Simulated job duration on the whole of `cfg`: the one price,
    /// [`TaskShape::price`], of this job's tasks on `cfg.nodes` nodes.
    pub fn sim_duration(&self, cfg: &ClusterConfig) -> Duration {
        let shape = TaskShape {
            jobs: vec![JobTasks::of(self)],
            local_records: 0,
        };
        shape.price(cfg, cfg.nodes)
    }
}

/// Output of a job run: the produced records plus statistics.
#[derive(Debug)]
pub struct JobOutput<O> {
    /// Records produced by the job.
    pub output: Vec<O>,
    /// Execution statistics.
    pub stats: JobStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects() {
        let mut e: Emitter<u32, &str> = Emitter::new(1);
        assert!(e.is_empty());
        e.emit(1, "a");
        e.emit(2, "b");
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_buckets(), vec![vec![(1, "a"), (2, "b")]]);
    }

    #[test]
    fn emitter_buckets_by_partition_in_emit_order_without_slack() {
        let mut e: Emitter<u32, u32> = Emitter::new(3);
        for i in 0..100 {
            e.emit(i % 10, i);
        }
        assert_eq!(e.len(), 100);
        let buckets = e.into_buckets();
        assert_eq!(buckets.len(), 3);
        for (p, bucket) in buckets.iter().enumerate() {
            assert!(bucket.iter().all(|(k, _)| partition_of(k, 3) == p));
            assert!(bucket.windows(2).all(|w| w[0].1 < w[1].1), "emit order");
            assert_eq!(bucket.capacity(), bucket.len());
        }
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
    }

    #[test]
    fn sim_duration_scales_with_nodes() {
        let stats = JobStats {
            map_tasks: 8,
            map_durations: vec![Duration::from_millis(100); 8],
            reduce_durations: vec![Duration::from_millis(50); 2],
            ..Default::default()
        };
        let small = ClusterConfig {
            nodes: 1,
            map_slots_per_node: 1,
            reduce_slots_per_node: 1,
            job_overhead: Duration::ZERO,
            task_overhead: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let big = ClusterConfig {
            nodes: 8,
            ..small.clone()
        };
        assert!(stats.sim_duration(&big) < stats.sim_duration(&small));
        // 1 node: 8*100 + 2*50 = 900ms.
        assert_eq!(stats.sim_duration(&small), Duration::from_millis(900));
        // 8 nodes: one wave per phase, map 100 + reduce 50.
        assert_eq!(stats.sim_duration(&big), Duration::from_millis(150));
    }
}
