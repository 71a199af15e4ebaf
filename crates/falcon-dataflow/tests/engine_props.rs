//! Property tests for the MapReduce engine: parallel execution must equal
//! a sequential reference, and simulated cluster time must behave
//! monotonically.

use falcon_dataflow::{
    makespan, run_map_only, run_map_reduce, Cluster, ClusterConfig, Emitter, JobStats,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::small(2)).with_threads(4)
}

fn split(data: Vec<u32>, n: usize) -> Vec<Vec<u32>> {
    if data.is_empty() {
        return Vec::new();
    }
    data.chunks(data.len().div_ceil(n.max(1)).max(1))
        .map(<[u32]>::to_vec)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grouped sums through the engine equal a sequential fold, for any
    /// split shape and partition count.
    #[test]
    fn map_reduce_equals_sequential(
        data in proptest::collection::vec(0u32..1000, 0..300),
        n_splits in 1usize..8,
        partitions in 1usize..6,
        modulus in 1u32..12,
    ) {
        let expected: BTreeMap<u32, u64> = data.iter().fold(BTreeMap::new(), |mut m, &x| {
            *m.entry(x % modulus).or_default() += u64::from(x);
            m
        });
        let out = run_map_reduce(
            &cluster(),
            split(data, n_splits),
            partitions,
            |xs: &[u32], e: &mut Emitter<u32, u64>| {
                xs.iter().for_each(|x| e.emit(x % modulus, u64::from(*x)));
            },
            |k: &u32, vs: Vec<u64>, out: &mut Vec<(u32, u64)>| {
                out.push((*k, vs.iter().sum()));
            },
        );
        prop_assert!(out.is_ok());
        let got: BTreeMap<u32, u64> = out.unwrap().output.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    /// Map-only jobs preserve per-split output order and multiplicity.
    #[test]
    fn map_only_order_preserved(
        data in proptest::collection::vec(0u32..1000, 0..200),
        n_splits in 1usize..6,
    ) {
        let expected: Vec<u32> = data.iter().map(|x| x * 2).collect();
        let out = run_map_only(&cluster(), split(data, n_splits), |xs: &[u32], out| {
            out.extend(xs.iter().map(|x| x * 2));
        }).unwrap();
        prop_assert_eq!(out.output, expected);
    }

    /// LPT makespan: never below max(total/slots, longest task), never
    /// above total; monotone in slots.
    #[test]
    fn makespan_bounds(
        tasks in proptest::collection::vec(1u64..500, 1..40),
        slots in 1usize..12,
    ) {
        let durs: Vec<Duration> = tasks.iter().map(|&t| Duration::from_millis(t)).collect();
        let total: Duration = durs.iter().sum();
        let longest = *durs.iter().max().unwrap();
        let m = makespan(&durs, slots);
        prop_assert!(m <= total);
        prop_assert!(m >= longest);
        prop_assert!(m.as_millis() as u64 >= tasks.iter().sum::<u64>() / slots as u64);
        prop_assert!(makespan(&durs, slots + 1) <= m);
    }

    /// Simulated duration decreases (weakly) with more nodes.
    #[test]
    fn sim_duration_monotone_in_nodes(
        map_ms in proptest::collection::vec(1u64..200, 1..30),
        reduce_ms in proptest::collection::vec(1u64..200, 0..10),
    ) {
        let stats = JobStats {
            map_tasks: map_ms.len(),
            reduce_tasks: reduce_ms.len(),
            map_durations: map_ms.iter().map(|&x| Duration::from_millis(x)).collect(),
            reduce_durations: reduce_ms.iter().map(|&x| Duration::from_millis(x)).collect(),
            ..Default::default()
        };
        let mut prev = None;
        for nodes in [1usize, 2, 4, 8, 16] {
            let cfg = ClusterConfig { nodes, ..ClusterConfig::small(nodes) };
            let d = stats.sim_duration(&cfg);
            if let Some(p) = prev {
                prop_assert!(d <= p, "{:?} > {:?} at {} nodes", d, p, nodes);
            }
            prev = Some(d);
        }
    }
}
