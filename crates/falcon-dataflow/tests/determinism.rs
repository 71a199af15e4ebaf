//! Repeated-run determinism of the shuffle and reduce phases, and host
//! independence of the simulated clock.
//!
//! The reducer below echoes each `(key, values)` group verbatim, so the
//! job output exposes the engine's internal grouping order directly. With
//! the pre-fix `HashMap`-iteration grouping (default `RandomState`), the
//! order varied run-to-run; the engine must now produce byte-identical
//! output on every run and at every worker thread count.

use falcon_dataflow::{
    run_map_only, run_map_reduce, Cluster, ClusterConfig, DetRng, Emitter, FaultPlan, JobStats,
    Phase,
};
use std::time::Duration;

/// Word-count-shaped job whose output preserves the engine's group order.
fn echo_groups(threads: usize) -> Vec<(String, Vec<u64>)> {
    let cluster = Cluster::new(ClusterConfig::small(4)).with_threads(threads);
    let splits: Vec<Vec<u64>> = (0..6)
        .map(|s| (0..200).map(|i| s * 200 + i).collect())
        .collect();
    let out = run_map_reduce(
        &cluster,
        splits,
        3,
        |xs: &[u64], e: &mut Emitter<String, u64>| {
            for x in xs {
                e.emit(format!("k{}", x % 23), *x);
            }
        },
        |k: &String, vs: Vec<u64>, out: &mut Vec<(String, Vec<u64>)>| {
            out.push((k.clone(), vs));
        },
    )
    .expect("job");
    out.output
}

#[test]
fn reduce_output_order_is_stable_across_runs() {
    let first = echo_groups(4);
    for run in 1..10 {
        assert_eq!(echo_groups(4), first, "run {run} diverged");
    }
}

#[test]
fn reduce_output_order_is_stable_across_thread_counts() {
    let first = echo_groups(1);
    for threads in [2, 4, 8] {
        assert_eq!(echo_groups(threads), first, "{threads} threads diverged");
    }
}

/// Splits of uneven length, one of them empty, whose keys interleave so
/// first-seen order differs from key order.
fn contract_splits() -> Vec<Vec<u64>> {
    let lens = [40usize, 0, 7, 120, 1, 63, 19];
    let mut next = 0u64;
    lens.iter()
        .map(|&len| {
            (0..len)
                .map(|_| {
                    next += 1;
                    next.wrapping_mul(0x9e37_79b9) % 1009
                })
                .collect()
        })
        .collect()
}

fn contract_key(x: u64) -> u64 {
    x % 23
}

/// The shuffle contract, sequentially: a key lives in partition
/// `fnv1a(key) % partitions`; the output is the partitions in order, each
/// holding its keys in first-seen order of the (split, emit) sequence and
/// each key its values in that sequence.
fn sequential_shuffle(splits: &[Vec<u64>], partitions: usize) -> Vec<(u64, Vec<u64>)> {
    let partition_of = |key: u64| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.to_ne_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        (h % partitions as u64) as usize
    };
    let mut out: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); partitions];
    for &x in splits.iter().flatten() {
        let key = contract_key(x);
        let groups = &mut out[partition_of(key)];
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, vs)) => vs.push(x),
            None => groups.push((key, vec![x])),
        }
    }
    out.into_iter().flatten().collect()
}

#[test]
fn values_arrive_in_split_then_emit_order_and_keys_in_first_seen_order() {
    let splits = contract_splits();
    for partitions in [1usize, 3, 20] {
        let expected = sequential_shuffle(&splits, partitions);
        for threads in [1usize, 2, 8] {
            let cluster = Cluster::new(ClusterConfig::small(4)).with_threads(threads);
            let out = run_map_reduce(
                &cluster,
                splits.clone(),
                partitions,
                |xs: &[u64], e: &mut Emitter<u64, u64>| {
                    xs.iter().for_each(|&x| e.emit(contract_key(x), x));
                },
                |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, Vec<u64>)>| out.push((*k, vs)),
            )
            .expect("job");
            assert_eq!(
                out.output, expected,
                "{partitions} partitions, {threads} threads"
            );
            assert_eq!(out.stats.shuffled_records, 250);
        }
    }
}

#[test]
fn job_stats_of_a_fixed_job_are_pinned() {
    // Recorded from the engine when the shuffle still concatenated map
    // buckets into one vector per partition: how records travel must not
    // move a price or a count.
    let cluster = Cluster::new(ClusterConfig::small(4)).with_threads(2);
    let out = run_map_reduce(
        &cluster,
        contract_splits(),
        3,
        |xs: &[u64], e: &mut Emitter<u64, u64>| {
            xs.iter().for_each(|&x| e.emit(contract_key(x), x));
        },
        |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, usize)>| out.push((*k, vs.len())),
    )
    .expect("job");
    let us = Duration::from_micros;
    let expected = JobStats {
        map_tasks: 7,
        reduce_tasks: 3,
        input_records: 250,
        shuffled_records: 250,
        output_records: 23,
        map_durations: [40, 0, 7, 120, 1, 63, 19].map(|n| us(1000 + n)).to_vec(),
        reduce_durations: vec![us(1076), us(1078), us(1096)],
        wall: Duration::ZERO,
        faults: Default::default(),
    };
    assert_eq!(simulated(out.stats, &cluster.config).0, expected);
}

#[test]
fn empty_splits_and_empty_partitions_still_run_their_tasks() {
    // One key: three of the four partitions receive nothing, and the
    // first split emits nothing at all.
    let cluster = Cluster::new(ClusterConfig::small(2)).with_threads(2);
    let out = run_map_reduce(
        &cluster,
        vec![vec![], vec![5u64, 5, 5]],
        4,
        |xs: &[u64], e: &mut Emitter<u64, u64>| xs.iter().for_each(|&x| e.emit(x, x)),
        |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, usize)>| out.push((*k, vs.len())),
    )
    .expect("no PartitionMissing");
    assert_eq!(out.output, vec![(5, 3)]);
    assert_eq!(out.stats.reduce_tasks, 4);
    let cfg = &cluster.config;
    assert_eq!(
        out.stats.map_durations,
        vec![cfg.task_time(0), cfg.task_time(3)]
    );
    let mut reduce = out.stats.reduce_durations;
    reduce.sort();
    let idle = cfg.task_time(0);
    assert_eq!(reduce, vec![idle, idle, idle, cfg.task_time(3)]);
}

/// A host whose speed varies record by record: sleep a seeded 0–3 ms.
fn jitter(x: u64) {
    let ms = DetRng::for_task(99, x, Phase::Map, 0, 0).gen_f64() * 3.0;
    std::thread::sleep(Duration::from_secs_f64(ms / 1e3));
}

/// Everything in `JobStats` but the measured `wall`, plus the simulated
/// duration on the job's own cluster.
fn simulated(stats: JobStats, cfg: &ClusterConfig) -> (JobStats, Duration) {
    let sim = stats.sim_duration(cfg);
    let stats = JobStats {
        wall: Duration::ZERO,
        ..stats
    };
    (stats, sim)
}

/// One map-only and one map-reduce job over the same jittery records.
fn jittery_jobs(threads: usize, plan: Option<&FaultPlan>) -> [(JobStats, Duration); 2] {
    let mut cluster = Cluster::new(ClusterConfig::small(2)).with_threads(threads);
    if let Some(p) = plan {
        cluster = cluster.with_faults(p.clone());
    }
    let splits = || -> Vec<Vec<u64>> { (0..8).map(|s| (s * 5..s * 5 + 5).collect()).collect() };
    let map_only = run_map_only(&cluster, splits(), |xs: &[u64], out: &mut Vec<u64>| {
        for &x in xs {
            jitter(x);
            out.push(x);
        }
    })
    .expect("map-only job");
    let map_reduce = run_map_reduce(
        &cluster,
        splits(),
        3,
        |xs: &[u64], e: &mut Emitter<u64, u64>| {
            for &x in xs {
                jitter(x);
                e.emit(x % 7, x);
            }
        },
        |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, usize)>| out.push((*k, vs.len())),
    )
    .expect("map-reduce job");
    [
        simulated(map_only.stats, &cluster.config),
        simulated(map_reduce.stats, &cluster.config),
    ]
}

#[test]
fn job_stats_do_not_depend_on_host_speed_or_thread_count() {
    let plan = FaultPlan::seeded(7)
        .with_failure_rate(0.3)
        .with_straggler_rate(0.25)
        .with_max_attempts(8);
    for plan in [None, Some(&plan)] {
        let single = jittery_jobs(1, plan);
        for threads in [2, 8] {
            let other = jittery_jobs(threads, plan);
            // Task counts, per-task slot times, faults with `time_lost`
            // and the simulated duration; `wall` zeroed above.
            assert_eq!(other, single, "{threads} threads");
        }
        let lost = single[0].0.faults.time_lost + single[1].0.faults.time_lost;
        assert_eq!(lost > Duration::ZERO, plan.is_some());
    }
}
