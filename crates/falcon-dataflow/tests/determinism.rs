//! Repeated-run determinism of the reduce and combine phases, and host
//! independence of the simulated clock.
//!
//! The reducer below echoes each `(key, values)` group verbatim, so the
//! job output exposes the engine's internal grouping order directly. With
//! the pre-fix `HashMap`-iteration grouping (default `RandomState`), the
//! order varied run-to-run; the engine must now produce byte-identical
//! output on every run and at every worker thread count.

use falcon_dataflow::{
    run_map_combine_reduce, run_map_only, run_map_reduce, Cluster, ClusterConfig, DetRng, Emitter,
    FaultPlan, JobStats, Phase,
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

fn echo_combined(threads: usize) -> Vec<(String, Vec<u64>)> {
    let cluster = Cluster::new(ClusterConfig::small(4)).with_threads(threads);
    let splits: Vec<Vec<u64>> = (0..6)
        .map(|s| (0..200).map(|i| s * 200 + i).collect())
        .collect();
    let out = run_map_combine_reduce(
        &cluster,
        splits,
        3,
        |xs: &[u64], e: &mut Emitter<String, u64>| {
            for x in xs {
                e.emit(format!("k{}", x % 23), *x);
            }
        },
        |_k: &String, vs: Vec<u64>| vs.iter().sum(),
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

#[test]
fn combiner_output_order_is_stable_across_runs_and_threads() {
    let first = echo_combined(1);
    for run in 1..8 {
        let threads = [1, 2, 4, 8][run % 4];
        assert_eq!(echo_combined(threads), first, "run {run} diverged");
    }
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
