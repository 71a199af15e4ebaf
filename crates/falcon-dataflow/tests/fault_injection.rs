//! The load-bearing fault-tolerance invariant, at the engine level: for a
//! fixed seed, a fault-injected job's *output* is bit-identical to the
//! fault-free job at every fault rate and thread count — injected
//! failures, stragglers and node loss may only change the simulated
//! timeline and the fault counters.

use falcon_dataflow::{
    run_map_only, run_map_reduce, Cluster, ClusterConfig, DataflowError, Emitter, FaultPlan,
    FaultStats, Phase,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn splits() -> Vec<Vec<u64>> {
    let data: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(0x9e37) % 257).collect();
    data.chunks(37).map(|c| c.to_vec()).collect()
}

/// The canonical job used across the matrix: group by residue, sum.
fn grouped_sums(cluster: &Cluster) -> (Vec<(u64, u64)>, FaultStats) {
    let out = run_map_reduce(
        cluster,
        splits(),
        5,
        |xs: &[u64], e: &mut Emitter<u64, u64>| xs.iter().for_each(|x| e.emit(x % 13, *x)),
        |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, u64)>| out.push((*k, vs.iter().sum())),
    )
    .expect("job");
    (out.output, out.stats.faults)
}

fn mapped(cluster: &Cluster) -> Vec<u64> {
    run_map_only(cluster, splits(), |xs: &[u64], out: &mut Vec<u64>| {
        out.extend(xs.iter().map(|x| x * 3 + 1));
    })
    .expect("job")
    .output
}

#[test]
fn fault_injected_output_is_bit_identical_across_rates_seeds_threads() {
    let baseline_cluster = Cluster::new(ClusterConfig::small(4)).with_threads(4);
    let baseline_mr = grouped_sums(&baseline_cluster).0;
    let baseline_mo = mapped(&baseline_cluster);

    for &rate in &[0.0, 0.05, 0.3] {
        for seed in [1u64, 42, 1_000_003] {
            for threads in [1usize, 2, 8] {
                // max_attempts 8 keeps P(task exhausts all attempts)
                // negligible even at rate 0.3.
                let plan = FaultPlan::seeded(seed)
                    .with_failure_rate(rate)
                    .with_straggler_rate(0.2)
                    .with_max_attempts(8);
                let cluster = Cluster::new(ClusterConfig::small(4))
                    .with_threads(threads)
                    .with_faults(plan);
                let (out, faults) = grouped_sums(&cluster);
                assert_eq!(
                    out, baseline_mr,
                    "map-reduce output diverged at rate={rate} seed={seed} threads={threads}"
                );
                let out = mapped(&cluster);
                assert_eq!(
                    out, baseline_mo,
                    "map-only output diverged at rate={rate} seed={seed} threads={threads}"
                );
                if rate == 0.0 {
                    assert_eq!(faults.retries, 0, "no retries without failures");
                }
            }
        }
    }
}

#[test]
fn fault_decisions_are_independent_of_thread_count() {
    // Not just the output: the *fault accounting* itself — lost time
    // included — must be a pure function of the seed, so timelines are
    // reproducible.
    let plan = FaultPlan::seeded(7)
        .with_failure_rate(0.3)
        .with_straggler_rate(0.25)
        .with_max_attempts(8);
    let collect = |threads: usize| {
        let cluster = Cluster::new(ClusterConfig::small(4))
            .with_threads(threads)
            .with_faults(plan.clone());
        grouped_sums(&cluster).1
    };
    let single = collect(1);
    assert_eq!(collect(4), single);
    assert_eq!(collect(8), single);
    // At rate 0.3 over ~22 tasks, retries are all but certain.
    assert!(
        single.retries > 0,
        "expected retries at rate 0.3: {single:?}"
    );
}

#[test]
fn stragglers_trigger_speculation_and_inflate_sim_time() {
    let run = |plan: Option<FaultPlan>| {
        let mut cluster = Cluster::new(ClusterConfig::small(4)).with_threads(4);
        if let Some(p) = plan {
            cluster = cluster.with_faults(p);
        }
        let out = run_map_only(
            &cluster,
            (0..8).map(|s| vec![s]).collect::<Vec<Vec<u64>>>(),
            |xs: &[u64], out: &mut Vec<u64>| out.extend(xs),
        )
        .expect("job");
        (out.stats.sim_duration(&cluster.config), out.stats.faults)
    };
    let (clean_sim, clean_faults) = run(None);
    assert_eq!(clean_faults, FaultStats::default());
    let (faulty_sim, faults) = run(Some(
        FaultPlan::seeded(5)
            .with_failure_rate(0.4)
            .with_straggler_rate(0.5)
            .with_max_attempts(8),
    ));
    assert!(faults.retries > 0 || faults.speculative > 0, "{faults:?}");
    assert!(faults.time_lost > Duration::ZERO);
    assert!(
        faulty_sim > clean_sim,
        "fault time must reach the sim clock: {faulty_sim:?} vs {clean_sim:?}"
    );
}

#[test]
fn node_loss_reexecutes_that_nodes_tasks_with_identical_output() {
    let baseline = {
        let cluster = Cluster::new(ClusterConfig::small(4)).with_threads(4);
        grouped_sums(&cluster).0
    };
    // Node 2 dies during job 0 (the only job this cluster runs).
    let cluster = Cluster::new(ClusterConfig::small(4))
        .with_threads(4)
        .with_faults(FaultPlan::seeded(9).with_node_loss(0, 2));
    let (out, faults) = grouped_sums(&cluster);
    assert_eq!(out, baseline);
    // splits() yields 17 map tasks ({2, 6, 10, 14} sat on node 2) and 5
    // reduce partitions (partition 2 sat on node 2): 5 lost attempts.
    assert_eq!(faults.node_loss_failures, 5, "{faults:?}");
    assert!(faults.retries >= 5);
}

#[test]
fn a_map_attempt_that_dies_mid_emit_contributes_each_pair_once() {
    // Split 3's first attempt emits half its pairs, then panics; the retry
    // emits all of them. The lost attempt's buckets must never reach a
    // reducer.
    let victim = splits().swap_remove(3);
    let echo = |cluster: &Cluster, flaky: bool| {
        let crashed = AtomicBool::new(!flaky);
        run_map_reduce(
            cluster,
            splits(),
            5,
            |xs: &[u64], e: &mut Emitter<u64, u64>| {
                let dies = xs == victim && !crashed.swap(true, Ordering::Relaxed);
                for (i, x) in xs.iter().enumerate() {
                    assert!(!(dies && i == xs.len() / 2), "transient");
                    e.emit(x % 13, *x);
                }
            },
            |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, Vec<u64>)>| out.push((*k, vs)),
        )
        .expect("job must recover via retry")
    };
    let plan = FaultPlan::seeded(3).with_max_attempts(4);
    for threads in [1usize, 2, 8] {
        let cluster = || {
            Cluster::new(ClusterConfig::small(4))
                .with_threads(threads)
                .with_faults(plan.clone())
        };
        let clean = echo(&cluster(), false);
        let flaky = echo(&cluster(), true);
        assert_eq!(flaky.output, clean.output, "{threads} threads");
        assert_eq!(flaky.stats.shuffled_records, 600);
        assert_eq!(flaky.stats.reduce_durations, clean.stats.reduce_durations);
        assert_eq!(clean.stats.faults.retries, 0);
        assert_eq!(flaky.stats.faults.retries, 1);
    }
}

#[test]
fn exhausted_attempts_fail_the_job_with_full_context() {
    let cluster = Cluster::new(ClusterConfig::small(2))
        .with_threads(2)
        .with_faults(
            FaultPlan::seeded(1)
                .with_failure_rate(1.0)
                .with_max_attempts(3),
        );
    let err = run_map_only(
        &cluster,
        vec![vec![1u64]],
        |xs: &[u64], out: &mut Vec<u64>| {
            out.extend(xs);
        },
    )
    .expect_err("rate 1.0 must exhaust every attempt");
    assert_eq!(
        err,
        DataflowError::AttemptsExhausted {
            job: 0,
            phase: Phase::MapOnly,
            task: 0,
            attempts: 3,
        }
    );
    assert_eq!((err.job(), err.phase()), (0, Phase::MapOnly));
    assert!(err.to_string().contains("map-only task 0"), "{err}");
}
