//! Scheduler determinism: the same job set, seed and policy must produce
//! identical stage interleavings, ledgers and aggregate counters at any
//! scheduler thread count. The permit count throttles real CPU use only;
//! every virtual-time quantity comes out of the lockstep rounds.

mod common;

use common::{em_config, tenants};
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_serve::{serve, serve_fingerprint, JobSpec, Policy, ServeConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn outcomes_invariant_across_thread_counts(
        seed in 0u64..1_000,
        policy_idx in 0usize..4,
    ) {
        let policy = [Policy::Fifo, Policy::FairShare, Policy::Priority, Policy::Random]
            [policy_idx];
        let mut prints = Vec::new();
        for threads in [1usize, 4, 8] {
            let cfg = ServeConfig {
                threads,
                policy,
                seed,
                ..ServeConfig::default()
            };
            let rep = serve(tenants(seed, 0.0, 0.0, None), &cfg).unwrap();
            prints.push(serve_fingerprint(&rep));
        }
        prop_assert_eq!(&prints[0], &prints[1]);
        prop_assert_eq!(&prints[1], &prints[2]);
    }
}

/// The shared run beats the serial baseline once crowd latency dominates:
/// tenant crowd waits overlap instead of stacking end to end.
#[test]
fn crowd_dominated_workload_masks_across_tenants() {
    let jobs: Vec<JobSpec> = (0..6u64)
        .map(|i| {
            let data = falcon_datagen::generate("products", 0.015, i);
            let truth = GroundTruth::new(data.truth.iter().copied());
            let crowd = Arc::new(
                RandomWorkerCrowd::new(truth, 0.05, i + 1).with_latency(Duration::from_secs(900)),
            );
            JobSpec::new(format!("t{i}"), data.a, data.b, em_config(i), crowd)
        })
        .collect();
    let rep = serve(
        jobs,
        &ServeConfig {
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    for o in &rep.outcomes {
        assert!(o.result.is_ok(), "tenant {} failed", o.name);
    }
    assert!(
        rep.throughput_speedup() >= 2.0,
        "expected ≥2× over serial, got {:.2}× (shared {:?}, serial {:?})",
        rep.throughput_speedup(),
        rep.makespan,
        rep.serial_makespan
    );
    assert!(rep.utilization >= rep.serial_utilization);
}
