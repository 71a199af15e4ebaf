//! End-to-end fault-injection tests: the load-bearing invariant is that a
//! seeded fault plan changes *when* work happens (retries, backoff,
//! stragglers, a lost node) but never *what* is computed — the matched
//! pairs are bit-identical to a fault-free run.

use falcon_core::driver::{Falcon, FalconConfig, RunReport};
use falcon_core::error::FalconError;
use falcon_core::plan::PlanKind;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_dataflow::{ClusterConfig, DataflowError, FaultPlan, Phase};
use falcon_datagen::{citations, EmDataset};

fn config(fault: Option<FaultPlan>) -> FalconConfig {
    FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 4_000,
        sample_fanout: 20,
        max_pairs: 20_000_000,
        force_plan: Some(PlanKind::BlockAndMatch),
        fault,
        ..FalconConfig::default()
    }
}

fn run(
    d: &EmDataset,
    fault: Option<FaultPlan>,
    crowd: RandomWorkerCrowd,
) -> Result<RunReport, FalconError> {
    Falcon::new(config(fault)).try_run(&d.a, &d.b, crowd)
}

#[test]
fn heavy_faults_leave_the_matched_pairs_bit_identical() {
    let d = citations::generate(0.0015, 3);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = || RandomWorkerCrowd::new(truth.clone(), 0.05, 42);

    let clean = run(&d, None, crowd()).expect("clean run");
    assert_eq!(clean.faults, Default::default(), "no plan, no faults");

    // 30% of attempts fail, 10% straggle (speculation on), and node 0
    // dies during job 1 — the acceptance scenario of the fault model.
    // (Node 0 always hosts task 0, so the loss is guaranteed to hit.)
    let plan = FaultPlan::seeded(7)
        .with_failure_rate(0.3)
        .with_straggler_rate(0.1)
        .with_node_loss(1, 0)
        .with_max_attempts(8);
    let faulty = run(&d, Some(plan), crowd()).expect("faulty run");

    assert_eq!(
        faulty.matches, clean.matches,
        "faults must not change output"
    );
    assert_eq!(faulty.candidate_size, clean.candidate_size);
    assert_eq!(faulty.ledger, clean.ledger, "crowd spend is untouched");

    // Per-conjunct probe counters sum per-task deltas over a fixed task
    // set, so retries/stragglers/node loss must not move them either, and
    // each conjunct's buckets account for every examined probe.
    assert_eq!(
        faulty.blocking, clean.blocking,
        "probe counters are schedule-independent"
    );
    if let Some(bs) = &clean.blocking {
        for c in &bs.conjuncts {
            assert_eq!(
                c.pairs_examined,
                c.pruned_by_signature + c.pruned_by_exact + c.survived,
                "conjunct {} counters do not balance",
                c.conjunct
            );
        }
    }

    // The report carries the run-wide fault accounting.
    let f = &faulty.faults;
    assert!(f.retries > 0, "{f:?}");
    assert!(f.node_loss_failures > 0, "{f:?}");
    assert!(f.speculative > 0, "{f:?}");
    assert!(f.attempts > f.retries, "{f:?}");
    assert!(f.time_lost > std::time::Duration::ZERO, "{f:?}");
}

#[test]
fn fault_injected_runs_are_reproducible_for_a_fixed_seed() {
    let d = citations::generate(0.001, 5);
    let truth = GroundTruth::new(d.truth.iter().copied());
    // At rate 0.2 a cell exhausts the default 4 attempts with p = 0.0016
    // and a run has hundreds of cells: 8 attempts make that 2.6e-6.
    let plan = FaultPlan::seeded(99)
        .with_failure_rate(0.2)
        .with_straggler_rate(0.2)
        .with_max_attempts(8);
    let run = || {
        let crowd = RandomWorkerCrowd::new(truth.clone(), 0.05, 8);
        run(&d, Some(plan.clone()), crowd).expect("faulty run")
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.matches, r2.matches);
    assert_eq!(r1.blocking, r2.blocking);
    // Retries and lost time are priced from records, so the whole fault
    // accounting and the whole timeline repeat, not just the schedule.
    assert!(r1.faults.retries > 0 && r1.faults.time_lost > std::time::Duration::ZERO);
    assert_eq!(r1.faults, r2.faults);
    assert_eq!(r1.timeline.segments(), r2.timeline.segments());
}

#[test]
fn a_plan_that_must_exhaust_is_a_typed_error_with_coordinates() {
    let d = citations::generate(0.001, 5);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let plan = FaultPlan::seeded(1).with_failure_rate(1.0);
    let err = run(&d, Some(plan), RandomWorkerCrowd::new(truth, 0.05, 8))
        .expect_err("every attempt of every task fails");
    // The first job of the run loses its first map task after the default
    // 4 attempts. That job is the token store's map-only pass over `A`,
    // which the blocking stage asks for ahead of `sample_pairs` (whose
    // index — once an MR job, hence `Phase::Map` — is a driver-local pass).
    match err {
        FalconError::Dataflow(DataflowError::AttemptsExhausted {
            job,
            phase,
            task,
            attempts,
        }) => assert_eq!((job, phase, task, attempts), (0, Phase::MapOnly, 0, 4)),
        other => panic!("expected AttemptsExhausted, got {other:?}"),
    }
}

#[test]
fn faults_inflate_simulated_machine_time() {
    let d = citations::generate(0.001, 6);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = || RandomWorkerCrowd::new(truth.clone(), 0.0, 4);
    let clean = run(&d, None, crowd()).expect("clean run");
    // Retries and their backoff waits (from 100 ms) dominate the (tiny)
    // task prices.
    let plan = FaultPlan::seeded(13)
        .with_failure_rate(0.4)
        .with_max_attempts(10);
    let faulty = run(&d, Some(plan), crowd()).expect("faulty run");
    assert_eq!(faulty.matches, clean.matches);
    assert!(
        faulty.machine_time() > clean.machine_time(),
        "faulty {:?} <= clean {:?}",
        faulty.machine_time(),
        clean.machine_time()
    );
}
