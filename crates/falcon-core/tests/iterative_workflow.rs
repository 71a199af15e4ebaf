//! The full iterative EM workflow (Figure 1): Blocker → (Matcher →
//! Accuracy Estimator → Difficult Pairs' Locator)*.

use falcon_core::driver::{Falcon, FalconConfig, RunCtl};
use falcon_core::plan::PlanKind;
use falcon_crowd::sim::{GroundTruth, OracleCrowd, RandomWorkerCrowd};
use falcon_dataflow::ClusterConfig;
use falcon_datagen::products;

fn config() -> FalconConfig {
    FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 6_000,
        sample_fanout: 20,
        force_plan: Some(PlanKind::BlockAndMatch),
        ..FalconConfig::default()
    }
}

#[test]
fn workflow_terminates_and_reports_estimates() {
    let d = products::generate(0.03, 71);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let report = Falcon::new(config())
        .try_run_with(&d.a, &d.b, OracleCrowd::new(truth), 3, RunCtl::default())
        .expect("run");
    let estimates = &report.estimates;
    assert!(!estimates.is_empty());
    assert!(estimates.len() <= 3);
    let q = report.quality(&d.truth);
    assert!(q.f1 > 0.6, "F1 {:.3}", q.f1);
    // Crowd-estimated quality should be in the neighbourhood of the true
    // quality (oracle crowd, so estimation noise only from sampling).
    let est = estimates.last().unwrap();
    assert!(
        (est.precision - q.precision).abs() < 0.25,
        "est P {:.3} vs true {:.3}",
        est.precision,
        q.precision
    );
}

#[test]
fn workflow_never_worse_than_single_pass_by_much() {
    let d = products::generate(0.03, 72);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let single = Falcon::new(config())
        .try_run(&d.a, &d.b, RandomWorkerCrowd::new(truth.clone(), 0.05, 4))
        .expect("run");
    let crowd = RandomWorkerCrowd::new(truth, 0.05, 4);
    let multi = Falcon::new(config())
        .try_run_with(&d.a, &d.b, crowd, 3, RunCtl::default())
        .expect("run");
    let qs = single.quality(&d.truth);
    let qm = multi.quality(&d.truth);
    assert!(
        qm.f1 >= qs.f1 - 0.1,
        "multi {:.3} vs single {:.3}",
        qm.f1,
        qs.f1
    );
}

#[test]
fn workflow_spends_more_crowd_budget_per_extra_round() {
    let d = products::generate(0.02, 73);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let run = |rounds| {
        Falcon::new(config())
            .try_run_with(
                &d.a,
                &d.b,
                OracleCrowd::new(truth.clone()),
                rounds,
                RunCtl::default(),
            )
            .expect("run")
    };
    let (r1, r3) = (run(1), run(3));
    if r3.estimates.len() > 1 {
        assert!(r3.ledger.questions > r1.ledger.questions);
    } else {
        // Converged in one round: budgets equal.
        assert_eq!(r3.ledger.rounds, r1.ledger.rounds);
    }
}
