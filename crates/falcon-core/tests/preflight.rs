//! Pre-flight gate tests: `Falcon::try_run` must reject statically
//! malformed configurations as [`FalconError::Plan`] *before* issuing any
//! MapReduce job or crowd question.

use falcon_core::analyze::Diagnostic;
use falcon_core::driver::{Falcon, FalconConfig, ForcedFilter, RunCtl};
use falcon_core::error::FalconError;
use falcon_core::features::generate_features;
use falcon_core::plan::PlanKind;
use falcon_crowd::sim::{GroundTruth, OracleCrowd};
use falcon_crowd::Crowd;
use falcon_dataflow::ClusterConfig;
use falcon_datagen::products;

fn small_config() -> FalconConfig {
    FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 2_000,
        sample_fanout: 20,
        ..FalconConfig::default()
    }
}

/// A crowd that panics on contact: proves the gate fires before any
/// crowdsourcing starts.
struct UnreachableCrowd;

impl Crowd for UnreachableCrowd {
    fn answer(&self, _pair: falcon_table::IdPair) -> bool {
        panic!("pre-flight gate must reject the run before the crowd is asked")
    }
    fn latency_per_round(&self) -> std::time::Duration {
        std::time::Duration::ZERO
    }
    fn cost_per_answer(&self) -> f64 {
        0.0
    }
    fn name(&self) -> &str {
        "unreachable"
    }
}

#[test]
fn malformed_operator_config_is_rejected_before_the_crowd() {
    let d = products::generate(0.05, 3);
    let cfg = FalconConfig {
        sample_fanout: 1, // y must be >= 2
        ..small_config()
    };
    let err = Falcon::new(cfg)
        .try_run(&d.a, &d.b, UnreachableCrowd)
        .expect_err("fan-out 1 must be rejected");
    let FalconError::Plan(errors) = err else {
        panic!("expected FalconError::Plan, got {err:?}");
    };
    assert!(errors.iter().any(|e| matches!(
        e,
        Diagnostic::InvalidOperatorConfig {
            op: "sample_pairs",
            field: "sample_fanout",
            ..
        }
    )));
}

#[test]
fn infeasible_forced_plan_is_rejected_before_the_crowd() {
    let d = products::generate(0.05, 3);
    let cfg = FalconConfig {
        force_plan: Some(PlanKind::MatchOnly),
        max_pairs: 10,
        ..small_config()
    };
    let err = Falcon::new(cfg)
        .try_run(&d.a, &d.b, UnreachableCrowd)
        .expect_err("over-budget match-only plan must be rejected");
    assert!(matches!(err, FalconError::Plan(ref errors)
        if errors.iter().any(|e| matches!(e, Diagnostic::PairBudgetExceeded { .. }))));
}

/// The workflow (`rounds ≥ 1`) always blocks, so the gate must judge the
/// block-and-match plan it runs: a forced match-only plan over the pair
/// budget is no reason to reject a run that never enumerates `A × B`.
#[test]
fn the_gate_judges_the_plan_the_workflow_runs() {
    let d = products::generate(0.05, 3);
    let cfg = FalconConfig {
        force_plan: Some(PlanKind::MatchOnly),
        max_pairs: d.a.len() as u128 * d.b.len() as u128 - 1,
        ..small_config()
    };
    let truth = GroundTruth::new(d.truth.iter().copied());
    let report = Falcon::new(cfg)
        .try_run_with(&d.a, &d.b, OracleCrowd::new(truth), 2, RunCtl::default())
        .expect("the workflow blocks, so the match-only pair budget does not apply");
    assert_eq!(report.plan, PlanKind::BlockAndMatch);
    assert!(!report.matches.is_empty());
}

#[test]
fn zero_cluster_is_rejected_by_the_workflow_entry_point_too() {
    let d = products::generate(0.05, 3);
    let mut cfg = small_config();
    cfg.cluster.nodes = 0;
    let err = Falcon::new(cfg)
        .try_run_with(&d.a, &d.b, UnreachableCrowd, 2, RunCtl::default())
        .expect_err("zero-node cluster must be rejected");
    assert!(matches!(err, FalconError::Plan(ref errors)
        if errors.contains(&Diagnostic::InvalidClusterConfig { field: "nodes" })));
}

#[test]
fn recall_unsafe_forced_filter_is_rejected_before_the_crowd() {
    // The exact configuration falcon-index/tests/lossless.rs would catch
    // dynamically (a set-similarity filter with a non-positive threshold
    // prunes zero-overlap pairs that still satisfy `sim > t`) — here it
    // must be refused statically, before any job or crowd question.
    let d = products::generate(0.05, 3);
    let blocking = generate_features(&d.a, &d.b).blocking;
    let jac = blocking
        .features
        .iter()
        .position(|f| matches!(f.sim, falcon_textsim::SimFunction::Jaccard(_)))
        .expect("jaccard blocking feature");
    let cfg = FalconConfig {
        force_filters: vec![ForcedFilter::for_feature(&blocking, jac, -0.5).expect("in range")],
        ..small_config()
    };
    let err = Falcon::new(cfg)
        .try_run(&d.a, &d.b, UnreachableCrowd)
        .expect_err("recall-unsafe forced filter must be rejected");
    let FalconError::Plan(errors) = err else {
        panic!("expected FalconError::Plan, got {err:?}");
    };
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, Diagnostic::UnsafeFilter { feature, .. } if *feature == jac)),
        "{errors:?}"
    );
    // The rendered error names the failed obligation.
    assert!(
        errors.iter().any(|e| e.to_string().contains("obligation")),
        "{errors:?}"
    );
}

#[test]
fn recall_safe_forced_filter_passes_the_gate_and_stays_lossless() {
    // A weaker-threshold override is a provably safe substitution: the
    // run must complete and still find matches.
    let d = products::generate(0.05, 3);
    let blocking = generate_features(&d.a, &d.b).blocking;
    let jac = blocking
        .features
        .iter()
        .position(|f| matches!(f.sim, falcon_textsim::SimFunction::Jaccard(_)))
        .expect("jaccard blocking feature");
    let cfg = FalconConfig {
        force_filters: vec![ForcedFilter::for_feature(&blocking, jac, 0.05).expect("in range")],
        ..small_config()
    };
    let truth = GroundTruth::new(d.truth.iter().copied());
    let report = Falcon::new(cfg)
        .try_run(&d.a, &d.b, OracleCrowd::new(truth))
        .expect("safe forced filter must pass the gate and run");
    assert!(!report.matches.is_empty());
}

#[test]
fn well_formed_run_still_succeeds_through_try_run() {
    let d = products::generate(0.05, 3);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let report = Falcon::new(small_config())
        .try_run(&d.a, &d.b, OracleCrowd::new(truth))
        .expect("valid config must pass the gate and run");
    assert!(!report.matches.is_empty());
}
