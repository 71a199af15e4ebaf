//! Masking-optimization integration tests (Section 10.2 / Table 5):
//! optimizations must reduce unmasked machine time without changing the
//! output, and each ablation must stay within the envelope of the fully
//! optimized and fully unoptimized runs.

use falcon::prelude::*;

fn run(data: &EmDataset, opt: OptFlags) -> falcon::core::driver::RunReport {
    let truth = GroundTruth::new(data.truth.iter().copied());
    let cfg = FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 6_000,
        sample_fanout: 30,
        force_plan: Some(PlanKind::BlockAndMatch),
        opt,
        ..FalconConfig::default()
    };
    Falcon::new(cfg)
        .try_run(&data.a, &data.b, OracleCrowd::new(truth))
        .expect("run")
}

#[test]
fn full_masking_reduces_unmasked_machine_time() {
    let data = falcon::datagen::citations::generate(0.002, 61);
    let unopt = run(&data, OptFlags::none());
    let opt = run(&data, OptFlags::default());
    // Machine time includes real measured compute, so allow the same
    // timing-noise margin as the envelope test below.
    let o = opt.unmasked_machine_time().as_secs_f64();
    let u = unopt.unmasked_machine_time().as_secs_f64();
    assert!(o <= u * 1.02 + 0.2, "opt {o}s vs unopt {u}s");
    // Total machine work performed doesn't shrink — it moves under crowd
    // time.
    assert!(
        opt.machine_time() + std::time::Duration::from_millis(1) >= opt.unmasked_machine_time()
    );
}

#[test]
fn each_ablation_within_envelope() {
    let data = falcon::datagen::songs::generate(0.0015, 62);
    let full = run(&data, OptFlags::default());
    let none = run(&data, OptFlags::none());
    for flags in [
        OptFlags {
            prebuild_indexes: false,
            ..OptFlags::default()
        },
        OptFlags {
            speculative_execution: false,
            ..OptFlags::default()
        },
        OptFlags {
            mask_pair_selection: false,
            ..OptFlags::default()
        },
    ] {
        let ablated = run(&data, flags);
        // An ablated run can't beat the fully optimized one by more than
        // timing noise, and shouldn't be (much) worse than no optimization.
        let o = full.unmasked_machine_time().as_secs_f64();
        let a = ablated.unmasked_machine_time().as_secs_f64();
        let u = none.unmasked_machine_time().as_secs_f64();
        assert!(a <= u * 1.5 + 0.2, "{flags:?}: ablated {a}s vs unopt {u}s");
        assert!(a + 0.2 >= o * 0.5, "{flags:?}: ablated {a}s vs full {o}s");
    }
}

#[test]
fn index_prebuild_fully_masks_under_long_crowd_rounds() {
    // MTurk-like latency means hours of masking capacity; index building
    // must vanish from the critical path.
    let data = falcon::datagen::products::generate(0.02, 63);
    let report = run(&data, OptFlags::default());
    let ops = report.op_times();
    if let Some(d) = ops.get("index_build") {
        assert!(
            d.as_millis() < 50,
            "index building should be masked, got {d:?}"
        );
    }
}

#[test]
fn speculative_execution_masks_apply_matcher_on_convergence() {
    let data = falcon::datagen::songs::generate(0.001, 64);
    let report = run(&data, OptFlags::default());
    // The matching-stage AL converges easily on songs; apply_matcher
    // should then be recorded as masked (zero critical-path time).
    let ops = report.op_times();
    if let Some(d) = ops.get("apply_matcher") {
        assert!(d.as_millis() < 50, "apply_matcher unmasked: {d:?}");
    }
}
