//! Cross-crate integration tests: the full hands-off pipeline on all
//! three synthetic datasets, exercised through the facade crate.

use falcon::prelude::*;

fn config() -> FalconConfig {
    FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 6_000,
        sample_fanout: 40,
        force_plan: Some(PlanKind::BlockAndMatch),
        ..FalconConfig::default()
    }
}

fn run(data: &EmDataset, error: f64, seed: u64) -> (falcon::core::driver::RunReport, EmQuality) {
    let truth = GroundTruth::new(data.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, error, seed);
    let report = Falcon::new(config())
        .try_run(&data.a, &data.b, crowd)
        .expect("run");
    let q = report.quality(&data.truth);
    (report, q)
}

#[test]
fn songs_pipeline_high_f1() {
    let data = falcon::datagen::songs::generate(0.0015, 31);
    let (report, q) = run(&data, 0.05, 1);
    assert!(q.f1 > 0.75, "songs F1 = {:.3}", q.f1);
    assert!(report.candidate_size.unwrap() < data.a.len() * data.b.len() / 4);
}

#[test]
fn citations_pipeline_high_f1() {
    let data = falcon::datagen::citations::generate(0.001, 32);
    let (report, q) = run(&data, 0.05, 2);
    assert!(q.f1 > 0.7, "citations F1 = {:.3}", q.f1);
    assert!(report.rules_retained > 0 || !report.rule_sequence.is_empty());
}

#[test]
fn products_pipeline_reasonable_f1() {
    // Products is the paper's hardest dataset (F1 ≈ 0.82 at full scale).
    let data = falcon::datagen::products::generate(0.03, 33);
    let (_, q) = run(&data, 0.05, 3);
    assert!(q.f1 > 0.6, "products F1 = {:.3}", q.f1);
}

#[test]
fn deterministic_given_seeds() {
    let data = falcon::datagen::songs::generate(0.001, 34);
    let (r1, _) = run(&data, 0.05, 9);
    let (r2, _) = run(&data, 0.05, 9);
    assert_eq!(r1.matches, r2.matches);
    assert_eq!(r1.ledger.questions, r2.ledger.questions);
}

#[test]
fn oracle_beats_noisy_crowd() {
    let data = falcon::datagen::songs::generate(0.0015, 35);
    let truth = GroundTruth::new(data.truth.iter().copied());
    let oracle_report = Falcon::new(config())
        .try_run(&data.a, &data.b, OracleCrowd::new(truth.clone()))
        .expect("run");
    let noisy_report = Falcon::new(config())
        .try_run(&data.a, &data.b, RandomWorkerCrowd::new(truth, 0.2, 5))
        .expect("run");
    let qo = oracle_report.quality(&data.truth);
    let qn = noisy_report.quality(&data.truth);
    assert!(
        qo.f1 >= qn.f1 - 0.05,
        "oracle {:.3} vs noisy {:.3}",
        qo.f1,
        qn.f1
    );
}

#[test]
fn ledger_consistency() {
    let data = falcon::datagen::products::generate(0.01, 36);
    let (report, _) = run(&data, 0.0, 7);
    let l = report.ledger;
    assert!(l.answers >= l.questions * 3, "majority needs >= 3 answers");
    assert!(l.hits >= l.rounds);
    assert!((l.cost - l.answers as f64 * 0.02).abs() < 1e-9);
    assert_eq!(report.crowd_time(), l.crowd_time);
}
