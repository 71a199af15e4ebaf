//! Per-tenant fault isolation: injecting node loss and crowd loss into
//! tenant A must leave tenant B's report — matches, ledger, crash
//! journal — byte-identical to B running alone, at every scheduler
//! thread count.

mod common;

use common::{broken_job, em_config};
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd, UnreliableCrowd};
use falcon_dataflow::FaultPlan;
use falcon_serve::{serve, JobSpec, Policy, ServeConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Tenant B: a clean job over the products dataset.
fn job_b(journal: Option<PathBuf>) -> JobSpec {
    let data = falcon_datagen::generate("products", 0.02, 11);
    let truth = GroundTruth::new(data.truth.iter().copied());
    let crowd = Arc::new(RandomWorkerCrowd::new(truth, 0.05, 77));
    let mut spec = JobSpec::new("tenant-b", data.a, data.b, em_config(21), crowd);
    if let Some(p) = journal {
        spec = spec.with_journal(p);
    }
    spec
}

/// Tenant A: same shape of job, but with a node-loss fault plan *and* a
/// lossy crowd layered over its workers.
fn job_a_faulty() -> JobSpec {
    let data = falcon_datagen::generate("products", 0.02, 5);
    let truth = GroundTruth::new(data.truth.iter().copied());
    let crowd = Arc::new(UnreliableCrowd::new(
        RandomWorkerCrowd::new(truth, 0.05, 13),
        0.25,
        13,
    ));
    let mut config = em_config(9);
    config.fault = Some(
        FaultPlan::seeded(3)
            .with_failure_rate(0.05)
            .with_node_loss(2, 1),
    );
    JobSpec::new("tenant-a", data.a, data.b, config, crowd)
}

#[test]
fn tenant_b_unperturbed_by_tenant_a_faults() {
    let tmp = std::env::temp_dir().join(format!("falcon_serve_iso_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();

    // Solo reference for tenant B, journaled.
    let solo_journal = tmp.join("solo_b.journal");
    let _ = std::fs::remove_file(&solo_journal);
    let solo = job_b(Some(solo_journal.clone())).run_solo().unwrap();
    let solo_journal_bytes = std::fs::read(&solo_journal).unwrap();
    assert!(!solo.matches.is_empty(), "reference run found no matches");
    assert!(!solo_journal_bytes.is_empty(), "reference journal is empty");

    for threads in [1usize, 4, 8] {
        let b_journal = tmp.join(format!("b_{threads}.journal"));
        let _ = std::fs::remove_file(&b_journal);
        let jobs = vec![job_a_faulty(), job_b(Some(b_journal.clone()))];
        let cfg = ServeConfig {
            threads,
            policy: Policy::FairShare,
            ..ServeConfig::default()
        };
        let rep = serve(jobs, &cfg).unwrap();

        // Tenant A really was perturbed: its fault machinery fired.
        let a = rep.outcomes[0].result.as_ref().unwrap();
        assert!(
            a.faults.retries > 0 || a.faults.node_loss_failures > 0,
            "fault injection did not fire for tenant A (threads={threads})"
        );
        assert!(a.ledger.lost_answers > 0, "crowd loss did not fire");

        // Tenant B is bit-identical to its solo run.
        let b = rep.outcomes[1].result.as_ref().unwrap();
        assert_eq!(
            b.matches, solo.matches,
            "matches diverged (threads={threads})"
        );
        assert_eq!(b.ledger, solo.ledger, "ledger diverged (threads={threads})");
        assert_eq!(b.faults, solo.faults, "fault stats diverged");
        assert_eq!(b.journal_error, solo.journal_error);
        let b_journal_bytes = std::fs::read(&b_journal).unwrap();
        assert_eq!(
            b_journal_bytes, solo_journal_bytes,
            "journal bytes diverged (threads={threads})"
        );
        let _ = std::fs::remove_file(&b_journal);
    }
    let _ = std::fs::remove_file(&solo_journal);
}

/// A tenant whose plan analysis fails (empty inputs) must surface its own
/// error while leaving a concurrent healthy tenant untouched.
#[test]
fn failing_tenant_does_not_abort_others() {
    let solo = job_b(None).run_solo().unwrap();
    let rep = serve(
        vec![broken_job(), job_b(None)],
        &ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert!(rep.outcomes[0].result.is_err(), "empty job should fail");
    let healthy = rep.outcomes[1].result.as_ref().unwrap();
    assert_eq!(healthy.matches, solo.matches);
    assert_eq!(healthy.ledger, solo.ledger);
}
