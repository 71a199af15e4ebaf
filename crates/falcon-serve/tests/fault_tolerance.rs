//! Service-level fault tolerance: crash-resume identity, admission
//! control, deadlines, quotas, quarantine, elastic pool — and the
//! journal's edge cases (torn tails, stale crowd journals, resume after
//! the final round).

mod common;

use common::{broken_job, em_config, scratch, tenants};
use falcon_core::error::FalconError;
use falcon_core::stage::CancelReason;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_serve::chaos::{run_cell, ChaosCell};
use falcon_serve::{
    resume, serve, serve_fingerprint, AdmissionConfig, AdmissionPolicy, JobSpec, Policy, PoolEvent,
    ServeConfig, ServeError, TenantQuota, TenantStatus,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Kill-and-resume identity
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Kill the service after any journaled round, resume it, and every
    /// per-tenant report, crowd journal, the service journal and the
    /// aggregate ledger are byte-identical to an uninterrupted run —
    /// with zero re-asked crowd questions — at every thread count and
    /// policy.
    #[test]
    fn kill_and_resume_is_byte_identical(
        seed in 0u64..500,
        policy_idx in 0usize..4,
        kill_round in 1u64..4,
    ) {
        let policy = [Policy::Fifo, Policy::FairShare, Policy::Priority, Policy::Random]
            [policy_idx];
        let dir = scratch(&format!("kr_{seed}_{policy_idx}_{kill_round}"));
        for threads in [1usize, 4, 8] {
            let cell = ChaosCell {
                policy,
                kill_round,
                fault_rate: 0.0,
                crowd_loss: 0.25,
                pool_shrink: 0.0,
                threads,
            };
            let out = run_cell(&cell, &ServeConfig { seed, ..ServeConfig::default() }, &dir,
                |c, d| tenants(seed, c.fault_rate, c.crowd_loss, Some(d)))
                .unwrap();
            prop_assert!(out.resume_identical, "{}: {:?}", out.cell, out.mismatch);
            prop_assert!(out.service_journal_identical, "{}: service journal", out.cell);
            prop_assert!(out.crowd_journals_identical, "{}: crowd journals", out.cell);
            prop_assert!(
                out.zero_reasked(),
                "{}: {} + {} != {} live questions",
                out.cell,
                out.killed_live_questions,
                out.resumed_live_questions,
                out.ref_live_questions
            );
            prop_assert!(out.replayed_rounds > 0, "{}: nothing replayed", out.cell);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The exhaustive release-mode matrix (all four policies × kill points ×
/// crowd loss × pool shrink × threads); run in CI with `--ignored`.
#[test]
#[ignore]
fn chaos_matrix_exhaustive() {
    let dir = scratch("matrix");
    let cells = falcon_serve::chaos::sweep(
        &[
            Policy::Fifo,
            Policy::FairShare,
            Policy::Priority,
            Policy::Random,
        ],
        &[1, 3],
        &[0.0, 0.05],
        &[0.0, 0.25],
        &[0.0, 0.5],
        // Thread-count invariance is pinned by the kill/resume proptest;
        // one thread count here keeps the 64-cell matrix tractable.
        &[4],
    );
    for cell in &cells {
        let out = run_cell(
            cell,
            &ServeConfig {
                seed: 7,
                ..ServeConfig::default()
            },
            &dir,
            |c, d| tenants(7, c.fault_rate, c.crowd_loss, Some(d)),
        )
        .unwrap();
        assert!(
            out.holds(),
            "cell {} violated resume identity: mismatch={:?} sj={} cj={} reasked={}",
            out.cell,
            out.mismatch,
            out.service_journal_identical,
            out.crowd_journals_identical,
            out.ref_live_questions as i64
                - (out.killed_live_questions + out.resumed_live_questions) as i64
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume after the final round: the whole run replays from the journals
/// and not a single crowd question is asked live.
#[test]
fn resume_after_final_round_asks_nothing() {
    let dir = scratch("final");
    let cfg = ServeConfig {
        seed: 3,
        threads: 4,
        journal: Some(dir.join("service.journal")),
        ..ServeConfig::default()
    };
    let reference = serve(tenants(3, 0.0, 0.0, Some(&dir)), &cfg).unwrap();

    // Fresh identically-seeded jobs over the *same* journals.
    let mut jobs = tenants(3, 0.0, 0.0, Some(&dir));
    let live = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    for job in jobs.iter_mut() {
        job.crowd = Arc::new(falcon_serve::chaos::CountingCrowd::new(
            job.crowd.clone(),
            live.clone(),
        ));
    }
    let resumed = resume(jobs, &cfg).unwrap();
    assert_eq!(
        serve_fingerprint(&reference),
        serve_fingerprint(&resumed),
        "full replay diverged"
    );
    assert_eq!(
        live.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "a fully-journaled resume asked the crowd live questions"
    );
    assert_eq!(resumed.replayed_rounds, reference.rounds);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn service-journal tail (crash mid-round) is dropped on open and
/// the resumed run is still byte-identical.
#[test]
fn resume_with_torn_service_journal_tail() {
    use std::io::Write;
    let dir = scratch("torn");
    let cell = ChaosCell {
        policy: Policy::FairShare,
        kill_round: 2,
        fault_rate: 0.0,
        crowd_loss: 0.0,
        pool_shrink: 0.0,
        threads: 4,
    };
    let cfg = ServeConfig {
        seed: 11,
        ..ServeConfig::default()
    };
    // Run the kill leg manually so we can tear the tail before resuming.
    let kill_dir = dir.join("kill");
    std::fs::create_dir_all(&kill_dir).unwrap();
    let mut kill_cfg = cfg.clone();
    kill_cfg.policy = cell.policy;
    kill_cfg.threads = cell.threads;
    kill_cfg.journal = Some(kill_dir.join("service.journal"));
    kill_cfg.kill_after_rounds = Some(cell.kill_round);
    serve(tenants(11, 0.0, 0.0, Some(&kill_dir)), &kill_cfg).unwrap();

    // Crash artifact: the next round group (rounds 0..=2 committed, so
    // the torn group is round 3) with no `end` marker and a half-written
    // final line — exactly what a crash mid-append leaves behind.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(kill_dir.join("service.journal"))
        .unwrap();
    f.write_all(b"round 3\nc 0 42 bogus 1 1 0 0 1\np 0 43 m half")
        .unwrap();
    drop(f);

    // Reference leg, untouched.
    let ref_dir = dir.join("ref");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let mut ref_cfg = kill_cfg.clone();
    ref_cfg.journal = Some(ref_dir.join("service.journal"));
    ref_cfg.kill_after_rounds = None;
    let reference = serve(tenants(11, 0.0, 0.0, Some(&ref_dir)), &ref_cfg).unwrap();

    let mut resume_cfg = kill_cfg.clone();
    resume_cfg.kill_after_rounds = None;
    let resumed = resume(tenants(11, 0.0, 0.0, Some(&kill_dir)), &resume_cfg).unwrap();
    assert_eq!(serve_fingerprint(&reference), serve_fingerprint(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stale per-tenant crowd journal (recorded under a different crowd
/// seed) makes the re-executed schedule diverge from the service journal:
/// resume fails with a typed divergence error instead of silently forking
/// history.
#[test]
fn resume_with_stale_crowd_journal_is_typed_divergence() {
    let dir = scratch("stale");
    let cfg = ServeConfig {
        seed: 5,
        threads: 2,
        ..ServeConfig::default()
    };
    let kill_dir = dir.join("kill");
    std::fs::create_dir_all(&kill_dir).unwrap();
    let mut kill_cfg = cfg.clone();
    kill_cfg.journal = Some(kill_dir.join("service.journal"));
    // Kill late enough that the journaled prefix includes crowd-dependent
    // rounds (crowd waits start around round 4 for this workload) — the
    // stale journal's different answers must show up inside the replay.
    kill_cfg.kill_after_rounds = Some(6);
    serve(tenants(5, 0.0, 0.0, Some(&kill_dir)), &kill_cfg).unwrap();

    // Overwrite tenant-0's crowd journal with one recorded under a
    // different crowd seed (same tables, same config).
    let alt_dir = dir.join("alt");
    std::fs::create_dir_all(&alt_dir).unwrap();
    let data = falcon_datagen::generate("products", 0.015, 5);
    let truth = GroundTruth::new(data.truth.iter().copied());
    let alt_crowd = Arc::new(RandomWorkerCrowd::new(truth, 0.05, 0xdead));
    JobSpec::new(
        "tenant-0",
        data.a,
        data.b,
        em_config(5u64.wrapping_mul(31)),
        alt_crowd,
    )
    .with_journal(alt_dir.join("alt.crowd.journal"))
    .run_solo()
    .unwrap();
    std::fs::copy(
        alt_dir.join("alt.crowd.journal"),
        kill_dir.join("tenant-0.crowd.journal"),
    )
    .unwrap();

    let mut resume_cfg = kill_cfg.clone();
    resume_cfg.kill_after_rounds = None;
    match resume(tenants(5, 0.0, 0.0, Some(&kill_dir)), &resume_cfg) {
        Err(ServeError::ServiceJournal { tenant, .. }) => {
            assert!(
                !tenant.is_empty(),
                "divergence error must name the implicated tenant"
            );
        }
        Ok(_) => panic!("stale crowd journal resumed without divergence"),
        Err(other) => panic!("expected ServiceJournal divergence, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against a journal written under a different config digest is
/// refused before any tenant is spawned.
#[test]
fn resume_with_wrong_config_is_refused() {
    let dir = scratch("cfg");
    let cfg = ServeConfig {
        seed: 9,
        journal: Some(dir.join("service.journal")),
        ..ServeConfig::default()
    };
    serve(tenants(9, 0.0, 0.0, Some(&dir)), &cfg).unwrap();
    let altered = ServeConfig {
        pool_nodes: cfg.pool_nodes + 7,
        ..cfg.clone()
    };
    match resume(tenants(9, 0.0, 0.0, Some(&dir)), &altered) {
        Err(ServeError::ServiceJournal { round, .. }) => assert_eq!(round, 0),
        other => panic!("expected prefix refusal, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Deadlines, quotas, quarantine: isolation
// ---------------------------------------------------------------------

/// Solo reference for one tenant of `tenants`.
fn solo_reference(seed: u64, i: usize, dir: &Path) -> falcon_core::driver::RunReport {
    let mut jobs = tenants(seed, 0.0, 0.0, Some(dir));
    jobs.remove(i).run_solo().unwrap()
}

/// A deadline kills exactly the tenant that missed it; every other
/// tenant's bytes match its solo run.
#[test]
fn deadline_cancels_only_that_tenant() {
    let dir = scratch("deadline");
    let solo2 = solo_reference(21, 2, &dir.join("solo"));

    let run_dir = dir.join("run");
    std::fs::create_dir_all(&run_dir).unwrap();
    let mut jobs = tenants(21, 0.0, 0.0, Some(&run_dir));
    // Tenant 0 cannot possibly finish within one virtual second.
    jobs[0].deadline = Some(Duration::from_secs(1));
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 21,
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let o0 = &rep.outcomes[0];
    assert_eq!(o0.status, TenantStatus::Deadline);
    assert!(matches!(
        o0.result,
        Err(FalconError::Cancelled {
            reason: CancelReason::Deadline
        })
    ));
    match o0.service_error.as_ref().unwrap() {
        ServeError::DeadlineExceeded { tenant, .. } => assert_eq!(tenant, "tenant-0"),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // The cancelled tenant's crowd journal was finalized, not abandoned.
    assert!(run_dir.join("tenant-0.crowd.journal").exists());

    // Tenant 2 is untouched.
    let o2 = &rep.outcomes[2];
    assert_eq!(o2.status, TenantStatus::Ok);
    let r2 = o2.result.as_ref().unwrap();
    assert_eq!(r2.matches, solo2.matches);
    assert_eq!(r2.ledger, solo2.ledger);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stage-count quota sheds the overrunning tenant with a typed error
/// carrying (tenant, round); others are unperturbed.
#[test]
fn stage_quota_sheds_overrunning_tenant() {
    let dir = scratch("quota");
    let solo1 = solo_reference(33, 1, &dir.join("solo"));

    let run_dir = dir.join("run");
    std::fs::create_dir_all(&run_dir).unwrap();
    // The 3-stage cap is far below what any EM run needs, so every
    // tenant trips it — and each must carry its *own* typed error.
    let jobs = tenants(33, 0.0, 0.0, Some(&run_dir));
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 33,
            threads: 4,
            admission: AdmissionConfig {
                quota: TenantQuota {
                    max_stages: Some(3),
                    node_seconds: None,
                },
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Every tenant trips the 3-stage cap: statuses are Shed, errors are
    // typed QuotaExceeded naming the tenant, journals finalized.
    for (i, o) in rep.outcomes.iter().enumerate() {
        assert_eq!(o.status, TenantStatus::Shed, "tenant {i}");
        match o.service_error.as_ref().unwrap() {
            ServeError::QuotaExceeded { tenant, what, .. } => {
                assert_eq!(tenant, &format!("tenant-{i}"));
                assert_eq!(*what, "stages");
            }
            other => panic!("expected QuotaExceeded, got {other}"),
        }
    }

    // And without the quota, the same workload runs clean — proving the
    // quota (not the service) failed them.
    let clean_dir = dir.join("clean");
    std::fs::create_dir_all(&clean_dir).unwrap();
    let rep2 = serve(
        tenants(33, 0.0, 0.0, Some(&clean_dir)),
        &ServeConfig {
            seed: 33,
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let r1 = rep2.outcomes[1].result.as_ref().unwrap();
    assert_eq!(r1.matches, solo1.matches);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantined (erroring) tenant is typed and isolated.
#[test]
fn quarantine_is_typed_and_isolated() {
    let dir = scratch("quarantine");
    let solo1 = solo_reference(44, 1, &dir.join("solo"));

    let run_dir = dir.join("run");
    std::fs::create_dir_all(&run_dir).unwrap();
    let mut jobs = tenants(44, 0.0, 0.0, Some(&run_dir));
    jobs[0] = broken_job();
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 44,
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let o0 = &rep.outcomes[0];
    assert_eq!(o0.status, TenantStatus::Quarantined);
    match o0.service_error.as_ref().unwrap() {
        ServeError::Quarantined { tenant, cause, .. } => {
            assert_eq!(tenant, "broken");
            assert!(!cause.is_empty());
        }
        other => panic!("expected Quarantined, got {other}"),
    }
    let r1 = rep.outcomes[1].result.as_ref().unwrap();
    assert_eq!(r1.matches, solo1.matches);
    assert_eq!(r1.ledger, solo1.ledger);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crowd whose first answer panics the tenant's driver thread.
struct PanickingCrowd;

impl falcon_crowd::Crowd for PanickingCrowd {
    fn answer(&self, _: falcon_table::IdPair) -> bool {
        panic!("poisoned crowd")
    }
    fn latency_per_round(&self) -> Duration {
        Duration::from_secs(60)
    }
    fn cost_per_answer(&self) -> f64 {
        0.0
    }
    fn name(&self) -> &str {
        "poisoned"
    }
}

/// A driver that panics gives its CPU permit back as it unwinds: with one
/// permit, the healthy tenant beside it still runs to its solo bytes. A
/// leaked permit would park that tenant forever and hang the service, so
/// `serve` runs on a helper thread and a timeout fails the test instead.
#[test]
fn a_panicking_tenant_releases_its_cpu_permit() {
    let mut jobs = tenants(12, 0.0, 0.0, None);
    jobs.truncate(2);
    jobs[0].crowd = Arc::new(PanickingCrowd);
    let solo = tenants(12, 0.0, 0.0, None).remove(1).run_solo().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        };
        let _ = tx.send(serve(jobs, &cfg));
    });
    let rep = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("serve hung: a panicked tenant kept its CPU permit")
        .unwrap();
    let statuses: Vec<TenantStatus> = rep.outcomes.iter().map(|o| o.status).collect();
    assert_eq!(statuses, [TenantStatus::Quarantined, TenantStatus::Ok]);
    let healthy = rep.outcomes[1].result.as_ref().unwrap();
    assert_eq!(healthy.matches, solo.matches);
    assert_eq!(healthy.ledger, solo.ledger);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// Overflow beyond the queue bound is rejected typed; queued jobs run to
/// the same bytes once a slot frees.
#[test]
fn admission_rejects_overflow_and_runs_queued_jobs() {
    let dir = scratch("admission");
    let run_dir = dir.join("run");
    std::fs::create_dir_all(&run_dir).unwrap();
    let mut jobs = tenants(55, 0.0, 0.0, Some(&run_dir));
    // Everyone arrives at once so admission order is submission order.
    for j in jobs.iter_mut() {
        j.arrival = Duration::ZERO;
    }
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 55,
            threads: 4,
            admission: AdmissionConfig {
                policy: AdmissionPolicy::Reject,
                max_active: 1,
                max_queue: 1,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Tenant 0 active, tenant 1 queued (runs after 0), tenant 2 rejected.
    assert_eq!(rep.outcomes[0].status, TenantStatus::Ok);
    assert_eq!(rep.outcomes[1].status, TenantStatus::Ok);
    assert_eq!(rep.outcomes[2].status, TenantStatus::Rejected);
    match rep.outcomes[2].service_error.as_ref().unwrap() {
        ServeError::QueueFull { tenant, .. } => assert_eq!(tenant, "tenant-2"),
        other => panic!("expected QueueFull, got {other}"),
    }
    assert!(matches!(
        rep.outcomes[2].result,
        Err(FalconError::Cancelled {
            reason: CancelReason::Admission
        })
    ));
    // The queued tenant started strictly after the first finished.
    assert!(rep.outcomes[1].finish > rep.outcomes[0].finish);

    // Under shed-lowest-priority the overflow evicts the least important
    // waiter instead of refusing the newcomer.
    let shed_dir = dir.join("shed");
    std::fs::create_dir_all(&shed_dir).unwrap();
    let mut jobs = tenants(55, 0.0, 0.0, Some(&shed_dir));
    for j in jobs.iter_mut() {
        j.arrival = Duration::ZERO;
    }
    // Priorities are 0,1,2: under shed-lowest-priority with queue cap 1,
    // tenant 1 (prio 1) queues, then tenant 2 (prio 2) evicts it.
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 55,
            threads: 4,
            admission: AdmissionConfig {
                policy: AdmissionPolicy::ShedLowestPriority,
                max_active: 1,
                max_queue: 1,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(rep.outcomes[1].status, TenantStatus::Shed);
    assert_eq!(rep.outcomes[2].status, TenantStatus::Ok);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queue-with-deadline converts overload into deadline cancellations.
#[test]
fn queue_deadline_expires_stalled_waiters() {
    let dir = scratch("qdl");
    let mut jobs = tenants(66, 0.0, 0.0, Some(&dir));
    for j in jobs.iter_mut() {
        j.arrival = Duration::ZERO;
    }
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 66,
            threads: 4,
            admission: AdmissionConfig {
                policy: AdmissionPolicy::QueueWithDeadline,
                max_active: 1,
                max_queue: 0,
                // One virtual second: any queued job expires before the
                // first tenant finishes.
                queue_deadline: Some(Duration::from_secs(1)),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(rep.outcomes[0].status, TenantStatus::Ok);
    // max_queue 0 = unbounded queue, so jobs 1 and 2 queue *without* an
    // overflow deadline... which means they must run clean.
    assert_eq!(rep.outcomes[1].status, TenantStatus::Ok);
    assert_eq!(rep.outcomes[2].status, TenantStatus::Ok);

    // Bound the queue to force overflow admissions under the deadline.
    let dir2 = scratch("qdl2");
    let mut jobs = tenants(66, 0.0, 0.0, Some(&dir2));
    for j in jobs.iter_mut() {
        j.arrival = Duration::ZERO;
    }
    let rep = serve(
        jobs,
        &ServeConfig {
            seed: 66,
            threads: 4,
            admission: AdmissionConfig {
                policy: AdmissionPolicy::QueueWithDeadline,
                max_active: 1,
                max_queue: 1,
                queue_deadline: Some(Duration::from_secs(1)),
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(rep.outcomes[0].status, TenantStatus::Ok);
    assert_eq!(rep.outcomes[1].status, TenantStatus::Ok, "plain queued");
    // Tenant 2 was admitted past the bound under a 1-second queue
    // deadline it cannot meet.
    assert_eq!(rep.outcomes[2].status, TenantStatus::Deadline);
    match rep.outcomes[2].service_error.as_ref().unwrap() {
        ServeError::DeadlineExceeded { tenant, .. } => assert_eq!(tenant, "tenant-2"),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

// ---------------------------------------------------------------------
// Elastic pool
// ---------------------------------------------------------------------

/// Node loss mid-run slows the service down but changes no tenant's
/// bytes, at every thread count; a later node join speeds it back up.
#[test]
fn pool_shrink_changes_latency_not_bytes() {
    let dir = scratch("elastic");
    let stable = serve(
        tenants(77, 0.0, 0.0, Some(&dir.join("a"))),
        &ServeConfig {
            seed: 77,
            threads: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut prints = Vec::new();
    for threads in [1usize, 4, 8] {
        let d = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&d).unwrap();
        let rep = serve(
            tenants(77, 0.0, 0.0, Some(&d)),
            &ServeConfig {
                seed: 77,
                threads,
                pool_events: vec![
                    PoolEvent {
                        at: Duration::from_secs(30),
                        delta: -8,
                    },
                    PoolEvent {
                        at: Duration::from_secs(4000),
                        delta: 6,
                    },
                ],
                degraded: falcon_serve::DegradedPolicy {
                    threshold: 0.5,
                    masked_node_cap: 1,
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for (i, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(o.status, TenantStatus::Ok, "tenant {i} (threads={threads})");
            // Bytes identical to the stable-pool run: capacity only moves
            // virtual time.
            let stable_r = stable.outcomes[i].result.as_ref().unwrap();
            let r = o.result.as_ref().unwrap();
            assert_eq!(r.matches, stable_r.matches, "tenant {i}");
            assert_eq!(r.ledger, stable_r.ledger, "tenant {i}");
        }
        assert!(
            rep.makespan >= stable.makespan,
            "losing 8 of 10 nodes cannot speed the service up"
        );
        prints.push(serve_fingerprint(&rep));
    }
    assert_eq!(prints[0], prints[1]);
    assert_eq!(prints[1], prints[2]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------

/// When the scheduler fails mid-run (journal divergence here), every
/// parked tenant is unparked with a typed shutdown and joined — the
/// service returns instead of hanging — at 1, 4 and 8 threads.
#[test]
fn scheduler_failure_unparks_all_tenants() {
    for threads in [1usize, 4, 8] {
        let dir = scratch(&format!("shutdown_{threads}"));
        let cfg = ServeConfig {
            seed: 88,
            threads,
            journal: Some(dir.join("service.journal")),
            ..ServeConfig::default()
        };
        serve(tenants(88, 0.0, 0.0, Some(&dir)), &cfg).unwrap();

        // Same service journal, different tenant crowd seeds: the
        // schedule diverges while tenants are live and parked.
        let alt_dir = dir.join("alt");
        std::fs::create_dir_all(&alt_dir).unwrap();
        // Same names/arrivals/priorities (so the admission prefix still
        // matches and the run reaches the round loop) but different data
        // and crowd seeds: the schedule must diverge mid-run.
        let alt_jobs = tenants(89, 0.0, 0.0, Some(&alt_dir));
        #[expect(
            clippy::disallowed_methods,
            reason = "a hang is caught by bounding the real wall time"
        )]
        let started = std::time::Instant::now();
        match resume(alt_jobs, &cfg) {
            Err(ServeError::ServiceJournal { .. }) => {}
            other => panic!("expected divergence, got {other:?}"),
        }
        // All tenant threads were joined: if any were left parked the
        // process would still hold their channels; nothing to observe
        // directly, but the return itself (with every thread joined in
        // shutdown_tenants) is the contract — bound it in wall time.
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "shutdown took pathologically long at {threads} threads"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
