//! Frozen service runs: the three-tenant products workload under each
//! policy, each admission overflow policy, a job deadline, both quota
//! kinds, a quarantined tenant, a pool that shrinks then grows in
//! degraded mode, and a kill after round 2 followed by `resume` — every
//! run journaled, each at `threads` 1 and 4. Both thread counts must
//! render the same block, and the blocks must equal `goldens/serve.txt`:
//! the service journal's length and digest, the round counters, the
//! `serve_fingerprint`, the serial baseline, and each tenant's status and
//! service error.
//!
//! The golden file was recorded at `6b26756`, before the scheduler's
//! policy moved out of `serve()` into a thread-free core, so it pins the
//! same schedule — decision for decision, in the same order — without
//! keeping the old loop alive. To re-record after an intended change,
//! empty the file and run this test: it fails printing the full
//! replacement content.

mod common;

use common::{broken_job, scratch, tenants};
use falcon_serve::{
    resume, serve, serve_fingerprint, AdmissionConfig, AdmissionPolicy, DegradedPolicy, JobSpec,
    Policy, PoolEvent, ServeConfig, ServeReport, TenantQuota,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

const GOLDEN: &str = include_str!("goldens/serve.txt");
const SEED: u64 = 7;

/// How a scenario bends the three-tenant workload.
#[derive(Clone, Copy)]
enum Jobs {
    /// Arrivals 0 / 60 / 120 s.
    Staggered,
    /// Everyone at 0 s, so admission order is submission order.
    AllAtZero,
    /// Tenant 0 must finish within 300 virtual seconds of arriving.
    Deadline,
    /// Tenant 0 replaced by a driver that fails on empty tables.
    Broken,
}

fn jobs(shape: Jobs, dir: &Path) -> Vec<JobSpec> {
    let mut jobs = tenants(SEED, 0.0, 0.0, Some(dir));
    match shape {
        Jobs::Staggered => {}
        Jobs::AllAtZero => jobs.iter_mut().for_each(|j| j.arrival = Duration::ZERO),
        Jobs::Deadline => jobs[0].deadline = Some(Duration::from_secs(300)),
        Jobs::Broken => jobs[0] = broken_job(),
    }
    jobs
}

struct Scenario {
    name: &'static str,
    jobs: Jobs,
    cfg: ServeConfig,
    /// Kill after this round, then resume over the same journals.
    kill: Option<u64>,
}

fn scenario(name: &'static str, jobs: Jobs, cfg: ServeConfig) -> Scenario {
    Scenario {
        name,
        jobs,
        cfg,
        kill: None,
    }
}

fn admission(policy: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            policy,
            max_active: 1,
            max_queue: 1,
            queue_deadline: Some(Duration::from_secs(1)),
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn quota(quota: TenantQuota) -> ServeConfig {
    ServeConfig {
        admission: AdmissionConfig {
            quota,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn scenarios() -> Vec<Scenario> {
    let policy = |policy| ServeConfig {
        policy,
        seed: SEED,
        ..ServeConfig::default()
    };
    vec![
        scenario("policy-fifo", Jobs::Staggered, policy(Policy::Fifo)),
        scenario("policy-fair", Jobs::Staggered, policy(Policy::FairShare)),
        scenario("policy-priority", Jobs::Staggered, policy(Policy::Priority)),
        scenario("policy-random", Jobs::Staggered, policy(Policy::Random)),
        scenario(
            "admission-reject",
            Jobs::AllAtZero,
            admission(AdmissionPolicy::Reject),
        ),
        scenario(
            "admission-shed",
            Jobs::AllAtZero,
            admission(AdmissionPolicy::ShedLowestPriority),
        ),
        scenario(
            "admission-queue-deadline",
            Jobs::AllAtZero,
            admission(AdmissionPolicy::QueueWithDeadline),
        ),
        scenario("job-deadline", Jobs::Deadline, ServeConfig::default()),
        scenario(
            "quota-stages",
            Jobs::Staggered,
            quota(TenantQuota {
                max_stages: Some(8),
                node_seconds: None,
            }),
        ),
        scenario(
            "quota-node-seconds",
            Jobs::Staggered,
            quota(TenantQuota {
                max_stages: None,
                node_seconds: Some(Duration::from_secs(4)),
            }),
        ),
        scenario("quarantine", Jobs::Broken, ServeConfig::default()),
        scenario(
            "pool-shrink-grow",
            Jobs::Staggered,
            ServeConfig {
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
                degraded: DegradedPolicy {
                    threshold: 0.5,
                    masked_node_cap: 1,
                },
                ..ServeConfig::default()
            },
        ),
        Scenario {
            kill: Some(2),
            ..scenario("kill-resume", Jobs::Staggered, ServeConfig::default())
        },
    ]
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything deterministic about a served run, one fact per line.
fn render(name: &str, rep: &ServeReport, journal: &[u8]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "{name} journal bytes={} digest={:016x}",
        journal.len(),
        fnv_bytes(journal)
    )
    .unwrap();
    writeln!(
        s,
        "{name} rounds={} replayed={} killed={:?}",
        rep.rounds, rep.replayed_rounds, rep.killed_at_round
    )
    .unwrap();
    let fingerprint = format!("{:?}", serve_fingerprint(rep));
    writeln!(
        s,
        "{name} fingerprint={:016x}",
        fnv_bytes(fingerprint.as_bytes())
    )
    .unwrap();
    let latencies: Vec<u128> = rep.serial_latencies.iter().map(|d| d.as_nanos()).collect();
    writeln!(
        s,
        "{name} serial makespan={} latencies={latencies:?} utilization={:016x} serial_utilization={:016x}",
        rep.serial_makespan.as_nanos(),
        rep.utilization.to_bits(),
        rep.serial_utilization.to_bits(),
    )
    .unwrap();
    for o in &rep.outcomes {
        let error = o.service_error.as_ref().map(|e| e.to_string());
        writeln!(
            s,
            "{name} tenant {} {} {}",
            o.name,
            o.status.as_str(),
            error.as_deref().unwrap_or("-")
        )
        .unwrap();
    }
    s
}

fn run(s: &Scenario, threads: usize) -> String {
    let dir = scratch(&format!("golden_{}_{threads}", s.name));
    let journal = dir.join("service.journal");
    let cfg = ServeConfig {
        threads,
        journal: Some(journal.clone()),
        kill_after_rounds: s.kill,
        ..s.cfg.clone()
    };
    let mut out = String::new();
    let mut rep = serve(jobs(s.jobs, &dir), &cfg).unwrap();
    if s.kill.is_some() {
        writeln!(
            out,
            "{} killed rounds={} killed={:?}",
            s.name, rep.rounds, rep.killed_at_round
        )
        .unwrap();
        rep = resume(jobs(s.jobs, &dir), &cfg).unwrap();
    }
    out.push_str(&render(s.name, &rep, &std::fs::read(&journal).unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn served_runs_match_the_recorded_goldens() {
    let mut recorded = String::new();
    for s in scenarios() {
        let one = run(&s, 1);
        assert_eq!(run(&s, 4), one, "{}: threads 4 vs 1", s.name);
        recorded.push_str(&one);
    }
    let differs = (recorded.lines().zip(GOLDEN.lines())).position(|(r, g)| r != g);
    assert!(
        recorded == GOLDEN,
        "runs differ from goldens/serve.txt (first differing line: {differs:?}); full replacement:\n{recorded}"
    );
}
