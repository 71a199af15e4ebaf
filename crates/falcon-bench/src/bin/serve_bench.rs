//! Multi-tenant serving benchmark: hundreds of concurrent EM jobs on one
//! shared node pool versus running them serially, at a crowd-latency-
//! dominated setting. Prints aggregate throughput, p50/p99 job latency
//! and cluster utilization for both modes, and asserts in-bench that every
//! tenant's match set is bit-identical to a solo run of the same job.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin serve_bench -- \
//!     [--jobs 200] [--templates 8] [--latency 900] [--threads 8] \
//!     [--nodes 10] [--policy fair] [--error 0.05] [--scale 1.0] [--seed 1]
//! ```

use falcon::prelude::*;
use falcon::serve::match_digest;
use falcon_bench::{fmt_dur, title, Args};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's per-tenant driver configuration: small simulated
/// cluster per tenant, sample sized to the tiny bench tables.
fn em_config(seed: u64) -> FalconConfig {
    FalconConfig {
        sample_size: 200,
        sample_fanout: 20,
        cluster: ClusterConfig::small(4),
        force_plan: Some(PlanKind::BlockAndMatch),
        seed,
        ..FalconConfig::default()
    }
}

/// One job template: dataset + seeds. Tenants are stamped out of
/// templates so the bench can check bit-identity against one solo run
/// per template instead of one per tenant.
struct Template {
    data_seed: u64,
    crowd_seed: u64,
    em_seed: u64,
    scale: f64,
}

impl Template {
    fn job(&self, name: String, latency: Duration, error: f64) -> JobSpec {
        let d = falcon::datagen::generate("products", 0.02 * self.scale, self.data_seed);
        let truth = GroundTruth::new(d.truth.iter().copied());
        let crowd = RandomWorkerCrowd::new(truth, error, self.crowd_seed).with_latency(latency);
        JobSpec::new(name, d.a, d.b, em_config(self.em_seed), Arc::new(crowd))
    }
}

fn main() {
    let args = Args::parse();
    let jobs_n: usize = args.get("jobs", 200);
    let templates_n: usize = args.get("templates", 8);
    let latency = Duration::from_secs_f64(args.get("latency", 900.0));
    let error: f64 = args.get("error", 0.05);
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 1);
    let threads: usize = args.get("threads", 8);
    let nodes: usize = args.get("nodes", 10);
    let policy_name: String = args.get("policy", "fair".to_string());
    let policy = Policy::parse(&policy_name).unwrap_or(Policy::FairShare);

    let templates: Vec<Template> = (0..templates_n as u64)
        .map(|i| Template {
            data_seed: seed.wrapping_add(i),
            crowd_seed: seed.wrapping_mul(17).wrapping_add(i),
            em_seed: seed.wrapping_mul(31).wrapping_add(i),
            scale,
        })
        .collect();

    title(&format!(
        "Multi-tenant serving: {jobs_n} jobs ({templates_n} templates), \
         {nodes}-node pool, {policy_name} policy, crowd latency {}",
        fmt_dur(latency)
    ));

    // Solo references: one ungated run per template.
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench reports real wall time beside virtual time"
    )]
    let wall = Instant::now();
    let solo: Vec<Vec<(u32, u32)>> = templates
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let report = t
                .job(format!("solo-{i}"), latency, error)
                .run_solo()
                .unwrap_or_else(|e| panic!("solo run {i} failed: {e}"));
            report.matches
        })
        .collect();
    println!(
        "solo references: {} runs, {} total matches, {:.1}s wall",
        templates.len(),
        solo.iter().map(Vec::len).sum::<usize>(),
        wall.elapsed().as_secs_f64()
    );

    // The shared-pool run: jobs_n tenants round-robined over templates.
    let jobs: Vec<JobSpec> = (0..jobs_n)
        .map(|i| templates[i % templates_n].job(format!("tenant-{i}"), latency, error))
        .collect();
    let cfg = ServeConfig {
        pool_nodes: nodes,
        threads,
        policy,
        seed,
        ..ServeConfig::default()
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the bench reports real wall time beside virtual time"
    )]
    let wall_serve = Instant::now();
    let rep = falcon::serve::serve(jobs, &cfg).unwrap_or_else(|e| panic!("service failed: {e}"));
    let serve_wall = wall_serve.elapsed();

    // Load-bearing assertion: every tenant's match set is bit-identical
    // to its template's solo run — sharing the pool changed nothing.
    for (i, o) in rep.outcomes.iter().enumerate() {
        let report = o
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("tenant {i} failed: {e}"));
        let reference = &solo[i % templates_n];
        assert_eq!(
            match_digest(&report.matches),
            match_digest(reference),
            "tenant {i} diverged from its solo run"
        );
        assert_eq!(&report.matches, reference);
    }
    println!(
        "all {} tenants bit-identical to solo runs",
        rep.outcomes.len()
    );

    let speedup = rep.throughput_speedup();
    println!(
        "shared: makespan {} | utilization {:.1}% | p50 {} | p99 {}",
        fmt_dur(rep.makespan),
        rep.utilization * 100.0,
        fmt_dur(rep.latency_percentile(50.0)),
        fmt_dur(rep.latency_percentile(99.0)),
    );
    println!(
        "serial: makespan {} | utilization {:.1}% | p50 {} | p99 {}",
        fmt_dur(rep.serial_makespan),
        rep.serial_utilization * 100.0,
        fmt_dur(rep.serial_latency_percentile(50.0)),
        fmt_dur(rep.serial_latency_percentile(99.0)),
    );
    println!(
        "aggregate throughput: {speedup:.2}x over serial ({} scheduler rounds, {:.1}s wall)",
        rep.rounds,
        serve_wall.as_secs_f64()
    );
    assert!(
        speedup >= 2.0,
        "expected >=2x aggregate throughput, measured {speedup:.2}x"
    );
}
