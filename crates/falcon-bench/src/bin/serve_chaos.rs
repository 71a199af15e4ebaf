//! Chaos-matrix benchmark for the fault-tolerant service: sweep
//! {policy × kill round × crowd loss × pool shrink}, and for every cell
//! kill the service after the chosen round, resume it, and assert the
//! resume-identity contract (byte-identical reports, service journal and
//! crowd journals; zero re-asked crowd questions). Also measures the
//! degraded-mode cost of losing half the pool mid-run.
//!
//! ```text
//! cargo run --release -p falcon-bench --bin serve_chaos -- \
//!     [--tenants 4] [--threads 8] [--nodes 10] [--scale 1.0] [--seed 1]
//! ```

use falcon::crowd::sim::UnreliableCrowd;
use falcon::prelude::*;
use falcon::serve::chaos::{run_cell, sweep, CellOutcome, ChaosCell};
use falcon::serve::{DegradedPolicy, PoolEvent};
use falcon_bench::{title, Args};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

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

/// Fresh identically-seeded tenants; per-run crowd journals under `dir`.
fn make_jobs(tenants: usize, seed: u64, scale: f64, cell: &ChaosCell, dir: &Path) -> Vec<JobSpec> {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("scratch dir: {e}"));
    (0..tenants as u64)
        .map(|i| {
            let d = falcon::datagen::generate("products", 0.015 * scale, seed.wrapping_add(i));
            let truth = GroundTruth::new(d.truth.iter().copied());
            let base = RandomWorkerCrowd::new(truth, 0.05, seed.wrapping_mul(17).wrapping_add(i));
            let crowd: Arc<dyn falcon::crowd::Crowd> = if cell.crowd_loss > 0.0 {
                Arc::new(UnreliableCrowd::new(base, cell.crowd_loss, seed ^ (i + 9)))
            } else {
                Arc::new(base)
            };
            let mut config = em_config(seed.wrapping_mul(31).wrapping_add(i));
            if cell.fault_rate > 0.0 && i == 0 {
                config.fault =
                    Some(FaultPlan::seeded(seed ^ 0xfa).with_failure_rate(cell.fault_rate));
            }
            JobSpec::new(format!("tenant-{i}"), d.a, d.b, config, crowd)
                .with_priority(i as i32)
                .with_arrival(Duration::from_secs(i * 60))
                .with_journal(dir.join(format!("tenant-{i}.crowd.journal")))
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let tenants: usize = args.get("tenants", 4);
    let threads: usize = args.get("threads", 8);
    let nodes: usize = args.get("nodes", 10);
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 1);

    let scratch = std::env::temp_dir().join(format!("falcon_chaos_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let cells = sweep(
        &[Policy::FairShare, Policy::Priority],
        &[1, 3],
        &[0.0],
        &[0.0, 0.25],
        &[0.0, 0.5],
        &[threads],
    );
    title(&format!(
        "Chaos matrix: {} cells ({} tenants, {nodes}-node pool, kill+resume each)",
        cells.len(),
        tenants
    ));

    let base = ServeConfig {
        pool_nodes: nodes,
        seed,
        degraded: DegradedPolicy {
            threshold: 0.5,
            masked_node_cap: 1,
        },
        ..ServeConfig::default()
    };

    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for cell in &cells {
        let out = run_cell(cell, &base, &scratch, |c, d| {
            make_jobs(tenants, seed, scale, c, d)
        })
        .unwrap_or_else(|e| panic!("cell {} failed: {e}", cell.label()));
        println!(
            "{:<28} identical={} reasked={:+} replayed={:>2} rounds, recovery {:.2}x wall",
            out.cell,
            out.holds(),
            (out.killed_live_questions + out.resumed_live_questions) as i64
                - out.ref_live_questions as i64,
            out.replayed_rounds,
            out.recovery_overhead(),
        );
        assert!(
            out.holds(),
            "cell {} violated resume identity: {:?}",
            out.cell,
            out.mismatch
        );
        outcomes.push(out);
    }
    println!("all {} cells hold resume identity", outcomes.len());

    // Degraded-mode cost: the same workload on a stable pool versus one
    // that loses half its nodes mid-run. Identity of the reports is
    // pinned by the tests; here we price the slowdown.
    let calm_cell = cells[0];
    let full_dir = scratch.join("degraded-full");
    let full = falcon::serve::serve(
        make_jobs(tenants, seed, scale, &calm_cell, &full_dir),
        &ServeConfig {
            threads,
            ..base.clone()
        },
    )
    .unwrap_or_else(|e| panic!("full-pool run failed: {e}"));
    let shrunk_dir = scratch.join("degraded-shrunk");
    let shrunk = falcon::serve::serve(
        make_jobs(tenants, seed, scale, &calm_cell, &shrunk_dir),
        &ServeConfig {
            threads,
            pool_events: vec![PoolEvent {
                at: Duration::from_secs(60),
                delta: -(nodes as i64 / 2),
            }],
            ..base.clone()
        },
    )
    .unwrap_or_else(|e| panic!("shrunken-pool run failed: {e}"));
    let slowdown = shrunk.makespan.as_secs_f64() / full.makespan.as_secs_f64().max(1e-9);
    println!(
        "degraded mode: full pool {:.0}s vs half pool {:.0}s makespan ({slowdown:.2}x)",
        full.makespan.as_secs_f64(),
        shrunk.makespan.as_secs_f64()
    );
    assert!(
        slowdown >= 1.0,
        "losing half the pool cannot speed the service up"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
