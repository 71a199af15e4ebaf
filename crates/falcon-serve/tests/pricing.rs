//! One stage price: the service prices a tenant's machine stage with the
//! solo driver's price — `TaskShape::price` of the stage's tasks — on
//! the tenant's own cluster config and the nodes it grants. A lone tenant
//! on a pool of its own node count is therefore charged what its solo
//! timeline records, stage by stage; and two tenants on different
//! clusters are each charged by their own.

mod common;

use common::scratch;
use falcon_core::driver::FalconConfig;
use falcon_core::plan::PlanKind;
use falcon_core::stage::{StageControl, StageCost, StageEvent, StageGate};
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd};
use falcon_dataflow::{ClusterConfig, FaultPlan};
use falcon_datagen::EmDataset;
use falcon_serve::{serve, JobSpec, ServeConfig};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One `p` line of a service journal.
struct Placement {
    tenant: usize,
    seq: usize,
    dur: u64,
    start: u64,
    end: u64,
    nodes: usize,
}

/// Every `p` line of the service journal at `path`:
/// `p <tenant> <seq> <m|k> <label> <dur_ns> <tasks> <records> <start> <end> <nodes>`.
fn placements(path: &Path) -> Vec<Placement> {
    let text = std::fs::read_to_string(path).unwrap();
    let lines = text.lines().filter(|l| l.starts_with("p "));
    lines
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 11, "{line}");
            let n = |i: usize| f[i].parse::<u64>().unwrap();
            Placement {
                tenant: n(1) as usize,
                seq: n(2) as usize,
                dur: n(5),
                start: n(8),
                end: n(9),
                nodes: n(10) as usize,
            }
        })
        .collect()
}

fn config(cluster: ClusterConfig, fault: Option<FaultPlan>) -> FalconConfig {
    FalconConfig {
        cluster,
        sample_size: 2_000,
        sample_fanout: 20,
        force_plan: Some(PlanKind::BlockAndMatch),
        fault,
        ..FalconConfig::default()
    }
}

/// A job over `d` with a fresh crowd, so every run starts from the same
/// crowd state.
fn job(name: &str, d: &EmDataset, config: FalconConfig) -> JobSpec {
    let crowd = RandomWorkerCrowd::new(GroundTruth::new(d.truth.iter().copied()), 0.05, 8);
    JobSpec::new(name, d.a.clone(), d.b.clone(), config, Arc::new(crowd))
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap()
}

#[test]
fn one_tenant_serve_prices_like_solo() {
    let datasets = [
        ("products", falcon_datagen::generate("products", 0.015, 1)),
        ("songs", falcon_datagen::generate("songs", 0.001, 5)),
        (
            "citations",
            falcon_datagen::generate("citations", 0.0008, 5),
        ),
    ];
    let faulty = FaultPlan::seeded(99)
        .with_failure_rate(0.2)
        .with_straggler_rate(0.2)
        .with_max_attempts(8);
    let dir = scratch("one_tenant");
    for (name, d) in &datasets {
        for fault in [None, Some(faulty.clone())] {
            let cluster = ClusterConfig::default();
            let pool_nodes = cluster.nodes;
            let config = config(cluster, fault.clone());
            let solo = job(name, d, config.clone()).run_solo().unwrap();
            assert_eq!(solo.faults.retries > 0, fault.is_some(), "{name}");
            for threads in [1usize, 4, 8] {
                let path = dir.join(format!("{name}-{}-{threads}.journal", fault.is_some()));
                let cfg = ServeConfig {
                    pool_nodes,
                    threads,
                    journal: Some(path.clone()),
                    ..ServeConfig::default()
                };
                let rep = serve(vec![job(name, d, config.clone())], &cfg).unwrap();
                let placed = placements(&path);
                assert!(!placed.is_empty(), "{name}: no machine stage placed");
                for p in &placed {
                    assert_eq!(
                        p.end - p.start,
                        p.dur,
                        "{name} (faults {}, threads {threads}): stage {} priced off its solo price",
                        fault.is_some(),
                        p.seq
                    );
                }
                let finish = rep.outcomes[0].finish.as_secs_f64();
                let solo_total = solo.total_time().as_secs_f64();
                println!(
                    "{name} faults={} threads={threads}: finish − solo total_time = {:.9} s",
                    fault.is_some(),
                    finish - solo_total
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records the cost of every stage a run reports, in program order.
#[derive(Default)]
struct Costs(Mutex<Vec<StageCost>>);

impl StageGate for Costs {
    fn on_stage(&self, _event: StageEvent) -> StageControl {
        unreachable!("the timeline reports every stage with its cost")
    }

    fn on_priced_stage(&self, _event: StageEvent, cost: &StageCost) -> StageControl {
        self.0.lock().unwrap().push(cost.clone());
        StageControl::Continue
    }
}

#[test]
fn each_tenant_is_priced_on_its_own_cluster() {
    let d = falcon_datagen::generate("products", 0.015, 3);
    let clusters = [ClusterConfig::small(4), ClusterConfig::default()];
    let jobs = || -> Vec<JobSpec> {
        (clusters.iter().enumerate())
            .map(|(t, c)| job(&format!("tenant-{t}"), &d, config(c.clone(), None)))
            .collect()
    };
    // Each tenant's stage costs, from a run under a recording gate: the
    // seq-th stage a tenant reports is the seq-th it records.
    let costs: Vec<Vec<StageCost>> = jobs()
        .iter()
        .map(|j| {
            let costs = Arc::new(Costs::default());
            j.run(Some(costs.clone())).unwrap();
            let recorded = costs.0.lock().unwrap().clone();
            recorded
        })
        .collect();
    let dir = scratch("own_cluster");
    let path = dir.join("service.journal");
    let cfg = ServeConfig {
        threads: 2,
        journal: Some(path.clone()),
        ..ServeConfig::default()
    };
    let rep = serve(jobs(), &cfg).unwrap();
    assert!(rep.outcomes.iter().all(|o| o.result.is_ok()));
    let mut charged = [0u64; 2];
    for p in placements(&path) {
        let (cluster, cost) = (&clusters[p.tenant], &costs[p.tenant][p.seq - 1]);
        assert!(
            p.nodes <= cluster.nodes,
            "tenant {} over its nodes",
            p.tenant
        );
        assert_eq!(
            p.end - p.start,
            ns(cost.shape().price(cluster, p.nodes)),
            "tenant {} stage {} on {} nodes",
            p.tenant,
            p.seq,
            p.nodes
        );
        assert_eq!(p.dur, ns(cost.dur()));
        charged[p.tenant] += p.end - p.start;
    }
    assert!(charged.iter().all(|&c| c > 0));
    assert_ne!(charged[0], charged[1], "both tenants charged alike");
    let _ = std::fs::remove_dir_all(&dir);
}
