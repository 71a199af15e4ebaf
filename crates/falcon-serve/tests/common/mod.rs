//! The job factories the falcon-serve integration suites share: the EM
//! config every tenant runs, the three-tenant products workload, and a
//! tenant whose driver fails on empty tables.
#![allow(dead_code)]

use falcon_core::driver::FalconConfig;
use falcon_core::plan::PlanKind;
use falcon_crowd::sim::{GroundTruth, RandomWorkerCrowd, UnreliableCrowd};
use falcon_crowd::Crowd;
use falcon_dataflow::{ClusterConfig, FaultPlan};
use falcon_serve::JobSpec;
use falcon_table::{AttrType, Schema, Table, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub fn em_config(seed: u64) -> FalconConfig {
    FalconConfig {
        sample_size: 200,
        sample_fanout: 20,
        cluster: ClusterConfig::small(4),
        force_plan: Some(PlanKind::BlockAndMatch),
        seed,
        ..FalconConfig::default()
    }
}

/// A fresh, empty scratch directory for one test.
pub fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("falcon_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Three tenants over products at data seeds `seed + i`, with priority
/// `i` and arrival `60·i` s. Tenant 0 runs under a machine fault plan at
/// `fault_rate`, tenant 1 behind a crowd losing `crowd_loss` of its
/// answers; with `dir`, each journals its crowd answers there. Crowds are
/// built fresh per call, so every call starts from the same RNG state.
pub fn tenants(seed: u64, fault_rate: f64, crowd_loss: f64, dir: Option<&Path>) -> Vec<JobSpec> {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).unwrap();
    }
    (0..3u64)
        .map(|i| {
            let data = falcon_datagen::generate("products", 0.015, seed.wrapping_add(i));
            let truth = GroundTruth::new(data.truth.iter().copied());
            let base = RandomWorkerCrowd::new(truth, 0.05, seed ^ (i + 1));
            let crowd: Arc<dyn Crowd> = if crowd_loss > 0.0 && i == 1 {
                Arc::new(UnreliableCrowd::new(base, crowd_loss, seed ^ 0x5a))
            } else {
                Arc::new(base)
            };
            let mut config = em_config(seed.wrapping_mul(31).wrapping_add(i));
            if fault_rate > 0.0 && i == 0 {
                config.fault = Some(FaultPlan::seeded(seed ^ 0xfa).with_failure_rate(fault_rate));
            }
            let job = JobSpec::new(format!("tenant-{i}"), data.a, data.b, config, crowd)
                .with_priority(i as i32)
                .with_arrival(Duration::from_secs(i * 60));
            match dir {
                Some(dir) => job.with_journal(dir.join(format!("tenant-{i}.crowd.journal"))),
                None => job,
            }
        })
        .collect()
}

/// A tenant named `broken` over empty tables: its driver fails plan
/// analysis, so the service quarantines it.
pub fn broken_job() -> JobSpec {
    let schema = Schema::new([("title", AttrType::Str)]);
    let empty_a = Table::new("a", schema.clone(), Vec::<Vec<Value>>::new());
    let empty_b = Table::new("b", schema, Vec::<Vec<Value>>::new());
    let crowd = Arc::new(RandomWorkerCrowd::new(GroundTruth::new([]), 0.0, 1));
    JobSpec::new("broken", empty_a, empty_b, em_config(1), crowd)
}
