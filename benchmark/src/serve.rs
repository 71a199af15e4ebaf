//! The multi-tenant workload: tenants stamped out of a few templates, run
//! together through `falcon::serve::serve` on one shared simulated pool,
//! each checked against a solo run of its template.

use crate::alloc::PeakScope;
use crate::outcome::{guarded, Outcome, RunOpts, MIN_REPS};
use crate::pipeline::{self, sorted_digest, CROWD_ERROR};
use crate::stats::{mean, summarize};
use crate::workloads::Serve;
use falcon::prelude::*;
use falcon::serve::TenantStatus;
use falcon::table::IdPair;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve_bench`'s setting: crowd rounds long enough that the crowd, not
/// the machine, dominates each tenant's virtual time.
const CROWD_ROUND: Duration = Duration::from_secs(900);
const POOL_NODES: usize = 10;

/// `serve_bench`'s per-tenant driver configuration.
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

/// One template's tables (read back from its CSV files) and ground truth.
struct Template {
    a: Table,
    b: Table,
    truth: Vec<IdPair>,
    crowd_seed: u64,
    em_seed: u64,
}

impl Template {
    /// A fresh job: simulated crowds advance their RNG as they answer, so
    /// identity comparisons need a new crowd per run.
    fn job(&self, name: String) -> JobSpec {
        let truth = GroundTruth::new(self.truth.iter().copied());
        let crowd =
            RandomWorkerCrowd::new(truth, CROWD_ERROR, self.crowd_seed).with_latency(CROWD_ROUND);
        JobSpec::new(
            name,
            self.a.clone(),
            self.b.clone(),
            em_config(self.em_seed),
            Arc::new(crowd),
        )
    }
}

/// Datagen, CSV files (dialect from `seed`, as for the pipelines) and the
/// tables read back from them, per template; seeds as in `serve_bench`.
fn templates(s: &Serve, opts: &RunOpts, dir: &Path) -> Result<Vec<Template>, String> {
    (0..s.templates as u64)
        .map(|i| {
            let tdir = dir.join(format!("template-{i}"));
            fs::create_dir_all(&tdir).map_err(|e| format!("create {}: {e}", tdir.display()))?;
            let inputs = pipeline::set_up(
                "products",
                s.datagen_scale,
                opts.problem.wrapping_add(i),
                opts.seed.wrapping_add(i),
                &tdir,
            )
            .map_err(|e| format!("set-up template {i}: {e}"))?;
            Ok(Template {
                a: pipeline::read_table(&tdir, "A.csv")?,
                b: pipeline::read_table(&tdir, "B.csv")?,
                truth: inputs.truth,
                crowd_seed: opts.problem.wrapping_mul(17).wrapping_add(i),
                em_seed: opts.problem.wrapping_mul(31).wrapping_add(i),
            })
        })
        .collect()
}

/// One solo run per template: its match digest and its wall seconds.
fn solo_twins(templates: &[Template]) -> Result<Vec<(u64, f64)>, String> {
    templates
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let t0 = Instant::now();
            let report = t
                .job(format!("solo-{i}"))
                .run_solo()
                .map_err(|e| format!("solo run of template {i}: {e}"))?;
            Ok((sorted_digest(&report.matches), t0.elapsed().as_secs_f64()))
        })
        .collect()
}

/// Measure the workload. The same `serve()` calls give the end-to-end
/// samples, the `serve.*` metrics and the work counters, so one loop fills
/// all of them.
pub fn measure(s: &Serve, opts: &RunOpts, dir: &Path, out: &mut Outcome) {
    let threads = crate::nproc();
    let cfg = ServeConfig {
        pool_nodes: POOL_NODES,
        threads,
        policy: Policy::FairShare,
        seed: opts.problem,
        ..ServeConfig::default()
    };
    let jobs_of = |templates: &[Template]| -> Vec<JobSpec> {
        (0..s.tenants)
            .map(|i| templates[i % s.templates].job(format!("tenant-{i}")))
            .collect()
    };
    // Set-up is everything before `serve()` can be called: the templates'
    // files and tables, and one job per tenant.
    let set_up = || templates(s, opts, dir).map(|t| (jobs_of(&t), t));
    let Some((_, templates)) = out.sample_set_up(set_up) else {
        return;
    };
    out.sizes = format!(
        "{} tenants over {} templates of {} x {}",
        s.tenants,
        s.templates,
        templates[0].a.len(),
        templates[0].b.len()
    );
    let solo = match guarded(|| solo_twins(&templates)) {
        Ok(twins) => Some(twins),
        Err(e) => {
            out.fail(e);
            None
        }
    };
    let mut last: Option<ServeReport> = None;
    let (mut done, mut spent) = (0, 0.0);
    while opts.budget.more(done, spent, MIN_REPS) {
        done += 1;
        // `serve` consumes its jobs, and crowds are stateful: fresh ones.
        let jobs = jobs_of(&templates);
        let scope = PeakScope::start();
        let t0 = Instant::now();
        let served =
            guarded(|| falcon::serve::serve(jobs, &cfg).map_err(|e| format!("serve: {e}")));
        let wall_s = t0.elapsed().as_secs_f64();
        let peak = scope.peak_bytes();
        spent += wall_s;
        let rep = match served {
            Ok(rep) => rep,
            Err(e) => {
                // The service itself failed: every tenant of this call did.
                for _ in 0..s.tenants {
                    out.attempt(vec![e.clone()]);
                }
                continue;
            }
        };
        let mut f1s = Vec::new();
        for (i, o) in rep.outcomes.iter().enumerate() {
            let t = i % s.templates;
            let mut problems = Vec::new();
            match &o.result {
                Ok(report) if o.status == TenantStatus::Ok => {
                    f1s.push(report.quality(&templates[t].truth).f1);
                    let twin = solo.as_ref().map(|twins| twins[t].0);
                    if twin.is_some_and(|d| d != sorted_digest(&report.matches)) {
                        problems.push(format!("tenant {i} diverged from its solo run"));
                    }
                }
                Ok(_) => problems.push(format!("tenant {i}: status {}", o.status.as_str())),
                Err(e) => problems.push(format!("tenant {i}: {e}")),
            }
            out.attempt(problems);
        }
        out.sample("wall_s", wall_s);
        out.sample("peak_alloc_bytes", peak as f64);
        out.sample("crowd_dollars", rep.aggregate_ledger().cost);
        out.sample("virtual_total_s", rep.makespan.as_secs_f64());
        out.sample(
            "virtual_unmasked_machine_s",
            rep.outcomes
                .iter()
                .map(|o| o.machine_service.as_secs_f64())
                .sum(),
        );
        out.sample("f1", mean(&f1s));
        last = Some(rep);
    }
    let (Some(rep), Some(solo)) = (last, solo) else {
        return;
    };
    let solo_sum: f64 = (0..s.tenants).map(|i| solo[i % s.templates].1).sum();
    let latencies: Vec<f64> = rep
        .outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64())
        .collect();
    out.layer("serve.rounds", rep.rounds as f64);
    out.layer(
        "serve.stages",
        rep.outcomes.iter().map(|o| o.stages as f64).sum(),
    );
    out.layer("serve.utilization", rep.utilization);
    out.layer(
        "serve.p50_latency_virtual_s",
        rep.latency_percentile(50.0).as_secs_f64(),
    );
    out.layer(
        "serve.max_latency_virtual_s",
        summarize(&latencies).map_or(0.0, |s| s.max),
    );
    out.layer("serve.solo_sum_s", solo_sum);
    out.layer(
        "serve.overhead_ratio",
        summarize(&out.samples["wall_s"]).map_or(0.0, |s| s.min) / solo_sum,
    );
    out.counters(rep.outcomes.iter().filter_map(|o| o.result.as_ref().ok()));
}
