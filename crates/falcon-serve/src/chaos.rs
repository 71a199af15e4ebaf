//! Chaos-matrix harness: kill the service at a chosen round, resume it,
//! and prove nothing changed.
//!
//! A cell of the matrix fixes {kill point × machine fault rate × crowd
//! loss × pool shrink × policy × threads}. [`run_cell`] then runs the
//! same workload three times:
//!
//! 1. **reference** — uninterrupted, journaled;
//! 2. **killed** — identical config plus
//!    [`ServeConfig::kill_after_rounds`], simulating a crash right after
//!    the journal committed that round;
//! 3. **resumed** — [`resume`] over the killed run's journals.
//!
//! and asserts the *resume-identity* contract:
//!
//! * the resumed [`serve_fingerprint`] equals the reference's (per-tenant
//!   reports, statuses, aggregate ledger, makespan — everything);
//! * the resumed service journal is byte-identical to the reference's;
//! * every per-tenant crowd journal is byte-identical to the reference's;
//! * `killed live questions + resumed live questions == reference live
//!   questions` — the crash/resume cycle re-asked the crowd **zero**
//!   questions.
//!
//! Workloads are supplied as a *factory* taking the cell and a scratch
//! directory: simulated crowds advance their RNGs as they answer, so each
//! of the three runs needs fresh crowds with identical seeds, and each
//! needs its crash journals in its own directory. Live crowd draws are
//! counted by transparently wrapping each job's crowd in a
//! [`CountingCrowd`].

use crate::error::ServeError;
use crate::job::JobSpec;
use crate::sched::{resume, serve, Policy, PoolEvent, ServeConfig, ServeReport};
use crate::serve_fingerprint;
use falcon_crowd::Crowd;
use falcon_table::IdPair;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time at which a cell's pool-shrink event fires.
pub const SHRINK_AT: Duration = Duration::from_secs(60);

/// One cell of the chaos matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosCell {
    /// Placement policy under test.
    pub policy: Policy,
    /// Round after which the service "crashes" (journal committed, grants
    /// never delivered).
    pub kill_round: u64,
    /// Machine-side fault-injection rate the factory should configure.
    pub fault_rate: f64,
    /// Crowd answer-loss rate the factory should configure.
    pub crowd_loss: f64,
    /// Fraction of the pool lost at [`SHRINK_AT`] (`0.0` = stable pool).
    pub pool_shrink: f64,
    /// Scheduler thread count.
    pub threads: usize,
}

impl ChaosCell {
    /// Stable cell label, used for scratch-directory names and reports.
    pub fn label(&self) -> String {
        let policy = match self.policy {
            Policy::Fifo => "fifo",
            Policy::FairShare => "fair",
            Policy::Priority => "prio",
            Policy::Random => "rand",
        };
        format!(
            "{policy}-k{}-f{:03}-l{:03}-s{:03}-t{}",
            self.kill_round,
            (self.fault_rate * 100.0).round() as u32,
            (self.crowd_loss * 100.0).round() as u32,
            (self.pool_shrink * 100.0).round() as u32,
            self.threads
        )
    }
}

/// Cartesian sweep over the matrix axes, in deterministic order.
pub fn sweep(
    policies: &[Policy],
    kill_rounds: &[u64],
    fault_rates: &[f64],
    crowd_losses: &[f64],
    pool_shrinks: &[f64],
    threads: &[usize],
) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for &policy in policies {
        for &kill_round in kill_rounds {
            for &fault_rate in fault_rates {
                for &crowd_loss in crowd_losses {
                    for &pool_shrink in pool_shrinks {
                        for &t in threads {
                            cells.push(ChaosCell {
                                policy,
                                kill_round,
                                fault_rate,
                                crowd_loss,
                                pool_shrink,
                                threads: t,
                            });
                        }
                    }
                }
            }
        }
    }
    cells
}

/// A [`Crowd`] wrapper counting **live** draws (`try_answer` calls).
/// Journal replay goes through [`Crowd::fast_forward`] and is not
/// counted — which is exactly what makes the counter the right witness
/// for the zero-re-asked-questions assertion.
pub struct CountingCrowd {
    inner: Arc<dyn Crowd>,
    live: Arc<AtomicUsize>,
}

impl CountingCrowd {
    /// Wrap `inner`, accumulating live draws into `live`.
    pub fn new(inner: Arc<dyn Crowd>, live: Arc<AtomicUsize>) -> Self {
        Self { inner, live }
    }
}

impl Crowd for CountingCrowd {
    fn answer(&self, pair: IdPair) -> bool {
        self.live.fetch_add(1, Ordering::Relaxed);
        self.inner.answer(pair)
    }
    fn try_answer(&self, pair: IdPair) -> Option<bool> {
        self.live.fetch_add(1, Ordering::Relaxed);
        self.inner.try_answer(pair)
    }
    fn fast_forward(&self, draws: usize) {
        self.inner.fast_forward(draws);
    }
    fn latency_per_round(&self) -> Duration {
        self.inner.latency_per_round()
    }
    fn cost_per_answer(&self) -> f64 {
        self.inner.cost_per_answer()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What one kill/resume cell proved and measured.
#[derive(Debug)]
pub struct CellOutcome {
    /// Cell label.
    pub cell: String,
    /// Resumed fingerprint equals the reference fingerprint.
    pub resume_identical: bool,
    /// First differing fingerprint key, when not identical.
    pub mismatch: Option<String>,
    /// Resumed service-journal bytes equal the reference's.
    pub service_journal_identical: bool,
    /// Every per-tenant crowd journal is byte-identical to the reference.
    pub crowd_journals_identical: bool,
    /// Live crowd draws of the reference run.
    pub ref_live_questions: usize,
    /// Live draws before the kill.
    pub killed_live_questions: usize,
    /// Live draws after resume.
    pub resumed_live_questions: usize,
    /// Rounds the resumed run verified against the journal.
    pub replayed_rounds: u64,
    /// Round the killed run stopped at.
    pub killed_at_round: Option<u64>,
    /// Wall-clock time of the reference run.
    pub ref_wall: Duration,
    /// Wall-clock time of the killed run.
    pub kill_wall: Duration,
    /// Wall-clock time of the resumed run (replay + live tail).
    pub resume_wall: Duration,
    /// The reference report (virtual makespan, utilization, …).
    pub ref_report: ServeReport,
    /// The resumed report.
    pub resumed_report: ServeReport,
}

impl CellOutcome {
    /// Did every resume-identity assertion hold?
    pub fn holds(&self) -> bool {
        self.resume_identical
            && self.service_journal_identical
            && self.crowd_journals_identical
            && self.zero_reasked()
    }

    /// `killed + resumed == reference` live draws: no crowd question was
    /// ever asked twice.
    pub fn zero_reasked(&self) -> bool {
        self.killed_live_questions + self.resumed_live_questions == self.ref_live_questions
    }

    /// Wall-clock cost of crashing and recovering, relative to running
    /// uninterrupted: `(kill + resume) / reference`.
    pub fn recovery_overhead(&self) -> f64 {
        let base = self.ref_wall.as_secs_f64();
        if base == 0.0 {
            return 1.0;
        }
        (self.kill_wall + self.resume_wall).as_secs_f64() / base
    }
}

/// Wrap every job's crowd in a [`CountingCrowd`] feeding one shared
/// counter, returning the counter.
fn attach_counter(jobs: &mut [JobSpec]) -> Arc<AtomicUsize> {
    let live = Arc::new(AtomicUsize::new(0));
    for job in jobs {
        job.crowd = Arc::new(CountingCrowd::new(job.crowd.clone(), live.clone()));
    }
    live
}

fn fresh_dir(dir: &Path) -> Result<(), ServeError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| ServeError::service_journal(0, format!("chaos scratch dir: {e}")))
}

fn read_bytes(path: &Path) -> Result<Vec<u8>, ServeError> {
    std::fs::read(path)
        .map_err(|e| ServeError::service_journal(0, format!("chaos journal read: {e}")))
}

/// What one run of a cell left behind: its report, live crowd draws,
/// wall time and per-tenant crowd journals.
struct Leg {
    report: ServeReport,
    live: usize,
    wall: Duration,
    crowd_journals: Vec<PathBuf>,
}

/// Run `jobs` through `run` (serve or resume), counting their live crowd
/// draws.
fn leg(
    mut jobs: Vec<JobSpec>,
    cfg: &ServeConfig,
    run: fn(Vec<JobSpec>, &ServeConfig) -> Result<ServeReport, ServeError>,
) -> Result<Leg, ServeError> {
    let crowd_journals = jobs.iter().filter_map(|j| j.journal.clone()).collect();
    let live = attach_counter(&mut jobs);
    #[expect(
        clippy::disallowed_methods,
        reason = "recovery overhead prices the harness's own replay cost, not simulated time"
    )]
    let t0 = Instant::now();
    let report = run(jobs, cfg)?;
    Ok(Leg {
        report,
        live: live.load(Ordering::Relaxed),
        wall: t0.elapsed(),
        crowd_journals,
    })
}

/// Run one kill/resume cell. `make_jobs(cell, dir)` must return a fresh,
/// identically-seeded workload whose per-tenant crash journals (if any)
/// live under `dir`; it is called once for the reference run and once for
/// each of the kill/resume pair. `base` supplies the pool shape; the
/// cell's policy, threads and pool shrink are overlaid on it.
pub fn run_cell<F>(
    cell: &ChaosCell,
    base: &ServeConfig,
    scratch: &Path,
    make_jobs: F,
) -> Result<CellOutcome, ServeError>
where
    F: Fn(&ChaosCell, &Path) -> Vec<JobSpec>,
{
    let mut cfg = base.clone();
    cfg.policy = cell.policy;
    cfg.threads = cell.threads.max(1);
    if cell.pool_shrink > 0.0 {
        let lost = ((cfg.pool_nodes as f64) * cell.pool_shrink).round() as i64;
        if lost > 0 {
            cfg.pool_events.push(PoolEvent {
                at: SHRINK_AT,
                delta: -lost,
            });
        }
    }

    let ref_dir = scratch.join(format!("{}-ref", cell.label()));
    let kill_dir = scratch.join(format!("{}-kill", cell.label()));
    fresh_dir(&ref_dir)?;
    fresh_dir(&kill_dir)?;

    // Reference: uninterrupted. Killed: the same workload, crashed after
    // `kill_round`. Resumed: fresh identically-seeded jobs over the killed
    // run's journals — tenants replay their crowd journals, the scheduler
    // verifies its own journal, and the live tail completes the run.
    let journaled = |dir: &Path, kill| ServeConfig {
        journal: Some(dir.join("service.journal")),
        kill_after_rounds: kill,
        ..cfg.clone()
    };
    let ref_cfg = journaled(&ref_dir, None);
    let kill_cfg = journaled(&kill_dir, Some(cell.kill_round));
    let reference = leg(make_jobs(cell, &ref_dir), &ref_cfg, serve)?;
    let killed = leg(make_jobs(cell, &kill_dir), &kill_cfg, serve)?;
    let resumed = leg(make_jobs(cell, &kill_dir), &kill_cfg, resume)?;

    // ---- Identity checks -------------------------------------------
    let want = serve_fingerprint(&reference.report);
    let got = serve_fingerprint(&resumed.report);
    let mismatch = want
        .iter()
        .zip(got.iter())
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("{}: {} vs {}={}", a.0, a.1, b.0, b.1))
        .or_else(|| {
            (want.len() != got.len()).then(|| {
                format!(
                    "fingerprint length {} vs {} (tenant set changed)",
                    want.len(),
                    got.len()
                )
            })
        });
    let resume_identical = mismatch.is_none();

    let ref_sj = read_bytes(&ref_dir.join("service.journal"))?;
    let res_sj = read_bytes(&kill_dir.join("service.journal"))?;
    let service_journal_identical = ref_sj == res_sj;

    let (ref_crowd, kill_crowd) = (&reference.crowd_journals, &killed.crowd_journals);
    let mut crowd_journals_identical = ref_crowd.len() == kill_crowd.len();
    if crowd_journals_identical {
        for (r, k) in ref_crowd.iter().zip(kill_crowd) {
            if read_bytes(r)? != read_bytes(k)? {
                crowd_journals_identical = false;
                break;
            }
        }
    }

    Ok(CellOutcome {
        cell: cell.label(),
        resume_identical,
        mismatch,
        service_journal_identical,
        crowd_journals_identical,
        ref_live_questions: reference.live,
        killed_live_questions: killed.live,
        resumed_live_questions: resumed.live,
        replayed_rounds: resumed.report.replayed_rounds,
        killed_at_round: killed.report.killed_at_round,
        ref_wall: reference.wall,
        kill_wall: killed.wall,
        resume_wall: resumed.wall,
        ref_report: reference.report,
        resumed_report: resumed.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_full_cartesian_product() {
        let cells = sweep(
            &[Policy::Fifo, Policy::Priority],
            &[1, 3],
            &[0.0],
            &[0.0, 0.25],
            &[0.0, 0.5],
            &[4],
        );
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // Labels are unique.
        let mut labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len());
    }

    #[test]
    fn counting_crowd_counts_live_draws_only() {
        struct Always;
        impl Crowd for Always {
            fn answer(&self, _: IdPair) -> bool {
                true
            }
            fn latency_per_round(&self) -> Duration {
                Duration::from_secs(1)
            }
            fn cost_per_answer(&self) -> f64 {
                0.0
            }
            fn name(&self) -> &str {
                "always"
            }
        }
        let live = Arc::new(AtomicUsize::new(0));
        let c = CountingCrowd::new(Arc::new(Always), live.clone());
        assert_eq!(c.try_answer((1, 2)), Some(true));
        assert!(c.answer((1, 2)));
        c.fast_forward(100); // replay path: not counted
        assert_eq!(live.load(Ordering::Relaxed), 2);
    }
}
