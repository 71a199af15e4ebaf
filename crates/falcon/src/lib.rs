//! # Falcon — hands-off crowdsourced entity matching at scale
//!
//! A Rust reproduction of *"Falcon: Scaling Up Hands-Off Crowdsourced
//! Entity Matching to Build Cloud Services"* (SIGMOD 2017). Given two
//! tables and a crowd (real people in the paper; simulated workers here),
//! Falcon learns blocking rules and a random-forest matcher through
//! crowdsourced active learning — no developer writes a single rule — and
//! executes the whole workflow as an RDBMS-style plan over a MapReduce
//! substrate, masking machine time under crowd time.
//!
//! ```
//! use falcon::prelude::*;
//!
//! // Two dirty tables with known ground truth (synthetic stand-in for
//! // the paper's Products dataset).
//! let data = falcon::datagen::products::generate(0.01, 7);
//! let crowd = OracleCrowd::new(GroundTruth::new(data.truth.iter().copied()));
//!
//! let mut config = FalconConfig::default();
//! config.sample_size = 2_000;
//! config.cluster = ClusterConfig::small(4);
//!
//! let report = Falcon::new(config).try_run(&data.a, &data.b, crowd)?;
//! let quality = report.quality(&data.truth);
//! assert!(quality.f1 > 0.0);
//! println!("F1 = {:.3}, cost = ${:.2}", quality.f1, report.ledger.cost);
//! # Ok::<(), FalconError>(())
//! ```
//!
//! The heavy lifting lives in the component crates, re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `falcon-core` | operators, plans, rules, optimizer, driver |
//! | [`textsim`] | `falcon-textsim` | similarity functions + filter math |
//! | [`table`] | `falcon-table` | tables, schemas, profiling |
//! | [`dataflow`] | `falcon-dataflow` | local MapReduce engine + simulated cluster |
//! | [`forest`] | `falcon-forest` | random forests + rule extraction |
//! | [`index`] | `falcon-index` | blocking indexes + the five filters |
//! | [`crowd`] | `falcon-crowd` | crowd simulation, HITs, voting, ledger |
//! | [`datagen`] | `falcon-datagen` | synthetic Products / Songs / Citations |
//! | [`serve`] | `falcon-serve` | multi-tenant scheduler over a shared node pool |

pub use falcon_core as core;
pub use falcon_crowd as crowd;
pub use falcon_dataflow as dataflow;
pub use falcon_datagen as datagen;
pub use falcon_forest as forest;
pub use falcon_index as index;
pub use falcon_serve as serve;
pub use falcon_table as table;
pub use falcon_textsim as textsim;

/// Everything needed to run Falcon end to end.
pub mod prelude {
    pub use falcon_core::driver::{Falcon, FalconConfig, RunCtl, RunReport};
    pub use falcon_core::error::FalconError;
    pub use falcon_core::metrics::{blocking_recall, em_quality, EmQuality};
    pub use falcon_core::optimizer::OptFlags;
    pub use falcon_core::physical::PhysicalOp;
    pub use falcon_core::plan::PlanKind;
    pub use falcon_crowd::sim::{ExpertCrowd, GroundTruth, OracleCrowd, RandomWorkerCrowd};
    pub use falcon_crowd::{Crowd, CrowdJournal, CrowdSession};
    pub use falcon_dataflow::{Cluster, ClusterConfig, FaultPlan, FaultStats};
    pub use falcon_datagen::EmDataset;
    pub use falcon_serve::{JobSpec, Policy, ServeConfig, ServeReport};
    pub use falcon_table::{Table, Value};
}
