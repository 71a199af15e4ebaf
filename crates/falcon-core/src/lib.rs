//! Falcon: hands-off crowdsourced entity matching, scaled up with
//! RDBMS-style plans over a MapReduce substrate.
//!
//! This crate is the paper's primary contribution. Given two tables `A`
//! and `B` and a (possibly simulated) crowd, [`driver::Falcon`] executes
//! one of the two plan templates of Figure 3:
//!
//! ```text
//! (a) sample_pairs → gen_fvs → al_matcher → get_blocking_rules →
//!     eval_rules → select_opt_seq → apply_blocking_rules →
//!     gen_fvs → al_matcher → apply_matcher
//! (b) cross_product → gen_fvs → al_matcher → apply_matcher
//! ```
//!
//! The eight operators live in [`ops`]; the six physical implementations
//! of `apply_blocking_rules` (apply-all / apply-greedy / apply-conjunct /
//! apply-predicate plus the prior-work MapSide and ReduceSplit baselines)
//! live in [`physical`]; the three "mask machine time under crowd time"
//! optimizations of Section 10.2 live in [`optimizer`] and are accounted
//! by [`timeline::Timeline`].

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod analyze;
pub mod corleone;
pub mod driver;
pub mod error;
pub mod features;
pub mod fv;
pub mod indexing;
pub mod kbb;
pub mod metrics;
pub mod ops;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod rules;
pub mod snb;
pub mod stage;
pub mod timeline;
pub mod tokens;

pub use analyze::{analyze, Diagnostic, PlanAnalysis, Severity};
pub use driver::{Falcon, FalconConfig, ForcedFilter, RunReport};
pub use error::FalconError;
pub use features::{Feature, FeatureLibrary, FeatureSet};
pub use fv::FvSet;
pub use optimizer::OptFlags;
pub use rules::{CnfRule, Predicate, Rule, RuleSequence};
pub use timeline::Timeline;
pub use tokens::{ProfileSpec, TokenStore};
