//! The eight Falcon operators (Section 4.2).
//!
//! | operator              | module                 | substrate        |
//! |-----------------------|------------------------|------------------|
//! | `sample_pairs`        | [`sample_pairs`]       | 2 MR jobs        |
//! | `gen_fvs`             | [`gen_fvs`]            | map-only job     |
//! | `al_matcher`          | [`al_matcher`]         | crowd + MR       |
//! | `get_blocking_rules`  | [`get_blocking_rules`] | single machine   |
//! | `eval_rules`          | [`eval_rules`]         | crowd            |
//! | `select_opt_seq`      | [`select_opt_seq`]     | single machine   |
//! | `apply_blocking_rules`| [`crate::physical`]    | MR + indexes     |
//! | `apply_matcher`       | [`apply_matcher`]      | map-only job     |
//!
//! Two further Corleone modules (Figure 1) are provided for the full
//! iterative workflow: [`accuracy_estimator`] and [`difficult_pairs`].

pub mod accuracy_estimator;
pub mod al_matcher;
pub mod apply_matcher;
pub mod difficult_pairs;
pub mod eval_rules;
pub mod gen_fvs;
pub mod get_blocking_rules;
pub mod sample_pairs;
pub mod select_opt_seq;
