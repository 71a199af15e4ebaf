//! Index structures and the five blocking filters of Section 7.4.
//!
//! `apply_blocking_rules` avoids enumerating `A × B` by building indexes
//! over table `A` and probing them with each `B` tuple. This crate provides:
//!
//! * [`scalar`] — hash index (equivalence filter), sorted range index
//!   (range filter) and length index (length filter),
//! * [`inverted`] — global token ordering over the profiles' token ids
//!   plus prefix inverted index (prefix and position filters),
//! * [`signature`] — per-column Bloom fingerprints gating the probe,
//! * [`spec`] — [`FilterSpec`]: the per-predicate description of which
//!   filters apply, the built [`PredicateIndex`], and the probe routine
//!   (`FindProbableCandidates` of Algorithm 1 in the paper),
//! * [`verdict`] — the per-probe table that turns the set-similarity
//!   filters' per-posting float arithmetic into loads and integer compares.
//!
//! Every filter is a **necessary** condition for its predicate: probing
//! never misses a tuple that satisfies the predicate (lossless blocking),
//! but may return false positives that the reducer-side rule evaluation
//! weeds out.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bitmap;
pub mod inverted;
pub mod scalar;
pub mod signature;
pub mod spec;
pub mod verdict;

pub use bitmap::CandidateBitmap;
pub use inverted::{PrefixIndex, TokenColumn, TokenOrder};
pub use scalar::{HashIndex, LengthIndex, RangeIndex};
pub use signature::{token_hash, ProbeSig, ProbeStats, SignatureIndex};
pub use spec::{FilterSpec, IndexError, Obligation, PredicateIndex, ProbeMode, ProbeTokens};
pub use verdict::VerdictTable;
