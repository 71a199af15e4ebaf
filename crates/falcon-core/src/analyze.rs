//! Pre-flight plan analysis: validate a run's plan, operator contracts and
//! resource budgets *before* any MapReduce job or crowd question is
//! issued.
//!
//! Falcon is a hands-off service: once `A`, `B` and a budget are handed
//! over, nobody is watching a terminal. A malformed configuration must
//! therefore be rejected up front with a typed, explainable error — not
//! discovered three crowdsourced operators deep. [`analyze`] performs the
//! checks that are decidable statically:
//!
//! * **Input contracts** — both tables non-empty, and feature generation
//!   able to produce at least one blocking and one matching feature
//!   (otherwise `gen_fvs` → `al_matcher` would run on zero-arity vectors).
//! * **Cluster sanity** — nonzero nodes, slots and memory budgets; the
//!   simulated-time model divides by slot counts and the physical-operator
//!   selector compares against the mapper memory budget.
//! * **Plan feasibility** — a (forced) matcher-only plan must fit the
//!   enumeration budget and the mapper memory budget; forced `MapSide`
//!   blocking must broadcast `A` into mapper memory; forced `MapSide` /
//!   `ReduceSplit` blocking enumerates `A × B` and must fit the pair
//!   budget.
//! * **Operator configuration** — sampler, active-learning, rule-eval and
//!   sequence-selection parameters in their documented domains.
//!
//! [`check_rule_sequence`] additionally validates a concrete
//! [`RuleSequence`] against the blocking-feature arity (used by the driver
//! between `select_opt_seq` and `apply_blocking_rules`, and by
//! `falcon plan check` on optimizer-produced sequences).

use crate::driver::{FalconConfig, ForcedFilter};
use crate::features::{generate_features, FeatureLibrary, FeatureSet};
use crate::physical::{estimate_table_bytes, PhysicalOp};
use crate::plan::{choose_plan, estimate_fv_bytes, PlanKind};
use crate::rules::RuleSequence;
use falcon_dataflow::ClusterConfig;
use falcon_forest::SplitOp;
use falcon_index::FilterSpec;
use falcon_table::Table;
use falcon_textsim::SimFunction;
use std::fmt;

/// A static problem with a plan, its configuration, or its inputs,
/// detected before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanAnalysisError {
    /// An input table has no rows.
    EmptyTable {
        /// `"A"` or `"B"`.
        table: &'static str,
    },
    /// Feature generation produced no features for a stage, so the
    /// `gen_fvs` → `al_matcher` contract (arity ≥ 1) cannot hold.
    NoFeatures {
        /// `"blocking"` or `"matching"`.
        stage: &'static str,
    },
    /// A cluster-config field is zero where the engine divides by it or
    /// budgets against it.
    InvalidClusterConfig {
        /// The offending field name.
        field: &'static str,
    },
    /// The plan enumerates more pairs than the enumeration budget allows.
    PairBudgetExceeded {
        /// `|A| * |B|`.
        pairs: u128,
        /// The configured `max_pairs`.
        budget: u128,
        /// What forces the enumeration (`"match-only plan"`,
        /// `"map_side"`, `"reduce_split"`).
        cause: &'static str,
    },
    /// A plan stage needs more memory than the per-mapper budget.
    MemoryBudgetExceeded {
        /// The stage (`"match-only feature vectors"`,
        /// `"map_side broadcast of A"`).
        stage: &'static str,
        /// Estimated bytes required.
        required: u128,
        /// The configured per-mapper budget.
        budget: u128,
    },
    /// An operator parameter is outside its documented domain.
    InvalidOperatorConfig {
        /// The operator (`"sample_pairs"`, `"al_matcher"`, ...).
        op: &'static str,
        /// The parameter name.
        field: &'static str,
        /// Why the value is invalid.
        reason: String,
    },
    /// A blocking rule violates the `select_opt_seq` →
    /// `apply_blocking_rules` contract.
    MalformedRule {
        /// Index of the rule in the sequence.
        rule: usize,
        /// What is wrong with it.
        issue: RuleIssue,
    },
    /// An index filter (derived from a rule predicate, or forced via
    /// [`FalconConfig::force_filters`]) fails a recall-safety proof
    /// obligation: building it could prune pairs that satisfy its
    /// predicate, i.e. blocking would no longer be lossless.
    UnsafeFilter {
        /// Blocking-feature index the filter is attached to.
        feature: usize,
        /// The failed obligation, rendered
        /// ([`falcon_index::Obligation::describe`]).
        obligation: String,
        /// Debug rendering of the offending filter spec.
        detail: String,
    },
}

/// The specific defect of a [`PlanAnalysisError::MalformedRule`].
#[derive(Debug, Clone, PartialEq)]
pub enum RuleIssue {
    /// The rule has no predicates — it would drop every pair.
    NoPredicates,
    /// A predicate references a feature index outside the blocking arity.
    FeatureOutOfRange {
        /// The referenced feature index.
        feature: usize,
        /// The blocking-feature arity.
        arity: usize,
    },
    /// A predicate threshold is NaN or infinite.
    NonFiniteThreshold {
        /// The feature the predicate tests.
        feature: usize,
    },
}

impl fmt::Display for PlanAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTable { table } => write!(f, "input table {table} is empty"),
            Self::NoFeatures { stage } => {
                write!(
                    f,
                    "feature generation produced no {stage} features \
                     (tables share no comparable attributes)"
                )
            }
            Self::InvalidClusterConfig { field } => {
                write!(f, "cluster config field {field} must be nonzero")
            }
            Self::PairBudgetExceeded {
                pairs,
                budget,
                cause,
            } => write!(
                f,
                "{cause} enumerates {pairs} pairs, over the max_pairs budget of {budget}"
            ),
            Self::MemoryBudgetExceeded {
                stage,
                required,
                budget,
            } => write!(
                f,
                "{stage} needs ~{required} bytes but each mapper has {budget}"
            ),
            Self::InvalidOperatorConfig { op, field, reason } => {
                write!(f, "{op}.{field}: {reason}")
            }
            Self::MalformedRule { rule, issue } => {
                write!(f, "blocking rule {rule}: ")?;
                match issue {
                    RuleIssue::NoPredicates => {
                        write!(f, "has no predicates (would drop every pair)")
                    }
                    RuleIssue::FeatureOutOfRange { feature, arity } => write!(
                        f,
                        "predicate references feature {feature} but blocking arity is {arity}"
                    ),
                    RuleIssue::NonFiniteThreshold { feature } => {
                        write!(
                            f,
                            "predicate on feature {feature} has a non-finite threshold"
                        )
                    }
                }
            }
            Self::UnsafeFilter {
                feature,
                obligation,
                detail,
            } => write!(
                f,
                "recall-unsafe filter on feature {feature}: {detail} \
                 (obligation not met: {obligation})"
            ),
        }
    }
}

impl std::error::Error for PlanAnalysisError {}

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The plan runs, but part of it is provably useless (dead predicate,
    /// unreachable rule or stage) — usually a sign the rule learner or
    /// the configuration drifted.
    Warning,
    /// The plan is rejected; a matching [`PlanAnalysisError`] is also
    /// produced.
    Error,
}

/// Where in the plan a [`Diagnostic`] points: the plan-level analogue of
/// a source span. Each coordinate is present when the diagnostic is that
/// specific.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanSpan {
    /// Rule index in the blocking sequence.
    pub rule: Option<usize>,
    /// Predicate index within the rule.
    pub predicate: Option<usize>,
    /// Blocking-feature index the predicate tests.
    pub feature: Option<usize>,
    /// Human-readable anchor (feature name, spec rendering, stage name).
    pub detail: String,
}

impl fmt::Display for PlanSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some(r) = self.rule {
            write!(f, "rule {r}")?;
            wrote = true;
        }
        if let Some(p) = self.predicate {
            if wrote {
                write!(f, " / ")?;
            }
            write!(f, "predicate {p}")?;
            wrote = true;
        }
        if let Some(ft) = self.feature {
            if wrote {
                write!(f, " / ")?;
            }
            write!(f, "feature {ft}")?;
            wrote = true;
        }
        if !self.detail.is_empty() {
            if wrote {
                write!(f, " ({})", self.detail)?;
            } else {
                write!(f, "{}", self.detail)?;
            }
        }
        Ok(())
    }
}

/// A typed, span-carrying finding of the static plan verifier, surfaced
/// by `falcon plan check --explain`. Errors mirror a
/// [`PlanAnalysisError`]; warnings flag provably useless plan parts that
/// do not make the plan unrunnable.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`dead-predicate`,
    /// `contradictory-rule`, `unreachable-rule`, `recall-unsafe-filter`,
    /// `forced-filter-mismatch`, `unreachable-stage`, ...).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Where in the plan.
    pub span: PlanSpan,
    /// One-line statement of the finding.
    pub message: String,
    /// Why it holds and what to do about it (`--explain` text).
    pub explain: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}] {}: {}", self.code, self.span, self.message)
    }
}

/// The result of pre-flight analysis: the plan that would run, the sizes
/// the decision was based on, and every defect found.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// The plan template the driver would execute.
    pub plan: PlanKind,
    /// `|A| * |B|`.
    pub pairs: u128,
    /// Number of blocking features the generator would produce.
    pub blocking_features: usize,
    /// Number of matching features the generator would produce.
    pub matching_features: usize,
    /// All defects, in detection order; empty means the plan is runnable.
    pub errors: Vec<PlanAnalysisError>,
    /// Span-carrying findings (errors *and* warnings) from the static
    /// verifier, for `falcon plan check --explain`.
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanAnalysis {
    /// True when no defect was found (warnings do not block a run).
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// The warnings among [`PlanAnalysis::diagnostics`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }
}

/// The value range a similarity function can produce on non-missing
/// inputs (missing values evaluate as NaN and are handled by the
/// predicates' `nan_is_high` orientation).
fn sim_range(sim: SimFunction) -> (f64, f64) {
    match sim {
        SimFunction::AbsDiff => (0.0, f64::INFINITY),
        // `2|a-b| / (|a|+|b|)` peaks at 2 for opposite-sign values.
        SimFunction::RelDiff => (0.0, 2.0),
        _ => (0.0, 1.0),
    }
}

/// Validate the cluster description alone.
pub fn check_cluster(cluster: &ClusterConfig) -> Vec<PlanAnalysisError> {
    let mut errors = Vec::new();
    let fields: [(&'static str, usize); 5] = [
        ("nodes", cluster.nodes),
        ("map_slots_per_node", cluster.map_slots_per_node),
        ("reduce_slots_per_node", cluster.reduce_slots_per_node),
        ("mapper_memory_bytes", cluster.mapper_memory_bytes),
        ("reducer_memory_bytes", cluster.reducer_memory_bytes),
    ];
    for (field, value) in fields {
        if value == 0 {
            errors.push(PlanAnalysisError::InvalidClusterConfig { field });
        }
    }
    errors
}

/// Validate a concrete rule sequence against the blocking-feature arity:
/// the `select_opt_seq` → `apply_blocking_rules` contract.
pub fn check_rule_sequence(seq: &RuleSequence, arity: usize) -> Vec<PlanAnalysisError> {
    let mut errors = Vec::new();
    for (i, rule) in seq.rules.iter().enumerate() {
        if rule.predicates.is_empty() {
            errors.push(PlanAnalysisError::MalformedRule {
                rule: i,
                issue: RuleIssue::NoPredicates,
            });
        }
        for p in &rule.predicates {
            if p.feature >= arity {
                errors.push(PlanAnalysisError::MalformedRule {
                    rule: i,
                    issue: RuleIssue::FeatureOutOfRange {
                        feature: p.feature,
                        arity,
                    },
                });
            }
            if !p.threshold.is_finite() {
                errors.push(PlanAnalysisError::MalformedRule {
                    rule: i,
                    issue: RuleIssue::NonFiniteThreshold { feature: p.feature },
                });
            }
        }
    }
    errors
}

/// Statically verify a concrete rule sequence against the blocking
/// feature set. Extends [`check_rule_sequence`]'s shape contract with:
///
/// * **recall-safety proof obligations** on every index filter the
///   sequence derives ([`FilterSpec::obligations`]) — failures are hard
///   errors, since building such a filter could prune pairs that satisfy
///   its predicate (exactly the property `falcon-index/tests/lossless.rs`
///   checks dynamically);
/// * **dead / always-true predicates** — a predicate no feature value
///   (including missing ⇒ NaN) can satisfy makes its whole rule dead; a
///   predicate every value satisfies is redundant; both are warnings;
/// * **contradictory rules** — a `> t₁ ∧ <= t₂` pair with `t₂ <= t₁` on
///   one feature that no value satisfies (warning: the rule never drops);
/// * **unreachable rules** — a rule whose drop-set is contained in an
///   earlier rule's (every earlier predicate is implied by one of the
///   later rule's), so it never drops a pair the sequence keeps.
///
/// Returns `(errors, diagnostics)`; the diagnostics carry plan spans and
/// `--explain` text and include an entry mirroring every error.
pub fn verify_rule_sequence(
    seq: &RuleSequence,
    features: &FeatureSet,
) -> (Vec<PlanAnalysisError>, Vec<Diagnostic>) {
    verify_rule_sequence_with(seq, features, &crate::indexing::PreFilterConfig::default())
}

/// [`verify_rule_sequence`] under an explicit signature pre-filter
/// configuration: every derived set-similarity filter is wrapped exactly
/// as `apply_blocking_rules` will wrap it, so an unprovable signature
/// configuration (e.g. a zero or oversized width) is rejected *here*,
/// before any index is built from it.
pub fn verify_rule_sequence_with(
    seq: &RuleSequence,
    features: &FeatureSet,
    prefilter: &crate::indexing::PreFilterConfig,
) -> (Vec<PlanAnalysisError>, Vec<Diagnostic>) {
    let mut errors = check_rule_sequence(seq, features.len());
    let mut diags: Vec<Diagnostic> = errors
        .iter()
        .map(|e| {
            let rule = match e {
                PlanAnalysisError::MalformedRule { rule, .. } => Some(*rule),
                _ => None,
            };
            Diagnostic {
                code: "malformed-rule",
                severity: Severity::Error,
                span: PlanSpan {
                    rule,
                    ..PlanSpan::default()
                },
                message: e.to_string(),
                explain: "The optimizer's rule sequence violates the \
                          select_opt_seq -> apply_blocking_rules contract; \
                          applying it would panic or drop pairs arbitrarily."
                    .into(),
            }
        })
        .collect();

    // A rule drops a pair iff ALL its predicates are satisfied, so one
    // unsatisfiable predicate kills the whole rule.
    let mut rule_dead = vec![false; seq.rules.len()];
    for (i, rule) in seq.rules.iter().enumerate() {
        for (j, p) in rule.predicates.iter().enumerate() {
            if p.feature >= features.len() || !p.threshold.is_finite() {
                continue; // already a hard error above
            }
            let f = features.get(p.feature);
            let (lo, hi) = sim_range(f.sim);
            let span = |detail: String| PlanSpan {
                rule: Some(i),
                predicate: Some(j),
                feature: Some(p.feature),
                detail,
            };
            // Satisfiability over the feature's value range [lo, hi] plus
            // NaN (missing) under the predicate's nan_is_high orientation.
            let (dead, always) = match p.op {
                SplitOp::Gt => (
                    p.threshold >= hi && !p.nan_is_high,
                    p.threshold < lo && p.nan_is_high,
                ),
                SplitOp::Le => (
                    p.threshold < lo && p.nan_is_high,
                    p.threshold >= hi && !p.nan_is_high,
                ),
            };
            if dead {
                rule_dead[i] = true;
                diags.push(Diagnostic {
                    code: "dead-predicate",
                    severity: Severity::Warning,
                    span: span(format!("{} {} {}", f.name, op_str(p.op), p.threshold)),
                    message: format!(
                        "no value of {} (range [{lo}, {hi}]) satisfies `{} {}`, \
                         so rule {i} never drops a pair",
                        f.name,
                        op_str(p.op),
                        p.threshold
                    ),
                    explain: "The predicate compares a similarity value against a \
                              threshold outside the measure's value range, and its \
                              missing-value orientation rejects NaN too; the \
                              conjunction containing it can never fire. The rule is \
                              dead weight from the learner — harmless, but it \
                              suggests the forest was trained on degenerate labels."
                        .into(),
                });
            } else if always {
                diags.push(Diagnostic {
                    code: "always-true-predicate",
                    severity: Severity::Warning,
                    span: span(format!("{} {} {}", f.name, op_str(p.op), p.threshold)),
                    message: format!(
                        "every value of {} (range [{lo}, {hi}]) satisfies `{} {}`; \
                         the predicate never constrains rule {i}",
                        f.name,
                        op_str(p.op),
                        p.threshold
                    ),
                    explain: "The threshold lies outside the measure's value range \
                              on the accepting side and missing values satisfy it \
                              too, so the predicate is vacuous; dropping it leaves \
                              the rule's drop-set unchanged."
                        .into(),
                });
            }
        }
        // Gt t1 ∧ Le t2 with t2 <= t1 on one feature: no finite value
        // satisfies both, and NaN satisfies both only if the two
        // predicates disagree on the feature's orientation.
        for (j, gt) in rule.predicates.iter().enumerate() {
            if gt.op != SplitOp::Gt || !gt.threshold.is_finite() {
                continue;
            }
            for le in &rule.predicates {
                if le.op != SplitOp::Le
                    || le.feature != gt.feature
                    || !le.threshold.is_finite()
                    || le.threshold > gt.threshold
                {
                    continue;
                }
                if gt.nan_is_high && !le.nan_is_high {
                    continue; // NaN satisfies both: rule still reachable
                }
                rule_dead[i] = true;
                let f_name = if gt.feature < features.len() {
                    features.get(gt.feature).name.clone()
                } else {
                    format!("feature {}", gt.feature)
                };
                diags.push(Diagnostic {
                    code: "contradictory-rule",
                    severity: Severity::Warning,
                    span: PlanSpan {
                        rule: Some(i),
                        predicate: Some(j),
                        feature: Some(gt.feature),
                        detail: format!("{f_name} > {} and <= {}", gt.threshold, le.threshold),
                    },
                    message: format!(
                        "rule {i} requires {f_name} > {} and <= {} simultaneously; \
                         it never drops a pair",
                        gt.threshold, le.threshold
                    ),
                    explain: "The conjunction constrains one feature to an empty \
                              interval and its missing-value orientations reject \
                              NaN as well, so the rule cannot fire; the learner \
                              produced a contradiction (rule simplification keeps \
                              Gt/Le pairs, so this survives Optimization 3)."
                        .into(),
                });
            }
        }
    }

    // Rule j is unreachable when some earlier live rule i drops a
    // superset: every predicate of rule i is implied by one of rule j's.
    for j in 1..seq.rules.len() {
        if rule_dead[j] || seq.rules[j].predicates.is_empty() {
            continue;
        }
        let implied = |p: &crate::rules::Predicate| {
            seq.rules[j].predicates.iter().any(|q| {
                q.feature == p.feature
                    && q.op == p.op
                    && q.nan_is_high == p.nan_is_high
                    && match q.op {
                        SplitOp::Gt => q.threshold >= p.threshold,
                        SplitOp::Le => q.threshold <= p.threshold,
                    }
            })
        };
        let Some(i) = (0..j).find(|&i| {
            !rule_dead[i]
                && !seq.rules[i].predicates.is_empty()
                && seq.rules[i].predicates.iter().all(implied)
        }) else {
            continue;
        };
        rule_dead[j] = true; // drops nothing new; don't chain off it
        diags.push(Diagnostic {
            code: "unreachable-rule",
            severity: Severity::Warning,
            span: PlanSpan {
                rule: Some(j),
                detail: format!("subsumed by rule {i}"),
                ..PlanSpan::default()
            },
            message: format!(
                "every pair rule {j} drops is already dropped by rule {i}; \
                 rule {j} never takes effect"
            ),
            explain: "Each predicate of the earlier rule is implied by one of \
                      this rule's (same feature, operator and missing-value \
                      orientation, with an equal-or-tighter threshold), so this \
                      rule's drop-set is contained in the earlier one's. It \
                      costs index builds and evaluation without changing the \
                      candidate set."
                .into(),
        });
    }

    // Recall-safety obligations on every filter the sequence derives —
    // the static twin of falcon-index/tests/lossless.rs.
    for (i, rule) in seq.rules.iter().enumerate() {
        for (j, p) in rule.predicates.iter().enumerate() {
            if p.feature >= features.len() {
                continue;
            }
            let q = p.complement();
            let f = features.get(q.feature);
            let Some(spec) =
                FilterSpec::from_predicate(f.sim, &f.a_attr, q.op == SplitOp::Gt, q.threshold)
            else {
                continue; // unfilterable predicate: nothing is pruned
            };
            // Verify the spec as it will actually be built: signature
            // wrapping applied when the pre-filter is enabled.
            let spec = if prefilter.enabled {
                spec.with_signature(prefilter.words)
            } else {
                spec
            };
            if let Err(ob) = spec.verify() {
                errors.push(PlanAnalysisError::UnsafeFilter {
                    feature: q.feature,
                    obligation: ob.to_string(),
                    detail: format!("{spec:?}"),
                });
                diags.push(Diagnostic {
                    code: "recall-unsafe-filter",
                    severity: Severity::Error,
                    span: PlanSpan {
                        rule: Some(i),
                        predicate: Some(j),
                        feature: Some(q.feature),
                        detail: format!("{spec:?}"),
                    },
                    message: format!(
                        "the index filter derived for {} fails its recall-safety \
                         obligation: {ob}",
                        f.name
                    ),
                    explain: format!(
                        "Probing this filter could miss pairs that satisfy the \
                         predicate, so blocking would silently lose recall — the \
                         exact losslessness property falcon-index/tests/lossless.rs \
                         checks dynamically. Required: {ob}."
                    ),
                });
            }
        }
    }
    (errors, diags)
}

fn op_str(op: SplitOp) -> &'static str {
    match op {
        SplitOp::Gt => ">",
        SplitOp::Le => "<=",
    }
}

/// Verify the [`FalconConfig::force_filters`] overrides against the
/// blocking feature set: each must reference a real feature, match that
/// feature's derivable filter kind and indexed attribute (otherwise it
/// can never substitute — a warning), and discharge its recall-safety
/// obligations (otherwise a hard error).
pub fn check_forced_filters(
    forced: &[ForcedFilter],
    features: &FeatureSet,
    errors: &mut Vec<PlanAnalysisError>,
    diags: &mut Vec<Diagnostic>,
) {
    for ff in forced {
        if ff.feature >= features.len() {
            errors.push(PlanAnalysisError::InvalidOperatorConfig {
                op: "force_filters",
                field: "feature",
                reason: format!(
                    "references blocking feature {} but arity is {}",
                    ff.feature,
                    features.len()
                ),
            });
            diags.push(Diagnostic {
                code: "forced-filter-mismatch",
                severity: Severity::Error,
                span: PlanSpan {
                    feature: Some(ff.feature),
                    detail: format!("{:?}", ff.spec),
                    ..PlanSpan::default()
                },
                message: format!(
                    "forced filter targets feature {} but only {} blocking \
                     features exist",
                    ff.feature,
                    features.len()
                ),
                explain: "Feature indexes are assigned by the deterministic \
                          feature generator; run `falcon plan check --explain` \
                          to list them."
                    .into(),
            });
            continue;
        }
        let f = features.get(ff.feature);
        if let Err(ob) = ff.spec.verify() {
            errors.push(PlanAnalysisError::UnsafeFilter {
                feature: ff.feature,
                obligation: ob.to_string(),
                detail: format!("{:?}", ff.spec),
            });
            diags.push(Diagnostic {
                code: "recall-unsafe-filter",
                severity: Severity::Error,
                span: PlanSpan {
                    feature: Some(ff.feature),
                    detail: format!("{:?}", ff.spec),
                    ..PlanSpan::default()
                },
                message: format!(
                    "forced filter for {} fails its recall-safety obligation: {ob}",
                    f.name
                ),
                explain: format!(
                    "A filter that violates this obligation can prune pairs that \
                     satisfy its predicate, making blocking lossy — the property \
                     falcon-index/tests/lossless.rs checks dynamically, rejected \
                     here before any index is built or crowd question issued. \
                     Required: {ob}."
                ),
            });
            continue;
        }
        // Kind/attribute compatibility: an incompatible override is
        // recall-safe (it is simply never substituted) but useless.
        let compatible = ff.spec.a_attr() == f.a_attr
            && match (&ff.spec, f.sim) {
                (FilterSpec::Equals { .. }, SimFunction::ExactMatch) => true,
                (FilterSpec::Range { relative, .. }, SimFunction::AbsDiff) => !relative,
                (FilterSpec::Range { relative, .. }, SimFunction::RelDiff) => *relative,
                (FilterSpec::EditSim { .. }, SimFunction::Levenshtein) => true,
                (FilterSpec::SetSim { sim, .. }, fsim) => *sim == fsim,
                _ => false,
            };
        if !compatible {
            diags.push(Diagnostic {
                code: "forced-filter-mismatch",
                severity: Severity::Warning,
                span: PlanSpan {
                    feature: Some(ff.feature),
                    detail: format!("{:?}", ff.spec),
                    ..PlanSpan::default()
                },
                message: format!(
                    "forced filter kind does not match feature {} ({}); it will \
                     never be substituted",
                    ff.feature, f.name
                ),
                explain: "Substitution requires the override to index the same \
                          attribute with the same filter kind (and set measure) \
                          the feature derives; otherwise the derived filter is \
                          kept and the override is inert."
                    .into(),
            });
        }
    }
}

fn check_operator_configs(cfg: &FalconConfig, errors: &mut Vec<PlanAnalysisError>) {
    let mut bad = |op: &'static str, field: &'static str, reason: String| {
        errors.push(PlanAnalysisError::InvalidOperatorConfig { op, field, reason });
    };
    if cfg.sample_size == 0 {
        bad("sample_pairs", "sample_size", "must be positive".into());
    }
    if cfg.sample_fanout < 2 {
        bad(
            "sample_pairs",
            "sample_fanout",
            format!("fan-out y must be >= 2, got {}", cfg.sample_fanout),
        );
    }
    if cfg.al.max_iterations == 0 {
        bad("al_matcher", "max_iterations", "must be positive".into());
    }
    if cfg.al.batch == 0 {
        bad("al_matcher", "batch", "must be positive".into());
    }
    if !(cfg.al.convergence_eps.is_finite() && cfg.al.convergence_eps >= 0.0) {
        bad(
            "al_matcher",
            "convergence_eps",
            format!("must be finite and >= 0, got {}", cfg.al.convergence_eps),
        );
    }
    if cfg.eval.batch == 0 {
        bad("eval_rules", "batch", "must be positive".into());
    }
    if !(cfg.eval.p_min > 0.0 && cfg.eval.p_min <= 1.0) {
        bad(
            "eval_rules",
            "p_min",
            format!("must be in (0, 1], got {}", cfg.eval.p_min),
        );
    }
    if !(cfg.eval.eps_max > 0.0 && cfg.eval.eps_max.is_finite()) {
        bad(
            "eval_rules",
            "eps_max",
            format!("must be positive and finite, got {}", cfg.eval.eps_max),
        );
    }
    for (field, value) in [
        ("alpha", cfg.seq.alpha),
        ("beta", cfg.seq.beta),
        ("gamma", cfg.seq.gamma),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            bad(
                "select_opt_seq",
                field,
                format!("weight must be finite and >= 0, got {value}"),
            );
        }
    }
    if cfg.seq.optimizer_bits == 0 {
        bad(
            "select_opt_seq",
            "optimizer_bits",
            "must be positive".into(),
        );
    }
    if !(cfg.greedy_ratio > 0.0 && cfg.greedy_ratio <= 1.0) {
        bad(
            "apply_blocking_rules",
            "greedy_ratio",
            format!("must be in (0, 1], got {}", cfg.greedy_ratio),
        );
    }
    if cfg.max_pairs == 0 {
        bad(
            "apply_blocking_rules",
            "max_pairs",
            "must be positive".into(),
        );
    }
}

/// Analyze a prospective run of `Falcon::try_run(a, b, ...)` under `cfg`.
///
/// Performs the feature-generation scan (cheap, no jobs) to resolve the
/// plan the driver would choose, then checks every statically decidable
/// contract. The `falcon plan check` subcommand exposes it directly; the
/// driver, which needs the features anyway, calls [`analyze_with`].
pub fn analyze(a: &Table, b: &Table, cfg: &FalconConfig) -> PlanAnalysis {
    analyze_with(a, b, cfg, &generate_features(a, b))
}

/// [`analyze`] over the library `generate_features(a, b)` already made.
pub fn analyze_with(
    a: &Table,
    b: &Table,
    cfg: &FalconConfig,
    lib: &FeatureLibrary,
) -> PlanAnalysis {
    let mut errors = Vec::new();
    let mut diagnostics = Vec::new();
    if a.is_empty() {
        errors.push(PlanAnalysisError::EmptyTable { table: "A" });
    }
    if b.is_empty() {
        errors.push(PlanAnalysisError::EmptyTable { table: "B" });
    }
    errors.extend(check_cluster(&cfg.cluster));
    check_operator_configs(cfg, &mut errors);

    let pairs = a.len() as u128 * b.len() as u128;
    let plan = cfg.force_plan.unwrap_or_else(|| {
        choose_plan(
            a,
            b,
            lib.matching.len(),
            cfg.cluster.mapper_memory_bytes,
            cfg.max_pairs,
        )
    });

    if !a.is_empty() && !b.is_empty() {
        if lib.matching.is_empty() {
            errors.push(PlanAnalysisError::NoFeatures { stage: "matching" });
        }
        if plan == PlanKind::BlockAndMatch && lib.blocking.is_empty() {
            errors.push(PlanAnalysisError::NoFeatures { stage: "blocking" });
        }
    }

    // Plan-template feasibility. `choose_plan` only picks MatchOnly when
    // both budgets hold, so these fire for *forced* plans/operators.
    if plan == PlanKind::MatchOnly {
        if pairs > cfg.max_pairs {
            errors.push(PlanAnalysisError::PairBudgetExceeded {
                pairs,
                budget: cfg.max_pairs,
                cause: "match-only plan",
            });
        }
        let fv_bytes = estimate_fv_bytes(a, b, lib.matching.len());
        if fv_bytes > cfg.cluster.mapper_memory_bytes as u128 {
            errors.push(PlanAnalysisError::MemoryBudgetExceeded {
                stage: "match-only feature vectors",
                required: fv_bytes,
                budget: cfg.cluster.mapper_memory_bytes as u128,
            });
        }
    }
    if plan == PlanKind::BlockAndMatch {
        match cfg.force_physical {
            Some(PhysicalOp::MapSide) => {
                let table_bytes = estimate_table_bytes(a) as u128;
                if table_bytes > cfg.cluster.mapper_memory_bytes as u128 {
                    errors.push(PlanAnalysisError::MemoryBudgetExceeded {
                        stage: "map_side broadcast of A",
                        required: table_bytes,
                        budget: cfg.cluster.mapper_memory_bytes as u128,
                    });
                }
                if pairs > cfg.max_pairs {
                    errors.push(PlanAnalysisError::PairBudgetExceeded {
                        pairs,
                        budget: cfg.max_pairs,
                        cause: "map_side",
                    });
                }
            }
            Some(PhysicalOp::ReduceSplit) if pairs > cfg.max_pairs => {
                errors.push(PlanAnalysisError::PairBudgetExceeded {
                    pairs,
                    budget: cfg.max_pairs,
                    cause: "reduce_split",
                });
            }
            _ => {}
        }
    }

    // Forced index-filter overrides: recall-safety obligations (errors)
    // and kind compatibility (warnings).
    check_forced_filters(
        &cfg.force_filters,
        &lib.blocking,
        &mut errors,
        &mut diagnostics,
    );

    // Unreachable stage: blocking-only configuration under a plan with no
    // blocking stage is inert.
    if plan == PlanKind::MatchOnly {
        let inert: &[(&str, bool)] = &[
            ("force_filters", !cfg.force_filters.is_empty()),
            ("force_physical", cfg.force_physical.is_some()),
        ];
        for (field, _) in inert.iter().filter(|(_, set)| *set) {
            diagnostics.push(Diagnostic {
                code: "unreachable-stage",
                severity: Severity::Warning,
                span: PlanSpan {
                    detail: format!("{field} under a match-only plan"),
                    ..PlanSpan::default()
                },
                message: format!(
                    "`{field}` configures the blocking stage, but the \
                     match-only plan has none; it will be ignored"
                ),
                explain: "The match-only plan enumerates A x B directly and \
                          never builds blocking indexes or runs a physical \
                          blocking operator, so blocking-stage configuration \
                          cannot take effect. Force a block-and-match plan or \
                          drop the setting."
                    .into(),
            });
        }
    }

    PlanAnalysis {
        plan,
        pairs,
        blocking_features: lib.blocking.len(),
        matching_features: lib.matching.len(),
        errors,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Predicate, Rule};
    use falcon_forest::SplitOp;
    use falcon_table::{AttrType, Schema, Value};

    fn tables(n: usize) -> (Table, Table) {
        let schema = Schema::new([("title", AttrType::Str), ("price", AttrType::Num)]);
        let rows = |n: usize| {
            (0..n).map(move |i| {
                vec![
                    Value::str(format!("widget model {i}")),
                    Value::num(i as f64),
                ]
            })
        };
        (
            Table::new("a", schema.clone(), rows(n)),
            Table::new("b", schema, rows(n)),
        )
    }

    #[test]
    fn default_config_on_real_tables_is_accepted() {
        let (a, b) = tables(20);
        let analysis = analyze(&a, &b, &FalconConfig::default());
        assert!(analysis.is_ok(), "unexpected errors: {:?}", analysis.errors);
        assert_eq!(analysis.pairs, 400);
        assert!(analysis.blocking_features > 0);
        assert!(analysis.matching_features > 0);
    }

    #[test]
    fn empty_tables_are_rejected() {
        let (a, b) = tables(5);
        let empty = Table::new("e", a.schema().clone(), Vec::<Vec<Value>>::new());
        let analysis = analyze(&empty, &b, &FalconConfig::default());
        assert!(analysis
            .errors
            .contains(&PlanAnalysisError::EmptyTable { table: "A" }));
        let analysis = analyze(&a, &empty, &FalconConfig::default());
        assert!(analysis
            .errors
            .contains(&PlanAnalysisError::EmptyTable { table: "B" }));
    }

    #[test]
    fn zero_cluster_fields_are_rejected() {
        let (a, b) = tables(5);
        let mut cfg = FalconConfig::default();
        cfg.cluster.nodes = 0;
        cfg.cluster.mapper_memory_bytes = 0;
        let analysis = analyze(&a, &b, &cfg);
        assert!(analysis
            .errors
            .contains(&PlanAnalysisError::InvalidClusterConfig { field: "nodes" }));
        assert!(analysis
            .errors
            .contains(&PlanAnalysisError::InvalidClusterConfig {
                field: "mapper_memory_bytes"
            }));
    }

    #[test]
    fn forced_match_only_over_pair_budget_is_rejected() {
        let (a, b) = tables(30);
        let cfg = FalconConfig {
            force_plan: Some(PlanKind::MatchOnly),
            max_pairs: 100, // 30 * 30 = 900 > 100
            ..FalconConfig::default()
        };
        let analysis = analyze(&a, &b, &cfg);
        assert!(analysis.errors.iter().any(|e| matches!(
            e,
            PlanAnalysisError::PairBudgetExceeded {
                pairs: 900,
                budget: 100,
                cause: "match-only plan",
            }
        )));
    }

    #[test]
    fn forced_map_side_without_memory_is_rejected() {
        let (a, b) = tables(30);
        let mut cfg = FalconConfig {
            force_plan: Some(PlanKind::BlockAndMatch),
            force_physical: Some(PhysicalOp::MapSide),
            ..FalconConfig::default()
        };
        cfg.cluster.mapper_memory_bytes = 1; // A cannot be broadcast
        let analysis = analyze(&a, &b, &cfg);
        assert!(analysis.errors.iter().any(|e| matches!(
            e,
            PlanAnalysisError::MemoryBudgetExceeded {
                stage: "map_side broadcast of A",
                ..
            }
        )));
    }

    #[test]
    fn forced_reduce_split_over_pair_budget_is_rejected() {
        let (a, b) = tables(30);
        let cfg = FalconConfig {
            force_plan: Some(PlanKind::BlockAndMatch),
            force_physical: Some(PhysicalOp::ReduceSplit),
            max_pairs: 10,
            ..FalconConfig::default()
        };
        let analysis = analyze(&a, &b, &cfg);
        assert!(analysis.errors.iter().any(|e| matches!(
            e,
            PlanAnalysisError::PairBudgetExceeded {
                cause: "reduce_split",
                ..
            }
        )));
    }

    #[test]
    fn bad_operator_configs_are_rejected_with_the_right_fields() {
        let (a, b) = tables(5);
        let mut cfg = FalconConfig {
            sample_size: 0,
            sample_fanout: 1,
            greedy_ratio: 0.0,
            ..FalconConfig::default()
        };
        cfg.al.batch = 0;
        cfg.eval.p_min = 1.5;
        cfg.seq.alpha = f64::NAN;
        let analysis = analyze(&a, &b, &cfg);
        let fields: Vec<(&str, &str)> = analysis
            .errors
            .iter()
            .filter_map(|e| match e {
                PlanAnalysisError::InvalidOperatorConfig { op, field, .. } => Some((*op, *field)),
                _ => None,
            })
            .collect();
        for expected in [
            ("sample_pairs", "sample_size"),
            ("sample_pairs", "sample_fanout"),
            ("al_matcher", "batch"),
            ("eval_rules", "p_min"),
            ("select_opt_seq", "alpha"),
            ("apply_blocking_rules", "greedy_ratio"),
        ] {
            assert!(
                fields.contains(&expected),
                "missing {expected:?} in {fields:?}"
            );
        }
    }

    #[test]
    fn rule_sequence_contract_violations_are_typed() {
        let pred = |feature: usize, threshold: f64| Predicate {
            feature,
            op: SplitOp::Le,
            threshold,
            nan_is_high: true,
        };
        let seq = RuleSequence::new(vec![
            Rule { predicates: vec![] }, // no predicates
            Rule {
                predicates: vec![pred(7, 0.5)],
            }, // feature out of range
            Rule {
                predicates: vec![pred(0, f64::NAN)],
            }, // non-finite threshold
        ]);
        let errors = check_rule_sequence(&seq, 3);
        assert_eq!(errors.len(), 3);
        assert_eq!(
            errors[0],
            PlanAnalysisError::MalformedRule {
                rule: 0,
                issue: RuleIssue::NoPredicates
            }
        );
        assert_eq!(
            errors[1],
            PlanAnalysisError::MalformedRule {
                rule: 1,
                issue: RuleIssue::FeatureOutOfRange {
                    feature: 7,
                    arity: 3
                }
            }
        );
        assert_eq!(
            errors[2],
            PlanAnalysisError::MalformedRule {
                rule: 2,
                issue: RuleIssue::NonFiniteThreshold { feature: 0 }
            }
        );
    }

    #[test]
    fn well_formed_sequence_passes_the_contract() {
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![Predicate {
                feature: 2,
                op: SplitOp::Gt,
                threshold: 0.4,
                nan_is_high: false,
            }],
        }]);
        assert!(check_rule_sequence(&seq, 3).is_empty());
    }

    // ---- static verifier (verify_rule_sequence / check_forced_filters) ----

    use crate::driver::ForcedFilter;
    use falcon_textsim::Tokenizer;

    fn blocking_features() -> FeatureSet {
        let (a, b) = tables(10);
        generate_features(&a, &b).blocking
    }

    fn feature_with(features: &FeatureSet, sim: SimFunction) -> usize {
        features
            .features
            .iter()
            .position(|f| f.sim == sim)
            .expect("feature present")
    }

    fn pred(feature: usize, op: SplitOp, threshold: f64, nan_is_high: bool) -> Predicate {
        Predicate {
            feature,
            op,
            threshold,
            nan_is_high,
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn dead_predicate_on_a_unit_range_feature_is_flagged() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        // jaccard > 1.0 with NaN low: satisfiable by nothing.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Gt, 1.0, false)],
        }]);
        let (errors, diags) = verify_rule_sequence(&seq, &features);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(codes(&diags), vec!["dead-predicate"], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].span.rule, Some(0));
        assert_eq!(diags[0].span.feature, Some(jac));
        // With NaN high the missing-value path still fires the rule.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Gt, 1.0, true)],
        }]);
        let (_, diags) = verify_rule_sequence(&seq, &features);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn always_true_predicate_is_flagged_as_vacuous() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        // jaccard <= 1.0 with NaN low: every value (and NaN) satisfies it.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![
                pred(jac, SplitOp::Le, 1.0, false),
                pred(jac, SplitOp::Gt, 0.4, false),
            ],
        }]);
        let (errors, diags) = verify_rule_sequence(&seq, &features);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(codes(&diags), vec!["always-true-predicate"], "{diags:?}");
    }

    #[test]
    fn abs_diff_has_an_unbounded_range() {
        let features = blocking_features();
        let abs = feature_with(&features, SimFunction::AbsDiff);
        // abs_diff > 1e12 is huge but satisfiable: no warning.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(abs, SplitOp::Gt, 1e12, false)],
        }]);
        let (errors, diags) = verify_rule_sequence(&seq, &features);
        assert!(errors.is_empty(), "{errors:?}");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn contradictory_threshold_pair_is_flagged() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        // jaccard > 0.7 AND jaccard <= 0.3 — empty interval, same
        // orientation, so NaN cannot rescue it. (simplified() keeps both.)
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![
                pred(jac, SplitOp::Gt, 0.7, true),
                pred(jac, SplitOp::Le, 0.3, true),
            ],
        }]);
        let (errors, diags) = verify_rule_sequence(&seq, &features);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(codes(&diags), vec!["contradictory-rule"], "{diags:?}");
        assert_eq!(diags[0].span.rule, Some(0));
    }

    #[test]
    fn unreachable_rule_subsumed_by_an_earlier_one_is_flagged() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let seq = RuleSequence::new(vec![
            Rule {
                predicates: vec![pred(jac, SplitOp::Le, 0.5, true)],
            },
            // <= 0.3 implies <= 0.5: this rule drops a subset.
            Rule {
                predicates: vec![pred(jac, SplitOp::Le, 0.3, true)],
            },
        ]);
        let (errors, diags) = verify_rule_sequence(&seq, &features);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(codes(&diags), vec!["unreachable-rule"], "{diags:?}");
        assert_eq!(diags[0].span.rule, Some(1));
        // The reverse order is NOT subsumption: <= 0.5 drops more.
        let seq = RuleSequence::new(vec![
            Rule {
                predicates: vec![pred(jac, SplitOp::Le, 0.3, true)],
            },
            Rule {
                predicates: vec![pred(jac, SplitOp::Le, 0.5, true)],
            },
        ]);
        let (_, diags) = verify_rule_sequence(&seq, &features);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn derived_negative_range_width_is_a_recall_safety_error() {
        let features = blocking_features();
        let abs = feature_with(&features, SimFunction::AbsDiff);
        // Rule predicate abs_diff > -2 drops; complement abs_diff <= -2
        // derives Range{width: -2} — finite (passes the shape check) but
        // recall-unsafe: missing-value pairs satisfy the predicate yet the
        // numeric window matches nothing.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(abs, SplitOp::Gt, -2.0, false)],
        }]);
        let (errors, diags) = verify_rule_sequence(&seq, &features);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(matches!(
            &errors[0],
            PlanAnalysisError::UnsafeFilter { feature, .. } if *feature == abs
        ));
        assert!(codes(&diags).contains(&"recall-unsafe-filter"), "{diags:?}");
        let d = diags
            .iter()
            .find(|d| d.code == "recall-unsafe-filter")
            .expect("diagnostic");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.feature, Some(abs));
    }

    #[test]
    fn unprovable_signature_width_is_a_recall_safety_error() {
        use crate::indexing::PreFilterConfig;
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Le, 0.5, true)],
        }]);
        // The default (valid) pre-filter config passes.
        let (errors, _) = verify_rule_sequence_with(&seq, &features, &PreFilterConfig::default());
        assert!(errors.is_empty(), "{errors:?}");
        // Zero-width and oversized signatures cannot be proved lossless:
        // rejected before anything is built.
        for words in [0usize, 65, 1 << 20] {
            let cfg = PreFilterConfig {
                enabled: true,
                words,
            };
            let (errors, diags) = verify_rule_sequence_with(&seq, &features, &cfg);
            assert_eq!(errors.len(), 1, "words={words}: {errors:?}");
            assert!(
                matches!(
                    &errors[0],
                    PlanAnalysisError::UnsafeFilter { feature, .. } if *feature == jac
                ),
                "words={words}: {errors:?}"
            );
            assert!(codes(&diags).contains(&"recall-unsafe-filter"), "{diags:?}");
        }
        // Disabling the pre-filter makes the width irrelevant.
        let cfg = PreFilterConfig {
            enabled: false,
            words: 0,
        };
        let (errors, _) = verify_rule_sequence_with(&seq, &features, &cfg);
        assert!(errors.is_empty(), "{errors:?}");
        // Non-set-similarity filters are never wrapped, so an invalid
        // width cannot poison them.
        let abs = feature_with(&features, SimFunction::ExactMatch);
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(abs, SplitOp::Le, 0.5, true)],
        }]);
        let cfg = PreFilterConfig {
            enabled: true,
            words: 0,
        };
        let (errors, _) = verify_rule_sequence_with(&seq, &features, &cfg);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn forced_filter_with_nonpositive_threshold_is_rejected() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let ff = ForcedFilter::for_feature(&features, jac, 0.0).expect("in range");
        let mut errors = Vec::new();
        let mut diags = Vec::new();
        check_forced_filters(&[ff], &features, &mut errors, &mut diags);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(matches!(
            &errors[0],
            PlanAnalysisError::UnsafeFilter { feature, .. } if *feature == jac
        ));
        assert_eq!(codes(&diags), vec!["recall-unsafe-filter"]);
    }

    #[test]
    fn forced_filter_out_of_range_and_kind_mismatch_are_reported() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let oob = ForcedFilter {
            feature: features.len() + 3,
            spec: FilterSpec::EditSim {
                a_attr: "title".into(),
                threshold: 0.5,
            },
        };
        // A safe EditSim spec forced onto a jaccard feature: inert, warned.
        let mismatch = ForcedFilter {
            feature: jac,
            spec: FilterSpec::EditSim {
                a_attr: features.get(jac).a_attr.clone(),
                threshold: 0.5,
            },
        };
        let mut errors = Vec::new();
        let mut diags = Vec::new();
        check_forced_filters(&[oob, mismatch], &features, &mut errors, &mut diags);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(
            codes(&diags),
            vec!["forced-filter-mismatch", "forced-filter-mismatch"]
        );
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[1].severity, Severity::Warning);
    }

    #[test]
    fn analyze_rejects_recall_unsafe_forced_filters() {
        let (a, b) = tables(10);
        let features = generate_features(&a, &b).blocking;
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let cfg = FalconConfig {
            force_filters: vec![
                ForcedFilter::for_feature(&features, jac, f64::NAN).expect("in range")
            ],
            ..FalconConfig::default()
        };
        let analysis = analyze(&a, &b, &cfg);
        assert!(!analysis.is_ok());
        assert!(analysis
            .errors
            .iter()
            .any(|e| matches!(e, PlanAnalysisError::UnsafeFilter { .. })));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "recall-unsafe-filter" && d.severity == Severity::Error));
    }

    #[test]
    fn match_only_plan_with_blocking_config_warns_unreachable_stage() {
        let (a, b) = tables(5);
        let features = generate_features(&a, &b).blocking;
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let cfg = FalconConfig {
            force_plan: Some(PlanKind::MatchOnly),
            force_physical: Some(PhysicalOp::MapSide),
            force_filters: vec![ForcedFilter::for_feature(&features, jac, 0.4).expect("in range")],
            ..FalconConfig::default()
        };
        let analysis = analyze(&a, &b, &cfg);
        assert!(analysis.is_ok(), "{:?}", analysis.errors);
        let stage_warnings: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.code == "unreachable-stage")
            .collect();
        assert_eq!(stage_warnings.len(), 2, "{:?}", analysis.diagnostics);
        assert!(stage_warnings
            .iter()
            .all(|d| d.severity == Severity::Warning));
        assert_eq!(analysis.warnings().count(), 2);
    }

    #[test]
    fn analyze_with_the_generated_library_is_analyze() {
        let (a, b) = tables(5);
        let features = generate_features(&a, &b).blocking;
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let forced = FalconConfig {
            force_plan: Some(PlanKind::MatchOnly),
            force_filters: vec![ForcedFilter::for_feature(&features, jac, 0.0).expect("in range")],
            max_pairs: 3,
            ..FalconConfig::default()
        };
        for cfg in [FalconConfig::default(), forced] {
            let analysis = analyze(&a, &b, &cfg);
            assert_eq!(
                analysis,
                analyze_with(&a, &b, &cfg, &generate_features(&a, &b))
            );
        }
    }

    #[test]
    fn diagnostics_render_with_span_and_code() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Gt, 1.0, false)],
        }]);
        let (_, diags) = verify_rule_sequence(&seq, &features);
        let rendered = diags[0].to_string();
        assert!(
            rendered.starts_with("warning[dead-predicate] rule 0"),
            "{rendered}"
        );
        assert!(rendered.contains("feature"), "{rendered}");
    }
}
