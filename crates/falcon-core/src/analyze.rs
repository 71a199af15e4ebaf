//! Pre-flight plan analysis: Falcon is hands-off (nobody watches a run),
//! so a malformed plan, operator configuration or resource budget must be
//! rejected with a typed, explainable finding *before* any MapReduce job
//! or crowd question is issued. [`analyze`] checks the inputs, cluster,
//! plan feasibility, operator parameters and forced index filters;
//! [`verify_rule_sequence`] checks the sequence `select_opt_seq` returns
//! before `apply_blocking_rules` builds anything from it. Every finding
//! is one [`Diagnostic`].

use crate::driver::{FalconConfig, ForcedFilter};
use crate::features::{generate_features, FeatureLibrary, FeatureSet};
use crate::physical::{estimate_table_bytes, PhysicalOp};
use crate::plan::{choose_plan, estimate_fv_bytes, PlanKind};
use crate::rules::{Predicate, RuleSequence};
use falcon_forest::SplitOp;
use falcon_index::{FilterSpec, Obligation};
use falcon_table::Table;
use falcon_textsim::SimFunction;
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The plan runs, but part of it is provably useless — usually a sign
    /// the rule learner or the configuration drifted.
    Warning,
    /// The plan is rejected.
    Error,
}

/// The specific defect of a [`Diagnostic::MalformedRule`].
#[derive(Debug, Clone, PartialEq)]
pub enum RuleIssue {
    /// The rule has no predicates — it would drop every pair.
    NoPredicates,
    /// A predicate references `feature`, outside the blocking `arity`.
    FeatureOutOfRange { feature: usize, arity: usize },
    /// The predicate on `feature` has a NaN or infinite threshold.
    NonFiniteThreshold { feature: usize },
}

/// One finding of the static plan verifier: a defect that rejects the
/// run, or a provably useless plan part that does not. Each variant
/// carries the coordinates it points at: `rule` and `predicate` (`at`)
/// index the rule sequence, `feature` the blocking features. `Display` is
/// the only formatter: `{}` renders the `severity[code] span: message`
/// line `falcon plan check` prints, the alternate `{:#}` the bare message
/// [`crate::error::FalconError::Plan`] joins.
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnostic {
    /// Input `table` (`"A"` or `"B"`) has no rows.
    EmptyTable { table: &'static str },
    /// No features for `stage` (`"blocking"`, `"matching"`): `gen_fvs` →
    /// `al_matcher` would run on zero-arity vectors.
    NoFeatures { stage: &'static str },
    /// A cluster-config `field` the engine divides or budgets by is zero.
    InvalidClusterConfig { field: &'static str },
    /// `cause` (`"match-only plan"`, `"map_side"`, `"reduce_split"`)
    /// enumerates `pairs = |A| * |B|`, over the `max_pairs` `budget`.
    PairBudgetExceeded {
        pairs: u128,
        budget: u128,
        cause: &'static str,
    },
    /// `stage` needs `required` bytes, over the per-mapper `budget`.
    MemoryBudgetExceeded {
        stage: &'static str,
        required: u128,
        budget: u128,
    },
    /// Parameter `field` of operator `op` is outside its domain.
    InvalidOperatorConfig {
        op: &'static str,
        field: &'static str,
        reason: String,
    },
    /// Blocking `rule` breaks the `select_opt_seq` →
    /// `apply_blocking_rules` contract.
    MalformedRule { rule: usize, issue: RuleIssue },
    /// The filter `spec` on `feature` — derived from the predicate `at`
    /// `(rule, predicate)`, or forced when `None` — fails `obligation`:
    /// it could prune pairs that satisfy its predicate, so blocking would
    /// no longer be lossless.
    UnsafeFilter {
        at: Option<(usize, usize)>,
        feature: usize,
        spec: FilterSpec,
        obligation: Obligation,
    },
    /// No value of feature `name` (over `range`), missing included,
    /// satisfies predicate `test`, so its rule never fires.
    DeadPredicate {
        at: (usize, usize),
        test: Predicate,
        name: String,
        range: (f64, f64),
    },
    /// Every value of feature `name` (over `range`), missing included,
    /// satisfies predicate `test`, so it never constrains its rule.
    AlwaysTruePredicate {
        at: (usize, usize),
        test: Predicate,
        name: String,
        range: (f64, f64),
    },
    /// The rule needs `name > t` (`test`, at `at`) and `name <= le` with
    /// `le <= t`, rejecting NaN too: it never fires.
    ContradictoryRule {
        at: (usize, usize),
        test: Predicate,
        name: String,
        le: f64,
    },
    /// Every pair `rule` drops is already dropped by the earlier rule `by`.
    UnreachableRule { rule: usize, by: usize },
    /// Forced filter `spec` is not the kind feature `name` indexes with,
    /// so it is never substituted.
    ForcedFilterMismatch {
        feature: usize,
        name: String,
        spec: FilterSpec,
    },
    /// `FalconConfig` `field` configures a blocking stage the match-only
    /// plan does not have.
    UnreachableStage { field: &'static str },
}

impl Diagnostic {
    /// Error (the plan is rejected) or warning (it runs).
    pub fn severity(&self) -> Severity {
        match self {
            Self::DeadPredicate { .. }
            | Self::AlwaysTruePredicate { .. }
            | Self::ContradictoryRule { .. }
            | Self::UnreachableRule { .. }
            | Self::ForcedFilterMismatch { .. }
            | Self::UnreachableStage { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Stable machine-readable code, one per variant.
    pub fn code(&self) -> &'static str {
        match self {
            Self::EmptyTable { .. } => "empty-table",
            Self::NoFeatures { .. } => "no-features",
            Self::InvalidClusterConfig { .. } => "invalid-cluster-config",
            Self::PairBudgetExceeded { .. } => "pair-budget-exceeded",
            Self::MemoryBudgetExceeded { .. } => "memory-budget-exceeded",
            Self::InvalidOperatorConfig { .. } => "invalid-operator-config",
            Self::MalformedRule { .. } => "malformed-rule",
            Self::UnsafeFilter { .. } => "recall-unsafe-filter",
            Self::DeadPredicate { .. } => "dead-predicate",
            Self::AlwaysTruePredicate { .. } => "always-true-predicate",
            Self::ContradictoryRule { .. } => "contradictory-rule",
            Self::UnreachableRule { .. } => "unreachable-rule",
            Self::ForcedFilterMismatch { .. } => "forced-filter-mismatch",
            Self::UnreachableStage { .. } => "unreachable-stage",
        }
    }

    /// Why the finding holds and what to do about it (`falcon plan check
    /// --explain`).
    pub fn explain(&self) -> &'static str {
        match self {
            Self::EmptyTable { .. } => "There is nothing to sample, block or match.",
            Self::NoFeatures { .. } => "The tables share no attribute the generator compares.",
            Self::InvalidClusterConfig { .. } => "Time divides by slots; operators budget memory.",
            Self::PairBudgetExceeded { .. } => "Raise max_pairs or let the planner block first.",
            Self::MemoryBudgetExceeded { .. } => "Raise the budget or force no plan needing it.",
            Self::InvalidOperatorConfig { .. } => {
                "Out of its domain the operator would divide by zero, never stop or keep nothing."
            }
            Self::MalformedRule { .. } => {
                "Applying the optimizer's sequence would panic or drop pairs arbitrarily."
            }
            Self::UnsafeFilter { .. } => {
                "Probing this filter could miss pairs that satisfy its predicate — the \
                 losslessness falcon-index/tests/lossless.rs checks dynamically, proved \
                 here before any index is built or crowd question issued."
            }
            Self::DeadPredicate { .. } => {
                "The threshold lies outside the measure's range and NaN is rejected too: \
                 dead weight, suggesting the forest was trained on degenerate labels."
            }
            Self::AlwaysTruePredicate { .. } => {
                "The threshold lies outside the measure's range on the accepting side and \
                 NaN passes too; dropping the predicate leaves the rule unchanged."
            }
            Self::ContradictoryRule { .. } => {
                "One feature is constrained to an empty interval and NaN is rejected; rule \
                 simplification keeps Gt/Le pairs, so this survives Optimization 3."
            }
            Self::UnreachableRule { .. } => {
                "Each predicate of the earlier rule is implied by one of this rule's, so \
                 it costs index builds and evaluation without changing the candidates."
            }
            Self::ForcedFilterMismatch { .. } => {
                "An override must index the attribute with the filter kind (and set \
                 measure) the feature derives; otherwise the derived filter is kept."
            }
            Self::UnreachableStage { .. } => {
                "The match-only plan builds no blocking index and runs no blocking \
                 operator; force block-and-match or drop the setting."
            }
        }
    }

    /// Where in the plan the finding points: the rule / predicate /
    /// feature coordinates it is specific to, then a readable anchor.
    fn span(&self) -> String {
        let (rule, predicate, feature, anchor) = match self {
            Self::EmptyTable { table } => (None, None, None, format!("table {table}")),
            Self::NoFeatures { stage } => (None, None, None, format!("{stage} stage")),
            Self::InvalidClusterConfig { field } => (None, None, None, format!("cluster.{field}")),
            Self::PairBudgetExceeded { .. } => (None, None, None, "max_pairs".into()),
            Self::MemoryBudgetExceeded { .. } => {
                (None, None, None, "cluster.mapper_memory_bytes".into())
            }
            Self::InvalidOperatorConfig { op, .. } => (None, None, None, (*op).into()),
            Self::MalformedRule { rule, .. } => (Some(*rule), None, None, String::new()),
            Self::UnsafeFilter { at, feature, .. } => {
                let (rule, predicate) = at.unzip();
                (rule, predicate, Some(*feature), String::new())
            }
            Self::DeadPredicate { at, test, name, .. }
            | Self::AlwaysTruePredicate { at, test, name, .. } => {
                let anchor = format!("{name} {} {}", op_str(test.op), test.threshold);
                (Some(at.0), Some(at.1), Some(test.feature), anchor)
            }
            Self::ContradictoryRule { at, test, name, le } => {
                let anchor = format!("{name} > {} and <= {le}", test.threshold);
                (Some(at.0), Some(at.1), Some(test.feature), anchor)
            }
            Self::UnreachableRule { rule, by } => {
                (Some(*rule), None, None, format!("subsumed by rule {by}"))
            }
            Self::ForcedFilterMismatch { feature, spec, .. } => {
                (None, None, Some(*feature), format!("{spec:?}"))
            }
            Self::UnreachableStage { field } => {
                (None, None, None, format!("{field} under a match-only plan"))
            }
        };
        let coords: Vec<String> = [
            ("rule", rule),
            ("predicate", predicate),
            ("feature", feature),
        ]
        .into_iter()
        .filter_map(|(name, at)| Some(format!("{name} {}", at?)))
        .collect();
        match (coords.join(" / "), anchor) {
            (coords, anchor) if anchor.is_empty() => coords,
            (coords, anchor) if coords.is_empty() => anchor,
            (coords, anchor) => format!("{coords} ({anchor})"),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !f.alternate() {
            let severity = match self.severity() {
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            write!(f, "{severity}[{}] {}: ", self.code(), self.span())?;
        }
        match self {
            Self::EmptyTable { table } => write!(f, "input table {table} is empty"),
            Self::NoFeatures { stage } => write!(
                f,
                "feature generation produced no {stage} features \
                 (tables share no comparable attributes)"
            ),
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
                    RuleIssue::NonFiniteThreshold { feature } => write!(
                        f,
                        "predicate on feature {feature} has a non-finite threshold"
                    ),
                }
            }
            Self::UnsafeFilter {
                feature,
                spec,
                obligation,
                ..
            } => write!(
                f,
                "recall-unsafe filter on feature {feature}: {spec:?} \
                 (obligation not met: {obligation})"
            ),
            Self::DeadPredicate {
                at,
                test,
                name,
                range: (lo, hi),
            } => write!(
                f,
                "no value of {name} (range [{lo}, {hi}]) satisfies `{} {}`, \
                 so rule {} never drops a pair",
                op_str(test.op),
                test.threshold,
                at.0
            ),
            Self::AlwaysTruePredicate {
                at,
                test,
                name,
                range: (lo, hi),
            } => write!(
                f,
                "every value of {name} (range [{lo}, {hi}]) satisfies `{} {}`; \
                 the predicate never constrains rule {}",
                op_str(test.op),
                test.threshold,
                at.0
            ),
            Self::ContradictoryRule { at, test, name, le } => write!(
                f,
                "rule {} requires {name} > {} and <= {le} simultaneously; \
                 it never drops a pair",
                at.0, test.threshold
            ),
            Self::UnreachableRule { rule, by } => write!(
                f,
                "every pair rule {rule} drops is already dropped by rule {by}; \
                 rule {rule} never takes effect"
            ),
            Self::ForcedFilterMismatch { feature, name, .. } => write!(
                f,
                "forced filter kind does not match feature {feature} ({name}); it will \
                 never be substituted"
            ),
            Self::UnreachableStage { field } => write!(
                f,
                "`{field}` configures the blocking stage, but the \
                 match-only plan has none; it will be ignored"
            ),
        }
    }
}

/// The result of pre-flight analysis: the plan the driver runs, the sizes
/// the decision was based on, and every finding.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// The plan template the driver executes.
    pub plan: PlanKind,
    /// `|A| * |B|`.
    pub pairs: u128,
    /// Number of blocking features the generator would produce.
    pub blocking_features: usize,
    /// Number of matching features the generator would produce.
    pub matching_features: usize,
    /// Every finding, errors and warnings, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanAnalysis {
    /// True when no finding is an error (warnings do not block a run).
    pub fn is_ok(&self) -> bool {
        self.errors().next().is_none()
    }

    /// The errors among [`PlanAnalysis::diagnostics`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.of(Severity::Error)
    }

    /// The warnings among [`PlanAnalysis::diagnostics`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.of(Severity::Warning)
    }

    fn of(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        (self.diagnostics.iter()).filter(move |d| d.severity() == severity)
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

fn op_str(op: SplitOp) -> &'static str {
    match op {
        SplitOp::Gt => ">",
        SplitOp::Le => "<=",
    }
}

/// Statically verify a concrete rule sequence against the blocking
/// feature set, before `apply_blocking_rules` builds anything from it.
/// Errors: a rule without predicates, a predicate outside the blocking
/// arity or with a non-finite threshold, and a derived index filter that
/// fails a recall-safety obligation ([`FilterSpec::obligations`], the property
/// `falcon-index/tests/lossless.rs` checks dynamically). Warnings: a
/// predicate no value (missing ⇒ NaN included) satisfies, or every value
/// does; a rule with `> t₁ ∧ <= t₂`, `t₂ <= t₁`, on one feature; a rule
/// whose drop-set an earlier rule's contains.
pub fn verify_rule_sequence(seq: &RuleSequence, features: &FeatureSet) -> Vec<Diagnostic> {
    let arity = features.len();
    let mut out = Vec::new();
    // A rule drops a pair iff ALL its predicates are satisfied, so one
    // unsatisfiable predicate kills the whole rule.
    let mut rule_dead = vec![false; seq.rules.len()];
    for (i, rule) in seq.rules.iter().enumerate() {
        let malformed = |issue| Diagnostic::MalformedRule { rule: i, issue };
        if rule.predicates.is_empty() {
            out.push(malformed(RuleIssue::NoPredicates));
        }
        for (j, &test) in rule.predicates.iter().enumerate() {
            let feature = test.feature;
            if feature >= arity {
                out.push(malformed(RuleIssue::FeatureOutOfRange { feature, arity }));
            }
            if !test.threshold.is_finite() {
                out.push(malformed(RuleIssue::NonFiniteThreshold { feature }));
                continue;
            }
            let Some(f) = features.features.get(feature) else {
                continue;
            };
            // Satisfiability over the feature's value range [lo, hi] plus
            // NaN (missing) under the predicate's nan_is_high orientation.
            let (lo, hi) = sim_range(f.sim);
            let (t, nan_high) = (test.threshold, test.nan_is_high);
            let (dead, always) = match test.op {
                SplitOp::Gt => (t >= hi && !nan_high, t < lo && nan_high),
                SplitOp::Le => (t < lo && nan_high, t >= hi && !nan_high),
            };
            let (name, range) = (f.name.clone(), (lo, hi));
            if dead {
                rule_dead[i] = true;
                out.push(Diagnostic::DeadPredicate {
                    at: (i, j),
                    test,
                    name,
                    range,
                });
            } else if always {
                out.push(Diagnostic::AlwaysTruePredicate {
                    at: (i, j),
                    test,
                    name,
                    range,
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
                    || (gt.nan_is_high && !le.nan_is_high)
                {
                    continue; // satisfiable (by NaN, at least)
                }
                rule_dead[i] = true;
                let name = match features.features.get(gt.feature) {
                    Some(f) => f.name.clone(),
                    None => format!("feature {}", gt.feature),
                };
                out.push(Diagnostic::ContradictoryRule {
                    at: (i, j),
                    test: *gt,
                    name,
                    le: le.threshold,
                });
            }
        }
    }

    // Rule j is unreachable when some earlier live rule drops a superset:
    // every predicate of that rule is implied by one of rule j's.
    for j in 1..seq.rules.len() {
        if rule_dead[j] || seq.rules[j].predicates.is_empty() {
            continue;
        }
        let implied = |p: &Predicate| {
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
        let Some(by) = (0..j).find(|&i| {
            !rule_dead[i]
                && !seq.rules[i].predicates.is_empty()
                && seq.rules[i].predicates.iter().all(implied)
        }) else {
            continue;
        };
        rule_dead[j] = true; // drops nothing new; don't chain off it
        out.push(Diagnostic::UnreachableRule { rule: j, by });
    }

    // Recall-safety obligations on every filter the sequence derives —
    // the static twin of falcon-index/tests/lossless.rs.
    for (i, rule) in seq.rules.iter().enumerate() {
        for (j, p) in rule.predicates.iter().enumerate() {
            let q = p.complement();
            let Some(f) = features.features.get(q.feature) else {
                continue;
            };
            let gt = q.op == SplitOp::Gt;
            let Some(spec) = FilterSpec::from_predicate(f.sim, &f.a_attr, gt, q.threshold) else {
                continue; // unfilterable predicate: nothing is pruned
            };
            if let Err(obligation) = spec.verify() {
                out.push(Diagnostic::UnsafeFilter {
                    at: Some((i, j)),
                    feature: q.feature,
                    spec,
                    obligation,
                });
            }
        }
    }
    out
}

/// Verify the [`FalconConfig::force_filters`] overrides against the
/// blocking feature set: each must reference a real feature and discharge
/// its recall-safety obligations (errors), and be of the kind its feature
/// indexes with (a warning: otherwise it is never substituted).
fn check_forced_filters(forced: &[ForcedFilter], features: &FeatureSet, out: &mut Vec<Diagnostic>) {
    for ff in forced {
        let (feature, spec) = (ff.feature, ff.spec.clone());
        let Some(f) = features.features.get(feature) else {
            out.push(Diagnostic::InvalidOperatorConfig {
                op: "force_filters",
                field: "feature",
                reason: format!(
                    "references blocking feature {feature} but arity is {}",
                    features.len()
                ),
            });
            continue;
        };
        if let Err(obligation) = spec.verify() {
            out.push(Diagnostic::UnsafeFilter {
                at: None,
                feature,
                spec,
                obligation,
            });
        } else if !spec.is_for(f.sim, &f.a_attr) {
            let name = f.name.clone();
            out.push(Diagnostic::ForcedFilterMismatch {
                feature,
                name,
                spec,
            });
        }
    }
}

/// Every cluster field the engine divides or budgets by, and every
/// operator parameter, inside its domain — in this order.
fn check_configs(cfg: &FalconConfig, out: &mut Vec<Diagnostic>) {
    let c = &cfg.cluster;
    for (field, value) in [
        ("nodes", c.nodes),
        ("map_slots_per_node", c.map_slots_per_node),
        ("reduce_slots_per_node", c.reduce_slots_per_node),
        ("mapper_memory_bytes", c.mapper_memory_bytes),
    ] {
        if value == 0 {
            out.push(Diagnostic::InvalidClusterConfig { field });
        }
    }
    let mut check = |ok: bool, op, field, reason: String| {
        if !ok {
            out.push(Diagnostic::InvalidOperatorConfig { op, field, reason });
        }
    };
    let positive = || String::from("must be positive");
    let al = &cfg.al;
    check(
        cfg.sample_size > 0,
        "sample_pairs",
        "sample_size",
        positive(),
    );
    let why = format!("fan-out y must be >= 2, got {}", cfg.sample_fanout);
    check(cfg.sample_fanout >= 2, "sample_pairs", "sample_fanout", why);
    check(
        al.max_iterations > 0,
        "al_matcher",
        "max_iterations",
        positive(),
    );
    let eps = al.convergence_eps;
    let why = format!("must be finite and >= 0, got {eps}");
    check(
        eps.is_finite() && eps >= 0.0,
        "al_matcher",
        "convergence_eps",
        why,
    );
    check(
        cfg.max_pairs > 0,
        "apply_blocking_rules",
        "max_pairs",
        positive(),
    );
}

/// Analyze a prospective plain run (`rounds = 0`) of `Falcon::try_run(a,
/// b, ...)` under `cfg`: the feature-generation scan (cheap, no jobs),
/// then every statically decidable check. `falcon plan check` calls it;
/// the driver, which needs the features anyway, calls [`analyze_with`].
pub fn analyze(a: &Table, b: &Table, cfg: &FalconConfig) -> PlanAnalysis {
    analyze_with(a, b, cfg, &generate_features(a, b), 0)
}

/// [`analyze`] over the library `generate_features(a, b)` already made,
/// for a run of `rounds` workflow rounds. [`PlanAnalysis::plan`] is the
/// plan the driver then executes: the workflow (`rounds ≥ 1`) always
/// blocks; a plain run takes [`FalconConfig::force_plan`], or else
/// [`choose_plan`]'s pick.
pub fn analyze_with(
    a: &Table,
    b: &Table,
    cfg: &FalconConfig,
    lib: &FeatureLibrary,
    rounds: usize,
) -> PlanAnalysis {
    let mut out = Vec::new();
    for (table, t) in [("A", a), ("B", b)] {
        if t.is_empty() {
            out.push(Diagnostic::EmptyTable { table });
        }
    }
    check_configs(cfg, &mut out);

    let pairs = a.len() as u128 * b.len() as u128;
    let memory = cfg.cluster.mapper_memory_bytes;
    let plan = match (rounds, cfg.force_plan) {
        (1.., _) => PlanKind::BlockAndMatch,
        (0, Some(forced)) => forced,
        (0, None) => choose_plan(a, b, lib.matching.len(), memory, cfg.max_pairs),
    };
    let memory = memory as u128;

    if !a.is_empty() && !b.is_empty() {
        if lib.matching.is_empty() {
            out.push(Diagnostic::NoFeatures { stage: "matching" });
        }
        if plan == PlanKind::BlockAndMatch && lib.blocking.is_empty() {
            out.push(Diagnostic::NoFeatures { stage: "blocking" });
        }
    }

    // Plan-template feasibility. `choose_plan` only picks MatchOnly when
    // both budgets hold, so these fire for *forced* plans and operators.
    let budget = cfg.max_pairs;
    let over_pairs = |cause| {
        (pairs > budget).then_some(Diagnostic::PairBudgetExceeded {
            pairs,
            budget,
            cause,
        })
    };
    let over_memory = |stage, required| {
        (required > memory).then_some(Diagnostic::MemoryBudgetExceeded {
            stage,
            required,
            budget: memory,
        })
    };
    match (plan, cfg.force_physical) {
        (PlanKind::MatchOnly, _) => {
            out.extend(over_pairs("match-only plan"));
            let fv_bytes = estimate_fv_bytes(a, b, lib.matching.len());
            out.extend(over_memory("match-only feature vectors", fv_bytes));
        }
        (PlanKind::BlockAndMatch, Some(PhysicalOp::MapSide)) => {
            let table_bytes = estimate_table_bytes(a) as u128;
            out.extend(over_memory("map_side broadcast of A", table_bytes));
            out.extend(over_pairs("map_side"));
        }
        (PlanKind::BlockAndMatch, Some(PhysicalOp::ReduceSplit)) => {
            out.extend(over_pairs("reduce_split"));
        }
        (PlanKind::BlockAndMatch, _) => {}
    }

    check_forced_filters(&cfg.force_filters, &lib.blocking, &mut out);

    // Blocking-only configuration under a plan with no blocking stage is
    // inert.
    let inert = |set: bool, field| {
        (set && plan == PlanKind::MatchOnly).then_some(Diagnostic::UnreachableStage { field })
    };
    out.extend(inert(!cfg.force_filters.is_empty(), "force_filters"));
    out.extend(inert(cfg.force_physical.is_some(), "force_physical"));

    PlanAnalysis {
        plan,
        pairs,
        blocking_features: lib.blocking.len(),
        matching_features: lib.matching.len(),
        diagnostics: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Falcon;
    use crate::error::FalconError;
    use crate::rules::Rule;
    use falcon_crowd::sim::{GroundTruth, OracleCrowd};
    use falcon_table::{AttrType, Schema, Value};
    use falcon_textsim::Tokenizer;

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
        diags.iter().map(Diagnostic::code).collect()
    }

    #[test]
    fn default_config_on_real_tables_is_accepted() {
        let (a, b) = tables(20);
        let analysis = analyze(&a, &b, &FalconConfig::default());
        assert!(analysis.is_ok(), "unexpected: {:?}", analysis.diagnostics);
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
            .diagnostics
            .contains(&Diagnostic::EmptyTable { table: "A" }));
        let analysis = analyze(&a, &empty, &FalconConfig::default());
        assert!(analysis
            .diagnostics
            .contains(&Diagnostic::EmptyTable { table: "B" }));
    }

    #[test]
    fn zero_cluster_fields_are_rejected() {
        let (a, b) = tables(5);
        let mut cfg = FalconConfig::default();
        cfg.cluster.nodes = 0;
        cfg.cluster.mapper_memory_bytes = 0;
        let analysis = analyze(&a, &b, &cfg);
        for field in ["nodes", "mapper_memory_bytes"] {
            assert!(analysis
                .errors()
                .any(|d| *d == Diagnostic::InvalidClusterConfig { field }));
        }
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
        assert!(analysis.errors().any(|d| matches!(
            d,
            Diagnostic::PairBudgetExceeded {
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
        assert!(analysis.errors().any(|d| matches!(
            d,
            Diagnostic::MemoryBudgetExceeded {
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
        assert!(analysis.errors().any(|d| matches!(
            d,
            Diagnostic::PairBudgetExceeded {
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
            max_pairs: 0,
            ..FalconConfig::default()
        };
        cfg.al.max_iterations = 0;
        cfg.al.convergence_eps = f64::NAN;
        let analysis = analyze(&a, &b, &cfg);
        let fields: Vec<(&str, &str)> = analysis
            .errors()
            .filter_map(|d| match d {
                Diagnostic::InvalidOperatorConfig { op, field, .. } => Some((*op, *field)),
                _ => None,
            })
            .collect();
        for expected in [
            ("sample_pairs", "sample_size"),
            ("sample_pairs", "sample_fanout"),
            ("al_matcher", "max_iterations"),
            ("al_matcher", "convergence_eps"),
            ("apply_blocking_rules", "max_pairs"),
        ] {
            assert!(
                fields.contains(&expected),
                "missing {expected:?} in {fields:?}"
            );
        }
    }

    #[test]
    fn rule_sequence_contract_violations_are_typed() {
        let features = blocking_features();
        let arity = features.len();
        let seq = RuleSequence::new(vec![
            Rule { predicates: vec![] }, // no predicates
            Rule {
                predicates: vec![pred(arity + 4, SplitOp::Le, 0.5, true)],
            }, // feature out of range
            Rule {
                predicates: vec![pred(0, SplitOp::Le, f64::NAN, true)],
            }, // non-finite threshold
        ]);
        let malformed = |rule, issue| Diagnostic::MalformedRule { rule, issue };
        assert_eq!(
            verify_rule_sequence(&seq, &features),
            vec![
                malformed(0, RuleIssue::NoPredicates),
                malformed(
                    1,
                    RuleIssue::FeatureOutOfRange {
                        feature: arity + 4,
                        arity
                    }
                ),
                malformed(2, RuleIssue::NonFiniteThreshold { feature: 0 }),
            ]
        );
    }

    #[test]
    fn well_formed_sequence_passes_the_contract() {
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(2, SplitOp::Gt, 0.4, false)],
        }]);
        let diags = verify_rule_sequence(&seq, &blocking_features());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_predicate_on_a_unit_range_feature_is_flagged() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        // jaccard > 1.0 with NaN low: satisfiable by nothing.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Gt, 1.0, false)],
        }]);
        let diags = verify_rule_sequence(&seq, &features);
        assert_eq!(codes(&diags), vec!["dead-predicate"], "{diags:?}");
        assert_eq!(diags[0].severity(), Severity::Warning);
        assert!(matches!(
            diags[0],
            Diagnostic::DeadPredicate { at: (0, 0), test, .. } if test.feature == jac
        ));
        // With NaN high the missing-value path still fires the rule.
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Gt, 1.0, true)],
        }]);
        let diags = verify_rule_sequence(&seq, &features);
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
        let diags = verify_rule_sequence(&seq, &features);
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
        let diags = verify_rule_sequence(&seq, &features);
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
        let diags = verify_rule_sequence(&seq, &features);
        assert_eq!(codes(&diags), vec!["contradictory-rule"], "{diags:?}");
        assert!(matches!(
            diags[0],
            Diagnostic::ContradictoryRule { at: (0, 0), .. }
        ));
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
        let diags = verify_rule_sequence(&seq, &features);
        assert_eq!(diags, vec![Diagnostic::UnreachableRule { rule: 1, by: 0 }]);
        // The reverse order is NOT subsumption: <= 0.5 drops more.
        let seq = RuleSequence::new(vec![
            Rule {
                predicates: vec![pred(jac, SplitOp::Le, 0.3, true)],
            },
            Rule {
                predicates: vec![pred(jac, SplitOp::Le, 0.5, true)],
            },
        ]);
        let diags = verify_rule_sequence(&seq, &features);
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
        let diags = verify_rule_sequence(&seq, &features);
        assert_eq!(codes(&diags), vec!["recall-unsafe-filter"], "{diags:?}");
        assert_eq!(diags[0].severity(), Severity::Error);
        assert!(matches!(
            diags[0],
            Diagnostic::UnsafeFilter { at: Some((0, 0)), feature, .. } if feature == abs
        ));
    }

    #[test]
    fn forced_filter_with_nonpositive_threshold_is_rejected() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let ff = ForcedFilter::for_feature(&features, jac, 0.0).expect("in range");
        let mut diags = Vec::new();
        check_forced_filters(&[ff], &features, &mut diags);
        assert_eq!(codes(&diags), vec!["recall-unsafe-filter"]);
        assert!(matches!(
            diags[0],
            Diagnostic::UnsafeFilter { at: None, feature, .. } if feature == jac
        ));
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
        let mut diags = Vec::new();
        check_forced_filters(&[oob, mismatch], &features, &mut diags);
        assert_eq!(
            codes(&diags),
            vec!["invalid-operator-config", "forced-filter-mismatch"]
        );
        assert_eq!(diags[0].severity(), Severity::Error);
        assert_eq!(diags[1].severity(), Severity::Warning);
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
            .errors()
            .any(|d| d.code() == "recall-unsafe-filter"));
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
        assert!(analysis.is_ok(), "{:?}", analysis.diagnostics);
        assert_eq!(
            analysis.diagnostics,
            vec![
                Diagnostic::UnreachableStage {
                    field: "force_filters"
                },
                Diagnostic::UnreachableStage {
                    field: "force_physical"
                },
            ]
        );
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
                analyze_with(&a, &b, &cfg, &generate_features(&a, &b), 0)
            );
        }
    }

    /// The workflow always blocks: at `rounds ≥ 1` the analysis judges the
    /// block-and-match plan whatever `force_plan` says.
    #[test]
    fn the_workflow_is_analysed_as_the_plan_it_runs() {
        let (a, b) = tables(5);
        let cfg = FalconConfig {
            force_plan: Some(PlanKind::MatchOnly),
            max_pairs: 3,
            ..FalconConfig::default()
        };
        let lib = generate_features(&a, &b);
        let plain = analyze_with(&a, &b, &cfg, &lib, 0);
        assert_eq!(plain.plan, PlanKind::MatchOnly);
        assert!(!plain.is_ok());
        let workflow = analyze_with(&a, &b, &cfg, &lib, 2);
        assert_eq!(workflow.plan, PlanKind::BlockAndMatch);
        assert!(workflow.is_ok(), "{:?}", workflow.diagnostics);
    }

    /// Every check records its finding once, in one list.
    #[test]
    fn each_finding_is_one_diagnostic() {
        let (a, b) = tables(10);
        let features = generate_features(&a, &b).blocking;
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let cfg = FalconConfig {
            force_plan: Some(PlanKind::BlockAndMatch),
            force_filters: vec![ForcedFilter::for_feature(&features, jac, -1.0).expect("in range")],
            ..FalconConfig::default()
        };
        let analysis = analyze(&a, &b, &cfg);
        assert_eq!(codes(&analysis.diagnostics), vec!["recall-unsafe-filter"]);

        let seq = RuleSequence::new(vec![Rule { predicates: vec![] }]);
        assert_eq!(
            verify_rule_sequence(&seq, &features),
            vec![Diagnostic::MalformedRule {
                rule: 0,
                issue: RuleIssue::NoPredicates
            }]
        );

        let empty = Table::new("e", b.schema().clone(), Vec::<Vec<Value>>::new());
        let analysis = analyze(&a, &empty, &FalconConfig::default());
        assert_eq!(
            analysis.diagnostics,
            vec![Diagnostic::EmptyTable { table: "B" }]
        );
    }

    #[test]
    fn the_run_is_rejected_with_exactly_the_analysis_errors() {
        let (a, b) = tables(5);
        let mut cfg = FalconConfig {
            sample_fanout: 1,
            force_plan: Some(PlanKind::MatchOnly),
            force_physical: Some(PhysicalOp::MapSide),
            ..FalconConfig::default()
        };
        cfg.cluster.nodes = 0;
        let analysis = analyze(&a, &b, &cfg);
        assert!(analysis.warnings().count() > 0);
        let err = Falcon::new(cfg)
            .try_run(&a, &b, OracleCrowd::new(GroundTruth::new([])))
            .expect_err("rejected");
        assert_eq!(err, FalconError::Plan(analysis.errors().cloned().collect()));
        assert_eq!(
            err.to_string(),
            "plan analysis rejected the run: cluster config field nodes must be nonzero; \
             sample_pairs.sample_fanout: fan-out y must be >= 2, got 1"
        );
    }

    #[test]
    fn every_variant_has_its_own_code() {
        let (name, test, range) = (
            "f".to_string(),
            pred(0, SplitOp::Gt, 1.0, false),
            (0.0, 1.0),
        );
        let spec = FilterSpec::Equals {
            a_attr: name.clone(),
        };
        let all = [
            Diagnostic::EmptyTable { table: "A" },
            Diagnostic::NoFeatures { stage: "matching" },
            Diagnostic::InvalidClusterConfig { field: "nodes" },
            Diagnostic::PairBudgetExceeded {
                pairs: 2,
                budget: 1,
                cause: "map_side",
            },
            Diagnostic::MemoryBudgetExceeded {
                stage: "map_side broadcast of A",
                required: 2,
                budget: 1,
            },
            Diagnostic::InvalidOperatorConfig {
                op: "al_matcher",
                field: "batch",
                reason: String::new(),
            },
            Diagnostic::MalformedRule {
                rule: 0,
                issue: RuleIssue::NoPredicates,
            },
            Diagnostic::UnsafeFilter {
                at: None,
                feature: 0,
                spec: spec.clone(),
                obligation: Obligation::ThresholdPositive,
            },
            Diagnostic::DeadPredicate {
                at: (0, 0),
                test,
                name: name.clone(),
                range,
            },
            Diagnostic::AlwaysTruePredicate {
                at: (0, 0),
                test,
                name: name.clone(),
                range,
            },
            Diagnostic::ContradictoryRule {
                at: (0, 0),
                test,
                name: name.clone(),
                le: 0.3,
            },
            Diagnostic::UnreachableRule { rule: 1, by: 0 },
            Diagnostic::ForcedFilterMismatch {
                feature: 0,
                name,
                spec,
            },
            Diagnostic::UnreachableStage {
                field: "force_physical",
            },
        ];
        let distinct: std::collections::BTreeSet<_> = all.iter().map(Diagnostic::code).collect();
        assert_eq!(distinct.len(), all.len());
        assert!(all.iter().all(|d| !d.explain().is_empty()));
    }

    #[test]
    fn diagnostics_render_with_span_and_code() {
        let features = blocking_features();
        let jac = feature_with(&features, SimFunction::Jaccard(Tokenizer::QGram(3)));
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![pred(jac, SplitOp::Gt, 1.0, false)],
        }]);
        let diags = verify_rule_sequence(&seq, &features);
        let rendered = diags[0].to_string();
        assert_eq!(
            rendered,
            format!(
                "warning[dead-predicate] rule 0 / predicate 0 / feature {jac} ({name} > 1): \
                 no value of {name} (range [0, 1]) satisfies `> 1`, so rule 0 never drops a pair",
                name = features.get(jac).name
            )
        );
        let empty = Diagnostic::EmptyTable { table: "B" };
        assert_eq!(
            empty.to_string(),
            "error[empty-table] table B: input table B is empty"
        );
        assert_eq!(format!("{empty:#}"), "input table B is empty");
    }
}
