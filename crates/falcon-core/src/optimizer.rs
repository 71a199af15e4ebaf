//! The three masking optimizations of Section 10.2.
//!
//! 1. **Index prebuilding** — while `al_matcher` crowdsources (rules still
//!    unknown) build *generic* artifacts: global token orderings over the
//!    run's token columns and threshold-free equality indexes.
//!    While `eval_rules` crowdsources (top-20 candidate rules known) build
//!    every per-predicate index those rules could need.
//! 2. **Speculative rule execution** — while `eval_rules` crowdsources,
//!    execute the candidate rules individually in rank order; if the final
//!    sequence contains a speculated rule, `apply_blocking_rules` starts
//!    from the smallest speculated output instead of the full tables.
//! 3. **Masked pair selection** — implemented inside
//!    [`crate::ops::al_matcher`]; enabled here for large candidate sets.
//!
//! All scheduled work is recorded via [`Timeline::masked_machine`], which
//! charges only the portion exceeding the accumulated crowd latency. Both
//! sides of that comparison are priced, not measured, so how far
//! speculation gets (it stops when the capacity runs out) is the same on
//! every host.

use crate::error::FalconError;
use crate::features::FeatureSet;
use crate::indexing::{BuiltIndexes, ConjunctSpecs};
use crate::physical::{self, PhysicalOp};
use crate::rules::{Rule, RuleKey, RuleSequence};
use crate::timeline::Timeline;
use falcon_dataflow::Cluster;
use falcon_index::FilterSpec;
use falcon_table::{IdPair, Table};
use falcon_textsim::{DetMap, DetSet, SimFunction};

/// Which masking optimizations are enabled (Table 5's O₁/O₂/O₃).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// O₁: build indexes during crowdsourcing.
    pub prebuild_indexes: bool,
    /// O₂: speculatively execute rules / matchers during crowdsourcing.
    pub speculative_execution: bool,
    /// O₃: mask pair selection inside the matching-stage `al_matcher`.
    pub mask_pair_selection: bool,
}

impl Default for OptFlags {
    fn default() -> Self {
        Self {
            prebuild_indexes: true,
            speculative_execution: true,
            mask_pair_selection: true,
        }
    }
}

impl OptFlags {
    /// Everything off (the unoptimized baseline "U" of Table 5).
    pub fn none() -> Self {
        Self {
            prebuild_indexes: false,
            speculative_execution: false,
            mask_pair_selection: false,
        }
    }
}

/// Masking step 1a: generic prebuild during the blocking-stage
/// `al_matcher` — token orders for every set-similarity blocking feature
/// and hash indexes for every exact-match feature (none of which depend
/// on the eventual rule thresholds).
pub fn prebuild_generic(
    cluster: &Cluster,
    a: &Table,
    features: &FeatureSet,
    built: &mut BuiltIndexes<'_>,
    timeline: &mut Timeline,
) -> Result<(), FalconError> {
    let mut seen_orders = DetSet::new();
    let mut seen_eq = DetSet::new();
    for f in &features.features {
        match f.sim {
            s if s.is_set_based() => {
                // A set-based sim without a tokenizer cannot occur; skip
                // (prebuilding is an optimization, never a correctness need).
                let Some(tok) = s.tokenizer() else { continue };
                if seen_orders.insert((f.a_idx, tok)) {
                    let cost = built.build_order(cluster, a, &f.a_attr, tok)?;
                    timeline.masked_machine("index_build", cost);
                }
            }
            SimFunction::ExactMatch if seen_eq.insert(f.a_idx) => {
                let cost = built.build_spec(
                    cluster,
                    a,
                    &FilterSpec::Equals {
                        a_attr: f.a_attr.clone(),
                    },
                )?;
                timeline.masked_machine("index_build", cost);
            }
            _ => {}
        }
    }
    Ok(())
}

/// Masking step 1b: build every per-predicate index the top-ranked rules
/// could need, during the `eval_rules` crowd rounds. Specs are derived
/// exactly as `apply_blocking_rules` derives them, so the cache keys
/// match what it will look up.
pub fn prebuild_for_rules(
    cluster: &Cluster,
    a: &Table,
    rules: &[Rule],
    features: &FeatureSet,
    built: &mut BuiltIndexes<'_>,
    timeline: &mut Timeline,
) -> Result<(), FalconError> {
    let seq = RuleSequence::new(rules.to_vec());
    let conjuncts = ConjunctSpecs::derive(&seq, features);
    for spec in conjuncts.all_specs() {
        let cost = built.build_spec(cluster, a, &spec)?;
        timeline.masked_machine("index_build", cost);
    }
    Ok(())
}

/// Masking step 2: speculatively execute candidate rules one at a time in
/// rank order (most promising first), while masking capacity remains.
/// Rules with poor sample selectivity are skipped — their single-rule
/// outputs approach `A × B`, so materializing them would cost more than
/// they could ever save. Returns the per-rule surviving pair sets keyed by
/// [`Rule::canonical_key`].
#[allow(clippy::too_many_arguments)]
pub fn speculate_rules(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    rules: &[(Rule, f64)],
    features: &FeatureSet,
    built: &mut BuiltIndexes<'_>,
    timeline: &mut Timeline,
    max_pairs: u128,
) -> Result<DetMap<RuleKey, Vec<IdPair>>, FalconError> {
    /// Only rules keeping at most this fraction of the sample are worth
    /// materializing individually.
    const MAX_KEEP_FRACTION: f64 = 0.05;
    let mut out = DetMap::new();
    for (rule, selectivity) in rules {
        if timeline.remaining_capacity().is_zero() {
            break; // the crowd finished; stop speculating
        }
        if *selectivity > MAX_KEEP_FRACTION {
            continue;
        }
        let seq = RuleSequence::new(vec![rule.clone()]);
        let conjuncts = ConjunctSpecs::derive(&seq, features);
        if conjuncts.filterable().is_empty() {
            continue; // no index support; speculation would enumerate A×B
        }
        for spec in conjuncts.all_specs() {
            let cost = built.build_spec(cluster, a, &spec)?;
            timeline.masked_machine("index_build", cost);
        }
        let result = physical::execute(
            PhysicalOp::ApplyAll,
            cluster,
            a,
            b,
            features,
            &seq,
            &conjuncts,
            built,
            &[0.5],
            max_pairs,
        );
        if let Ok(res) = result {
            timeline.masked_machine("speculative_exec", res.cost(&cluster.config));
            out.insert(rule.canonical_key(), res.candidates);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_features;
    use crate::rules::Predicate;
    use crate::stage::StageCost;
    use falcon_dataflow::ClusterConfig;
    use falcon_forest::SplitOp;
    use falcon_table::{AttrType, Schema, Value};
    use falcon_textsim::Tokenizer;
    use std::time::Duration;

    fn tables() -> (Table, Table) {
        let schema = Schema::new([("title", AttrType::Str), ("price", AttrType::Num)]);
        let rows = |n: usize| {
            (0..n).map(move |i| {
                vec![
                    Value::str(format!("gadget {} extra", i % 7)),
                    Value::num(i as f64),
                ]
            })
        };
        (
            Table::new("a", schema.clone(), rows(25)),
            Table::new("b", schema, rows(25)),
        )
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    #[test]
    fn generic_prebuild_creates_orders_and_eq_indexes() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let mut built = BuiltIndexes::new();
        let mut tl = Timeline::new();
        tl.crowd("al_matcher", Duration::from_secs(3600));
        prebuild_generic(&cluster(), &a, &lib.blocking, &mut built, &mut tl).expect("prebuild");
        let again = built.build_order(&cluster(), &a, "title", Tokenizer::Word);
        assert_eq!(again.expect("order"), StageCost::default(), "prebuilt");
        // Fully masked: total time is still just the crowd hour.
        assert_eq!(tl.total_time(), Duration::from_secs(3600));
        assert!(tl.machine_time() > Duration::ZERO);
    }

    #[test]
    fn speculation_stops_without_capacity() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let jac = lib
            .blocking
            .features
            .iter()
            .position(|f| f.sim == SimFunction::Jaccard(Tokenizer::Word))
            .unwrap();
        let rule = Rule {
            predicates: vec![Predicate {
                feature: jac,
                op: SplitOp::Le,
                threshold: 0.6,
                nan_is_high: true,
            }],
        };
        let mut built = BuiltIndexes::new();
        let mut tl = Timeline::new(); // zero capacity
        let out = speculate_rules(
            &cluster(),
            &a,
            &b,
            &[(rule.clone(), 0.01)],
            &lib.blocking,
            &mut built,
            &mut tl,
            1 << 30,
        )
        .expect("speculate");
        assert!(out.is_empty());
        // With capacity, the rule gets speculated.
        let mut tl = Timeline::new();
        tl.crowd("eval_rules", Duration::from_secs(3600));
        let out = speculate_rules(
            &cluster(),
            &a,
            &b,
            &[(rule.clone(), 0.01)],
            &lib.blocking,
            &mut built,
            &mut tl,
            1 << 30,
        )
        .expect("speculate");
        assert!(out.contains_key(&rule.canonical_key()));
        // Unselective rules are skipped even with capacity.
        let out = speculate_rules(
            &cluster(),
            &a,
            &b,
            &[(rule.clone(), 0.9)],
            &lib.blocking,
            &mut built,
            &mut tl,
            1 << 30,
        )
        .expect("speculate");
        assert!(out.is_empty());
    }
}
