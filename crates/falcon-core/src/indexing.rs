//! Index building for `apply_blocking_rules` (Section 7.5).
//!
//! For every filterable predicate of the positive CNF rule we build a
//! [`PredicateIndex`]. Token orderings follow the paper's 3-MR-job
//! pipeline: job 1 counts token frequencies over `A`, job 2 produces the
//! global ordering, job 3 assembles the prefix (and scalar) indexes.
//!
//! Built indexes are cached by predicate key so the masking optimizer can
//! prebuild them during crowd rounds (Section 10.2, Solution 1) and
//! `apply_blocking_rules` can reuse them for free.

use crate::driver::ForcedFilter;
use crate::error::FalconError;
use crate::features::FeatureSet;
use crate::rules::RuleSequence;
use crate::stage::StageCost;
use crate::tokens::id_splits;
use falcon_dataflow::{run_map_combine_reduce, Cluster, Emitter};
use falcon_forest::SplitOp;
use falcon_index::{FilterSpec, IndexError, PredicateIndex, TokenOrder};
use falcon_table::{Table, TupleId};
use falcon_textsim::{TokenDict, TokenProfile, Tokenizer};
use std::collections::HashMap;
use std::sync::Arc;

/// Stable cache key for a filter spec.
pub fn predicate_key(spec: &FilterSpec) -> String {
    match spec {
        FilterSpec::Equals { a_attr } => format!("eq:{a_attr}"),
        FilterSpec::Range {
            a_attr,
            width,
            relative,
        } => format!("rng:{a_attr}:{width:.6}:{relative}"),
        FilterSpec::SetSim {
            a_attr,
            sim,
            threshold,
        } => format!("set:{a_attr}:{}:{threshold:.6}", sim.name()),
        FilterSpec::EditSim { a_attr, threshold } => format!("ed:{a_attr}:{threshold:.6}"),
        FilterSpec::Signature { inner, words } => {
            format!("sig{words}:{}", predicate_key(inner))
        }
    }
}

/// Configuration of the signature pre-filter layer (the probabilistic
/// provably-lossless Bloom-signature gate in front of set-similarity
/// probes).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PreFilterConfig {
    /// Wrap every derived set-similarity filter spec in a signature
    /// pre-filter. On by default: the filter is provably lossless, the
    /// planner still decides per conjunct whether to *use* it.
    pub enabled: bool,
    /// Signature width in 64-bit words (1..=64, i.e. 64–4096 bits; the
    /// issue's sweet spot is 1–4 words). Out-of-range widths fail static
    /// verification instead of building an unsound filter.
    pub words: usize,
}

impl Default for PreFilterConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            words: 2,
        }
    }
}

/// Per-conjunct filter layout for a rule sequence: for rule `i`,
/// `conjuncts[i][j]` is the filter spec of the j-th complemented predicate
/// (`None` = unfilterable predicate). The paired `b_idx` is the B-side
/// attribute index the probe reads.
#[derive(Debug, Clone)]
pub struct ConjunctSpecs {
    /// `specs[i][j]`: filter spec + B-attr index for predicate `j` of
    /// conjunct `i`, or `None` when that predicate admits no filter.
    pub specs: Vec<Vec<Option<(FilterSpec, usize)>>>,
    /// `keys[i][j]`: the [`predicate_key`] of `specs[i][j]`, computed
    /// once at construction. Index build and probe paths look up the
    /// cache through these instead of re-formatting the key per
    /// conjunct on every build/probe (the hot path during masked
    /// prebuild and speculation).
    keys: Vec<Vec<Option<String>>>,
}

impl ConjunctSpecs {
    /// Wrap raw per-conjunct specs, computing every cache key once.
    pub fn from_specs(specs: Vec<Vec<Option<(FilterSpec, usize)>>>) -> ConjunctSpecs {
        let keys = specs
            .iter()
            .map(|c| {
                c.iter()
                    .map(|s| s.as_ref().map(|(spec, _)| predicate_key(spec)))
                    .collect()
            })
            .collect();
        ConjunctSpecs { specs, keys }
    }

    /// Cached [`predicate_key`] for predicate `pi` of conjunct `ci`
    /// (`None` when that predicate admits no filter).
    pub fn key_of(&self, ci: usize, pi: usize) -> Option<&str> {
        self.keys.get(ci)?.get(pi)?.as_deref()
    }
    /// Derive the specs from a rule sequence over a blocking feature set
    /// (Section 7.3, step 2: "analyze CNF rule to infer index-based
    /// filters").
    pub fn derive(seq: &RuleSequence, features: &FeatureSet) -> ConjunctSpecs {
        Self::derive_with(seq, features, &[])
    }

    /// [`ConjunctSpecs::derive`] with per-feature filter overrides.
    ///
    /// A forced spec replaces the derived spec for a predicate only when
    /// the substitution is provably recall-safe — it must describe a
    /// *superset* of the derived filter's candidates on the same indexed
    /// attribute (a smaller similarity threshold, or a wider range of the
    /// same kind) and discharge its own proof obligations. Anything else
    /// keeps the derived spec: an override may weaken pruning, never
    /// strengthen it, so blocking stays lossless. Unfilterable predicates
    /// stay unfiltered (no bound exists to relax).
    pub fn derive_with(
        seq: &RuleSequence,
        features: &FeatureSet,
        forced: &[ForcedFilter],
    ) -> ConjunctSpecs {
        let specs = seq
            .rules
            .iter()
            .map(|rule| {
                rule.predicates
                    .iter()
                    .map(|p| {
                        let q = p.complement(); // positive-rule predicate
                        let f = features.get(q.feature);
                        FilterSpec::from_predicate(
                            f.sim,
                            &f.a_attr,
                            q.op == SplitOp::Gt,
                            q.threshold,
                        )
                        .map(|derived| {
                            let spec = forced
                                .iter()
                                .find(|ff| ff.feature == q.feature)
                                .filter(|ff| safe_substitution(&ff.spec, &derived))
                                .map_or(derived, |ff| ff.spec.clone());
                            (spec, f.b_idx)
                        })
                    })
                    .collect()
            })
            .collect();
        Self::from_specs(specs)
    }

    /// Wrap every set-similarity spec in a signature pre-filter of the
    /// configured width (a no-op when disabled). Wrapping happens *after*
    /// forced-filter substitution so overrides are judged against the
    /// base specs; non-set-based specs pass through unchanged
    /// ([`FilterSpec::with_signature`] only wraps `SetSim`).
    pub fn with_signatures(mut self, prefilter: &PreFilterConfig) -> ConjunctSpecs {
        if !prefilter.enabled {
            return self;
        }
        for conjunct in &mut self.specs {
            for slot in conjunct.iter_mut().flatten() {
                slot.0 = slot.0.clone().with_signature(prefilter.words);
            }
        }
        // Wrapping changed the specs, so the hoisted keys must follow.
        Self::from_specs(self.specs)
    }

    /// Indices of fully-filterable conjuncts (every disjunct has a filter).
    pub fn filterable(&self) -> Vec<usize> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty() && c.iter().all(Option::is_some))
            .map(|(i, _)| i)
            .collect()
    }

    /// All distinct specs across conjuncts.
    pub fn all_specs(&self) -> Vec<FilterSpec> {
        self.all_specs_keyed()
            .into_iter()
            .map(|(s, _)| s.clone())
            .collect()
    }

    /// All distinct `(spec, cached key)` pairs across conjuncts, deduped
    /// by the hoisted keys (no re-formatting).
    pub fn all_specs_keyed(&self) -> Vec<(&FilterSpec, &str)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (c, ck) in self.specs.iter().zip(&self.keys) {
            for (s, k) in c.iter().zip(ck) {
                if let (Some((spec, _)), Some(key)) = (s, k) {
                    if seen.insert(key.as_str()) {
                        out.push((spec, key.as_str()));
                    }
                }
            }
        }
        out
    }
}

/// True when probing `forced` can only return a superset of the
/// candidates probing `derived` returns (and `forced` discharges its own
/// recall-safety obligations) — the condition under which substituting it
/// keeps blocking lossless.
fn safe_substitution(forced: &FilterSpec, derived: &FilterSpec) -> bool {
    if forced.a_attr() != derived.a_attr() || forced.verify().is_err() {
        return false;
    }
    match (forced, derived) {
        // A smaller similarity threshold admits every pair the larger one
        // admits (sim > t is monotone in t).
        (
            FilterSpec::SetSim {
                sim: fs,
                threshold: ft,
                ..
            },
            FilterSpec::SetSim {
                sim: ds,
                threshold: dt,
                ..
            },
        ) => fs == ds && ft <= dt,
        (FilterSpec::EditSim { threshold: ft, .. }, FilterSpec::EditSim { threshold: dt, .. }) => {
            ft <= dt
        }
        // A wider window of the same kind admits every pair the narrower
        // one admits (dist <= w is monotone in w).
        (
            FilterSpec::Range {
                width: fw,
                relative: fr,
                ..
            },
            FilterSpec::Range {
                width: dw,
                relative: dr,
                ..
            },
        ) => fr == dr && fw >= dw,
        // Equality filtering has no parameter to relax; anything else is
        // a kind mismatch.
        _ => false,
    }
}

/// Cache of built indexes and token orderings.
#[derive(Default)]
pub struct BuiltIndexes {
    /// Predicate key → built index.
    pub indexes: HashMap<String, Arc<PredicateIndex>>,
    /// `(A-side attribute index, tokenizer)` → global token order. Keying
    /// on the pair (not a formatted string) keeps lookups allocation-free.
    pub orders: HashMap<(usize, Tokenizer), Arc<TokenOrder>>,
    /// Complete A-side token profile + dictionary, when the optimizer
    /// prebuilt one; [`BuiltIndexes::build_order`] then counts token
    /// frequencies from the profile columns instead of re-tokenizing `A`
    /// with an MR job.
    profile: Option<(Arc<TokenProfile>, Arc<TokenDict>)>,
}

impl BuiltIndexes {
    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a **complete** A-side profile for token-order fast paths.
    /// Incomplete (masked) profiles are rejected: frequency counts over a
    /// partial table would produce a different ordering than the MR scan.
    pub fn set_profile(&mut self, profile: TokenProfile, dict: TokenDict) {
        if profile.is_complete() {
            self.profile = Some((Arc::new(profile), Arc::new(dict)));
        }
    }

    /// The installed A-side profile, if any.
    pub fn profile(&self) -> Option<&(Arc<TokenProfile>, Arc<TokenDict>)> {
        self.profile.as_ref()
    }

    /// Total estimated bytes of a set of predicate keys.
    pub fn bytes_of(&self, keys: &[String]) -> usize {
        keys.iter().map(|k| self.bytes_of_key(k)).sum()
    }

    /// Estimated bytes of one built index (zero when absent).
    pub fn bytes_of_key(&self, key: &str) -> usize {
        self.indexes.get(key).map_or(0, |i| i.estimated_bytes())
    }

    /// Build the token order for `(attr, tokenizer)` over table `A`;
    /// returns the build's price (zero when cached).
    ///
    /// When a complete A-side token profile is installed, frequencies are
    /// counted from its pre-tokenized column (token sets per tuple are
    /// identical to the MR scan's, so the resulting order is too) in a
    /// driver-local pass over `A`; otherwise the paper's frequency-count
    /// MR job runs.
    pub fn build_order(
        &mut self,
        cluster: &Cluster,
        a: &Table,
        attr: &str,
        tokenizer: Tokenizer,
    ) -> Result<StageCost, FalconError> {
        let attr_idx = a
            .schema()
            .index_of(attr)
            .ok_or_else(|| IndexError::MissingAttribute { attr: attr.into() })?;
        let key = (attr_idx, tokenizer);
        if self.orders.contains_key(&key) {
            return Ok(StageCost::default());
        }
        if let Some((profile, dict)) = &self.profile {
            if let Some(col) = profile.column(key) {
                let mut counts: HashMap<u32, usize> = HashMap::new();
                for ids in col {
                    for &id in ids {
                        *counts.entry(id).or_default() += 1;
                    }
                }
                let order = TokenOrder::from_frequencies(
                    counts
                        .into_iter()
                        .filter_map(|(id, n)| dict.resolve(id).map(|s| (s.to_string(), n))),
                );
                self.orders.insert(key, Arc::new(order));
                return Ok(StageCost::local(a.len()));
            }
        }
        // MR job 1: token frequencies (with a combiner, so each map task
        // ships one count per distinct token instead of one record per
        // occurrence).
        let out = run_map_combine_reduce(
            cluster,
            id_splits(cluster, a),
            cluster.reduce_partitions(),
            move |ids: &[TupleId], e: &mut Emitter<String, u32>| {
                let mut s = String::new();
                for &id in ids {
                    s.clear();
                    if let Some(v) = a.value_ref(id, attr_idx) {
                        v.render_into(&mut s);
                    }
                    for tok in tokenizer.tokenize(&s) {
                        e.emit(tok, 1);
                    }
                }
            },
            |_tok: &String, counts: Vec<u32>| counts.iter().sum(),
            |tok: &String, counts: Vec<u32>, out: &mut Vec<(String, usize)>| {
                out.push((tok.clone(), counts.iter().sum::<u32>() as usize));
            },
        )?;
        // "MR job 2": global ordering by ascending frequency.
        let order = TokenOrder::from_frequencies(out.output.into_iter());
        self.orders.insert(key, Arc::new(order));
        Ok(StageCost::of([&out.stats], &cluster.config))
    }

    /// Build (or reuse) the index for one spec; returns the build's price
    /// (zero when cached).
    pub fn build_spec(
        &mut self,
        cluster: &Cluster,
        a: &Table,
        spec: &FilterSpec,
    ) -> Result<StageCost, FalconError> {
        let key = predicate_key(spec);
        self.build_spec_keyed(cluster, a, spec, &key)
    }

    /// [`BuiltIndexes::build_spec`] with the caller's precomputed
    /// [`predicate_key`] (see [`ConjunctSpecs::all_specs_keyed`]), so hot
    /// build loops don't re-format keys per conjunct.
    pub fn build_spec_keyed(
        &mut self,
        cluster: &Cluster,
        a: &Table,
        spec: &FilterSpec,
        key: &str,
    ) -> Result<StageCost, FalconError> {
        if self.indexes.contains_key(key) {
            return Ok(StageCost::default());
        }
        let mut cost = StageCost::default();
        // A signature wrapper indexes the same tokens as its inner
        // set-similarity spec: look through it for the order prebuild.
        let base = spec.without_signature();
        let order = if let FilterSpec::SetSim { a_attr, sim, .. } = base {
            let tokenizer = sim
                .tokenizer()
                .ok_or_else(|| IndexError::NotSetBased { sim: sim.name() })?;
            cost += self.build_order(cluster, a, a_attr, tokenizer)?;
            let attr_idx =
                a.schema()
                    .index_of(a_attr)
                    .ok_or_else(|| IndexError::MissingAttribute {
                        attr: a_attr.clone(),
                    })?;
            self.orders.get(&(attr_idx, tokenizer)).cloned()
        } else {
            None
        };
        // "MR job 3": assemble the index (single driver-local pass over A).
        let idx = PredicateIndex::try_build(a, spec, order)?;
        cost += StageCost::local(a.len());
        self.indexes.insert(key.to_string(), Arc::new(idx));
        Ok(cost)
    }

    /// Fetch a built index.
    pub fn get(&self, spec: &FilterSpec) -> Option<Arc<PredicateIndex>> {
        self.get_by_key(&predicate_key(spec))
    }

    /// Fetch a built index by its precomputed [`predicate_key`] — the
    /// allocation-free lookup the probe bundle assembly uses.
    pub fn get_by_key(&self, key: &str) -> Option<Arc<PredicateIndex>> {
        self.indexes.get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_features;
    use crate::rules::{Predicate, Rule};
    use falcon_dataflow::ClusterConfig;
    use falcon_table::{AttrType, Schema, Value};
    use falcon_textsim::SimFunction;
    use std::time::Duration;

    fn tables() -> (Table, Table) {
        let schema = Schema::new([("title", AttrType::Str), ("price", AttrType::Num)]);
        let rows = |n: usize| {
            (0..n).map(move |i| {
                vec![
                    Value::str(format!("gadget number {i} deluxe")),
                    Value::num(i as f64),
                ]
            })
        };
        (
            Table::new("a", schema.clone(), rows(30)),
            Table::new("b", schema, rows(30)),
        )
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    #[test]
    fn derive_marks_unfilterable_predicates() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        // Find a jaccard_word(title) feature and an abs_diff(price) one.
        let jac = lib
            .blocking
            .features
            .iter()
            .position(|f| f.sim == SimFunction::Jaccard(Tokenizer::Word))
            .unwrap();
        let abs = lib
            .blocking
            .features
            .iter()
            .position(|f| f.sim == SimFunction::AbsDiff)
            .unwrap();
        let seq = RuleSequence::new(vec![
            // jaccard <= 0.6 -> drop : complement jaccard > 0.6, filterable.
            Rule {
                predicates: vec![Predicate {
                    feature: jac,
                    op: SplitOp::Le,
                    threshold: 0.6,
                    nan_is_high: true,
                }],
            },
            // abs_diff <= 5 -> drop : complement abs_diff > 5, NOT filterable.
            Rule {
                predicates: vec![Predicate {
                    feature: abs,
                    op: SplitOp::Le,
                    threshold: 5.0,
                    nan_is_high: false,
                }],
            },
        ]);
        let cs = ConjunctSpecs::derive(&seq, &lib.blocking);
        assert_eq!(cs.filterable(), vec![0]);
        assert_eq!(cs.all_specs().len(), 1);
    }

    #[test]
    fn derive_with_substitutes_only_recall_safe_overrides() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let jac = lib
            .blocking
            .features
            .iter()
            .position(|f| f.sim == SimFunction::Jaccard(Tokenizer::Word))
            .unwrap();
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![Predicate {
                feature: jac,
                op: SplitOp::Le,
                threshold: 0.6,
                nan_is_high: true,
            }],
        }]);
        let forced_spec = |threshold: f64| ForcedFilter {
            feature: jac,
            spec: FilterSpec::SetSim {
                a_attr: lib.blocking.get(jac).a_attr.clone(),
                sim: SimFunction::Jaccard(Tokenizer::Word),
                threshold,
            },
        };
        let spec_threshold = |cs: &ConjunctSpecs| match &cs.specs[0][0] {
            Some((FilterSpec::SetSim { threshold, .. }, _)) => *threshold,
            other => panic!("unexpected spec {other:?}"),
        };
        // Weaker threshold: a superset of candidates, substituted.
        let cs = ConjunctSpecs::derive_with(&seq, &lib.blocking, &[forced_spec(0.3)]);
        assert_eq!(spec_threshold(&cs), 0.3);
        // Stronger threshold would prune satisfying pairs: kept derived.
        let cs = ConjunctSpecs::derive_with(&seq, &lib.blocking, &[forced_spec(0.9)]);
        assert_eq!(spec_threshold(&cs), 0.6);
        // An override failing its own obligations is never substituted.
        let cs = ConjunctSpecs::derive_with(&seq, &lib.blocking, &[forced_spec(0.0)]);
        assert_eq!(spec_threshold(&cs), 0.6);
        // A kind mismatch (EditSim onto a jaccard predicate) is inert.
        let mismatch = ForcedFilter {
            feature: jac,
            spec: FilterSpec::EditSim {
                a_attr: lib.blocking.get(jac).a_attr.clone(),
                threshold: 0.3,
            },
        };
        let cs = ConjunctSpecs::derive_with(&seq, &lib.blocking, &[mismatch]);
        assert_eq!(spec_threshold(&cs), 0.6);
    }

    #[test]
    fn with_signatures_wraps_only_set_sim_specs() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let jac = lib
            .blocking
            .features
            .iter()
            .position(|f| f.sim == SimFunction::Jaccard(Tokenizer::Word))
            .unwrap();
        let seq = RuleSequence::new(vec![Rule {
            predicates: vec![Predicate {
                feature: jac,
                op: SplitOp::Le,
                threshold: 0.6,
                nan_is_high: true,
            }],
        }]);
        let base = ConjunctSpecs::derive(&seq, &lib.blocking);
        let wrapped = base.clone().with_signatures(&PreFilterConfig::default());
        match &wrapped.specs[0][0] {
            Some((FilterSpec::Signature { inner, words }, _)) => {
                assert_eq!(*words, PreFilterConfig::default().words);
                assert!(matches!(**inner, FilterSpec::SetSim { .. }));
            }
            other => panic!("expected signature wrapper, got {other:?}"),
        }
        // Disabled config is the identity.
        let off = base.clone().with_signatures(&PreFilterConfig {
            enabled: false,
            words: 2,
        });
        assert!(matches!(
            &off.specs[0][0],
            Some((FilterSpec::SetSim { .. }, _))
        ));
        // The wrapper gets its own cache key, distinct from the exact
        // spec's, so both index variants can coexist in the cache.
        let (sig_spec, _) = wrapped.specs[0][0].clone().unwrap();
        let (set_spec, _) = base.specs[0][0].clone().unwrap();
        assert_ne!(predicate_key(&sig_spec), predicate_key(&set_spec));
        assert!(predicate_key(&sig_spec).starts_with("sig2:set:"));
    }

    #[test]
    fn build_signature_spec_reuses_token_order() {
        let (a, _) = tables();
        let mut built = BuiltIndexes::new();
        let spec = FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold: 0.5,
        }
        .with_signature(2);
        built.build_spec(&cluster(), &a, &spec).expect("build");
        let idx = built.get(&spec).expect("cached");
        assert!(matches!(*idx, PredicateIndex::Signature { .. }));
        // The token order was built once and the index holds that very
        // allocation, not a copy.
        let title = a.schema().index_of("title").unwrap();
        let (_, order) = idx.token_source().expect("set-similarity index");
        assert!(Arc::ptr_eq(order, &built.orders[&(title, Tokenizer::Word)]));
        let d = built
            .build_order(&cluster(), &a, "title", Tokenizer::Word)
            .expect("order");
        assert_eq!(d, StageCost::default());
    }

    #[test]
    fn build_caches_by_key() {
        let (a, b) = tables();
        let _ = b;
        let mut built = BuiltIndexes::new();
        let spec = FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold: 0.5,
        };
        let d1 = built.build_spec(&cluster(), &a, &spec).expect("build");
        assert!(d1.dur() > Duration::ZERO);
        let d2 = built.build_spec(&cluster(), &a, &spec).expect("build");
        assert_eq!(d2, StageCost::default());
        assert!(built.get(&spec).is_some());
        assert!(built.bytes_of(&[predicate_key(&spec)]) > 0);
    }

    #[test]
    fn order_built_once_per_attr_tokenizer() {
        let (a, _) = tables();
        let mut built = BuiltIndexes::new();
        let d1 = built
            .build_order(&cluster(), &a, "title", Tokenizer::Word)
            .expect("order");
        let d2 = built
            .build_order(&cluster(), &a, "title", Tokenizer::Word)
            .expect("order");
        assert!(d1.dur() > Duration::ZERO);
        assert_eq!(d2, StageCost::default());
    }

    #[test]
    fn profile_fast_path_builds_identical_order() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let tok = Tokenizer::Word;
        let title = a.schema().index_of("title").unwrap();

        // Reference: MR frequency-count job.
        let mut mr = BuiltIndexes::new();
        mr.build_order(&cluster(), &a, "title", tok).expect("order");

        // Fast path: count frequencies from a prebuilt complete profile.
        let mut fast = BuiltIndexes::new();
        let (a_spec, _) = crate::tokens::requirements(&lib.blocking.features);
        let mut dict = falcon_textsim::TokenDict::new();
        let profile = crate::tokens::build_profile_seq(&a, &a_spec, None, &mut dict);
        fast.set_profile(profile, dict);
        fast.build_order(&cluster(), &a, "title", tok)
            .expect("order");

        let o_mr = &mr.orders[&(title, tok)];
        let o_fast = &fast.orders[&(title, tok)];
        for t in a.rows() {
            for w in tok.tokenize(&t.value(title).render()) {
                assert_eq!(o_mr.rank(&w), o_fast.rank(&w), "token {w:?}");
            }
        }
    }

    #[test]
    fn incomplete_profile_is_not_installed() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let (a_spec, _) = crate::tokens::requirements(&lib.blocking.features);
        let mut dict = falcon_textsim::TokenDict::new();
        let mut mask = vec![false; a.len()];
        mask[0] = true;
        let (profile, _) =
            crate::tokens::build_profile_par(&cluster(), &a, &a_spec, &mut dict, Some(&mask))
                .expect("profile");
        let mut built = BuiltIndexes::new();
        built.set_profile(profile, dict);
        assert!(built.profile().is_none());
    }
}
