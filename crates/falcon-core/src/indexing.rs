//! Index building for `apply_blocking_rules` (Section 7.5).
//!
//! For every filterable predicate of the positive CNF rule we build a
//! [`PredicateIndex`]. Of the paper's 3-MR-job pipeline, jobs 1 and 2
//! (token frequencies over `A`, the global ordering) are one local pass
//! per `(attribute, tokenizer)` over the token column a profile job
//! produced, job 3 (assembling the index) one local pass per spec.
//!
//! Built indexes are cached by predicate key so the masking optimizer can
//! prebuild them during crowd rounds (Section 10.2, Solution 1) and
//! `apply_blocking_rules` can reuse them for free. The cache reads token
//! columns from the run's [`TokenStore`], so each value is tokenized once.

use crate::driver::ForcedFilter;
use crate::error::FalconError;
use crate::features::{Feature, FeatureSet};
use crate::rules::RuleSequence;
use crate::stage::StageCost;
use crate::tokens::{ProfileSpec, TokenStore};
use falcon_dataflow::Cluster;
use falcon_forest::SplitOp;
use falcon_index::{FilterSpec, IndexError, PredicateIndex, TokenColumn};
use falcon_table::Table;
use falcon_textsim::{DetMap, DetSet, Tokenizer};
use std::borrow::Cow;
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
#[derive(Debug, Clone)]
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
                                .filter(|ff| safe_substitution(&ff.spec, f, &derived))
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
        let mut seen = DetSet::new();
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

/// True when `forced` is the kind feature `f` indexes with
/// ([`FilterSpec::is_for`]), discharges its own recall-safety obligations,
/// and probing it can only return a superset of the candidates probing
/// `derived` (`f`'s filter) returns — the condition under which
/// substituting it keeps blocking lossless.
fn safe_substitution(forced: &FilterSpec, f: &Feature, derived: &FilterSpec) -> bool {
    forced.is_for(f.sim, &f.a_attr)
        && forced.verify().is_ok()
        && match (forced, derived) {
            // A smaller similarity threshold admits every pair the larger
            // one admits (sim > t is monotone in t).
            (
                FilterSpec::SetSim { threshold: ft, .. },
                FilterSpec::SetSim { threshold: dt, .. },
            )
            | (
                FilterSpec::EditSim { threshold: ft, .. },
                FilterSpec::EditSim { threshold: dt, .. },
            ) => ft <= dt,
            // A wider window admits every pair the narrower one admits
            // (dist <= w is monotone in w).
            (FilterSpec::Range { width: fw, .. }, FilterSpec::Range { width: dw, .. }) => fw >= dw,
            // Equality filtering has no parameter to relax.
            _ => false,
        }
}

/// Cache of built indexes over a token store.
#[derive(Default)]
pub struct BuiltIndexes<'s> {
    /// Predicate key → built index.
    pub indexes: DetMap<String, Arc<PredicateIndex>>,
    /// Where `A`'s token columns come from: the run's store, which the
    /// driver fills before the first build, or ([`BuiltIndexes::new`]) one
    /// of the cache's own, grown a column at a time. Indexes share the
    /// store's dictionary, so growing it after the first index copies the
    /// dictionary (never on the driver's path).
    store: Cow<'s, TokenStore>,
    /// `(A-side attribute index, tokenizer)` → that column in rank space
    /// with its fingerprints, shared by every index built over it.
    columns: DetMap<(usize, Tokenizer), TokenColumn>,
}

impl<'s> BuiltIndexes<'s> {
    /// Fresh empty cache over a store of its own.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty cache over `store`.
    pub fn over(store: &'s TokenStore) -> Self {
        Self {
            store: Cow::Borrowed(store),
            ..Self::default()
        }
    }

    /// The token store the indexes are built over.
    pub fn store(&self) -> &TokenStore {
        &self.store
    }

    /// Total estimated bytes of a set of predicate keys.
    pub fn bytes_of(&self, keys: &[String]) -> usize {
        keys.iter().map(|k| self.bytes_of_key(k)).sum()
    }

    /// Estimated bytes of one built index (zero when absent).
    pub fn bytes_of_key(&self, key: &str) -> usize {
        self.indexes.get(key).map_or(0, |i| i.estimated_bytes())
    }

    /// Build the token order — and the rank-space column under it — for
    /// `(attr, tokenizer)` over table `A`; returns the build's price (zero
    /// when cached): a driver-local count over the store's token column,
    /// preceded by the map-only job that tokenizes that one column when
    /// the store does not hold it yet.
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
        if self.columns.contains_key(&key) {
            return Ok(StageCost::default());
        }
        let mut cost = StageCost::local(a.len());
        if self.store.a().column(key).is_none() {
            let spec = ProfileSpec {
                token_columns: vec![key],
                ..ProfileSpec::default()
            };
            let job = self.store.to_mut().grow(0, Some(cluster), a, &spec, None)?;
            cost += StageCost::of(&job, &cluster.config);
        }
        let ids = self.store.a().column(key).into_iter().flatten();
        let column = TokenColumn::build(a, attr_idx, ids, Arc::clone(self.store.dict()));
        self.columns.insert(key, column);
        Ok(cost)
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
        // set-similarity spec: look through it for the shared column.
        let mut shared = None;
        if let FilterSpec::SetSim { a_attr, sim, .. } = spec.without_signature() {
            let tokenizer = sim
                .tokenizer()
                .ok_or_else(|| IndexError::NotSetBased { sim: sim.name() })?;
            cost += self.build_order(cluster, a, a_attr, tokenizer)?;
            let attr_idx = a.schema().index_of(a_attr);
            shared = attr_idx.and_then(|idx| self.columns.get_mut(&(idx, tokenizer)));
        }
        // "MR job 3": assemble the index (single driver-local pass over A).
        let idx = PredicateIndex::try_build(a, spec, shared)?;
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
        let spec = |threshold: f64, words: usize| {
            FilterSpec::SetSim {
                a_attr: "title".into(),
                sim: SimFunction::Jaccard(Tokenizer::Word),
                threshold,
            }
            .with_signature(words)
        };
        for s in [spec(0.5, 2), spec(0.7, 2), spec(0.7, 1)] {
            built.build_spec(&cluster(), &a, &s).expect("build");
        }
        let [x, y, z] = [spec(0.5, 2), spec(0.7, 2), spec(0.7, 1)].map(|s| built.get(&s).unwrap());
        // The token order was built once; every threshold holds that very
        // allocation, not a copy, and so do the fingerprints of one width.
        let order = |idx: &PredicateIndex| Arc::clone(idx.token_source().expect("set index").1);
        assert!(Arc::ptr_eq(&order(&x), &order(&y)) && Arc::ptr_eq(&order(&x), &order(&z)));
        let sigs = |idx: &PredicateIndex| match idx {
            PredicateIndex::Signature { sigs, .. } => Arc::clone(sigs),
            other => panic!("expected a signature bundle, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&sigs(&x), &sigs(&y)));
        assert!(!Arc::ptr_eq(&sigs(&y), &sigs(&z)));
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
        let spec = FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(tok),
            threshold: 0.5,
        };
        let order_of = |built: &mut BuiltIndexes<'_>| {
            built.build_spec(&cluster(), &a, &spec).expect("build");
            Arc::clone(built.get(&spec).unwrap().token_source().unwrap().1)
        };

        // On demand: `build_order` tokenizes the one column itself.
        let mut lazy = BuiltIndexes::new();
        let d_lazy = lazy
            .build_order(&cluster(), &a, "title", tok)
            .expect("order");
        assert!(lazy.store().a().column((title, tok)).is_some());

        // Over a run's store: the column is already there, after other
        // attributes' tokens were interned.
        let mut store = TokenStore::default();
        let needs = crate::tokens::requirements(&lib.blocking.features);
        let jobs = store.require(&cluster(), &a, &b, &needs, None);
        assert_eq!(jobs.expect("profiles").len(), 2);
        let mut fast = BuiltIndexes::over(&store);
        let d_fast = fast
            .build_order(&cluster(), &a, "title", tok)
            .expect("order");
        assert_eq!(d_fast, StageCost::local(a.len()));
        assert!(d_lazy.dur() > d_fast.dur(), "the on-demand job is priced");

        let (o_lazy, o_fast) = (order_of(&mut lazy), order_of(&mut fast));
        assert_eq!(o_lazy.len(), o_fast.len());
        for t in a.rows() {
            for w in tok.tokenize(&t.value(title).render()) {
                assert!(o_lazy.rank(&w).is_some());
                assert_eq!(o_lazy.rank(&w), o_fast.rank(&w), "token {w:?}");
            }
        }
    }
}
