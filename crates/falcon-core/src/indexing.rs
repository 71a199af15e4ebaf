//! Index building for `apply_blocking_rules` (Section 7.5).
//!
//! For every filterable predicate of the positive CNF rule we build a
//! [`PredicateIndex`]. Of the paper's 3-MR-job pipeline, jobs 1 and 2
//! (token frequencies over `A`, the global ordering) are one local pass
//! per `(attribute, tokenizer)` over the token column a profile job
//! produced, job 3 (assembling the index) one local pass per spec.
//!
//! Built indexes are cached under their filter spec, compared exactly, so
//! the masking optimizer can prebuild them during crowd rounds (Section
//! 10.2, Solution 1) and `apply_blocking_rules` can reuse them for free.
//! The cache reads token columns from the run's [`TokenStore`], so each
//! value is tokenized once.

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
use falcon_textsim::{DetMap, Tokenizer};
use std::borrow::Cow;
use std::sync::Arc;

/// The signature pre-filter layer (the provably lossless Bloom-signature
/// gate in front of set-similarity probes). It has no setting: every
/// set-similarity index carries its column's fingerprints, and each index
/// plans at build whether to *use* them. The type stays for callers that
/// pass [`ConjunctSpecs::with_signatures`] its `default()`.
#[derive(Debug, Clone, Default)]
pub struct PreFilterConfig {}

/// Per-conjunct filter layout for a rule sequence: for rule `i`,
/// `conjuncts[i][j]` is the filter spec of the j-th complemented predicate
/// (`None` = unfilterable predicate). The paired `b_idx` is the B-side
/// attribute index the probe reads.
#[derive(Debug, Clone)]
pub struct ConjunctSpecs {
    /// `specs[i][j]`: filter spec + B-attr index for predicate `j` of
    /// conjunct `i`, or `None` when that predicate admits no filter.
    pub specs: Vec<Vec<Option<(FilterSpec, usize)>>>,
}

impl ConjunctSpecs {
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
        ConjunctSpecs { specs }
    }

    /// The identity: every set-similarity index carries its signature
    /// pre-filter already. Kept for callers that still pass it a
    /// [`PreFilterConfig`].
    pub fn with_signatures(self, _: &PreFilterConfig) -> ConjunctSpecs {
        self
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

    /// All distinct specs across conjuncts, in first-use order.
    pub fn all_specs(&self) -> Vec<FilterSpec> {
        distinct(self.specs.iter().flatten().flatten())
    }

    /// The distinct specs of the [`ConjunctSpecs::filterable`] conjuncts,
    /// in first-use order: the only indexes an operator prices or probes.
    pub fn probed_specs(&self) -> Vec<FilterSpec> {
        let filterable = self.filterable().into_iter();
        distinct(filterable.flat_map(|ci| self.specs[ci].iter().flatten()))
    }
}

/// The distinct specs of `slots`, in first-use order.
fn distinct<'a>(slots: impl Iterator<Item = &'a (FilterSpec, usize)>) -> Vec<FilterSpec> {
    let mut out: Vec<FilterSpec> = Vec::new();
    for (spec, _) in slots {
        if !out.contains(spec) {
            out.push(spec.clone());
        }
    }
    out
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
    /// Each built index under the spec it was built from. A lookup
    /// compares specs with `==`, thresholds exactly: two thresholds that
    /// agree to any number of places but differ in a bit admit different
    /// pairs, so they name different indexes. A run holds tens of specs.
    indexes: Vec<(FilterSpec, Arc<PredicateIndex>)>,
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

    /// Estimated bytes of `spec`'s built index (zero when absent).
    pub fn bytes_of(&self, spec: &FilterSpec) -> usize {
        self.get(spec).map_or(0, |i| i.estimated_bytes())
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
        if self.get(spec).is_some() {
            return Ok(StageCost::default());
        }
        let mut cost = StageCost::default();
        let mut shared = None;
        if let FilterSpec::SetSim { a_attr, sim, .. } = spec {
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
        self.indexes.push((spec.clone(), Arc::new(idx)));
        Ok(cost)
    }

    /// Fetch the index built from `spec`.
    pub fn get(&self, spec: &FilterSpec) -> Option<Arc<PredicateIndex>> {
        let (_, index) = self.indexes.iter().find(|(s, _)| s == spec)?;
        Some(Arc::clone(index))
    }

    /// Free what `apply_blocking_rules` does not read once `conjuncts`'
    /// indexes are built: every index but those of its filterable
    /// conjuncts (the only ones an operator prices or probes), and the
    /// rank-space columns, which only builds read (a kept index holds its
    /// own share of its column's order, sizes, missing ids and prints).
    /// A later [`BuiltIndexes::build_spec`] of a freed spec builds it
    /// again, column first, as the first build did.
    pub(crate) fn keep_probed(&mut self, conjuncts: &ConjunctSpecs) {
        let probed = conjuncts.probed_specs();
        self.indexes.retain(|(spec, _)| probed.contains(spec));
        self.columns = DetMap::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_features;
    use crate::rules::{Predicate, Rule};
    use falcon_dataflow::ClusterConfig;
    use falcon_index::spec::Candidates;
    use falcon_index::ProbeMode;
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
    fn with_signatures_is_the_identity() {
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
        let same = base.clone().with_signatures(&PreFilterConfig::default());
        assert_eq!(same.specs, base.specs);
    }

    /// A bare set-similarity spec over a sparse column is the one index:
    /// it plans a pre-filtering mode, shares the column's fingerprints
    /// with every threshold over it and counts them in its byte estimate.
    #[test]
    fn set_sim_index_carries_its_columns_prints() {
        let (a, _) = tables();
        let mut built = BuiltIndexes::new();
        let spec = |threshold: f64| FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold,
        };
        for s in [spec(0.5), spec(0.7)] {
            built.build_spec(&cluster(), &a, &s).expect("build");
        }
        let mut column_sigs = None;
        for s in [spec(0.5), spec(0.7)] {
            let idx = built.get(&s).expect("built");
            let PredicateIndex::SetSim {
                index,
                order,
                missing,
                sigs,
                mode,
                ..
            } = &*idx
            else {
                panic!("expected a set-similarity index, got {idx:?}");
            };
            assert!(sigs.density() < 0.5, "the column is sparse");
            assert!(
                matches!(mode, ProbeMode::Gate | ProbeMode::Dense),
                "{mode:?}"
            );
            assert_eq!(idx.plan_probe_mode(), *mode);
            assert!(Arc::ptr_eq(
                sigs,
                column_sigs.get_or_insert_with(|| Arc::clone(sigs))
            ));
            assert_eq!(
                idx.estimated_bytes(),
                index.estimated_bytes()
                    + order.estimated_bytes()
                    + missing.len() * 4
                    + sigs.estimated_bytes()
            );
            assert!(sigs.estimated_bytes() > 0);
        }
    }

    #[test]
    fn build_signature_spec_reuses_token_order() {
        let (a, _) = tables();
        let mut built = BuiltIndexes::new();
        let spec = |threshold: f64| FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold,
        };
        for s in [spec(0.5), spec(0.7)] {
            built.build_spec(&cluster(), &a, &s).expect("build");
        }
        let [x, y] = [spec(0.5), spec(0.7)].map(|s| built.get(&s).unwrap());
        // The token order was built once; every threshold holds that very
        // allocation, not a copy, and so do the fingerprints.
        let order = |idx: &PredicateIndex| Arc::clone(idx.token_source().expect("set index").1);
        assert!(Arc::ptr_eq(&order(&x), &order(&y)));
        let sigs = |idx: &PredicateIndex| match idx {
            PredicateIndex::SetSim { sigs, .. } => Arc::clone(sigs),
            other => panic!("expected a set-similarity index, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&sigs(&x), &sigs(&y)));
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
        assert!(built.bytes_of(&spec) > 0);
    }

    /// Builds `first`, then `second` — whose rendering agrees with
    /// `first`'s to six places — and returns what the cached `second`
    /// and a fresh `second` index admit for `probe`.
    fn probe_after(
        a: &Table,
        first: &FilterSpec,
        second: &FilterSpec,
        probe: &Value,
    ) -> (Candidates, Candidates) {
        let mut built = BuiltIndexes::new();
        for spec in [first, second] {
            built.build_spec(&cluster(), a, spec).expect("build");
        }
        let cached = built.get(second).expect("built").probe(probe);
        let fresh = PredicateIndex::try_build(a, second, None).expect("build");
        (cached, fresh.probe(probe))
    }

    #[test]
    fn set_sim_thresholds_equal_to_six_places_are_two_indexes() {
        let schema = Schema::new([("title", AttrType::Str)]);
        let a = Table::new("a", schema, vec![vec![Value::str("a b")]]);
        let spec = |threshold| FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold,
        };
        // Jaccard({a, b}, {a, b, c, d}) = 0.5 > 0.4999996.
        let probe = Value::str("a b c d");
        let (cached, fresh) = probe_after(&a, &spec(0.5000004), &spec(0.4999996), &probe);
        assert_eq!(fresh, Candidates::Some(vec![0]));
        assert_eq!(cached, fresh);
    }

    #[test]
    fn range_widths_equal_to_six_places_are_two_indexes() {
        let schema = Schema::new([("price", AttrType::Num)]);
        let a = Table::new("a", schema, vec![vec![Value::num(10.0)]]);
        let spec = |width| FilterSpec::Range {
            a_attr: "price".into(),
            width,
            relative: false,
        };
        // |11 - 10| = 1 <= 1.0000004.
        let probe = Value::num(11.0);
        let (cached, fresh) = probe_after(&a, &spec(0.9999996), &spec(1.0000004), &probe);
        assert_eq!(fresh, Candidates::Some(vec![0]));
        assert_eq!(cached, fresh);
    }

    #[test]
    fn keep_probed_frees_unprobed_indexes_and_columns_and_rebuilds_them_alike() {
        let (a, _) = tables();
        let set = |tokenizer, threshold| FilterSpec::SetSim {
            a_attr: "title".into(),
            sim: SimFunction::Jaccard(tokenizer),
            threshold,
        };
        let range = FilterSpec::Range {
            a_attr: "price".into(),
            width: 2.0,
            relative: false,
        };
        let (kept, word, gram) = (
            set(Tokenizer::Word, 0.5),
            set(Tokenizer::Word, 0.7),
            set(Tokenizer::QGram(3), 0.6),
        );
        // Conjunct 0 is filterable; 1 and 2 each have a predicate with no
        // filter, so no operator probes their specs.
        let conjuncts = ConjunctSpecs {
            specs: vec![
                vec![Some((kept.clone(), 0)), Some((range.clone(), 1))],
                vec![Some((word.clone(), 0)), None],
                vec![None, Some((gram.clone(), 0))],
            ],
        };
        let probes = |spec: &FilterSpec| match spec {
            FilterSpec::Range { .. } => vec![Value::num(4.0), Value::num(29.5), Value::Null],
            _ => vec![
                Value::str("gadget number 3 deluxe"),
                Value::str("number 12"),
                Value::Null,
            ],
        };
        // What `spec`'s index admits, and its estimated bytes.
        let built_as = |built: &BuiltIndexes<'_>, spec: &FilterSpec| {
            let index = built.get(spec).expect("built");
            let admitted: Vec<Candidates> = probes(spec).iter().map(|v| index.probe(v)).collect();
            (admitted, index.estimated_bytes())
        };

        assert_eq!(conjuncts.probed_specs(), [kept.clone(), range.clone()]);
        let mut built = BuiltIndexes::new();
        for spec in conjuncts.all_specs() {
            built.build_spec(&cluster(), &a, &spec).expect("build");
        }
        let before: Vec<_> = [&kept, &range, &word, &gram]
            .map(|s| built_as(&built, s))
            .into();
        built.keep_probed(&conjuncts);

        assert!(built.get(&word).is_none() && built.get(&gram).is_none());
        assert_eq!(built.bytes_of(&kept), before[0].1);
        assert_eq!(built.bytes_of(&range), before[1].1);
        assert!(built.columns.is_empty());
        assert_eq!(built_as(&built, &kept), before[0]);
        // A freed spec builds again, column first, into the same index.
        for (spec, first) in [(&word, &before[2]), (&gram, &before[3])] {
            let cost = built.build_spec(&cluster(), &a, spec).expect("rebuild");
            assert!(cost.dur() > Duration::ZERO);
            assert_eq!(&built_as(&built, spec), first);
        }
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
