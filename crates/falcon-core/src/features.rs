//! Automatic feature generation (Section 8 / Figure 5).
//!
//! A feature is `sim(a.x, b.y)`. Falcon creates attribute correspondences
//! (same-name attributes, falling back to positional string/string and
//! numeric/numeric pairing), profiles each attribute's characteristic, and
//! instantiates the Figure 5 similarity functions for the "lower row" of
//! the two characteristics. Measures marked `*` in Figure 5 are excluded
//! from the blocking feature set (too slow / unfilterable for blocking).

use falcon_table::{AttrCharacteristic, IdPair, Table, TableProfile, TupleId, ValueRef};
use falcon_textsim::align::LANES;
use falcon_textsim::{
    hybrid, sets, tfidf, CharFamily, SimContext, SimFunction, SimScratch, Syms, TokenProfile,
    Tokenizer,
};

/// One feature: a similarity function applied to an attribute
/// correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    /// Display name, e.g. `jaccard_word(title,title)`.
    pub name: String,
    /// A-side attribute name.
    pub a_attr: String,
    /// B-side attribute name.
    pub b_attr: String,
    /// The similarity measure.
    pub sim: SimFunction,
    /// Cached A-side attribute index.
    pub a_idx: usize,
    /// Cached B-side attribute index.
    pub b_idx: usize,
}

/// A [`FeatureSet`] compiled against two tables and one [`SimContext`] to
/// score many pairs: every feature value anywhere — `gen_fvs`' vectors,
/// the rule evaluator's lazy reads — comes out of [`Scorer::value`].
/// Compiling groups the features by the kernel run they can share over
/// one attribute pair — a token-column merge ([`sets::counts_ids`]) for
/// the set measures of one tokenizer, or one run of a character-level
/// family ([`CharFamily`]) — and finds the merges' token columns in the
/// context's profiles once. Per pair, each attribute pair's missingness
/// is decided once and each group's kernel runs at most once, when a
/// feature of the group is first read: Jaccard, Dice, overlap and cosine
/// over one column are four functions of one merge; NW, SW and SW-Gotoh
/// three outputs of one alignment sweep; Jaro-Winkler its Jaro plus a
/// prefix boost. [`Scorer::vectors`] runs the families ahead over runs
/// of [`LANES`] pairs, so the alignment sweep takes eight pairs at once.
/// It must only score under the context it was compiled against.
#[derive(Debug, Clone)]
pub struct Scorer<'f> {
    pub(crate) a: Table,
    pub(crate) b: Table,
    features: &'f [Feature],
    /// Per feature, the slot of its attribute pair and the kernel its
    /// value comes from.
    plan: Vec<(usize, Kernel)>,
    /// Per attribute pair slot, its `(A, B)` attribute indices.
    attrs: Vec<(usize, usize)>,
    /// Per merge group, its token columns' slots in the `A` and `B`
    /// profiles (`None`: not profiled, the group's features take the
    /// string path).
    merges: Vec<Option<(usize, usize)>>,
    /// Per family group, its attribute pair's slot and the family.
    families: Vec<(usize, CharFamily)>,
}

/// Where one feature's value comes from.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// Its measure's own kernel, run on every read.
    Own,
    /// The token-column merge of a merge group.
    Merge(usize),
    /// Lane `.1` of a family group's kernel run.
    Family(usize, usize),
}

/// Per-task state of a [`Scorer`]: what is known of the current pair (see
/// [`Scorer::start`]) and the similarity kernels' working buffers, kept
/// across pairs so the hot loops allocate nothing per pair.
#[derive(Default)]
pub struct ScoreScratch {
    /// Per attribute pair, once decided: whether a value is missing
    /// (`None`: the profiles do not cover the pair — read the tables).
    missing: Vec<Option<Option<bool>>>,
    /// Per merge group, once merged: the counts.
    counts: Vec<Option<sets::Counts>>,
    /// Per family group, once run: every member's score.
    lanes: Vec<Option<[f64; 3]>>,
    /// Per pair of the current run of [`Scorer::vectors`], then per
    /// family group: the scores run ahead, the pair's `lanes` at its
    /// start.
    ahead: Vec<Option<[f64; 3]>>,
    /// Token-column merges run so far, over all pairs.
    pub merges: u64,
    /// Character-level family kernels run so far, over all pairs.
    pub sweeps: u64,
    sim: SimScratch,
}

impl<'f> Scorer<'f> {
    /// Compile `features` for scoring pairs of `a × b` under `ctx`.
    pub fn new(features: &'f FeatureSet, a: &Table, b: &Table, ctx: &SimContext<'_>) -> Self {
        let mut attrs: Vec<(usize, usize)> = Vec::new();
        let mut keys: Vec<(usize, Tokenizer)> = Vec::new();
        let mut merges = Vec::new();
        let mut families = Vec::new();
        let plan = |f: &Feature| {
            let attr = slot_of(&mut attrs, (f.a_idx, f.b_idx));
            if let Some((family, lane)) = f.sim.char_family() {
                return (
                    attr,
                    Kernel::Family(slot_of(&mut families, (attr, family)), lane),
                );
            }
            let Some(t) = f.sim.tokenizer().filter(|_| f.sim.is_set_based()) else {
                return (attr, Kernel::Own);
            };
            let group = slot_of(&mut keys, (attr, t));
            if group == merges.len() {
                let slot = |p: Option<&TokenProfile>, idx| p?.column_slot((idx, t));
                merges.push(slot(ctx.a_profile, f.a_idx).zip(slot(ctx.b_profile, f.b_idx)));
            }
            (attr, Kernel::Merge(group))
        };
        Self {
            plan: features.features.iter().map(plan).collect(),
            features: &features.features,
            a: a.clone(),
            b: b.clone(),
            attrs,
            merges,
            families,
        }
    }

    /// Forget the previous pair: call before the first
    /// [`Scorer::value`] of each pair.
    pub fn start(&self, scratch: &mut ScoreScratch) {
        scratch.missing.clear();
        scratch.missing.resize(self.attrs.len(), None);
        scratch.counts.clear();
        scratch.counts.resize(self.merges.len(), None);
        scratch.lanes.clear();
        scratch.lanes.resize(self.families.len(), None);
    }

    /// Value of feature `fi` for `(aid, bid)`; `NaN` means missing (as
    /// does a feature outside the set).
    ///
    /// When the context carries [`TokenProfile`]s covering the feature's
    /// attributes and tuples, the pre-tokenized fast path is taken;
    /// otherwise (numeric measures, uncovered columns or tuples, no
    /// profiles) the cells are read via [`Table::value_ref`] and scored by
    /// [`score_value_refs`], rendering and tokenizing on the fly. Both
    /// paths are bit-identical (enforced by the `fv_equivalence` property
    /// test).
    // Without the hint, set-measure reads measured about 20 % slower once
    // the family arm grew this function.
    #[inline]
    pub fn value(
        &self,
        fi: usize,
        pair: IdPair,
        ctx: &SimContext<'_>,
        s: &mut ScoreScratch,
    ) -> f64 {
        let (Some(f), Some(&(attr, kernel)), (aid, bid)) =
            (self.features.get(fi), self.plan.get(fi), pair)
        else {
            return f64::NAN;
        };
        let from_tables = || {
            let av = self.a.value_ref(aid, f.a_idx).unwrap_or(ValueRef::Null);
            let bv = self.b.value_ref(bid, f.b_idx).unwrap_or(ValueRef::Null);
            score_value_refs(f.sim, av, bv, ctx)
        };
        // Numeric measures (other than `ExactMatch`) never render.
        let numeric = f.sim.is_numeric() && !matches!(f.sim, SimFunction::ExactMatch);
        let (Some(ap), Some(bp), false) = (ctx.a_profile, ctx.b_profile, numeric) else {
            return from_tables();
        };
        match missing_at(s, attr, f, (ap, aid), (bp, bid)) {
            None => return from_tables(),
            Some(true) => return f64::NAN,
            Some(false) => {}
        }
        let rendered = || Some((ap.rendered(f.a_idx, aid)?, bp.rendered(f.b_idx, bid)?));
        let cached = match kernel {
            Kernel::Merge(g) => (s.counts[g])
                .or_else(|| {
                    let (sa, sb) = self.merges[g]?;
                    let (x, y) = (ap.tokens_at(sa, aid)?, bp.tokens_at(sb, bid)?);
                    s.merges += 1;
                    s.counts[g] = Some(sets::counts_ids(x, y));
                    s.counts[g]
                })
                .and_then(|c| f.sim.score_counts(c)),
            Kernel::Family(g, lane) => (s.lanes[g])
                .or_else(|| {
                    let (x, y) = (ap.syms(f.a_idx, aid)?, bp.syms(f.b_idx, bid)?);
                    s.sweeps += 1;
                    s.lanes[g] = Some(self.families[g].1.score_syms(x, y, &mut s.sim));
                    s.lanes[g]
                })
                .map(|lanes| lanes[lane]),
            Kernel::Own => score_cached(f, (ap, aid), (bp, bid), ctx, &mut s.sim),
        };
        // A measure whose column is missing (a profile built for another
        // feature set, TF/IDF without a model) still reuses the cached
        // rendered strings instead of re-rendering.
        cached.unwrap_or_else(|| {
            let (ar, br) = rendered().unwrap_or_default();
            f.sim.score_str(ar, br, ctx).unwrap_or(f64::NAN)
        })
    }

    /// The full feature vector of one pair: [`Scorer::vectors`] of a run
    /// of one.
    pub fn vector(&self, pair: IdPair, ctx: &SimContext<'_>, s: &mut ScoreScratch) -> Vec<f64> {
        let mut out = Vec::with_capacity(1);
        self.vectors(&[pair], ctx, s, &mut out);
        out.pop().unwrap_or_default()
    }

    /// The full feature vectors of `pairs`, appended to `out` in order.
    /// Each run of up to [`LANES`] pairs first runs every family group
    /// over the run's pairs whose values are both present and profiled
    /// ([`CharFamily::score_batch`]: the alignment family sweeps their
    /// ASCII pairs together), which seeds each pair's family memo; the
    /// pairs' vectors are then read feature by feature through
    /// [`Scorer::value`]. Same bits as a [`Scorer::vector`] per pair.
    pub fn vectors(
        &self,
        pairs: &[IdPair],
        ctx: &SimContext<'_>,
        s: &mut ScoreScratch,
        out: &mut Vec<Vec<f64>>,
    ) {
        let groups = self.families.len();
        for run in pairs.chunks(LANES) {
            self.run_families(run, ctx, s);
            for (k, &pair) in run.iter().enumerate() {
                self.start(s);
                let ScoreScratch { lanes, ahead, .. } = &mut *s;
                lanes.copy_from_slice(&ahead[k * groups..][..groups]);
                let value = |fi| self.value(fi, pair, ctx, s);
                out.push((0..self.features.len()).map(value).collect());
            }
        }
    }

    /// Fill `s.ahead` for `run`: each family group's scores of each pair
    /// whose values [`Scorer::value`] would hand that family's kernel —
    /// present, with symbols in the profiles — and `None` for the rest,
    /// which `value` settles on its own.
    fn run_families(&self, run: &[IdPair], ctx: &SimContext<'_>, s: &mut ScoreScratch) {
        let groups = self.families.len();
        s.ahead.clear();
        s.ahead.resize(run.len() * groups, None);
        let (Some(ap), Some(bp)) = (ctx.a_profile, ctx.b_profile) else {
            return;
        };
        let none = Syms::Ascii(&[]);
        for (g, &(attr, family)) in self.families.iter().enumerate() {
            let (ai, bi) = self.attrs[attr];
            let mut pairs = [(none, none); LANES];
            let mut at = [0; LANES];
            let mut n = 0;
            for (k, &(aid, bid)) in run.iter().enumerate() {
                let present =
                    ap.is_missing(ai, aid) == Some(false) && bp.is_missing(bi, bid) == Some(false);
                if let (true, Some(x), Some(y)) = (present, ap.syms(ai, aid), bp.syms(bi, bid)) {
                    pairs[n] = (x, y);
                    at[n] = k;
                    n += 1;
                }
            }
            let mut scores = [[f64::NAN; 3]; LANES];
            family.score_batch(&pairs[..n], &mut s.sim, &mut scores[..n]);
            s.sweeps += n as u64;
            for (&k, score) in at[..n].iter().zip(scores) {
                s.ahead[k * groups + g] = Some(score);
            }
        }
    }

    /// Whether feature `fi` reads a missing value for `pair`, decided and
    /// memoized exactly as [`Scorer::value`] does: `None` when the
    /// context's profiles do not cover the pair (or `fi` is outside the
    /// set).
    pub(crate) fn missing(
        &self,
        fi: usize,
        (aid, bid): IdPair,
        ctx: &SimContext<'_>,
        s: &mut ScoreScratch,
    ) -> Option<bool> {
        let (f, &(attr, _)) = (self.features.get(fi)?, self.plan.get(fi)?);
        missing_at(s, attr, f, (ctx.a_profile?, aid), (ctx.b_profile?, bid))
    }

    /// The token columns set feature `fi` is merged from, as slots in the
    /// context's `A` and `B` profiles (`None`: not a set measure, or its
    /// columns were not profiled).
    pub(crate) fn token_columns(&self, fi: usize) -> Option<(usize, usize)> {
        match self.plan.get(fi)?.1 {
            Kernel::Merge(g) => *self.merges.get(g)?,
            Kernel::Own | Kernel::Family(..) => None,
        }
    }
}

/// Whether attribute pair `attr` (feature `f`'s) holds a missing value,
/// memoized in `s`. Missingness is decided on the rendered strings,
/// exactly like `score_str`, from the rendered columns' offsets; a
/// non-empty string can still have an empty token set (punctuation-only
/// under `Tokenizer::Word`), which the counts score 0.0 just like the
/// string set kernels. `None` when either side is uncovered.
#[inline]
fn missing_at(
    s: &mut ScoreScratch,
    attr: usize,
    f: &Feature,
    (ap, aid): (&TokenProfile, TupleId),
    (bp, bid): (&TokenProfile, TupleId),
) -> Option<bool> {
    // `|`, not `||`: an uncovered side reads `None` even beside an empty one.
    *s.missing[attr]
        .get_or_insert_with(|| Some(ap.is_missing(f.a_idx, aid)? | bp.is_missing(f.b_idx, bid)?))
}

/// Position of `key` in `keys`, appended when new.
pub(crate) fn slot_of<K: PartialEq>(keys: &mut Vec<K>, key: K) -> usize {
    keys.iter().position(|k| *k == key).unwrap_or_else(|| {
        keys.push(key);
        keys.len() - 1
    })
}

/// Score two non-missing values with a measure that shares no kernel run
/// from the per-tuple caches alone; `None` when a column it reads was not
/// profiled.
fn score_cached(
    f: &Feature,
    (ap, a_id): (&TokenProfile, TupleId),
    (bp, b_id): (&TokenProfile, TupleId),
    ctx: &SimContext<'_>,
    scratch: &mut SimScratch,
) -> Option<f64> {
    let weights = || Some((ap.weights(f.a_idx, a_id)?, bp.weights(f.b_idx, b_id)?));
    Some(match f.sim {
        SimFunction::MongeElkan => hybrid::monge_elkan_ids(
            ap.token_seq(f.a_idx, a_id)?,
            bp.token_seq(f.b_idx, b_id)?,
            ctx.dict?,
            scratch,
        ),
        // A value without word tokens has no TF/IDF score: missing.
        SimFunction::TfIdf => {
            let (x, y) = weights()?;
            tfidf::cosine_weights(x, y).unwrap_or(f64::NAN)
        }
        SimFunction::SoftTfIdf => {
            let (x, y) = weights()?;
            tfidf::soft_cosine_weights(x, y, 0.9, ctx.dict?, scratch).unwrap_or(f64::NAN)
        }
        sim => sim.score_syms(ap.syms(f.a_idx, a_id)?, bp.syms(f.b_idx, b_id)?, scratch)?,
    })
}

/// Score a similarity function on two cells with missing ⇒ `NaN`: the
/// string-level definition of every feature value.
pub fn score_value_refs(
    sim: SimFunction,
    a: ValueRef<'_>,
    b: ValueRef<'_>,
    ctx: &SimContext<'_>,
) -> f64 {
    if sim.is_numeric() && !matches!(sim, SimFunction::ExactMatch) {
        match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => sim.score_num(x, y).unwrap_or(f64::NAN),
            _ => f64::NAN,
        }
    } else {
        sim.score_str(&a.render(), &b.render(), ctx)
            .unwrap_or(f64::NAN)
    }
}

/// An ordered set of features; rule predicates reference features by index
/// into one of these.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureSet {
    /// Features in index order.
    pub features: Vec<Feature>,
}

impl FeatureSet {
    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature at an index.
    pub fn get(&self, idx: usize) -> &Feature {
        &self.features[idx]
    }

    /// Compute the full feature vector for one pair of tuple ids through
    /// a [`Scorer`] compiled for the call (loops compile one themselves).
    pub fn vector_at(
        &self,
        a: &Table,
        b: &Table,
        aid: TupleId,
        bid: TupleId,
        ctx: &SimContext<'_>,
        scratch: &mut ScoreScratch,
    ) -> Vec<f64> {
        Scorer::new(self, a, b, ctx).vector((aid, bid), ctx, scratch)
    }
}

/// The blocking and matching feature sets generated for a table pair.
/// (Table 1 commentary: "50/83 features for Products" = blocking/matching.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureLibrary {
    /// Fast, filterable features used in the blocking stage.
    pub blocking: FeatureSet,
    /// Full feature set used in the matching stage.
    pub matching: FeatureSet,
    /// `A`'s attributes profiled as strings (what `sample_pairs` tokenizes).
    pub a_strings: Vec<usize>,
    /// `B`'s attributes profiled as strings.
    pub b_strings: Vec<usize>,
}

/// Figure 5: similarity functions per characteristic. The bool marks
/// matching-only measures (`*` in the paper's table).
fn figure5_sims(ch: AttrCharacteristic) -> Vec<(SimFunction, bool)> {
    use SimFunction::*;
    let g3 = Tokenizer::QGram(3);
    let w = Tokenizer::Word;
    match ch {
        AttrCharacteristic::SingleWordString => vec![
            (ExactMatch, false),
            (Jaccard(g3), false),
            (Overlap(g3), false),
            (Dice(g3), false),
            (Levenshtein, false),
            (Jaro, true),
            (JaroWinkler, true),
        ],
        AttrCharacteristic::ShortString => vec![
            (Jaccard(g3), false),
            (Overlap(g3), false),
            (Dice(g3), false),
            (Jaccard(w), false),
            (Overlap(w), false),
            (Dice(w), false),
            (Cosine(w), false),
            (MongeElkan, true),
            (NeedlemanWunsch, true),
            (SmithWaterman, true),
            (SmithWatermanGotoh, true),
        ],
        AttrCharacteristic::MediumString => vec![
            (Jaccard(w), false),
            (Overlap(w), false),
            (Dice(w), false),
            (Cosine(w), false),
            (MongeElkan, true),
        ],
        AttrCharacteristic::LongString => vec![
            (Jaccard(w), false),
            (Overlap(w), false),
            (Dice(w), false),
            (Cosine(w), false),
            (TfIdf, true),
            (SoftTfIdf, true),
        ],
        AttrCharacteristic::Numeric => vec![
            (ExactMatch, false),
            (AbsDiff, false),
            (RelDiff, false),
            (Levenshtein, false),
        ],
    }
}

/// Generate blocking and matching feature sets for a table pair.
///
/// Correspondences: attributes sharing a name are paired; remaining
/// attributes are paired positionally when their profiled types agree.
pub fn generate_features(a: &Table, b: &Table) -> FeatureLibrary {
    let pa = TableProfile::scan(a);
    let pb = TableProfile::scan(b);

    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut used_b: Vec<bool> = vec![false; b.schema().arity()];
    for (ai, attr) in a.schema().attrs().iter().enumerate() {
        if let Some(bi) = b.schema().index_of(&attr.name) {
            pairs.push((ai, bi));
            used_b[bi] = true;
        }
    }
    // Positional fallback for unmatched names with agreeing profiled types.
    for ai in 0..a.schema().arity() {
        if pairs.iter().any(|(x, _)| *x == ai) {
            continue;
        }
        let want = pa.attrs[ai].ty;
        if let Some(bi) = (0..b.schema().arity()).find(|&bi| !used_b[bi] && pb.attrs[bi].ty == want)
        {
            pairs.push((ai, bi));
            used_b[bi] = true;
        }
    }

    let mut blocking = FeatureSet::default();
    let mut matching = FeatureSet::default();
    for (ai, bi) in pairs {
        let ch = pa.attrs[ai]
            .characteristic
            .lower_row(pb.attrs[bi].characteristic);
        for (sim, matching_only) in figure5_sims(ch) {
            let feature = Feature {
                name: format!(
                    "{}({},{})",
                    sim.name(),
                    a.schema().attr(ai).name,
                    b.schema().attr(bi).name
                ),
                a_attr: a.schema().attr(ai).name.clone(),
                b_attr: b.schema().attr(bi).name.clone(),
                sim,
                a_idx: ai,
                b_idx: bi,
            };
            if !matching_only && sim.usable_for_blocking() {
                blocking.features.push(feature.clone());
            }
            matching.features.push(feature);
        }
    }
    FeatureLibrary {
        blocking,
        matching,
        a_strings: pa.string_attrs(),
        b_strings: pb.string_attrs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema, Value};

    fn tables() -> (Table, Table) {
        let schema = Schema::new([
            ("title", AttrType::Str),
            ("brand", AttrType::Str),
            ("price", AttrType::Num),
        ]);
        let a = Table::new(
            "a",
            schema.clone(),
            (0..20).map(|i| {
                vec![
                    Value::str(format!("quick brown product number {i}")),
                    Value::str("sony"),
                    Value::num(10.0 + i as f64),
                ]
            }),
        );
        let b = Table::new(
            "b",
            schema,
            (0..20).map(|i| {
                vec![
                    Value::str(format!("quick brown product number {i}")),
                    Value::str("sony"),
                    Value::num(10.0 + i as f64),
                ]
            }),
        );
        (a, b)
    }

    #[test]
    fn generates_blocking_and_matching_sets() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        assert!(!lib.blocking.is_empty());
        // Matching set is a superset in count (includes * measures).
        assert!(lib.matching.len() >= lib.blocking.len());
        // No matching-only measure leaks into blocking.
        for f in &lib.blocking.features {
            assert!(f.sim.usable_for_blocking(), "{}", f.name);
        }
    }

    #[test]
    fn numeric_attrs_get_numeric_features() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        assert!(lib
            .blocking
            .features
            .iter()
            .any(|f| f.a_attr == "price" && f.sim == SimFunction::AbsDiff));
    }

    #[test]
    fn vectors_have_feature_arity_and_missing_is_nan() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let ctx = SimContext::empty();
        let fv = lib
            .matching
            .vector_at(&a, &b, 0, 0, &ctx, &mut ScoreScratch::default());
        assert_eq!(fv.len(), lib.matching.len());
        // Identical tuples: all similarity-oriented features should be 1 or
        // 0-distance.
        for (f, v) in lib.matching.features.iter().zip(&fv) {
            if v.is_nan() {
                continue; // tfidf without corpus model
            }
            if f.sim.higher_is_similar() {
                assert!(*v >= 0.99, "{} = {}", f.name, v);
            } else {
                assert!(*v <= 1e-9, "{} = {}", f.name, v);
            }
        }
    }

    #[test]
    fn feature_names_are_informative() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        assert!(lib
            .blocking
            .features
            .iter()
            .any(|f| f.name == "jaccard_word(title,title)"));
    }
}
