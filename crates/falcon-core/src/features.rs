//! Automatic feature generation (Section 8 / Figure 5).
//!
//! A feature is `sim(a.x, b.y)`. Falcon creates attribute correspondences
//! (same-name attributes, falling back to positional string/string and
//! numeric/numeric pairing), profiles each attribute's characteristic, and
//! instantiates the Figure 5 similarity functions for the "lower row" of
//! the two characteristics. Measures marked `*` in Figure 5 are excluded
//! from the blocking feature set (too slow / unfilterable for blocking).

use falcon_table::{AttrCharacteristic, Table, TableProfile, TupleId, ValueRef};
use falcon_textsim::{hybrid, sets, tfidf, SimContext, SimFunction, SimScratch, Tokenizer};
use serde::{Deserialize, Serialize};

/// One feature: a similarity function applied to an attribute
/// correspondence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

impl Feature {
    /// Compute the feature value for a pair of tuple ids; `NaN` means
    /// missing.
    ///
    /// When the context carries [`falcon_textsim::TokenProfile`]s covering
    /// this feature's attributes and tuples, the pre-tokenized fast path is
    /// taken; otherwise (numeric measures, uncovered columns or tuples, no
    /// profiles) the cells are read via [`Table::value_ref`] and scored by
    /// [`score_value_refs`], rendering and tokenizing on the fly. Both
    /// paths are bit-identical (enforced by the `fv_equivalence` property
    /// test). `scratch` lends the kernels their working buffers; it must
    /// only ever serve `ctx.dict`.
    pub fn compute_at(
        &self,
        a: &Table,
        b: &Table,
        aid: TupleId,
        bid: TupleId,
        ctx: &SimContext<'_>,
        scratch: &mut SimScratch,
    ) -> f64 {
        if let Some(v) = self.compute_profiled(aid, bid, ctx, scratch) {
            return v;
        }
        let av = a.value_ref(aid, self.a_idx).unwrap_or(ValueRef::Null);
        let bv = b.value_ref(bid, self.b_idx).unwrap_or(ValueRef::Null);
        score_value_refs(self.sim, av, bv, ctx)
    }

    /// Fast path over the token profiles. Returns `None` — meaning "use
    /// the string path" — when profiles are absent or do not cover this
    /// feature's columns or tuples; numeric measures (other than
    /// `ExactMatch`) never render, so they always use the direct path.
    fn compute_profiled(
        &self,
        a_id: TupleId,
        b_id: TupleId,
        ctx: &SimContext<'_>,
        scratch: &mut SimScratch,
    ) -> Option<f64> {
        let (ap, bp) = (ctx.a_profile?, ctx.b_profile?);
        if self.sim.is_numeric() && !matches!(self.sim, SimFunction::ExactMatch) {
            return None;
        }
        let ar = ap.rendered(self.a_idx, a_id)?;
        let br = bp.rendered(self.b_idx, b_id)?;
        // Missingness is decided on the rendered string, exactly like
        // `score_str`; a non-empty string can still have an empty token
        // set (punctuation-only under `Tokenizer::Word`), which the id
        // kernels score 0.0 just like the string set kernels.
        if ar.is_empty() || br.is_empty() {
            return Some(f64::NAN);
        }
        let cached = self.score_cached(a_id, b_id, ctx, scratch);
        // A measure whose column is missing (a profile built for another
        // feature set, TF/IDF without a model) still reuses the cached
        // rendered strings instead of re-rendering.
        Some(cached.unwrap_or_else(|| self.sim.score_str(ar, br, ctx).unwrap_or(f64::NAN)))
    }

    /// Score two non-missing values from the per-tuple caches alone;
    /// `None` when a column this measure reads was not profiled.
    fn score_cached(
        &self,
        a_id: TupleId,
        b_id: TupleId,
        ctx: &SimContext<'_>,
        scratch: &mut SimScratch,
    ) -> Option<f64> {
        let (ap, bp) = (ctx.a_profile?, ctx.b_profile?);
        let tokens = |t| {
            Some((
                ap.tokens(self.a_idx, t, a_id)?,
                bp.tokens(self.b_idx, t, b_id)?,
            ))
        };
        let weights = || Some((ap.weights(self.a_idx, a_id)?, bp.weights(self.b_idx, b_id)?));
        Some(match self.sim {
            SimFunction::Jaccard(t) => tokens(t).map(|(x, y)| sets::jaccard_ids(x, y))?,
            SimFunction::Dice(t) => tokens(t).map(|(x, y)| sets::dice_ids(x, y))?,
            SimFunction::Overlap(t) => tokens(t).map(|(x, y)| sets::overlap_ids(x, y))?,
            SimFunction::Cosine(t) => tokens(t).map(|(x, y)| sets::cosine_ids(x, y))?,
            SimFunction::MongeElkan => hybrid::monge_elkan_ids(
                ap.token_seq(self.a_idx, a_id)?,
                bp.token_seq(self.b_idx, b_id)?,
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
            sim => sim.score_syms(
                ap.syms(self.a_idx, a_id)?,
                bp.syms(self.b_idx, b_id)?,
                scratch,
            )?,
        })
    }
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

    /// Compute the full feature vector for one pair of tuple ids,
    /// reading cells straight from the tables (see
    /// [`Feature::compute_at`]).
    pub fn vector_at(
        &self,
        a: &Table,
        b: &Table,
        aid: TupleId,
        bid: TupleId,
        ctx: &SimContext<'_>,
        scratch: &mut SimScratch,
    ) -> Vec<f64> {
        self.features
            .iter()
            .map(|f| f.compute_at(a, b, aid, bid, ctx, scratch))
            .collect()
    }
}

/// The blocking and matching feature sets generated for a table pair.
/// (Table 1 commentary: "50/83 features for Products" = blocking/matching.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FeatureLibrary {
    /// Fast, filterable features used in the blocking stage.
    pub blocking: FeatureSet,
    /// Full feature set used in the matching stage.
    pub matching: FeatureSet,
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
    FeatureLibrary { blocking, matching }
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
            .vector_at(&a, &b, 0, 0, &ctx, &mut SimScratch::new());
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
