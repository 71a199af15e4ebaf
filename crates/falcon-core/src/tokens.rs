//! Table-level builders for the token-profile cache
//! ([`falcon_textsim::TokenProfile`]).
//!
//! [`requirements`] inspects a feature set and derives, per side, which
//! attributes need a rendered-value cache, which `(attribute,
//! tokenizer)` columns need pre-tokenization, and which attributes need
//! the matching-only caches (word-token sequences, tf·idf vectors,
//! decoded chars). [`build_pair_profiles_par`] then builds each needed
//! column **once per tuple** with a parallel map-only job (optionally
//! restricted to the tuples a pair list actually references), interning
//! tokens into one [`TokenDict`] shared by both tables so equal strings
//! compare as equal `u32` ids across sides.
//!
//! Determinism: map output is re-sorted by tuple id and interned
//! sequentially (A side first, then B), so dictionary ids — and therefore
//! profile contents — are independent of worker scheduling.

use crate::error::FalconError;
use crate::features::Feature;
use falcon_dataflow::{run_map_only, Cluster, JobStats};
use falcon_table::{Table, TupleId};
use falcon_textsim::tokenize::word_tokens;
use falcon_textsim::{
    Arena, RenderedColumn, SimFunction, TfIdfModel, TokenDict, TokenProfile, Tokenizer,
    WeightColumn,
};
use std::borrow::Cow;
use std::sync::Arc;

/// What one side of a table pair must profile to serve a feature set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSpec {
    /// Attribute indexes whose rendered value is cached (string-path
    /// measures read these instead of calling `Value::render` per feature).
    pub rendered_attrs: Vec<usize>,
    /// `(attribute index, tokenizer)` columns to pre-tokenize for the
    /// set-based measures.
    pub token_columns: Vec<(usize, Tokenizer)>,
    /// Attributes whose word tokens are cached as id *sequences* (text
    /// order, duplicates kept) for Monge-Elkan.
    pub seq_attrs: Vec<usize>,
    /// Attributes whose tf·idf vectors are cached for TF/IDF and Soft
    /// TF/IDF. Built only when the build is given the corpus model.
    pub weight_attrs: Vec<usize>,
    /// Attributes scored by a character-level measure: the non-ASCII
    /// values among them are cached decoded (ASCII ones are read from the
    /// rendered bytes).
    pub char_attrs: Vec<usize>,
}

impl ProfileSpec {
    /// True when nothing needs profiling (e.g. an all-numeric feature
    /// set); every other column is over a rendered attribute.
    pub fn is_empty(&self) -> bool {
        self.rendered_attrs.is_empty() && self.token_columns.is_empty()
    }

    /// The `seq_attrs` position whose word sequence token column `k` is
    /// the set of: a word-token column over an attribute that also caches
    /// sequences is derived from their ids at assembly instead of being
    /// tokenized and interned a second time.
    fn seq_source(&self, k: usize) -> Option<usize> {
        let (attr, tokenizer) = self.token_columns[k];
        (tokenizer == Tokenizer::Word)
            .then(|| self.seq_attrs.iter().position(|&a| a == attr))
            .flatten()
    }
}

fn push_unique<T: PartialEq>(v: &mut Vec<T>, x: T) {
    if !v.contains(&x) {
        v.push(x);
    }
}

/// Derive the A-side and B-side profile specs for a set of features.
///
/// Numeric measures other than `ExactMatch` never render their operands
/// (`score_value_refs` parses the cell directly), so they contribute
/// nothing; every other measure reads rendered strings, the set-based
/// measures additionally get a token-id column for their tokenizer, and
/// the matching-only measures the cache their kernel reads.
pub fn requirements<'a>(
    features: impl IntoIterator<Item = &'a Feature>,
) -> (ProfileSpec, ProfileSpec) {
    let mut a = ProfileSpec::default();
    let mut b = ProfileSpec::default();
    for f in features {
        if f.sim.is_numeric() && !matches!(f.sim, SimFunction::ExactMatch) {
            continue;
        }
        push_unique(&mut a.rendered_attrs, f.a_idx);
        push_unique(&mut b.rendered_attrs, f.b_idx);
        let (a_attrs, b_attrs) = match f.sim {
            SimFunction::Jaccard(t)
            | SimFunction::Dice(t)
            | SimFunction::Overlap(t)
            | SimFunction::Cosine(t) => {
                push_unique(&mut a.token_columns, (f.a_idx, t));
                push_unique(&mut b.token_columns, (f.b_idx, t));
                continue;
            }
            SimFunction::MongeElkan => (&mut a.seq_attrs, &mut b.seq_attrs),
            SimFunction::TfIdf | SimFunction::SoftTfIdf => {
                (&mut a.weight_attrs, &mut b.weight_attrs)
            }
            SimFunction::Levenshtein
            | SimFunction::Jaro
            | SimFunction::JaroWinkler
            | SimFunction::NeedlemanWunsch
            | SimFunction::SmithWaterman
            | SimFunction::SmithWatermanGotoh => (&mut a.char_attrs, &mut b.char_attrs),
            SimFunction::ExactMatch | SimFunction::AbsDiff | SimFunction::RelDiff => continue,
        };
        push_unique(a_attrs, f.a_idx);
        push_unique(b_attrs, f.b_idx);
    }
    (a, b)
}

/// What one tuple contributes to a profile. Token strings stay strings
/// here; interning happens in the deterministic sequential pass.
struct TupleRecord {
    id: TupleId,
    /// One rendered value per `rendered_attrs` entry.
    rendered: Vec<String>,
    /// One sorted, deduplicated token list per `token_columns` entry
    /// (left empty where [`ProfileSpec::seq_source`] supplies the ids).
    tokens: Vec<Vec<String>>,
    /// One word-token sequence per `seq_attrs` entry.
    seqs: Vec<Vec<String>>,
    /// One tf·idf vector per `weight_attrs` entry (none without a model).
    weights: Vec<Vec<(String, f64)>>,
}

/// Per-tuple map task: render the needed attributes and derive every
/// token-level column from the rendered text, reading cells through
/// [`Table::value_ref`].
fn profile_id(
    table: &Table,
    id: TupleId,
    spec: &ProfileSpec,
    tfidf: Option<&TfIdfModel>,
) -> TupleRecord {
    let render = |attr: usize| {
        table
            .value_ref(id, attr)
            .map(|v| v.render())
            .unwrap_or_default()
    };
    let rendered: Vec<String> = spec
        .rendered_attrs
        .iter()
        .map(|&attr| render(attr))
        .collect();
    let text = |attr: usize| match spec.rendered_attrs.iter().position(|&a| a == attr) {
        Some(i) => Cow::Borrowed(rendered[i].as_str()),
        None => Cow::Owned(render(attr)),
    };
    let tokens = (0..spec.token_columns.len())
        .map(|k| match spec.seq_source(k) {
            Some(_) => Vec::new(),
            None => {
                let (attr, tok) = spec.token_columns[k];
                tok.tokenize_sorted(&text(attr))
            }
        })
        .collect();
    let seqs = spec
        .seq_attrs
        .iter()
        .map(|&attr| word_tokens(&text(attr)))
        .collect();
    let weights = match tfidf {
        Some(model) => spec
            .weight_attrs
            .iter()
            .map(|&attr| model.weight_vector(&text(attr)))
            .collect(),
        None => Vec::new(),
    };
    TupleRecord {
        id,
        rendered,
        tokens,
        seqs,
        weights,
    }
}

/// The arena-backed columns of a profile under assembly. Arenas are
/// append-only and records arrive id-sorted, so uncovered tuples are
/// padded with empty entries on the way.
struct ArenaColumns {
    rendered: Vec<RenderedColumn>,
    seqs: Vec<Arena<u32>>,
    weights: Vec<WeightColumn>,
    /// `(attribute, its position in rendered_attrs, decoded chars)`.
    chars: Vec<(usize, usize, Arena<char>)>,
    /// Entries emitted per column so far.
    len: usize,
}

impl ArenaColumns {
    fn pad_to(&mut self, len: usize, dict: &mut TokenDict) {
        for _ in self.len..len {
            self.rendered.iter_mut().for_each(|c| c.push(""));
            self.seqs.iter_mut().for_each(|c| c.push(&[]));
            self.weights
                .iter_mut()
                .for_each(|c| c.push(Vec::new(), dict));
            self.chars.iter_mut().for_each(|(_, _, c)| c.push(&[]));
        }
        self.len = len;
    }
}

/// Assemble map output into a [`TokenProfile`], interning tokens in tuple-id
/// order so dictionary ids are deterministic.
fn assemble(
    table_len: usize,
    spec: &ProfileSpec,
    with_weights: bool,
    mut records: Vec<TupleRecord>,
    dict: &mut TokenDict,
    complete: bool,
) -> TokenProfile {
    records.sort_by_key(|r| r.id);
    let n_weights = if with_weights {
        spec.weight_attrs.len()
    } else {
        0
    };
    let mut cols = ArenaColumns {
        rendered: vec![RenderedColumn::new(); spec.rendered_attrs.len()],
        seqs: vec![Arena::default(); spec.seq_attrs.len()],
        weights: vec![WeightColumn::default(); n_weights],
        // `requirements` renders every attribute a character-level
        // measure reads, so each char column has a rendered source.
        chars: spec
            .char_attrs
            .iter()
            .filter_map(|&attr| {
                let src = spec.rendered_attrs.iter().position(|&a| a == attr)?;
                Some((attr, src, Arena::default()))
            })
            .collect(),
        len: 0,
    };
    let mut token_cols: Vec<Vec<Vec<u32>>> = spec
        .token_columns
        .iter()
        .map(|_| vec![Vec::new(); table_len])
        .collect();
    let mut covered = vec![false; table_len];
    for rec in records {
        let idx = rec.id as usize;
        if idx >= table_len || idx < cols.len {
            continue;
        }
        covered[idx] = true;
        cols.pad_to(idx, dict);
        cols.len = idx + 1;
        for (_, src, col) in &mut cols.chars {
            let text = rec.rendered[*src].as_str();
            if text.is_ascii() {
                col.push(&[]);
            } else {
                col.push_iter(text.chars());
            }
        }
        for (col, r) in cols.rendered.iter_mut().zip(&rec.rendered) {
            col.push(r);
        }
        for (col, toks) in cols.seqs.iter_mut().zip(rec.seqs) {
            col.push_iter(toks.into_iter().map(|t| dict.intern_owned(t)));
        }
        for (k, (col, toks)) in token_cols.iter_mut().zip(rec.tokens).enumerate() {
            // The set column holds distinct ids in id order (≠ string
            // order): the distinct ids of the attribute's word sequence
            // when it is cached, else the interned token strings (distinct
            // strings intern to distinct ids, so only the former dedups).
            let mut ids: Vec<u32> = match spec.seq_source(k) {
                Some(src) => cols.seqs[src].get(idx).unwrap_or_default().to_vec(),
                None => toks.into_iter().map(|t| dict.intern_owned(t)).collect(),
            };
            ids.sort_unstable();
            ids.dedup();
            col[idx] = ids;
        }
        for (col, vector) in cols.weights.iter_mut().zip(rec.weights) {
            col.push(vector, dict);
        }
    }
    cols.pad_to(table_len, dict);
    let mut profile = TokenProfile::new(complete);
    for (&attr, col) in spec.rendered_attrs.iter().zip(cols.rendered) {
        profile.insert_rendered_col(attr, col);
    }
    for (&key, col) in spec.token_columns.iter().zip(token_cols) {
        profile.insert_column(key, col);
    }
    for (&attr, col) in spec.seq_attrs.iter().zip(cols.seqs) {
        profile.insert_seq_col(attr, col);
    }
    for (&attr, col) in spec.weight_attrs.iter().zip(cols.weights) {
        profile.insert_weight_col(attr, col);
    }
    for (attr, _, col) in cols.chars {
        // An all-ASCII attribute needs no column: its bytes are read.
        if col.total_len() > 0 {
            profile.insert_char_col(attr, col);
        }
    }
    if !complete {
        profile.set_coverage(covered);
    }
    profile
}

/// Input splits over the tuple ids of `table`: mappers read cells from
/// the shared columnar table by id, so no rows are materialized.
pub(crate) fn id_splits(cluster: &Cluster, table: &Table) -> Vec<Vec<TupleId>> {
    cluster
        .splits(table.len())
        .into_iter()
        .map(|r| (r.start as TupleId..r.end as TupleId).collect())
        .collect()
}

/// Build one table's profile sequentially (no cluster accounting). Used
/// where no dataflow context exists. `tfidf` as in
/// [`build_pair_profiles_par`].
pub fn build_profile_seq(
    table: &Table,
    spec: &ProfileSpec,
    tfidf: Option<&TfIdfModel>,
    dict: &mut TokenDict,
) -> TokenProfile {
    let records: Vec<_> = (0..table.len() as TupleId)
        .map(|id| profile_id(table, id, spec, tfidf))
        .collect();
    assemble(table.len(), spec, tfidf.is_some(), records, dict, true)
}

/// Build one table's profile with a parallel map-only job (no tf·idf
/// columns: blocking-side callers have no corpus model).
///
/// `mask` (indexed by tuple id) restricts profiling to the tuples a pair
/// list actually references — essential for sampled stages where
/// tokenizing the whole table would cost more than it saves. A masked
/// profile records its coverage so lookups on unprofiled tuples fall back
/// to the string path instead of misreading them as empty.
pub fn build_profile_par(
    cluster: &Cluster,
    table: &Table,
    spec: &ProfileSpec,
    dict: &mut TokenDict,
    mask: Option<&[bool]>,
) -> Result<(TokenProfile, JobStats), FalconError> {
    build_profile_par_with(cluster, table, spec, None, dict, mask)
}

fn build_profile_par_with(
    cluster: &Cluster,
    table: &Table,
    spec: &ProfileSpec,
    tfidf: Option<&TfIdfModel>,
    dict: &mut TokenDict,
    mask: Option<&[bool]>,
) -> Result<(TokenProfile, JobStats), FalconError> {
    let ids: Vec<TupleId> = match mask {
        None => (0..table.len() as TupleId).collect(),
        Some(m) => (0..table.len() as TupleId)
            .filter(|&id| m.get(id as usize).copied().unwrap_or(false))
            .collect(),
    };
    let splits = cluster.split_slice(&ids);
    let out = run_map_only(cluster, splits, |ids: &[TupleId], out| {
        out.extend(ids.iter().map(|&id| profile_id(table, id, spec, tfidf)));
    })?;
    let profile = assemble(
        table.len(),
        spec,
        tfidf.is_some(),
        out.output,
        dict,
        mask.is_none(),
    );
    Ok((profile, out.stats))
}

/// Token profiles for both sides of a table pair, sharing one dictionary.
#[derive(Debug, Clone, Default)]
pub struct PairProfiles {
    /// A-side profile.
    pub a: TokenProfile,
    /// B-side profile.
    pub b: TokenProfile,
    /// The shared interner (A interned first, then B); the blocking
    /// indexes built over a profile's columns keep a handle on it.
    pub dict: Arc<TokenDict>,
    /// Stats of the profiling map jobs (empty for sequential builds).
    pub stats: Vec<JobStats>,
}

/// Build both sides' profiles in parallel map-only jobs, restricted by
/// optional per-side tuple masks, sharing one dictionary. `tfidf` is the
/// corpus model of the feature set's TF/IDF measures, if it has any; the
/// tf·idf columns are computed from it in the same two jobs.
pub fn build_pair_profiles_par<'a>(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    features: impl IntoIterator<Item = &'a Feature>,
    tfidf: Option<&TfIdfModel>,
    a_mask: Option<&[bool]>,
    b_mask: Option<&[bool]>,
) -> Result<PairProfiles, FalconError> {
    let (a_spec, b_spec) = requirements(features);
    let mut dict = TokenDict::new();
    let (a_profile, a_stats) =
        build_profile_par_with(cluster, a, &a_spec, tfidf, &mut dict, a_mask)?;
    let (b_profile, b_stats) =
        build_profile_par_with(cluster, b, &b_spec, tfidf, &mut dict, b_mask)?;
    Ok(PairProfiles {
        a: a_profile,
        b: b_profile,
        dict: Arc::new(dict),
        stats: vec![a_stats, b_stats],
    })
}

/// Build both sides' full-table profiles sequentially, sharing one
/// dictionary (`tfidf` as in [`build_pair_profiles_par`]).
pub fn build_pair_profiles_seq<'a>(
    a: &Table,
    b: &Table,
    features: impl IntoIterator<Item = &'a Feature>,
    tfidf: Option<&TfIdfModel>,
) -> PairProfiles {
    let (a_spec, b_spec) = requirements(features);
    let mut dict = TokenDict::new();
    let a_profile = build_profile_seq(a, &a_spec, tfidf, &mut dict);
    let b_profile = build_profile_seq(b, &b_spec, tfidf, &mut dict);
    PairProfiles {
        a: a_profile,
        b: b_profile,
        dict: Arc::new(dict),
        stats: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_features;
    use falcon_dataflow::ClusterConfig;
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
            (0..12).map(|i| {
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
            (0..12).map(|i| {
                vec![
                    Value::str(format!("quick brown gadget number {i}")),
                    Value::str("sony"),
                    Value::num(10.0 + i as f64),
                ]
            }),
        );
        (a, b)
    }

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    #[test]
    fn requirements_skip_pure_numeric_measures() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let (sa, sb) = requirements(&lib.matching.features);
        // Set-based title features produce token columns on both sides.
        assert!(!sa.token_columns.is_empty());
        assert!(!sb.token_columns.is_empty());
        // price carries ExactMatch/Levenshtein (string path), so it still
        // appears in rendered_attrs, but never as a token column.
        assert!(sa.rendered_attrs.contains(&2));
        assert!(!sa.token_columns.iter().any(|&(attr, _)| attr == 2));
        assert!(!sa.is_empty());
    }

    #[test]
    fn par_and_seq_profiles_agree() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let par =
            build_pair_profiles_par(&cluster(), &a, &b, &lib.matching.features, None, None, None)
                .expect("profiles");
        let seq = build_pair_profiles_seq(&a, &b, &lib.matching.features, None);
        assert_eq!(par.dict.len(), seq.dict.len());
        let (sa, _) = requirements(&lib.matching.features);
        for t in a.rows() {
            for &(attr, tok) in &sa.token_columns {
                assert_eq!(
                    par.a.tokens(attr, tok, t.id),
                    seq.a.tokens(attr, tok, t.id),
                    "tuple {} attr {attr}",
                    t.id
                );
            }
            for &attr in &sa.rendered_attrs {
                assert_eq!(par.a.rendered(attr, t.id), seq.a.rendered(attr, t.id));
                assert_eq!(
                    par.a.rendered(attr, t.id),
                    Some(t.value(attr).render().as_str())
                );
            }
        }
        assert!(par.a.is_complete() && par.b.is_complete());
        assert_eq!(par.stats.len(), 2);
    }

    #[test]
    fn shared_dict_makes_cross_table_tokens_comparable() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let p = build_pair_profiles_seq(&a, &b, &lib.matching.features, None);
        // "sony" in both brand columns must intern to the same id.
        let brand = 1usize;
        let tok = Tokenizer::QGram(3);
        let xa = p.a.tokens(brand, tok, 0).expect("a tokens");
        let xb = p.b.tokens(brand, tok, 0).expect("b tokens");
        assert_eq!(xa, xb);
        assert!(!xa.is_empty());
    }

    #[test]
    fn masked_build_covers_only_masked_tuples() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let mut mask = vec![false; a.len()];
        mask[3] = true;
        mask[7] = true;
        let (sa, _) = requirements(&lib.matching.features);
        let mut dict = TokenDict::new();
        let (p, stats) =
            build_profile_par(&cluster(), &a, &sa, &mut dict, Some(&mask)).expect("profile");
        assert!(!p.is_complete());
        assert_eq!(stats.input_records, 2);
        let (attr, tok) = sa.token_columns[0];
        assert!(p.tokens(attr, tok, 3).is_some());
        assert!(p.tokens(attr, tok, 7).is_some());
        assert!(p.tokens(attr, tok, 0).is_none());
        assert!(p.rendered(attr, 0).is_none());
    }

    #[test]
    fn interned_ids_are_sorted_per_tuple() {
        let (a, b) = tables();
        let lib = generate_features(&a, &b);
        let p = build_pair_profiles_seq(&a, &b, &lib.matching.features, None);
        let (sa, _) = requirements(&lib.matching.features);
        for t in a.rows() {
            for &(attr, tok) in &sa.token_columns {
                let ids = p.a.tokens(attr, tok, t.id).expect("tokens");
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted dedup ids");
            }
        }
    }
}
