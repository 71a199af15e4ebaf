//! The run's token store: one [`TokenDict`] and the complete per-tuple
//! caches of `A` and `B` ([`falcon_textsim::TokenProfile`]) that every
//! operator of a run borrows.
//!
//! [`requirements`] inspects a feature set and derives, per side, which
//! attributes need a rendered-value cache, which `(attribute,
//! tokenizer)` columns need pre-tokenization, and which attributes need
//! the matching-only caches (word-token sequences, tf·idf vectors,
//! decoded chars). A [`TokenStore`] is *grown by requirement*:
//! [`TokenStore::require`] builds whatever of a request it does not hold
//! yet — one map-only job per table, none when everything is there — and
//! returns the jobs' stats for the stage that asked to price.
//!
//! A map task tokenizes its split into a reused buffer against a
//! task-local dictionary and emits flat columns of local ids; the
//! sequential pass interns each task's dictionary into the shared one in
//! split order and rewrites the ids. A task's local ids follow first
//! occurrence, so the shared ids are those of interning every token
//! occurrence tuple by tuple (per tuple: sequences, then token columns,
//! then weight vectors, each in text order) — a function of the tables
//! and of the requests made so far, never of scheduling. They do depend
//! on the order of requests, which no output can observe: token orders
//! rank by `(frequency, text)`, set measures read `(|x∩y|, |x|, |y|)`, and
//! tf·idf sums run in token-text order.

use crate::error::FalconError;
use crate::features::Feature;
use falcon_dataflow::{run_map_only, Cluster, JobStats};
use falcon_table::{Table, TupleId, ValueRef};
use falcon_textsim::tokenize::TokenBuf;
use falcon_textsim::{
    Arena, RenderedColumn, SimContext, SimFunction, TfIdfModel, TokenDict, TokenProfile, Tokenizer,
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
    /// set).
    pub fn is_empty(&self) -> bool {
        *self == ProfileSpec::default()
    }

    /// The `seq_attrs` position whose word sequence token column `k` is
    /// the set of: a word-token column over an attribute that also caches
    /// sequences is derived from their ids instead of being tokenized and
    /// interned a second time.
    fn seq_source(&self, k: usize) -> Option<usize> {
        let (attr, tokenizer) = self.token_columns[k];
        (tokenizer == Tokenizer::Word)
            .then(|| self.seq_attrs.iter().position(|&a| a == attr))
            .flatten()
    }

    /// Add whatever `other` asks for that this spec does not.
    pub fn merge(&mut self, other: &ProfileSpec) {
        fn add<T: PartialEq + Copy>(into: &mut Vec<T>, from: &[T]) {
            from.iter().for_each(|&x| push_unique(into, x));
        }
        add(&mut self.rendered_attrs, &other.rendered_attrs);
        add(&mut self.token_columns, &other.token_columns);
        add(&mut self.seq_attrs, &other.seq_attrs);
        add(&mut self.weight_attrs, &other.weight_attrs);
        add(&mut self.char_attrs, &other.char_attrs);
    }

    /// What of this spec `have` lacks; weight vectors count only
    /// `with_weights` (without a corpus model they cannot be built).
    fn minus(&self, have: &ProfileSpec, with_weights: bool) -> ProfileSpec {
        fn rest<T: PartialEq + Copy>(want: &[T], have: &[T]) -> Vec<T> {
            (want.iter().copied())
                .filter(|x| !have.contains(x))
                .collect()
        }
        ProfileSpec {
            rendered_attrs: rest(&self.rendered_attrs, &have.rendered_attrs),
            token_columns: rest(&self.token_columns, &have.token_columns),
            seq_attrs: rest(&self.seq_attrs, &have.seq_attrs),
            weight_attrs: match with_weights {
                true => rest(&self.weight_attrs, &have.weight_attrs),
                false => Vec::new(),
            },
            char_attrs: rest(&self.char_attrs, &have.char_attrs),
        }
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

/// The columns a [`ProfileSpec`] asks for, one entry per tuple: what a
/// map task emits for its split (token ids local to the task) and what
/// the sequential pass assembles for the table (ids of the shared
/// dictionary).
struct Columns {
    rendered: Vec<RenderedColumn>,
    /// One per `char_attrs` entry; ASCII values stay empty.
    chars: Vec<Arena<char>>,
    seqs: Vec<Arena<u32>>,
    /// One sorted, deduplicated id list per `token_columns` entry.
    sets: Vec<Arena<u32>>,
    /// One per `weight_attrs` entry (none without a model).
    weights: Vec<WeightColumn>,
}

impl Columns {
    fn new(spec: &ProfileSpec, with_weights: bool) -> Self {
        let n_weights = spec.weight_attrs.len() * usize::from(with_weights);
        Columns {
            rendered: vec![RenderedColumn::new(); spec.rendered_attrs.len()],
            chars: vec![Arena::default(); spec.char_attrs.len()],
            seqs: vec![Arena::default(); spec.seq_attrs.len()],
            sets: vec![Arena::default(); spec.token_columns.len()],
            weights: vec![WeightColumn::default(); n_weights],
        }
    }

    /// Make room for `len` entries holding what `tasks` hold between them:
    /// a table's columns are allocated once, at their final size.
    fn reserve(&mut self, len: usize, tasks: &[(RenderedColumn, Columns)]) {
        let total = |size: &dyn Fn(&Columns) -> usize| tasks.iter().map(|(_, t)| size(t)).sum();
        for (k, c) in self.rendered.iter_mut().enumerate() {
            c.reserve(len, total(&|t| t.rendered[k].total_len()));
        }
        for (k, c) in self.chars.iter_mut().enumerate() {
            c.reserve(len, total(&|t| t.chars[k].total_len()));
        }
        for (k, c) in self.seqs.iter_mut().enumerate() {
            c.reserve(len, total(&|t| t.seqs[k].total_len()));
        }
        for (k, c) in self.sets.iter_mut().enumerate() {
            c.reserve(len, total(&|t| t.sets[k].total_len()));
        }
        for (k, c) in self.weights.iter_mut().enumerate() {
            c.reserve(len, total(&|t| t.weights[k].total_len()));
        }
    }

    /// The entry of a tuple outside the build's mask.
    fn push_empty(&mut self) {
        self.rendered.iter_mut().for_each(|c| c.push(""));
        self.chars.iter_mut().for_each(|c| c.push(&[]));
        self.seqs.iter_mut().for_each(|c| c.push(&[]));
        self.sets.iter_mut().for_each(|c| c.push(&[]));
        self.weights.iter_mut().for_each(|c| c.push_ids([], &[]));
    }
}

/// The rendered text of one cell: the stored string itself, a number
/// rendered into `scratch`, empty when null.
fn cell_text<'a>(table: &'a Table, id: TupleId, attr: usize, scratch: &'a mut String) -> &'a str {
    match table.value_ref(id, attr) {
        Some(ValueRef::Str(s)) => s,
        Some(v) => {
            scratch.clear();
            v.render_into(scratch);
            scratch
        }
        None => "",
    }
}

/// One map task: the columns of the tuples `ids` over a dictionary of the
/// task's own, returned as its tokens in id order (local ids follow first
/// occurrence in the order the module docs give).
fn profile_task(
    table: &Table,
    ids: &[TupleId],
    spec: &ProfileSpec,
    tfidf: Option<&TfIdfModel>,
) -> (RenderedColumn, Columns) {
    let mut local = TokenDict::new();
    let mut cols = Columns::new(spec, tfidf.is_some());
    let (mut scratch, mut buf, mut toks) = (String::new(), TokenBuf::default(), Vec::new());
    for &id in ids {
        for (col, &attr) in cols.rendered.iter_mut().zip(&spec.rendered_attrs) {
            col.push(cell_text(table, id, attr, &mut scratch));
        }
        for (col, &attr) in cols.chars.iter_mut().zip(&spec.char_attrs) {
            let text = cell_text(table, id, attr, &mut scratch);
            match text.is_ascii() {
                true => col.push(&[]),
                false => col.push_iter(text.chars()),
            }
        }
        for (col, &attr) in cols.seqs.iter_mut().zip(&spec.seq_attrs) {
            let text = cell_text(table, id, attr, &mut scratch);
            toks.clear();
            Tokenizer::Word.for_each_token(text, &mut buf, |t| toks.push(local.intern(t)));
            col.push(&toks);
        }
        for (k, &(attr, tokenizer)) in spec.token_columns.iter().enumerate() {
            toks.clear();
            match spec.seq_source(k) {
                Some(src) => toks.extend_from_slice(cols.seqs[src].last().unwrap_or(&[])),
                None => {
                    let text = cell_text(table, id, attr, &mut scratch);
                    tokenizer.for_each_token(text, &mut buf, |t| toks.push(local.intern(t)));
                }
            }
            toks.sort_unstable();
            toks.dedup();
            cols.sets[k].push(&toks);
        }
        // (`cols.weights` is empty without a model.)
        for (col, &attr) in cols.weights.iter_mut().zip(&spec.weight_attrs) {
            let text = cell_text(table, id, attr, &mut scratch);
            let vector = tfidf.map(|model| model.weight_vector(text));
            col.push(vector.unwrap_or_default(), &mut local);
        }
    }
    (local.tokens().collect(), cols)
}

/// A task's `local` ids as ids of the shared dictionary.
fn shared_ids<'a>(remap: &'a [u32], local: Option<&'a [u32]>) -> impl Iterator<Item = u32> + 'a {
    local.unwrap_or_default().iter().map(|&l| remap[l as usize])
}

/// The sequential pass: append the tasks' columns to `profile` in split
/// order, interning each task's dictionary into `dict` (one lookup per
/// distinct token per task) and rewriting its local ids (one array read
/// per occurrence). Tuples no split covers get empty entries.
fn install(
    profile: &mut TokenProfile,
    dict: &mut TokenDict,
    spec: &ProfileSpec,
    with_weights: bool,
    table_len: usize,
    splits: &[&[TupleId]],
    tasks: Vec<(RenderedColumn, Columns)>,
) {
    let mut cols = Columns::new(spec, with_weights);
    cols.reserve(table_len, &tasks);
    let (mut len, mut set) = (0, Vec::new());
    for (ids, (tokens, task)) in splits.iter().zip(&tasks) {
        let remap: Vec<u32> = tokens.iter().map(|t| dict.intern(t)).collect();
        for (p, &id) in ids.iter().enumerate() {
            (len..id as usize).for_each(|_| cols.push_empty());
            len = id as usize + 1;
            for (col, t) in cols.rendered.iter_mut().zip(&task.rendered) {
                col.push(t.get(p).unwrap_or_default());
            }
            for (col, t) in cols.chars.iter_mut().zip(&task.chars) {
                col.push(t.get(p).unwrap_or_default());
            }
            for (col, t) in cols.seqs.iter_mut().zip(&task.seqs) {
                col.push_iter(shared_ids(&remap, t.get(p)));
            }
            // A set column holds distinct ids in id order (≠ text order).
            for (col, t) in cols.sets.iter_mut().zip(&task.sets) {
                set.clear();
                set.extend(shared_ids(&remap, t.get(p)));
                set.sort_unstable();
                col.push(&set);
            }
            for (col, t) in cols.weights.iter_mut().zip(&task.weights) {
                if let Some(w) = t.get(p) {
                    col.push_ids(shared_ids(&remap, Some(w.ids)), w.weights);
                }
            }
        }
    }
    (len..table_len).for_each(|_| cols.push_empty());
    for (&attr, col) in spec.rendered_attrs.iter().zip(cols.rendered) {
        profile.insert_rendered_col(attr, col);
    }
    for (&key, col) in spec.token_columns.iter().zip(cols.sets) {
        profile.insert_column(key, col);
    }
    for (&attr, col) in spec.seq_attrs.iter().zip(cols.seqs) {
        profile.insert_seq_col(attr, col);
    }
    for (&attr, col) in spec.weight_attrs.iter().zip(cols.weights) {
        profile.insert_weight_col(attr, col);
    }
    for (&attr, col) in spec.char_attrs.iter().zip(cols.chars) {
        // An all-ASCII attribute needs no column: its bytes are read.
        if col.total_len() > 0 {
            profile.insert_char_col(attr, col);
        }
    }
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

/// Build `spec`'s columns over `table` into `profile` — one map-only job
/// on `cluster`, or one task on the calling thread without (no cluster
/// accounting; same columns, same ids) — for every tuple or those `mask`
/// admits (the others get empty entries). Returns the job's stats.
fn build_into(
    profile: &mut TokenProfile,
    dict: &mut TokenDict,
    cluster: Option<&Cluster>,
    table: &Table,
    spec: &ProfileSpec,
    tfidf: Option<&TfIdfModel>,
    mask: Option<&[bool]>,
) -> Result<Option<JobStats>, FalconError> {
    let admitted = |id: &TupleId| mask.is_none_or(|m| m.get(*id as usize) == Some(&true));
    let ids: Vec<TupleId> = (0..table.len() as TupleId).filter(admitted).collect();
    let (splits, tasks, stats) = match cluster {
        Some(cluster) => {
            let splits = cluster.split_slice(&ids);
            let out = run_map_only(cluster, splits.clone(), |ids: &[TupleId], out| {
                out.push(profile_task(table, ids, spec, tfidf));
            })?;
            (splits, out.output, Some(out.stats))
        }
        None => (
            vec![&ids[..]],
            vec![profile_task(table, &ids, spec, tfidf)],
            None,
        ),
    };
    let with_weights = tfidf.is_some();
    install(
        profile,
        dict,
        spec,
        with_weights,
        table.len(),
        &splits,
        tasks,
    );
    Ok(stats)
}

/// Build one table's profile with a parallel map-only job (no tf·idf
/// columns: blocking-side callers have no corpus model).
///
/// `mask` (indexed by tuple id) restricts profiling to the tuples it
/// admits. A masked profile records its coverage so lookups on unprofiled
/// tuples fall back to the string path instead of misreading them as
/// empty.
pub fn build_profile_par(
    cluster: &Cluster,
    table: &Table,
    spec: &ProfileSpec,
    dict: &mut TokenDict,
    mask: Option<&[bool]>,
) -> Result<(TokenProfile, JobStats), FalconError> {
    let mut profile = TokenProfile::new(mask.is_none());
    let stats = build_into(&mut profile, dict, Some(cluster), table, spec, None, mask)?;
    if let Some(mask) = mask {
        let admitted = |id| mask.get(id) == Some(&true);
        profile.set_coverage((0..table.len()).map(admitted).collect());
    }
    Ok((profile, stats.unwrap_or_default()))
}

/// One dictionary and the complete profiles of `A` and `B` interned in
/// it, holding whatever columns were asked for so far. A run owns one;
/// the frozen per-call entry points wrap a store of their own.
#[derive(Debug, Clone)]
pub struct TokenStore {
    dict: Arc<TokenDict>,
    profiles: [TokenProfile; 2],
    /// What each side's profile holds.
    have: [ProfileSpec; 2],
}

impl Default for TokenStore {
    fn default() -> Self {
        TokenStore {
            dict: Arc::default(),
            profiles: [TokenProfile::new(true), TokenProfile::new(true)],
            have: Default::default(),
        }
    }
}

impl TokenStore {
    /// The shared interner (indexes built over a column keep a handle).
    pub fn dict(&self) -> &Arc<TokenDict> {
        &self.dict
    }

    /// `A`'s profile.
    pub fn a(&self) -> &TokenProfile {
        &self.profiles[0]
    }

    /// `B`'s profile.
    pub fn b(&self) -> &TokenProfile {
        &self.profiles[1]
    }

    /// A scoring context over both profiles.
    pub fn context(&self) -> SimContext<'_> {
        SimContext::empty().with_profiles(self.a(), self.b(), &self.dict)
    }

    /// This store when it holds everything `needs` asks for; else — for
    /// the per-call entry points, whose store was never asked — a store
    /// of the call's own holding just that, tokenized on the calling
    /// thread (no job runs, nothing is priced) over a copy of this
    /// dictionary, so its ids extend the ones indexes were built over.
    pub fn covering(
        &self,
        a: &Table,
        b: &Table,
        needs: &(ProfileSpec, ProfileSpec),
    ) -> Cow<'_, Self> {
        let lacks =
            |side: usize, spec: &ProfileSpec| !spec.minus(&self.have[side], true).is_empty();
        if !lacks(0, &needs.0) && !lacks(1, &needs.1) {
            return Cow::Borrowed(self);
        }
        let mut own = TokenStore {
            dict: Arc::clone(&self.dict),
            ..Self::default()
        };
        // Without a cluster nothing can fail.
        let _ = own.grow(0, None, a, &needs.0, None);
        let _ = own.grow(1, None, b, &needs.1, None);
        Cow::Owned(own)
    }

    /// Grow the store to hold `needs` (`A`'s spec, `B`'s spec): build the
    /// columns still missing with one map-only job per table that misses
    /// any, `A` first, and return those jobs' stats — empty when
    /// everything was there. Weight vectors are built from `tfidf`, the
    /// corpus model of the request's TF/IDF measures, when it is given.
    pub fn require(
        &mut self,
        cluster: &Cluster,
        a: &Table,
        b: &Table,
        needs: &(ProfileSpec, ProfileSpec),
        tfidf: Option<&TfIdfModel>,
    ) -> Result<Vec<JobStats>, FalconError> {
        let a_stats = self.grow(0, Some(cluster), a, &needs.0, tfidf)?;
        let b_stats = self.grow(1, Some(cluster), b, &needs.1, tfidf)?;
        Ok(a_stats.into_iter().chain(b_stats).collect())
    }

    /// Grow one side (`0` = `A`, `1` = `B`) by what `spec` asks for and
    /// it lacks.
    pub(crate) fn grow(
        &mut self,
        side: usize,
        cluster: Option<&Cluster>,
        table: &Table,
        spec: &ProfileSpec,
        tfidf: Option<&TfIdfModel>,
    ) -> Result<Option<JobStats>, FalconError> {
        let missing = spec.minus(&self.have[side], tfidf.is_some());
        if missing.is_empty() {
            return Ok(None);
        }
        // Copies the dictionary only while an index still holds it.
        let dict = Arc::make_mut(&mut self.dict);
        let profile = &mut self.profiles[side];
        let stats = build_into(profile, dict, cluster, table, &missing, tfidf, None)?;
        self.have[side].merge(&missing);
        Ok(stats)
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

    /// A store asked for the matching features of [`tables`], on the
    /// cluster.
    fn matching_store(a: &Table, b: &Table) -> (TokenStore, (ProfileSpec, ProfileSpec)) {
        let needs = requirements(&generate_features(a, b).matching.features);
        let mut store = TokenStore::default();
        let jobs = store.require(&cluster(), a, b, &needs, None);
        assert_eq!(jobs.expect("jobs").len(), 2);
        (store, needs)
    }

    #[test]
    fn par_and_seq_profiles_agree() {
        let (a, b) = tables();
        let (par, needs) = matching_store(&a, &b);
        assert!(matches!(par.covering(&a, &b, &needs), Cow::Borrowed(_)));
        // The same request on the calling thread, no cluster.
        let seq = TokenStore::default().covering(&a, &b, &needs).into_owned();
        assert_eq!(
            par.dict().tokens().collect::<Vec<_>>(),
            seq.dict().tokens().collect::<Vec<_>>()
        );
        for t in a.rows() {
            for &(attr, tok) in &needs.0.token_columns {
                assert_eq!(
                    par.a().tokens(attr, tok, t.id),
                    seq.a().tokens(attr, tok, t.id),
                    "tuple {} attr {attr}",
                    t.id
                );
            }
            for &attr in &needs.0.rendered_attrs {
                assert_eq!(par.a().rendered(attr, t.id), seq.a().rendered(attr, t.id));
                assert_eq!(
                    par.a().rendered(attr, t.id),
                    Some(t.value(attr).render().as_str())
                );
            }
        }
        assert!(par.a().is_complete() && par.b().is_complete());
    }

    #[test]
    fn shared_dict_makes_cross_table_tokens_comparable() {
        let (a, b) = tables();
        let (store, _) = matching_store(&a, &b);
        // "sony" in both brand columns must intern to the same id.
        let (brand, tok) = (1usize, Tokenizer::QGram(3));
        let xa = store.a().tokens(brand, tok, 0).expect("a tokens");
        let xb = store.b().tokens(brand, tok, 0).expect("b tokens");
        assert_eq!(xa, xb);
        assert!(!xa.is_empty());
    }

    #[test]
    fn interned_ids_are_sorted_per_tuple() {
        let (a, b) = tables();
        let (store, needs) = matching_store(&a, &b);
        for t in a.rows() {
            for &(attr, tok) in &needs.0.token_columns {
                let ids = store.a().tokens(attr, tok, t.id).expect("tokens");
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted dedup ids");
            }
        }
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
}
