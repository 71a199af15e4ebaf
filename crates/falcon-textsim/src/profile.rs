//! The token-profile cache: pre-tokenized, interned token-id columns plus
//! a rendered-value cache, shared by every feature evaluated over a pair.
//!
//! Feature-vector generation (`gen_fvs`, Section 8) evaluates tens of
//! `sim(a.x, b.y)` features per candidate pair. Without a cache, each
//! set-based feature re-renders both attribute values and re-tokenizes
//! them into fresh `BTreeSet<String>`s — the same title can be tokenized a
//! dozen times for one pair, and once per pair it participates in. The
//! profile layer instead tokenizes every needed `(attribute, tokenizer)`
//! column **once per tuple**, interning tokens to `u32` ids via a
//! [`TokenDict`] shared across both tables, so per-pair scoring becomes a
//! zero-allocation sorted-slice merge (see the `*_ids` kernels in
//! [`crate::sets`]).
//!
//! Semantics are identical to the string path by construction and proven
//! bit-identical by a property test in `falcon-core`:
//!
//! * missingness is decided on the **rendered string** (empty ⇒ feature is
//!   `NaN`), exactly like `SimFunction::score_str`;
//! * a non-empty string may still tokenize to an *empty* id list
//!   (punctuation-only text under `Tokenizer::Word`), which scores 0.0 —
//!   the same empty-set semantics as the `BTreeSet` kernels.

use crate::detmap::DetMap;
use crate::scratch::Syms;
use crate::tfidf::{WeightColumn, Weights};
use crate::tokenize::Tokenizer;
use std::ops::Range;
use std::sync::Arc;

/// String → `u32` token interner. Equal token strings get equal ids, so
/// set intersections over ids equal set intersections over strings as long
/// as both sides of a comparison were interned through the *same* dict.
/// A token's text is stored once, shared by the map and the id table, so
/// a clone copies handles, not text.
#[derive(Debug, Clone, Default)]
pub struct TokenDict {
    map: DetMap<Arc<str>, u32>,
    toks: Vec<Arc<str>>,
}

impl TokenDict {
    /// Fresh empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a token, assigning the next id on first sight.
    pub fn intern(&mut self, tok: &str) -> u32 {
        if let Some(&id) = self.map.get(tok) {
            return id;
        }
        let id = self.toks.len() as u32;
        let tok: Arc<str> = tok.into();
        self.toks.push(Arc::clone(&tok));
        self.map.insert(tok, id);
        id
    }

    /// Intern an owned token.
    pub fn intern_owned(&mut self, tok: String) -> u32 {
        self.intern(&tok)
    }

    /// The id of an already-interned token.
    pub fn get(&self, tok: &str) -> Option<u32> {
        self.map.get(tok).copied()
    }

    /// Every interned token, in id order.
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.toks.iter().map(|t| &**t)
    }

    /// The token string behind an id.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.toks.get(id as usize).map(|t| &**t)
    }

    /// The token behind an id as the character-level kernels read it:
    /// its bytes when ASCII, else decoded into `buf` (an unknown id reads
    /// as the empty string).
    pub fn syms<'a>(&'a self, id: u32, buf: &'a mut Vec<char>) -> Syms<'a> {
        Syms::decode(self.resolve(id).unwrap_or(""), buf)
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// True iff no token was interned yet.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }
}

/// Key of one pre-tokenized column: `(attribute index, tokenizer)`.
pub type ColumnKey = (usize, Tokenizer);

/// Variable-length values stored back to back in one buffer with `u32`
/// offsets — one allocation per column instead of a `Vec` per tuple,
/// matching the columnar table layout.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    /// `len + 1` entries; value `i` spans `offsets[i]..offsets[i+1]`.
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            offsets: vec![0],
            data: Vec::new(),
        }
    }
}

impl<T> Arena<T> {
    /// Make room for `values` more values of `elements` elements in all.
    pub fn reserve(&mut self, values: usize, elements: usize) {
        self.offsets.reserve_exact(values);
        self.data.reserve_exact(elements);
    }

    /// Append one value from a slice.
    pub fn push(&mut self, value: &[T])
    where
        T: Copy,
    {
        self.data.extend_from_slice(value);
        self.seal();
    }

    /// Append one value from an iterator.
    pub fn push_iter(&mut self, value: impl IntoIterator<Item = T>) {
        self.data.extend(value);
        self.seal();
    }

    /// Close the value whose elements were just appended.
    fn seal(&mut self) {
        // Profile columns mirror table columns, which enforce the same
        // u32 arena bound at ingest; saturation here would only follow a
        // table that could not have been built.
        self.offsets
            .push(u32::try_from(self.data.len()).unwrap_or(u32::MAX));
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff no value was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements stored across all values.
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Position of value `i` in the buffer, or `None` past the end.
    pub fn span(&self, i: usize) -> Option<Range<usize>> {
        (i < self.len()).then(|| self.offsets[i] as usize..self.offsets[i + 1] as usize)
    }

    /// Value `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[T]> {
        self.span(i).map(|span| &self.data[span])
    }

    /// The value pushed last.
    pub fn last(&self) -> Option<&[T]> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every value, in order.
    pub fn iter(&self) -> ArenaIter<'_, T> {
        self.into_iter()
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

/// The values of an [`Arena`], in order.
#[derive(Debug)]
pub struct ArenaIter<'a, T> {
    arena: &'a Arena<T>,
    next: usize,
}

impl<T> Clone for ArenaIter<'_, T> {
    fn clone(&self) -> Self {
        ArenaIter { ..*self }
    }
}

impl<'a, T> Iterator for ArenaIter<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        let value = self.arena.get(self.next)?;
        self.next += 1;
        Some(value)
    }
}

impl<'a, T> IntoIterator for &'a Arena<T> {
    type Item = &'a [T];
    type IntoIter = ArenaIter<'a, T>;

    fn into_iter(self) -> ArenaIter<'a, T> {
        ArenaIter {
            arena: self,
            next: 0,
        }
    }
}

impl<T, V: IntoIterator<Item = T>> FromIterator<V> for Arena<T> {
    fn from_iter<I: IntoIterator<Item = V>>(values: I) -> Self {
        let mut arena = Arena::default();
        values.into_iter().for_each(|v| arena.push_iter(v));
        arena
    }
}

/// Arena-backed rendered-value column: every string lives back to back
/// in one byte buffer.
#[derive(Debug, Clone, Default)]
pub struct RenderedColumn(Arena<u8>);

impl RenderedColumn {
    /// Fresh empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for `values` more values of `bytes` bytes in all.
    pub fn reserve(&mut self, values: usize, bytes: usize) {
        self.0.reserve(values, bytes);
    }

    /// Bytes stored across all values.
    pub fn total_len(&self) -> usize {
        self.0.total_len()
    }

    /// Append one rendered value.
    pub fn push(&mut self, s: &str) {
        self.0.push(s.as_bytes());
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff no value was pushed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value at `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.0.get(i).map(Self::text)
    }

    /// Whether value `i` is the empty string, read from the offsets alone
    /// (no UTF-8 check); `None` past the end.
    pub fn is_empty_at(&self, i: usize) -> Option<bool> {
        self.0.span(i).map(|span| span.is_empty())
    }

    /// Every value, in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(Self::text)
    }

    fn text(span: &[u8]) -> &str {
        // Only whole `&str` values enter the arena; spans are valid UTF-8.
        std::str::from_utf8(span).unwrap_or("")
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.0.estimated_bytes()
    }
}

impl<S: AsRef<str>> FromIterator<S> for RenderedColumn {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut col = RenderedColumn::new();
        for s in iter {
            col.push(s.as_ref());
        }
        col
    }
}

/// Pre-tokenized profile of one table.
///
/// Columns are stored in small ordered `Vec`s and looked up by linear
/// scan: a feature library only ever needs a handful of `(attribute,
/// tokenizer)` combinations, and a scan of ≤ ~10 entries beats hashing in
/// the per-pair hot loop.
#[derive(Debug, Clone, Default)]
pub struct TokenProfile {
    /// `(attr idx, tokenizer)` → per-tuple sorted, deduped token-id lists
    /// (indexed by tuple id).
    columns: Vec<(ColumnKey, Arena<u32>)>,
    /// attr idx → per-tuple rendered values (`""` = missing), indexed by
    /// tuple id, arena-backed.
    rendered: Vec<(usize, RenderedColumn)>,
    /// attr idx → per-tuple word-token ids in text order, duplicates kept
    /// (Monge-Elkan aligns token *sequences*).
    seqs: Vec<(usize, Arena<u32>)>,
    /// attr idx → per-tuple tf·idf vectors (TF/IDF, Soft TF/IDF).
    weights: Vec<(usize, WeightColumn)>,
    /// attr idx → decoded chars of the tuples whose rendered value is not
    /// ASCII (empty entry = ASCII: the kernels read the rendered bytes).
    chars: Vec<(usize, Arena<char>)>,
    /// True when every tuple of the table was profiled (no id mask); only
    /// complete profiles may stand in for full-table scans such as the
    /// token-frequency job.
    complete: bool,
    /// Per-tuple coverage for masked (partial) builds; `None` = all tuples
    /// covered. Lookups on uncovered tuples return `None` so callers fall
    /// back to the string path instead of misreading an uncovered tuple as
    /// "empty value / empty token set".
    covered: Option<Vec<bool>>,
}

impl TokenProfile {
    /// Fresh empty profile; `complete` declares whether every tuple of the
    /// table will be covered.
    pub fn new(complete: bool) -> Self {
        Self {
            complete,
            ..Self::default()
        }
    }

    /// True when every tuple of the table was profiled.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Declare which tuple ids were actually profiled (for masked builds).
    pub fn set_coverage(&mut self, covered: Vec<bool>) {
        self.covered = Some(covered);
    }

    fn is_covered(&self, id: u32) -> bool {
        match &self.covered {
            None => true,
            Some(c) => c.get(id as usize).copied().unwrap_or(false),
        }
    }

    /// Install a token-id column. Later inserts under the same key replace
    /// the earlier column.
    pub fn insert_column(&mut self, key: ColumnKey, data: Arena<u32>) {
        upsert(&mut self.columns, key, data);
    }

    /// Install a rendered-value column for one attribute.
    pub fn insert_rendered(&mut self, attr: usize, values: Vec<String>) {
        self.insert_rendered_col(attr, values.iter().collect());
    }

    /// Install an already arena-backed rendered column for one attribute.
    pub fn insert_rendered_col(&mut self, attr: usize, values: RenderedColumn) {
        upsert(&mut self.rendered, attr, values);
    }

    /// Install one attribute's word-token id sequences.
    pub fn insert_seq_col(&mut self, attr: usize, seqs: Arena<u32>) {
        upsert(&mut self.seqs, attr, seqs);
    }

    /// Install one attribute's tf·idf weight vectors.
    pub fn insert_weight_col(&mut self, attr: usize, weights: WeightColumn) {
        upsert(&mut self.weights, attr, weights);
    }

    /// Install one attribute's decoded chars (entries of ASCII values
    /// stay empty).
    pub fn insert_char_col(&mut self, attr: usize, chars: Arena<char>) {
        upsert(&mut self.chars, attr, chars);
    }

    /// The full token-id column for a key, if profiled.
    pub fn column(&self, key: ColumnKey) -> Option<&Arena<u32>> {
        self.columns.iter().find(|(k, _)| *k == key).map(|(_, c)| c)
    }

    /// Sorted token ids of one tuple's attribute under a tokenizer, if that
    /// column and tuple were profiled.
    pub fn tokens(&self, attr: usize, tokenizer: Tokenizer, id: u32) -> Option<&[u32]> {
        self.tokens_at(self.column_slot((attr, tokenizer))?, id)
    }

    /// Where a token column sits in this profile, for callers that look
    /// it up once and then read tuples through [`TokenProfile::tokens_at`].
    pub fn column_slot(&self, key: ColumnKey) -> Option<usize> {
        self.columns.iter().position(|(k, _)| *k == key)
    }

    /// [`TokenProfile::tokens`] of the column at `slot`.
    pub fn tokens_at(&self, slot: usize, id: u32) -> Option<&[u32]> {
        if !self.is_covered(id) {
            return None;
        }
        let (_, column) = self.columns.get(slot)?;
        column.get(id as usize)
    }

    /// Cached rendered value of one tuple's attribute, if that attribute
    /// and tuple were profiled (`""` = missing value).
    pub fn rendered(&self, attr: usize, id: u32) -> Option<&str> {
        if !self.is_covered(id) {
            return None;
        }
        find(&self.rendered, attr)?.get(id as usize)
    }

    /// Whether one tuple's attribute is missing (rendered `""`), read from
    /// the rendered column's offsets, if that attribute and tuple were
    /// profiled.
    pub fn is_missing(&self, attr: usize, id: u32) -> Option<bool> {
        if !self.is_covered(id) {
            return None;
        }
        find(&self.rendered, attr)?.is_empty_at(id as usize)
    }

    /// Word-token ids of one tuple's attribute in text order, if profiled.
    pub fn token_seq(&self, attr: usize, id: u32) -> Option<&[u32]> {
        if !self.is_covered(id) {
            return None;
        }
        find(&self.seqs, attr)?.get(id as usize)
    }

    /// tf·idf vector of one tuple's attribute, if profiled.
    pub fn weights(&self, attr: usize, id: u32) -> Option<Weights<'_>> {
        if !self.is_covered(id) {
            return None;
        }
        find(&self.weights, attr)?.get(id as usize)
    }

    /// One tuple's rendered attribute as the character-level kernels read
    /// it: the cached chars when it has any, else the rendered bytes when
    /// they are ASCII. `None` when the tuple or attribute is unprofiled,
    /// or a non-ASCII value has no char column to read from.
    pub fn syms(&self, attr: usize, id: u32) -> Option<Syms<'_>> {
        let rendered = self.rendered(attr, id)?;
        let wide = find(&self.chars, attr).and_then(|c| c.get(id as usize));
        match wide {
            Some(chars) if !chars.is_empty() => Some(Syms::Wide(chars)),
            _ => rendered
                .is_ascii()
                .then_some(Syms::Ascii(rendered.as_bytes())),
        }
    }

    /// Number of profiled token columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        let cols: usize = self.columns.iter().map(|(_, c)| c.estimated_bytes()).sum();
        let rend: usize = self.rendered.iter().map(|(_, c)| c.estimated_bytes()).sum();
        let seqs: usize = self.seqs.iter().map(|(_, c)| c.estimated_bytes()).sum();
        let weights: usize = self.weights.iter().map(|(_, c)| c.estimated_bytes()).sum();
        let chars: usize = self.chars.iter().map(|(_, c)| c.estimated_bytes()).sum();
        cols + rend + seqs + weights + chars
    }
}

/// Replace the value stored under `key`, or append it.
fn upsert<K: PartialEq, V>(entries: &mut Vec<(K, V)>, key: K, value: V) {
    match entries.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value,
        None => entries.push((key, value)),
    }
}

fn find<V>(entries: &[(usize, V)], attr: usize) -> Option<&V> {
    entries.iter().find(|(a, _)| *a == attr).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_interns_stably() {
        let mut d = TokenDict::new();
        let a = d.intern("alpha");
        let b = d.intern_owned("beta".to_string());
        assert_ne!(a, b);
        assert_eq!(d.intern("alpha"), a);
        assert_eq!(d.intern_owned("beta".to_string()), b);
        assert_eq!(d.resolve(a), Some("alpha"));
        assert_eq!(d.resolve(b), Some("beta"));
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(99), None);
        assert_eq!(d.get("beta"), Some(b));
        assert_eq!(d.get("gamma"), None);
    }

    #[test]
    fn profile_lookups() {
        let mut p = TokenProfile::new(true);
        assert!(p.is_complete());
        p.insert_column((0, Tokenizer::Word), Arena::from_iter([vec![1, 3], vec![]]));
        p.insert_rendered(0, vec!["a b".into(), String::new()]);
        assert_eq!(p.tokens(0, Tokenizer::Word, 0), Some(&[1u32, 3][..]));
        assert_eq!(p.tokens(0, Tokenizer::Word, 1), Some(&[][..]));
        assert_eq!(p.tokens(0, Tokenizer::QGram(3), 0), None);
        assert_eq!(p.tokens(1, Tokenizer::Word, 0), None);
        assert_eq!(p.rendered(0, 0), Some("a b"));
        assert_eq!(p.rendered(0, 1), Some(""));
        assert_eq!(p.rendered(1, 0), None);
        assert_eq!(p.is_missing(0, 0), Some(false));
        assert_eq!(p.is_missing(0, 1), Some(true));
        assert_eq!(p.is_missing(1, 0), None);
        assert_eq!(p.column_count(), 1);
        assert!(p.estimated_bytes() > 0);
    }

    #[test]
    fn coverage_masks_lookups() {
        let mut p = TokenProfile::new(false);
        p.insert_column((0, Tokenizer::Word), Arena::from_iter([vec![1], vec![2]]));
        p.insert_rendered(0, vec!["a".into(), "b".into()]);
        p.set_coverage(vec![true, false]);
        assert_eq!(p.tokens(0, Tokenizer::Word, 0), Some(&[1u32][..]));
        assert_eq!(p.tokens(0, Tokenizer::Word, 1), None);
        assert_eq!(p.rendered(0, 0), Some("a"));
        assert_eq!(p.rendered(0, 1), None);
        assert_eq!(p.is_missing(0, 1), None);
        // Out-of-range ids are uncovered, not a panic.
        assert_eq!(p.tokens(0, Tokenizer::Word, 9), None);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut p = TokenProfile::new(false);
        p.insert_column((0, Tokenizer::Word), Arena::from_iter([vec![1]]));
        p.insert_column((0, Tokenizer::Word), Arena::from_iter([vec![2]]));
        assert_eq!(p.tokens(0, Tokenizer::Word, 0), Some(&[2u32][..]));
        assert_eq!(p.column_count(), 1);
        p.insert_rendered(0, vec!["x".into()]);
        p.insert_rendered(0, vec!["y".into()]);
        assert_eq!(p.rendered(0, 0), Some("y"));
    }
}
