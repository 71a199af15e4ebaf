//! Corpus-weighted TF/IDF and Soft TF/IDF similarity (Figure 5: long-string
//! measures, matching stage only).
//!
//! A document is scored from its [`Weights`]: the token-string-sorted
//! tf·idf vector over interned token ids, with its norm. `gen_fvs` caches
//! one per tuple in a [`WeightColumn`]; the `&str` methods of
//! [`TfIdfModel`] build a throw-away two-document column and run the same
//! kernels.

use crate::detmap::DetMap;
use crate::profile::{Arena, TokenDict};
use crate::scratch::SimScratch;
use crate::tokenize::word_tokens;

/// Inverse-document-frequency statistics over a corpus of attribute values.
///
/// Build once per attribute correspondence from (a sample of) both tables,
/// streamed one document at a time through [`TfIdfModel::add`], then
/// evaluate [`TfIdfModel::cosine`] / [`TfIdfModel::soft_cosine`] on value
/// pairs.
#[derive(Debug, Clone, Default)]
pub struct TfIdfModel {
    /// Document frequency of each token seen.
    df: DetMap<String, usize>,
    n_docs: usize,
}

impl TfIdfModel {
    /// Build the model from an iterator of documents (attribute values).
    pub fn build<'a>(docs: impl Iterator<Item = &'a str>) -> Self {
        let mut model = Self::default();
        docs.for_each(|doc| model.add(doc));
        model
    }

    /// Count one document (attribute value).
    pub fn add(&mut self, doc: &str) {
        self.n_docs += 1;
        let mut seen: Vec<String> = word_tokens(doc);
        seen.sort_unstable();
        seen.dedup();
        for tok in seen {
            *self.df.entry(tok).or_insert(0) += 1;
        }
    }

    /// Number of documents the model was built from.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// IDF weight for a token, `ln((1 + n) / (1 + df)) + 1`; unseen
    /// tokens (`df = 0`) get the maximum weight.
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.df.get(token).copied().unwrap_or(0);
        ((1 + self.n_docs) as f64 / (1 + df) as f64).ln() + 1.0
    }

    /// Token-sorted tf·idf weights of a document: the dot products and
    /// norms accumulate floats in this order.
    pub fn weight_vector(&self, s: &str) -> Vec<(String, f64)> {
        let mut toks = word_tokens(s);
        toks.sort_unstable();
        let mut tf: Vec<(String, f64)> = Vec::new();
        for tok in toks {
            match tf.last_mut() {
                Some((t, w)) if *t == tok => *w += 1.0,
                _ => tf.push((tok, 1.0)),
            }
        }
        for (tok, w) in tf.iter_mut() {
            *w *= self.idf(tok);
        }
        tf
    }

    /// The weight vectors of `a` and `b` over a private dictionary.
    fn column_of(&self, a: &str, b: &str) -> (WeightColumn, TokenDict) {
        let mut dict = TokenDict::new();
        let mut col = WeightColumn::default();
        col.push(self.weight_vector(a), &mut dict);
        col.push(self.weight_vector(b), &mut dict);
        (col, dict)
    }

    /// TF/IDF cosine similarity in `[0, 1]`; `None` when either side has no
    /// tokens.
    pub fn cosine(&self, a: &str, b: &str) -> Option<f64> {
        let (col, _) = self.column_of(a, b);
        cosine_weights(col.get(0)?, col.get(1)?)
    }

    /// Soft TF/IDF: like [`Self::cosine`], but tokens of `a` and `b` whose
    /// Jaro-Winkler similarity is at least `theta` are treated as partial
    /// matches weighted by that similarity.
    pub fn soft_cosine(&self, a: &str, b: &str, theta: f64) -> Option<f64> {
        let (col, dict) = self.column_of(a, b);
        let mut scratch = SimScratch::with_memo_slots(1);
        soft_cosine_weights(col.get(0)?, col.get(1)?, theta, &dict, &mut scratch)
    }
}

/// One document's tf·idf vector: parallel `ids` / `weights` in
/// token-*string* order (the order every accumulation below runs in),
/// ids from one [`TokenDict`], and the vector's Euclidean norm.
#[derive(Debug, Clone, Copy)]
pub struct Weights<'a> {
    /// Distinct token ids, sorted by token string.
    pub ids: &'a [u32],
    /// `tf · idf` of each token.
    pub weights: &'a [f64],
    /// `sqrt(Σ w²)`, summed in the same order.
    pub norm: f64,
}

/// Arena-backed per-tuple [`Weights`] (one entry per tuple id; an empty
/// entry is a value without word tokens, or an unprofiled tuple).
#[derive(Debug, Clone, Default)]
pub struct WeightColumn {
    ids: Arena<u32>,
    weights: Vec<f64>,
    norms: Vec<f64>,
}

impl WeightColumn {
    /// Make room for `docs` more documents of `tokens` tokens in all.
    pub fn reserve(&mut self, docs: usize, tokens: usize) {
        self.ids.reserve(docs, tokens);
        self.weights.reserve_exact(tokens);
        self.norms.reserve_exact(docs);
    }

    /// Tokens stored across all documents.
    pub fn total_len(&self) -> usize {
        self.weights.len()
    }

    /// Append one document's [`TfIdfModel::weight_vector`], interning its
    /// tokens into `dict`.
    pub fn push(&mut self, vector: Vec<(String, f64)>, dict: &mut TokenDict) {
        let weights: Vec<f64> = vector.iter().map(|(_, w)| *w).collect();
        self.push_ids(
            vector.into_iter().map(|(tok, _)| dict.intern_owned(tok)),
            &weights,
        );
    }

    /// Append one document's weight vector whose tokens are already ids,
    /// in token-string order.
    pub fn push_ids(&mut self, ids: impl IntoIterator<Item = u32>, weights: &[f64]) {
        self.norms
            .push(weights.iter().map(|w| w * w).sum::<f64>().sqrt());
        self.weights.extend_from_slice(weights);
        self.ids.push_iter(ids);
    }

    /// Document `i`'s weights, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Weights<'_>> {
        let span = self.ids.span(i)?;
        Some(Weights {
            ids: self.ids.get(i)?,
            weights: &self.weights[span],
            norm: self.norms[i],
        })
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.ids.estimated_bytes() + (self.weights.len() + self.norms.len()) * 8
    }
}

/// TF/IDF cosine of two documents over the same dictionary; `None` when
/// either has no tokens.
pub fn cosine_weights(a: Weights<'_>, b: Weights<'_>) -> Option<f64> {
    if a.ids.is_empty() || b.ids.is_empty() {
        return None;
    }
    // Starts at -0.0, the identity `Iterator::sum` uses for floats: two
    // documents sharing no token score -0.0 (which `clamp` keeps), and
    // downstream bytes — feature vectors, forests, goldens — depend on
    // that sign bit. Shared tokens are added in A-side token-string order.
    let mut dot = -0.0f64;
    for (ida, wa) in a.ids.iter().zip(a.weights) {
        if let Some(j) = b.ids.iter().position(|idb| idb == ida) {
            dot += wa * b.weights[j];
        }
    }
    Some((dot / (a.norm * b.norm)).clamp(0.0, 1.0))
}

/// Soft TF/IDF of two documents over `dict` (see
/// [`TfIdfModel::soft_cosine`]); token-pair Jaro-Winkler scores come from
/// `scratch`'s memo, which must not have served another dictionary.
pub fn soft_cosine_weights(
    a: Weights<'_>,
    b: Weights<'_>,
    theta: f64,
    dict: &TokenDict,
    scratch: &mut SimScratch,
) -> Option<f64> {
    if a.ids.is_empty() || b.ids.is_empty() {
        return None;
    }
    let mut dot = 0.0;
    for (&ida, wa) in a.ids.iter().zip(a.weights) {
        // Best close token of b for this token of a; ties keep the first in
        // token-sorted order, so the choice is deterministic.
        let mut best: Option<(f64, f64)> = None;
        for (&idb, wb) in b.ids.iter().zip(b.weights) {
            let s = scratch.token_jaro_winkler(dict, ida, idb);
            if s >= theta && best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, *wb));
            }
        }
        if let Some((s, wb)) = best {
            dot += wa * wb * s;
        }
    }
    Some((dot / (a.norm * b.norm)).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TfIdfModel {
        TfIdfModel::build(
            [
                "the quick brown fox",
                "the lazy dog",
                "the quick dog",
                "a brown cow",
            ]
            .iter()
            .copied(),
        )
    }

    #[test]
    fn identical_docs_score_one() {
        let m = model();
        assert!((m.cosine("quick brown fox", "quick brown fox").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_docs_score_zero() {
        let m = model();
        assert_eq!(m.cosine("fox", "cow").unwrap(), 0.0);
    }

    #[test]
    fn disjoint_docs_score_negative_zero_bits() {
        // `assert_eq!(-0.0, 0.0)` passes, so compare bits: the sign is part
        // of the frozen feature-vector bytes.
        let m = model();
        assert_eq!(
            m.cosine("fox", "cow").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        // Soft TF/IDF accumulates from +0.0 and keeps it.
        assert_eq!(
            m.soft_cosine("fox", "cow", 0.9).unwrap().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn rare_tokens_weigh_more() {
        let m = model();
        // "fox" (rare) shared vs "the" (common) shared.
        let rare = m.cosine("fox alpha", "fox beta").unwrap();
        let common = m.cosine("the alpha", "the beta").unwrap();
        assert!(rare > common, "{rare} vs {common}");
    }

    #[test]
    fn soft_cosine_tolerates_typos() {
        let m = model();
        let hard = m.cosine("quick browm fox", "quick brown fox").unwrap();
        let soft = m
            .soft_cosine("quick browm fox", "quick brown fox", 0.9)
            .unwrap();
        assert!(soft > hard, "{soft} vs {hard}");
    }

    #[test]
    fn empty_is_none() {
        let m = model();
        assert_eq!(m.cosine("", "abc"), None);
        assert_eq!(m.soft_cosine("abc", "", 0.9), None);
    }
}
