//! Global token ordering and prefix inverted index (prefix + position
//! filters).
//!
//! Tokens are globally ordered by ascending corpus frequency (rare first),
//! the standard ordering that makes prefixes maximally selective. The
//! prefix index stores, for every `A` tuple, postings for the first
//! `prefix_len` tokens of its ordered token list along with each token's
//! position — enough to run both the prefix filter (share ≥ 1 prefix
//! token) and the position filter (enough *remaining* tokens to reach the
//! required overlap).

use crate::signature::{ProbeSig, ProbeStats, SignatureIndex};
use crate::verdict::{verdict, VerdictTable, REFUTED};
use falcon_table::TupleId;
use falcon_textsim::prefix;
use falcon_textsim::{SimFunction, Tokenizer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Global token order by ascending frequency. Unseen tokens order first
/// (frequency 0), then by the token text for determinism.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TokenOrder {
    rank: HashMap<String, u32>,
}

impl TokenOrder {
    /// Build from `(token, frequency)` pairs (e.g. the output of the
    /// token-counting MR job of Section 7.5).
    pub fn from_frequencies(freqs: impl Iterator<Item = (String, usize)>) -> Self {
        let mut items: Vec<(String, usize)> = freqs.collect();
        items.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let rank = items
            .into_iter()
            .enumerate()
            .map(|(i, (tok, _))| (tok, i as u32))
            .collect();
        Self { rank }
    }

    /// Rank of a token (lower = rarer = earlier). Unseen tokens rank before
    /// everything (`None` is sorted first by [`TokenOrder::order_tokens`]).
    pub fn rank(&self, token: &str) -> Option<u32> {
        self.rank.get(token).copied()
    }

    /// Sort a token set by this global order (unseen-first, then rank, then
    /// text).
    pub fn order_tokens(&self, tokens: impl IntoIterator<Item = String>) -> Vec<String> {
        let mut toks: Vec<String> = tokens.into_iter().collect();
        // Sort by text first, then stably by rank with one cached lookup
        // per token (`Option<u32>` orders `None` — unseen — first); ties in
        // rank keep the text order from the first pass.
        toks.sort_unstable();
        toks.sort_by_cached_key(|t| self.rank(t));
        toks
    }

    /// Number of distinct tokens seen.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True iff no tokens were seen.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.rank.keys().map(|k| k.len() + 40).sum()
    }
}

/// Prefix inverted index over table `A` for one `(attribute, tokenizer,
/// sim, threshold)` combination.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrefixIndex {
    /// token -> postings of (tuple id, token position in the tuple's
    /// ordered token list).
    postings: HashMap<String, Vec<(TupleId, u32)>>,
    /// Token-set size per tuple id (dense, NAN-like sentinel = `u32::MAX`
    /// for tuples with no tokens).
    set_sizes: Vec<u32>,
    posting_count: usize,
    /// Largest token-set size ever inserted: bounds the per-probe
    /// [`VerdictTable`].
    max_set_size: u32,
}

/// Sentinel size for tuples whose value produced no tokens.
const NO_TOKENS: u32 = u32::MAX;

impl PrefixIndex {
    /// Create an empty index, to be filled with [`PrefixIndex::insert`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the index for predicate `sim(x, ·) >= threshold` from the `A`
    /// side values. `values` yields `(id, raw value)`; ids must be dense
    /// from 0 (standard for [`falcon_table::Table`]).
    pub fn build<'a>(
        values: impl Iterator<Item = (TupleId, &'a str)>,
        tokenizer: Tokenizer,
        sim: SimFunction,
        threshold: f64,
        order: &TokenOrder,
    ) -> Self {
        let mut idx = Self::new();
        for (id, raw) in values {
            idx.insert(id, raw, tokenizer, sim, threshold, order);
        }
        idx
    }

    /// Insert one `(id, raw value)` entry: the incremental form used by
    /// the columnar one-pass index builds. Empty values leave the id
    /// marked token-less (it is handled by the caller's missing list).
    pub fn insert(
        &mut self,
        id: TupleId,
        raw: &str,
        tokenizer: Tokenizer,
        sim: SimFunction,
        threshold: f64,
        order: &TokenOrder,
    ) {
        if raw.is_empty() {
            self.insert_tokens(id, Vec::new(), sim, threshold);
            return;
        }
        self.insert_tokens(
            id,
            order.order_tokens(tokenizer.tokenize(raw)),
            sim,
            threshold,
        );
    }

    /// Insert one entry from its already-ordered token list. This is the
    /// tokenize-once form used when the same columnar pass also feeds a
    /// [`SignatureIndex`]. Empty token lists leave the id marked
    /// token-less.
    pub fn insert_tokens(
        &mut self,
        id: TupleId,
        ordered: Vec<String>,
        sim: SimFunction,
        threshold: f64,
    ) {
        if self.set_sizes.len() <= id as usize {
            self.set_sizes.resize(id as usize + 1, NO_TOKENS);
        }
        if ordered.is_empty() {
            return;
        }
        self.set_sizes[id as usize] = ordered.len() as u32;
        self.max_set_size = self.max_set_size.max(ordered.len() as u32);
        let p = prefix::prefix_len(sim, threshold, ordered.len());
        for (pos, tok) in ordered.into_iter().take(p).enumerate() {
            self.postings.entry(tok).or_default().push((id, pos as u32));
            self.posting_count += 1;
        }
    }

    /// Token-set size of an indexed tuple (`None` if it had no tokens).
    pub fn set_size(&self, id: TupleId) -> Option<usize> {
        match self.set_sizes.get(id as usize) {
            Some(&s) if s != NO_TOKENS => Some(s as usize),
            _ => None,
        }
    }

    /// The `(tuple id, token position)` postings of one prefix token.
    pub fn postings(&self, token: &str) -> &[(TupleId, u32)] {
        self.postings.get(token).map_or(&[], Vec::as_slice)
    }

    /// `FindProbableCandidates` for a set-similarity predicate: probe with
    /// a raw `B`-side value and append every `A` id that passes the prefix,
    /// position and length filters. The result may contain duplicates;
    /// callers dedup after collecting across predicates.
    pub fn probe(
        &self,
        raw: &str,
        tokenizer: Tokenizer,
        sim: SimFunction,
        threshold: f64,
        order: &TokenOrder,
        out: &mut Vec<TupleId>,
    ) {
        if raw.is_empty() {
            return;
        }
        let ordered = order.order_tokens(tokenizer.tokenize(raw));
        self.probe_gated(
            &ordered,
            sim,
            threshold,
            None,
            &mut VerdictTable::default(),
            &mut ProbeStats::default(),
            &mut |id| out.push(id),
        );
    }

    /// Token-level form of [`PrefixIndex::probe`] with an optional
    /// signature gate and probe counters; ids passing every filter go to
    /// `sink` (possibly repeated). When `gate` is supplied, each posting
    /// is first tested with the lossless popcount bound (see
    /// [`SignatureIndex::may_overlap`]) before the exact length and
    /// position filters run — a signature refutation is a proof the pair
    /// cannot reach the threshold, so gating never changes which true
    /// candidates survive, only how much exact filtering runs.
    ///
    /// Everything those filters decide from the candidate's size alone is
    /// tabulated once per probe in `table` (see [`crate::verdict`]); the
    /// per-posting work is the size load, the table load, the fingerprint
    /// AND + popcount and integer compares.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_gated(
        &self,
        ordered: &[String],
        sim: SimFunction,
        threshold: f64,
        gate: Option<(&SignatureIndex, &ProbeSig)>,
        table: &mut VerdictTable,
        stats: &mut ProbeStats,
        sink: &mut impl FnMut(TupleId),
    ) {
        let y_len = ordered.len();
        if y_len == 0 {
            return;
        }
        let p = prefix::prefix_len(sim, threshold, y_len);
        let bounds = prefix::length_bounds(sim, threshold, y_len);
        let min_bits = gate.map(|(_, probe)| probe.min_bits());
        let fill = |x_len| verdict(sim, threshold, x_len, y_len, bounds, min_bits);
        table.reset(self.max_set_size as usize);
        let mut local = ProbeStats::default();
        for (j, tok) in ordered.iter().take(p).enumerate() {
            let Some(list) = self.postings.get(tok) else {
                continue;
            };
            // Position filter: tokens at positions i (in x) and j (in y)
            // match; the best remaining overlap is this shared token plus
            // whatever follows on both sides.
            let y_rest = y_len - j - 1;
            local.pairs_examined += list.len() as u64;
            for &(id, i) in list {
                let x_len = self.set_sizes[id as usize] as usize;
                let v = table.at(x_len, fill);
                // Signature pre-filter: a few popcounts refute the pair
                // before any exact filter (`floor` is 0 on ungated probes).
                if v.floor != 0
                    && (v.floor == REFUTED
                        || gate.is_none_or(|(sigs, probe)| sigs.shared_bits(id, probe) < v.floor))
                {
                    local.pruned_by_signature += 1;
                    continue;
                }
                if !v.len_ok || 1 + (x_len - i as usize - 1).min(y_rest) < v.need as usize {
                    local.pruned_by_exact += 1;
                    continue;
                }
                local.survived += 1;
                sink(id);
            }
        }
        stats.merge(&local);
    }

    /// Expected postings touched per probe token, assuming probe tokens
    /// are distributed like indexed tokens: `Σ|list|² / Σ|list|`. The
    /// planner multiplies this by the average prefix length to estimate
    /// per-probe inverted-index work.
    pub fn avg_posting_touch(&self) -> f64 {
        if self.posting_count == 0 {
            return 0.0;
        }
        self.posting_len_sum_sq() as f64 / self.posting_count as f64
    }

    /// `Σ|list|²` over the postings map. Integer accumulation: summing
    /// f64 in HashMap iteration order could differ in the last ULP
    /// between runs and flip the probe-mode planner's decision; u128
    /// sums are exact and order-free.
    fn posting_len_sum_sq(&self) -> u128 {
        self.postings
            .values()
            .map(|l| (l.len() as u128) * (l.len() as u128))
            .sum()
    }

    /// Mean prefix length over indexed (token-bearing) tuples — a proxy
    /// for the number of probe tokens that hit the postings map.
    pub fn avg_prefix_len(&self) -> f64 {
        let indexed = self.set_sizes.iter().filter(|s| **s != NO_TOKENS).count();
        if indexed == 0 {
            return 0.0;
        }
        self.posting_count as f64 / indexed as f64
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        let key_bytes: usize = self.postings.keys().map(|k| k.len() + 48).sum();
        key_bytes
            + self.posting_count * std::mem::size_of::<(TupleId, u32)>()
            + self.set_sizes.len() * 4
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.posting_count
    }

    /// True iff no postings.
    pub fn is_empty(&self) -> bool {
        self.posting_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_textsim::sets;

    fn order_for(values: &[&str], tokenizer: Tokenizer) -> TokenOrder {
        let mut freq: HashMap<String, usize> = HashMap::new();
        for v in values {
            for t in tokenizer.tokenize(v) {
                *freq.entry(t).or_default() += 1;
            }
        }
        TokenOrder::from_frequencies(freq.into_iter())
    }

    #[test]
    fn token_order_rare_first() {
        let order = order_for(&["a b", "a c", "a d"], Tokenizer::Word);
        // "a" appears 3 times -> last.
        let sorted = order.order_tokens(vec!["a".into(), "b".into()]);
        assert_eq!(sorted, vec!["b".to_string(), "a".to_string()]);
        // Unseen tokens come first.
        let sorted = order.order_tokens(vec!["a".into(), "zzz".into()]);
        assert_eq!(sorted[0], "zzz");
    }

    #[test]
    fn probe_finds_similar_and_skips_dissimilar() {
        let sim = SimFunction::Jaccard(Tokenizer::Word);
        let a_vals = [
            "the quick brown fox",
            "lazy dogs sleep",
            "quick brown foxes run",
        ];
        let order = order_for(&a_vals, Tokenizer::Word);
        let idx = PrefixIndex::build(
            a_vals.iter().enumerate().map(|(i, v)| (i as TupleId, *v)),
            Tokenizer::Word,
            sim,
            0.5,
            &order,
        );
        let mut out = Vec::new();
        idx.probe(
            "the quick brown fox",
            Tokenizer::Word,
            sim,
            0.5,
            &order,
            &mut out,
        );
        out.sort_unstable();
        out.dedup();
        assert!(out.contains(&0));
        assert!(!out.contains(&1));
    }

    /// Exhaustive soundness: probing never misses a tuple whose actual
    /// similarity meets the threshold.
    #[test]
    fn probe_is_lossless() {
        let tok = Tokenizer::Word;
        let a_vals = [
            "alpha beta gamma",
            "alpha beta",
            "delta epsilon zeta eta",
            "beta gamma delta",
            "single",
            "",
        ];
        let b_vals = [
            "alpha beta gamma",
            "gamma delta",
            "single",
            "zeta eta theta",
            "nothing shared here",
        ];
        let order = order_for(&a_vals, tok);
        for simf in [
            SimFunction::Jaccard(tok),
            SimFunction::Dice(tok),
            SimFunction::Cosine(tok),
            SimFunction::Overlap(tok),
        ] {
            for t in [0.3, 0.5, 0.7, 0.9] {
                let idx = PrefixIndex::build(
                    a_vals.iter().enumerate().map(|(i, v)| (i as TupleId, *v)),
                    tok,
                    simf,
                    t,
                    &order,
                );
                for b in &b_vals {
                    let mut cands = Vec::new();
                    idx.probe(b, tok, simf, t, &order, &mut cands);
                    for (i, a) in a_vals.iter().enumerate() {
                        let (x, y) = (tok.tokenize(a), tok.tokenize(b));
                        if x.is_empty() || y.is_empty() {
                            continue;
                        }
                        let score = match simf {
                            SimFunction::Jaccard(_) => sets::jaccard(&x, &y),
                            SimFunction::Dice(_) => sets::dice(&x, &y),
                            SimFunction::Cosine(_) => sets::cosine(&x, &y),
                            SimFunction::Overlap(_) => sets::overlap_coefficient(&x, &y),
                            _ => unreachable!(),
                        };
                        if score >= t {
                            assert!(
                                cands.contains(&(i as TupleId)),
                                "{simf:?} t={t}: missed a={a:?} for b={b:?} (score {score})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_probe_returns_nothing() {
        let sim = SimFunction::Jaccard(Tokenizer::Word);
        let order = TokenOrder::default();
        let idx = PrefixIndex::build(
            [(0 as TupleId, "x y")].into_iter(),
            Tokenizer::Word,
            sim,
            0.5,
            &order,
        );
        let mut out = Vec::new();
        idx.probe("", Tokenizer::Word, sim, 0.5, &order, &mut out);
        assert!(out.is_empty());
    }
}
