//! Global token ordering and prefix inverted index (prefix + position
//! filters), in the id space of the profiles' [`TokenDict`].
//!
//! Tokens are globally ordered by ascending corpus frequency (rare first),
//! the standard ordering that makes prefixes maximally selective: a
//! [`TokenOrder`] maps dictionary ids to frequency ranks, and a
//! [`TokenColumn`] is one `A` column re-expressed in those ranks — built
//! once per `(attribute, tokenizer)`, shared by every index over it. A
//! [`PrefixIndex`] adds, per `(measure, threshold)`, postings by rank of
//! the first `prefix_len` ranks of every tuple with each one's position —
//! enough to run both the prefix filter (share ≥ 1 prefix token) and the
//! position filter (enough *remaining* tokens to reach the required
//! overlap). Ties in frequency break on the token *text* and fingerprint
//! bits hash the text, so no output depends on dictionary numbering.

use crate::bitmap::CandidateBitmap;
use crate::signature::{token_hash, ProbeSig, ProbeStats, SignatureIndex};
use crate::spec::is_within;
use crate::verdict::{verdict, VerdictTable, REFUTED};
use falcon_table::{Table, TupleId};
use falcon_textsim::{prefix, SimFunction, TokenDict, Tokenizer};
use std::sync::Arc;

/// Rank of a dictionary id that does not occur in the ordered column.
const UNSEEN: u32 = u32::MAX;

/// Global token order of one column by ascending frequency, then token
/// text. Tokens outside the column are *unseen*: they order before every
/// ranked token and can hit no posting.
#[derive(Debug, Clone)]
pub struct TokenOrder {
    /// The dictionary the ids come from, as of the build (ids interned
    /// later are unseen by construction).
    dict: Arc<TokenDict>,
    /// `rank[dictionary id]`, [`UNSEEN`] outside the column.
    rank: Vec<u32>,
    /// `(FNV-1a hash, byte length)` of the text of the token at each
    /// rank — read here, once per distinct token. The lengths feed the
    /// mapper-memory model, which prices text-keyed maps.
    tokens: Vec<(u64, usize)>,
}

impl TokenOrder {
    /// Count token frequencies over `column` (per-tuple distinct ids of
    /// `dict`) and rank them (the token-counting and ordering jobs of
    /// Section 7.5, as one local pass).
    pub fn of_column<C>(column: C, dict: Arc<TokenDict>) -> Self
    where
        C: IntoIterator,
        C::Item: AsRef<[u32]>,
    {
        let mut freq = vec![0u32; dict.len()];
        for ids in column {
            ids.as_ref().iter().for_each(|&id| freq[id as usize] += 1);
        }
        let text = |id: u32| dict.resolve(id).unwrap_or_default();
        let mut ids: Vec<u32> = (0..dict.len() as u32)
            .filter(|&id| freq[id as usize] > 0)
            .collect();
        ids.sort_unstable_by_key(|&id| (freq[id as usize], text(id)));
        let mut rank = vec![UNSEEN; dict.len()];
        for (r, &id) in ids.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let tokens = ids
            .iter()
            .map(|&id| (token_hash(text(id)), text(id).len()))
            .collect();
        Self { dict, rank, tokens }
    }

    /// Rank of a token (lower = rarer = earlier); `None` when unseen.
    pub fn rank(&self, token: &str) -> Option<u32> {
        self.dict.get(token).and_then(|id| self.rank_of(id))
    }

    /// Rank of a dictionary id; `None` when unseen.
    pub fn rank_of(&self, id: u32) -> Option<u32> {
        self.rank.get(id as usize).copied().filter(|&r| r != UNSEEN)
    }

    /// Text hash of the token at `rank` (see [`token_hash`]).
    pub(crate) fn hash(&self, rank: u32) -> u64 {
        self.tokens[rank as usize].0
    }

    /// Number of distinct tokens seen.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True iff no tokens were seen.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.tokens.iter().map(|(_, len)| len + 40).sum()
    }
}

/// One `A` column in rank space, kept by whoever builds indexes over the
/// `(attribute, tokenizer)`: each build reads the ranks and shares the
/// order, the set sizes, the missing list and the fingerprints.
#[derive(Debug, Clone)]
pub struct TokenColumn {
    pub(crate) order: Arc<TokenOrder>,
    /// Tuple `id`'s ranks, ascending, are
    /// `ranks[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<usize>,
    ranks: Vec<u32>,
    /// Token-set size per tuple id (0: the value produced no tokens).
    pub(crate) set_sizes: Arc<[u32]>,
    /// Ids whose value is missing (permanent candidates of every probe).
    pub(crate) missing: Arc<[TupleId]>,
    /// The column's fingerprints, once asked for.
    sigs: Option<Arc<SignatureIndex>>,
}

impl TokenColumn {
    /// Re-express `column` — attribute `attr_idx` of `a` as per-tuple
    /// distinct ids of `dict`, the profile layer's token column (an
    /// `&Arena<u32>`, or any per-tuple id lists) — in the ranks of its own
    /// frequency order.
    pub fn build<C>(a: &Table, attr_idx: usize, column: C, dict: Arc<TokenDict>) -> Self
    where
        C: IntoIterator + Clone,
        C::Item: AsRef<[u32]>,
    {
        let order = Arc::new(TokenOrder::of_column(column.clone(), dict));
        let mut offsets = vec![0];
        let mut ranks = Vec::new();
        for ids in column {
            let start = ranks.len();
            ranks.extend(ids.as_ref().iter().map(|&id| order.rank[id as usize]));
            ranks[start..].sort_unstable();
            offsets.push(ranks.len());
        }
        let set_sizes = offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
        let mut missing = Vec::new();
        a.for_each_rendered(attr_idx, |id, s| {
            if s.is_empty() {
                missing.push(id);
            }
        });
        Self {
            order,
            offsets,
            ranks,
            set_sizes,
            missing: missing.into(),
            sigs: None,
        }
    }

    /// [`TokenColumn::build`] for callers without a profile: tokenize the
    /// attribute here, into a dictionary of its own.
    pub fn of_table(a: &Table, attr_idx: usize, tokenizer: Tokenizer) -> Self {
        let mut dict = TokenDict::new();
        let mut column = Vec::with_capacity(a.len());
        a.for_each_rendered(attr_idx, |_, s| {
            let mut ids: Vec<u32> = tokenizer
                .tokenize_sorted(s)
                .into_iter()
                .map(|t| dict.intern_owned(t))
                .collect();
            ids.sort_unstable();
            column.push(ids);
        });
        Self::build(a, attr_idx, &column, Arc::new(dict))
    }

    /// The ascending ranks of every tuple, in id order.
    pub(crate) fn tuples(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(|w| &self.ranks[w[0]..w[1]])
    }

    /// The column's fingerprints, built on first use.
    pub(crate) fn fingerprints(&mut self) -> Arc<SignatureIndex> {
        let sigs = self
            .sigs
            .take()
            .unwrap_or_else(|| Arc::new(SignatureIndex::build(self)));
        Arc::clone(self.sigs.insert(sigs))
    }
}

/// Prefix inverted index over one [`TokenColumn`] for one `(sim,
/// threshold)` combination.
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    order: Arc<TokenOrder>,
    set_sizes: Arc<[u32]>,
    /// Largest token-set size: bounds the per-probe [`VerdictTable`].
    max_set_size: usize,
    /// CSR by rank: the `(tuple id, position in the tuple's ordered token
    /// list)` postings of rank `r`, in id order, are
    /// `postings[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    postings: Vec<(TupleId, u32)>,
    /// `Σ (len + 48)` over the tokens with a posting: the mapper-memory
    /// model's price of a text-keyed postings map.
    key_bytes: usize,
    /// Expected postings one probe walks, assuming probe tokens are
    /// distributed like indexed tokens (the planner weighs it against a
    /// flat scan of the signed tuples).
    pub(crate) probe_work: f64,
}

impl PrefixIndex {
    /// Index the prefixes of `column` for predicate `sim(x, ·) >=
    /// threshold`: a counting pass and a fill pass over the prefix ranks.
    pub fn build(column: &TokenColumn, sim: SimFunction, threshold: f64) -> Self {
        let max_set_size = column.set_sizes.iter().max().map_or(0, |s| *s as usize);
        let prefix_of: Vec<usize> = (0..=max_set_size)
            .map(|n| prefix::prefix_len(sim, threshold, n))
            .collect();
        let prefixes = || {
            column
                .tuples()
                .map(|r| &r[..prefix_of[r.len()].min(r.len())])
        };
        let mut offsets = vec![0usize; column.order.len() + 1];
        for &r in prefixes().flatten() {
            offsets[r as usize + 1] += 1;
        }
        let (mut key_bytes, mut touch_sq) = (0, 0u128);
        for r in 0..column.order.len() {
            let n = offsets[r + 1];
            if n > 0 {
                key_bytes += column.order.tokens[r].1 + 48;
                touch_sq += (n as u128) * (n as u128);
            }
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets.clone();
        let mut postings = vec![(0, 0); offsets[column.order.len()]];
        for (id, ranks) in prefixes().enumerate() {
            for (pos, &r) in ranks.iter().enumerate() {
                postings[next[r as usize]] = (id as TupleId, pos as u32);
                next[r as usize] += 1;
            }
        }
        // Mean prefix length over token-bearing tuples (a proxy for the
        // probe tokens that hit a list) × `Σ|list|² / Σ|list|`, the
        // postings one such token touches.
        let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
        let tokened = column.set_sizes.iter().filter(|s| **s != 0).count();
        let probe_work = per(postings.len() as f64, tokened) * per(touch_sq as f64, postings.len());
        Self {
            order: Arc::clone(&column.order),
            set_sizes: Arc::clone(&column.set_sizes),
            max_set_size,
            offsets,
            postings,
            key_bytes,
            probe_work,
        }
    }

    /// Token-set size of an indexed tuple (`None` if it had no tokens).
    pub fn set_size(&self, id: TupleId) -> Option<usize> {
        let size = self.set_sizes.get(id as usize)?;
        (*size != 0).then_some(*size as usize)
    }

    /// The `(tuple id, token position)` postings of one prefix token.
    pub fn postings(&self, token: &str) -> &[(TupleId, u32)] {
        self.order.rank(token).map_or(&[], |r| self.list(r))
    }

    fn list(&self, rank: u32) -> &[(TupleId, u32)] {
        &self.postings[self.offsets[rank as usize]..self.offsets[rank as usize + 1]]
    }

    /// `FindProbableCandidates` for a set-similarity predicate: probe with
    /// a `B` value's `y_len` tokens in the column's rank space — `seen`,
    /// its ranked tokens' ranks ascending, preceded in the value's ordered
    /// token list by the tokens outside the order — and send every
    /// `A` id that passes the prefix, position and length filters to
    /// `sink` (possibly repeated; callers dedup across predicates). When
    /// `gate` is supplied, each posting is first tested with the lossless
    /// popcount bound (see [`SignatureIndex::may_overlap`]) before the
    /// exact length and position filters run — a signature refutation is
    /// a proof the pair cannot reach the threshold, so gating never
    /// changes which true candidates survive, only how much exact
    /// filtering runs. A posting whose id is outside `within` is refuted
    /// before any of that (examined, `pruned_by_exact`): the walk examines
    /// the same postings with and without it.
    ///
    /// Everything those filters decide from the candidate's size alone is
    /// tabulated once per probe in `table` (see [`crate::verdict`]); the
    /// per-posting work is the membership test, the size load, the table
    /// load, the fingerprint AND + popcount and integer compares.
    #[allow(clippy::too_many_arguments)]
    pub fn probe_gated(
        &self,
        seen: &[u32],
        y_len: usize,
        sim: SimFunction,
        threshold: f64,
        gate: Option<(&SignatureIndex, &ProbeSig)>,
        within: Option<&CandidateBitmap>,
        table: &mut VerdictTable,
        stats: &mut ProbeStats,
        sink: &mut impl FnMut(TupleId),
    ) {
        if y_len == 0 {
            return;
        }
        let p = prefix::prefix_len(sim, threshold, y_len);
        let bounds = prefix::length_bounds(sim, threshold, y_len);
        let min_bits = gate.map(|(_, probe)| probe.min_bits());
        let fill = |x_len| verdict(sim, threshold, x_len, y_len, bounds, min_bits);
        table.reset(self.max_set_size);
        let mut local = ProbeStats::default();
        // The unseen tokens come first and have no postings.
        for (j, &rank) in (y_len - seen.len()..p).zip(seen) {
            let list = self.list(rank);
            // Position filter: tokens at positions i (in x) and j (in y)
            // match; the best remaining overlap is this shared token plus
            // whatever follows on both sides.
            let y_rest = y_len - j - 1;
            local.pairs_examined += list.len() as u64;
            for &(id, i) in list {
                if !is_within(within, id) {
                    local.pruned_by_exact += 1;
                    continue;
                }
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

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.key_bytes
            + self.postings.len() * std::mem::size_of::<(TupleId, u32)>()
            + self.set_sizes.len() * 4
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True iff no postings.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProbeTokens;
    use falcon_table::{AttrType, Schema, Value};
    use falcon_textsim::sets;

    fn column_of(values: &[&str], tokenizer: Tokenizer) -> TokenColumn {
        let schema = Schema::new([("x", AttrType::Str)]);
        let rows = values.iter().map(|v| vec![Value::str(*v)]);
        let a = Table::new("A", schema, rows);
        TokenColumn::of_table(&a, 0, tokenizer)
    }

    fn probe(idx: &PrefixIndex, raw: &str, sim: SimFunction, threshold: f64) -> Vec<TupleId> {
        let mut tokens = ProbeTokens::default();
        let tokenizer = sim.tokenizer().expect("set measure");
        tokens.load(Value::str(raw).as_value_ref(), tokenizer, &idx.order);
        let mut out = Vec::new();
        idx.probe_gated(
            &tokens.seen,
            tokens.hashes.len(),
            sim,
            threshold,
            None,
            None,
            &mut VerdictTable::default(),
            &mut ProbeStats::default(),
            &mut |id| out.push(id),
        );
        out
    }

    #[test]
    fn token_order_rare_first() {
        let column = column_of(&["a b", "a c", "a d"], Tokenizer::Word);
        let order = &column.order;
        // "a" appears 3 times -> last; ties break on the text.
        assert_eq!(order.rank("b"), Some(0));
        assert_eq!(order.rank("c"), Some(1));
        assert_eq!(order.rank("a"), Some(3));
        // Unseen tokens have no rank and come first in a probe.
        assert_eq!(order.rank("zzz"), None);
        let mut tokens = ProbeTokens::default();
        tokens.load(Value::str("a zzz").as_value_ref(), Tokenizer::Word, order);
        assert_eq!((tokens.hashes.len(), &tokens.seen[..]), (2, &[3][..]));
    }

    #[test]
    fn probe_finds_similar_and_skips_dissimilar() {
        let sim = SimFunction::Jaccard(Tokenizer::Word);
        let a_vals = [
            "the quick brown fox",
            "lazy dogs sleep",
            "quick brown foxes run",
        ];
        let idx = PrefixIndex::build(&column_of(&a_vals, Tokenizer::Word), sim, 0.5);
        let out = probe(&idx, "the quick brown fox", sim, 0.5);
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
        let column = column_of(&a_vals, tok);
        for simf in [
            SimFunction::Jaccard(tok),
            SimFunction::Dice(tok),
            SimFunction::Cosine(tok),
            SimFunction::Overlap(tok),
        ] {
            for t in [0.3, 0.5, 0.7, 0.9] {
                let idx = PrefixIndex::build(&column, simf, t);
                for b in &b_vals {
                    let cands = probe(&idx, b, simf, t);
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
        let idx = PrefixIndex::build(&column_of(&["x y"], Tokenizer::Word), sim, 0.5);
        assert!(probe(&idx, "", sim, 0.5).is_empty());
    }
}
