//! Fixed-width token-set Bloom signatures and the lossless popcount
//! overlap bound.
//!
//! Each indexed tuple gets a 128-bit fingerprint: every distinct token
//! sets one bit (FNV-1a of its text mod 128), one column of them per token
//! column. For a set-similarity predicate `sim(a, b) > t` the
//! prefix-filter math already gives a minimal token overlap
//! `o = required_overlap(t, |a|, |b|)`; the signature layer answers "can
//! |a ∩ b| reach o?" with one AND + popcount per pair, *before* any
//! posting-list walk or exact similarity score.
//!
//! # Superset proof
//!
//! Naively testing `popcount(sig_a & sig_b) ≥ o` is NOT lossless: two
//! distinct shared tokens may collide onto one bit, so a true match with
//! overlap `o` can intersect in fewer than `o` bits. The sound bound is
//! computed probe-side. Let the probe's tokens hash to bits with
//! multiplicities `m_1 ≥ m_2 ≥ …` (how many probe tokens land on each
//! distinct bit). Any `o` distinct probe tokens cover at least `min_bits[o]`
//! distinct bits, where `min_bits[o]` is the smallest `k` with
//! `m_1 + … + m_k ≥ o` — the adversary packs shared tokens onto the most
//! crowded bits first. If `|a ∩ b| ≥ o` then the shared tokens' bits are
//! set in *both* signatures, hence `popcount(sig_a & sig_b) ≥ min_bits[o]`.
//! Contrapositive: `popcount < min_bits[o]` ⇒ overlap `< o` ⇒ the pair
//! cannot clear the threshold, so pruning it is exact. A requirement
//! `o > |b|` is unsatisfiable outright (overlap is at most `|b|`), so
//! that prune is exact too. False positives pass through to the exact
//! filters — the layer can only ever yield a superset of true candidates.

use crate::bitmap::CandidateBitmap;
use crate::inverted::TokenColumn;
use crate::verdict::{verdict, VerdictTable, REFUTED};
use falcon_table::TupleId;
use falcon_textsim::{prefix, SimFunction};
use std::sync::Arc;

/// [`SignatureIndex::size`] of tuples with no tokens: they can never
/// satisfy a positive overlap requirement and are excluded from signature
/// scans.
pub const SIG_NO_TOKENS: u32 = u32::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a token's text — stable across platforms and runs, and
/// independent of dictionary numbering, so signatures (and therefore
/// candidate sets) are deterministic. A token's fingerprint bit is this
/// hash mod 128.
pub fn token_hash(token: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for byte in token.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint bits per tuple: two 64-bit words' worth, wide enough that
/// the short token sets blocking probes rarely saturate, narrow enough
/// that a fingerprint is one register.
const SIG_BITS: u32 = u128::BITS;

/// Bit position of a token hash in a fingerprint.
#[inline]
fn hash_bit(hash: u64) -> u32 {
    (hash % u64::from(SIG_BITS)) as u32
}

/// Dense column of per-tuple Bloom fingerprints over one [`TokenColumn`],
/// built once and shared by every index gated over that column.
#[derive(Debug, Clone)]
pub struct SignatureIndex {
    /// Distinct-token count per tuple (0 for tokenless rows): the column's.
    sizes: Arc<[u32]>,
    /// Largest count: bounds the per-probe [`VerdictTable`] of a dense scan.
    max_size: usize,
    /// Tuple `id`'s fingerprint is `bits[id]`.
    bits: Vec<u128>,
    /// Total set bits across all fingerprints (density statistic).
    set_bits: u64,
}

impl SignatureIndex {
    /// Fingerprint every tuple of `column`.
    pub fn build(column: &TokenColumn) -> Self {
        let sizes = Arc::clone(&column.set_sizes);
        let bits: Vec<u128> = column
            .tuples()
            .map(|ranks| {
                ranks.iter().fold(0, |row, &rank| {
                    row | 1u128 << hash_bit(column.order.hash(rank))
                })
            })
            .collect();
        Self {
            max_size: sizes.iter().max().map_or(0, |s| *s as usize),
            sizes,
            set_bits: bits.iter().map(|w| u64::from(w.count_ones())).sum(),
            bits,
        }
    }

    /// Distinct-token count of tuple `id` (`SIG_NO_TOKENS` when absent).
    pub fn size(&self, id: TupleId) -> u32 {
        match self.sizes.get(id as usize) {
            Some(&size) if size != 0 => size,
            _ => SIG_NO_TOKENS,
        }
    }

    /// Number of tuples that carry a real (non-sentinel) signature.
    pub fn signed_count(&self) -> usize {
        self.sizes.iter().filter(|s| **s != 0).count()
    }

    /// Mean fraction of set bits per signed fingerprint, in `[0, 1]`.
    /// Near-saturated signatures (density → 1) prune nothing; the planner
    /// uses this to decide whether the layer pays off.
    pub fn density(&self) -> f64 {
        let signed = self.signed_count();
        if signed == 0 {
            return 0.0;
        }
        self.set_bits as f64 / (signed as f64 * f64::from(SIG_BITS))
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.bits.len() * 16 + self.sizes.len() * 4
    }

    /// Number of fingerprint bits tuple `id` shares with the probe (0 for
    /// an id outside the column).
    #[inline]
    pub fn shared_bits(&self, id: TupleId, probe: &ProbeSig) -> u32 {
        self.bits
            .get(id as usize)
            .map_or(0, |row| (row & probe.sig).count_ones())
    }

    /// Lossless pre-filter test: can tuple `id` share at least `need`
    /// distinct tokens with the probe? `true` means "maybe" (the exact
    /// path must still check); `false` is a proof of impossibility.
    #[inline]
    pub fn may_overlap(&self, id: TupleId, probe: &ProbeSig, need: usize) -> bool {
        let Some(&size) = self.sizes.get(id as usize) else {
            return false;
        };
        if need == 0 {
            return true;
        }
        if (size as usize) < need {
            // Overlap is bounded by |a|; fewer tokens than `need` cannot
            // overlap enough. Tokenless tuples never satisfy need ≥ 1.
            return false;
        }
        let Some(&floor) = probe.min_bits.get(need) else {
            // need > |b|: overlap ≤ |b| < need — impossible.
            return false;
        };
        self.shared_bits(id, probe) >= floor
    }

    /// `Dense` probe: one flat pass over the fingerprint column, no
    /// postings. Every token-bearing tuple — of `within`, the caller's
    /// running candidate set, when there is one — is examined;
    /// `verdict(|x|)` (tabulated in `table`) says whether the signature
    /// can refute it and whether the length filter admits it. Survivors
    /// go to `sink`. Tokenless tuples are skipped: the exact probe never
    /// returns them either (they are on the missing list when the value
    /// is absent, and match nothing when it tokenizes empty).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_dense(
        &self,
        probe: &ProbeSig,
        sim: SimFunction,
        threshold: f64,
        within: Option<&CandidateBitmap>,
        table: &mut VerdictTable,
        stats: &mut ProbeStats,
        sink: &mut impl FnMut(TupleId),
    ) {
        let y_len = probe.token_count();
        let bounds = prefix::length_bounds(sim, threshold, y_len);
        let fill = |x_len| verdict(sim, threshold, x_len, y_len, bounds, Some(probe.min_bits()));
        table.reset(self.max_size);
        let mut local = ProbeStats::default();
        let judge = |id: TupleId| {
            let size = self.sizes.get(id as usize).copied().unwrap_or(0);
            if size == 0 {
                return;
            }
            local.pairs_examined += 1;
            let v = table.at(size as usize, fill);
            if v.floor != 0 && (v.floor == REFUTED || self.shared_bits(id, probe) < v.floor) {
                local.pruned_by_signature += 1;
            } else if !v.len_ok {
                local.pruned_by_exact += 1;
            } else {
                local.survived += 1;
                sink(id);
            }
        };
        match within {
            Some(w) => w.for_each(judge),
            None => (0..self.sizes.len() as TupleId).for_each(judge),
        }
        stats.merge(&local);
    }
}

/// Probe-side signature: the B tuple's fingerprint plus the `min_bits`
/// table that makes the popcount test lossless (see module docs).
#[derive(Debug, Clone)]
pub struct ProbeSig {
    sig: u128,
    /// `min_bits[o]` = minimum distinct signature bits any `o` distinct
    /// probe tokens must cover; length `|tokens| + 1`.
    min_bits: Vec<u32>,
    token_count: usize,
}

impl ProbeSig {
    /// Build the probe fingerprint and its `min_bits` table from the
    /// [`token_hash`]es of the B value's distinct tokens, in any order.
    pub fn build(hashes: impl IntoIterator<Item = u64>) -> Self {
        let mut bits: Vec<u32> = hashes.into_iter().map(hash_bit).collect();
        let token_count = bits.len();
        // Multiplicity per distinct bit: how many probe tokens hash there.
        let mut mult: Vec<u32> = Vec::with_capacity(token_count);
        bits.sort_unstable();
        let sig = bits.iter().fold(0, |sig, &bit| sig | 1u128 << bit);
        let mut i = 0;
        while i < bits.len() {
            let mut j = i + 1;
            while j < bits.len() && bits[j] == bits[i] {
                j += 1;
            }
            mult.push((j - i) as u32);
            i = j;
        }
        // Adversary packs shared tokens onto the most crowded bits first:
        // with the k most crowded bits one can cover m_1 + … + m_k tokens.
        mult.sort_unstable_by(|a, b| b.cmp(a));
        let mut min_bits = Vec::with_capacity(token_count + 1);
        min_bits.push(0); // o = 0 needs no bits
        let mut covered = 0u64;
        let mut k = 0u32;
        for o in 1..=token_count as u64 {
            while covered < o {
                covered += u64::from(mult[k as usize]);
                k += 1;
            }
            min_bits.push(k);
        }
        Self {
            sig,
            min_bits,
            token_count,
        }
    }

    /// Number of distinct probe tokens.
    pub fn token_count(&self) -> usize {
        self.token_count
    }

    /// The `min_bits` table (see the struct docs).
    pub(crate) fn min_bits(&self) -> &[u32] {
        &self.min_bits
    }
}

/// Per-conjunct probe counters, accumulated locally per chunk and flushed
/// into atomic totals (deterministic because the dataflow layer executes
/// each map body exactly once per task, even under injected faults).
/// Every examined pair lands in exactly one of the other three buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Pairs considered by this conjunct's index probes: postings walked,
    /// fingerprints scanned, scalar-index hits and missing-list ids.
    pub pairs_examined: u64,
    /// Pairs eliminated by the signature popcount test alone.
    pub pruned_by_signature: u64,
    /// Pairs eliminated exactly: by this predicate's own filters
    /// (length/position/prefix, edit length) after surviving (or
    /// bypassing) the signature, or — probed within a running candidate
    /// set — because an earlier conjunct already refuted the id.
    pub pruned_by_exact: u64,
    /// Pairs sent to the sink.
    pub survived: u64,
}

impl ProbeStats {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.pairs_examined += other.pairs_examined;
        self.pruned_by_signature += other.pruned_by_signature;
        self.pruned_by_exact += other.pruned_by_exact;
        self.survived += other.survived;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema, Table, Value};
    use falcon_textsim::Tokenizer;
    use std::collections::BTreeSet;

    /// Word-token fingerprints of one value per tuple.
    fn index_of(values: &[&str]) -> SignatureIndex {
        let schema = Schema::new([("x", AttrType::Str)]);
        let a = Table::new("A", schema, values.iter().map(|v| vec![Value::str(*v)]));
        SignatureIndex::build(&TokenColumn::of_table(&a, 0, Tokenizer::Word))
    }

    fn probe_of(value: &str) -> ProbeSig {
        ProbeSig::build(value.split(' ').map(token_hash))
    }

    #[test]
    fn identical_sets_always_may_overlap() {
        let t = "ab bc cd de";
        let idx = index_of(&[t]);
        let probe = probe_of(t);
        for need in 0..=4 {
            assert!(idx.may_overlap(0, &probe, need), "need={need}");
        }
        // need beyond |probe| is impossible.
        assert!(!idx.may_overlap(0, &probe, 5));
    }

    #[test]
    fn disjoint_sets_pruned_when_bits_disjoint() {
        // Disjoint small sets almost surely map to disjoint bits; when
        // they do, overlap ≥ 1 must be refuted.
        let (a, b) = ("alpha beta", "gamma delta");
        let idx = index_of(&[a]);
        let probe = probe_of(b);
        let bits =
            |v: &str| -> BTreeSet<u32> { v.split(' ').map(|t| hash_bit(token_hash(t))).collect() };
        if bits(a).is_disjoint(&bits(b)) {
            assert!(!idx.may_overlap(0, &probe, 1));
        }
        // Either way, need=0 always passes.
        assert!(idx.may_overlap(0, &probe, 0));
    }

    #[test]
    fn min_bits_accounts_for_collisions() {
        // 200 tokens on 128 bits must collide: `min_bits` has to account
        // for the shared bits, so the identity pair is never pruned.
        let t: Vec<String> = (0..200).map(|i| format!("tok{i}")).collect();
        let t = t.join(" ");
        let probe = probe_of(&t);
        let idx = index_of(&[&t]);
        // Identity pair with full overlap: must never be pruned.
        for need in 0..=200 {
            assert!(idx.may_overlap(0, &probe, need), "need={need}");
        }
    }

    #[test]
    fn tokenless_and_missing_ids() {
        let idx = index_of(&["", "x"]);
        let probe = probe_of("x");
        assert!(!idx.may_overlap(0, &probe, 1), "tokenless can't overlap");
        assert!(idx.may_overlap(0, &probe, 0), "need=0 passes everything");
        assert!(idx.may_overlap(1, &probe, 1));
        assert!(!idx.may_overlap(99, &probe, 1), "out of range");
        assert_eq!(idx.size(0), SIG_NO_TOKENS);
        assert_eq!(idx.size(1), 1);
        assert_eq!(idx.signed_count(), 1);
    }

    #[test]
    fn density_and_bytes() {
        let idx = index_of(&["a b c", "d", "", ""]);
        let d = idx.density();
        assert!(d > 0.0 && d < 1.0, "density {d}");
        assert!(idx.estimated_bytes() > 0);
        assert_eq!(idx.estimated_bytes(), 4 * (2 * 8 + 4));
    }

    #[test]
    fn probe_stats_merge() {
        let mut a = ProbeStats {
            pairs_examined: 5,
            pruned_by_signature: 2,
            pruned_by_exact: 1,
            survived: 2,
        };
        let b = ProbeStats {
            pairs_examined: 3,
            pruned_by_signature: 0,
            pruned_by_exact: 1,
            survived: 2,
        };
        a.merge(&b);
        assert_eq!(a.pairs_examined, 8);
        assert_eq!(a.survived, 4);
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(token_hash("falcon"), token_hash("falcon"));
        assert_ne!(token_hash("falcon"), token_hash("falcom"));
    }
}
