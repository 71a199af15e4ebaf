//! Fixed-width token-set Bloom signatures and the lossless popcount
//! overlap bound.
//!
//! Each indexed tuple gets a `words × 64`-bit fingerprint: every distinct
//! token sets one bit (FNV-1a hash mod the width). For a set-similarity
//! predicate `sim(a, b) > t` the prefix-filter math already gives a
//! minimal required token overlap `o = required_overlap(t, |a|, |b|)`; the
//! signature layer answers "can |a ∩ b| reach o?" with one AND + popcount
//! per pair, *before* any posting-list walk or exact similarity score.
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

use crate::verdict::{Verdict, VerdictTable, REFUTED};
use falcon_table::TupleId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Sentinel length for tuples with no tokens (mirrors
/// `inverted::NO_TOKENS`): they can never satisfy a positive overlap
/// requirement and are excluded from signature scans.
pub const SIG_NO_TOKENS: u32 = u32::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a token — stable across platforms and runs, so
/// signatures (and therefore candidate sets) are deterministic.
fn fnv1a(token: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for byte in token.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Bit position for `token` in a `words`-word signature.
#[inline]
fn token_bit(token: &str, words: usize) -> usize {
    (fnv1a(token) % (words as u64 * 64)) as usize
}

/// Dense column of per-tuple Bloom fingerprints plus token counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SignatureIndex {
    /// Signature width in 64-bit words (≥ 1).
    words: usize,
    /// Row-major fingerprints: tuple `id` owns `bits[id*words .. (id+1)*words]`.
    bits: Vec<u64>,
    /// Distinct-token count per tuple; `SIG_NO_TOKENS` for tokenless rows.
    sizes: Vec<u32>,
    /// Total set bits across all fingerprints (density statistic).
    set_bits: u64,
    /// Largest token count ever inserted: bounds the per-probe
    /// [`VerdictTable`] of a dense scan.
    max_size: u32,
}

impl SignatureIndex {
    /// Empty index with room for `n` tuples at `words × 64` bits each.
    /// `words` is clamped to ≥ 1 (the verifier rejects 0 statically; the
    /// clamp keeps the data structure total).
    pub fn new(n: usize, words: usize) -> Self {
        let words = words.max(1);
        Self {
            words,
            bits: vec![0; n * words],
            sizes: vec![SIG_NO_TOKENS; n],
            set_bits: 0,
            max_size: 0,
        }
    }

    /// Signature width in 64-bit words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of tuple slots.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True iff no tuple slots exist.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Record tuple `id`'s token set. Called once per tuple during the
    /// columnar build pass; later calls overwrite.
    pub fn insert(&mut self, id: TupleId, tokens: &BTreeSet<String>) {
        let i = id as usize;
        if i >= self.sizes.len() {
            return;
        }
        let row = &mut self.bits[i * self.words..(i + 1) * self.words];
        let old_bits: u64 = row.iter().map(|w| w.count_ones() as u64).sum();
        self.set_bits -= old_bits;
        for w in row.iter_mut() {
            *w = 0;
        }
        if tokens.is_empty() {
            self.sizes[i] = SIG_NO_TOKENS;
            return;
        }
        for t in tokens {
            let bit = token_bit(t, self.words);
            row[bit / 64] |= 1 << (bit % 64);
        }
        self.set_bits += row.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        self.sizes[i] = tokens.len() as u32;
        self.max_size = self.max_size.max(tokens.len() as u32);
    }

    /// Distinct-token count of tuple `id` (`SIG_NO_TOKENS` when absent).
    pub fn size(&self, id: TupleId) -> u32 {
        self.sizes
            .get(id as usize)
            .copied()
            .unwrap_or(SIG_NO_TOKENS)
    }

    /// Number of tuples that carry a real (non-sentinel) signature.
    pub fn signed_count(&self) -> usize {
        self.sizes.iter().filter(|s| **s != SIG_NO_TOKENS).count()
    }

    /// Mean fraction of set bits per signed fingerprint, in `[0, 1]`.
    /// Near-saturated signatures (density → 1) prune nothing; the planner
    /// uses this to decide whether the layer pays off.
    pub fn density(&self) -> f64 {
        let signed = self.signed_count();
        if signed == 0 {
            return 0.0;
        }
        self.set_bits as f64 / (signed as f64 * self.words as f64 * 64.0)
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.bits.len() * 8 + self.sizes.len() * 4
    }

    /// Number of fingerprint bits tuple `id` shares with the probe (0 for
    /// an id outside the column).
    #[inline]
    pub fn shared_bits(&self, id: TupleId, probe: &ProbeSig) -> u32 {
        debug_assert_eq!(probe.words, self.words);
        let i = id as usize;
        let Some(row) = self.bits.get(i * self.words..(i + 1) * self.words) else {
            return 0;
        };
        row.iter()
            .zip(&probe.sig)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Lossless pre-filter test: can tuple `id` share at least `need`
    /// distinct tokens with the probe? `true` means "maybe" (the exact
    /// path must still check); `false` is a proof of impossibility.
    #[inline]
    pub fn may_overlap(&self, id: TupleId, probe: &ProbeSig, need: usize) -> bool {
        let size = match self.sizes.get(id as usize) {
            Some(s) => *s,
            None => return false,
        };
        if need == 0 {
            return true;
        }
        if size == SIG_NO_TOKENS || (size as usize) < need {
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
    /// postings. Every token-bearing tuple is examined; `verdict(|x|)`
    /// (tabulated in `table`) says whether the signature can refute it
    /// and whether the length filter admits it. Survivors go to `sink`.
    /// Tokenless tuples are skipped: the exact probe never returns them
    /// either (they are on the missing list when the value is absent, and
    /// match nothing when it tokenizes empty).
    pub(crate) fn scan_dense(
        &self,
        probe: &ProbeSig,
        table: &mut VerdictTable,
        verdict: impl Fn(usize) -> Verdict,
        stats: &mut ProbeStats,
        sink: &mut impl FnMut(TupleId),
    ) {
        table.reset(self.max_size as usize);
        let mut local = ProbeStats::default();
        for (id, &size) in self.sizes.iter().enumerate() {
            if size == SIG_NO_TOKENS {
                continue;
            }
            let id = id as TupleId;
            local.pairs_examined += 1;
            let v = table.at(size as usize, &verdict);
            if v.floor != 0 && (v.floor == REFUTED || self.shared_bits(id, probe) < v.floor) {
                local.pruned_by_signature += 1;
            } else if !v.len_ok {
                local.pruned_by_exact += 1;
            } else {
                local.survived += 1;
                sink(id);
            }
        }
        stats.merge(&local);
    }
}

/// Probe-side signature: the B tuple's fingerprint plus the `min_bits`
/// table that makes the popcount test lossless (see module docs).
#[derive(Debug, Clone)]
pub struct ProbeSig {
    words: usize,
    sig: Vec<u64>,
    /// `min_bits[o]` = minimum distinct signature bits any `o` distinct
    /// probe tokens must cover; length `|tokens| + 1`.
    min_bits: Vec<u32>,
    token_count: usize,
}

impl ProbeSig {
    /// Build the probe fingerprint and its `min_bits` table from the B
    /// value's distinct tokens (a token set, or the rank-ordered token
    /// list of a probe plan).
    pub fn build<'a>(tokens: impl IntoIterator<Item = &'a String>, words: usize) -> Self {
        let words = words.max(1);
        let mut sig = vec![0u64; words];
        let mut bits: Vec<usize> = tokens.into_iter().map(|t| token_bit(t, words)).collect();
        let token_count = bits.len();
        // Multiplicity per distinct bit: how many probe tokens hash there.
        let mut mult: Vec<u32> = Vec::with_capacity(token_count);
        bits.sort_unstable();
        for bit in &bits {
            sig[bit / 64] |= 1 << (bit % 64);
        }
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
            words,
            sig,
            min_bits,
            token_count,
        }
    }

    /// Number of distinct probe tokens.
    pub fn token_count(&self) -> usize {
        self.token_count
    }

    /// Signature width in 64-bit words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The `min_bits` table (see the struct docs).
    pub(crate) fn min_bits(&self) -> &[u32] {
        &self.min_bits
    }
}

/// Per-conjunct probe counters, accumulated locally per chunk and flushed
/// into atomic totals (deterministic because the dataflow layer executes
/// each map body exactly once per task, even under injected faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeStats {
    /// Pairs considered by this conjunct's index probes.
    pub pairs_examined: u64,
    /// Pairs eliminated by the signature popcount test alone.
    pub pruned_by_signature: u64,
    /// Pairs eliminated by the exact filters (length/position/prefix,
    /// range, equality) after surviving (or bypassing) the signature.
    pub pruned_by_exact: u64,
    /// Pairs emitted as candidates.
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

    fn toks(v: &[&str]) -> BTreeSet<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_sets_always_may_overlap() {
        let t = toks(&["ab", "bc", "cd", "de"]);
        for words in [1usize, 2, 4] {
            let mut idx = SignatureIndex::new(1, words);
            idx.insert(0, &t);
            let probe = ProbeSig::build(&t, words);
            for need in 0..=t.len() {
                assert!(
                    idx.may_overlap(0, &probe, need),
                    "words={words} need={need}"
                );
            }
            // need beyond |probe| is impossible.
            assert!(!idx.may_overlap(0, &probe, t.len() + 1));
        }
    }

    #[test]
    fn disjoint_sets_pruned_when_bits_disjoint() {
        // With a wide signature, disjoint small sets almost surely map to
        // disjoint bits; when they do, overlap ≥ 1 must be refuted.
        let a = toks(&["alpha", "beta"]);
        let b = toks(&["gamma", "delta"]);
        let words = 4;
        let mut idx = SignatureIndex::new(1, words);
        idx.insert(0, &a);
        let probe = ProbeSig::build(&b, words);
        let bits_a: BTreeSet<usize> = a.iter().map(|t| token_bit(t, words)).collect();
        let bits_b: BTreeSet<usize> = b.iter().map(|t| token_bit(t, words)).collect();
        if bits_a.is_disjoint(&bits_b) {
            assert!(!idx.may_overlap(0, &probe, 1));
        }
        // Either way, need=0 always passes.
        assert!(idx.may_overlap(0, &probe, 0));
    }

    #[test]
    fn min_bits_accounts_for_collisions() {
        // Force every token onto one bit with a 1-word signature on a big
        // token set: min_bits[o] must be 1 for all o ≤ |tokens| whenever
        // all tokens collide, so a single shared bit cannot prune.
        let t: BTreeSet<String> = (0..200).map(|i| format!("tok{i}")).collect();
        let probe = ProbeSig::build(&t, 1);
        let mut idx = SignatureIndex::new(1, 1);
        idx.insert(0, &t);
        // Identity pair with full overlap: must never be pruned.
        for need in 0..=t.len() {
            assert!(idx.may_overlap(0, &probe, need), "need={need}");
        }
    }

    #[test]
    fn tokenless_and_missing_ids() {
        let mut idx = SignatureIndex::new(2, 1);
        idx.insert(0, &BTreeSet::new());
        idx.insert(1, &toks(&["x"]));
        let probe = ProbeSig::build(&toks(&["x"]), 1);
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
        let mut idx = SignatureIndex::new(4, 2);
        idx.insert(0, &toks(&["a", "b", "c"]));
        idx.insert(1, &toks(&["d"]));
        let d = idx.density();
        assert!(d > 0.0 && d < 1.0, "density {d}");
        assert!(idx.estimated_bytes() > 0);
        assert_eq!(idx.words(), 2);
        assert_eq!(idx.len(), 4);
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
        assert_eq!(fnv1a("falcon"), fnv1a("falcon"));
        assert_ne!(fnv1a("falcon"), fnv1a("falcom"));
    }
}
