//! Dense candidate bitmap over `A` tuple ids.
//!
//! Blocking probes produce per-conjunct candidate id sets that must be
//! deduplicated and intersected. Marking ids in a fixed-width bitmap
//! deduplicates for free, intersection is a word-wise AND, and iterating
//! set bits yields the ids already sorted — so the whole
//! union/dedup/intersect pipeline of `candidates_for` runs without a
//! single sort. The buffer is designed for reuse: `reset` keeps the
//! allocation and clears only the words that were actually dirtied.

use falcon_table::TupleId;

/// A reusable dense bitmap over tuple ids `0..len`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateBitmap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
    /// Dirty word range `[lo_word, hi_word]` (inclusive); `lo > hi` means
    /// clean. Bounds both `reset` and iteration to the touched region.
    lo_word: usize,
    hi_word: usize,
}

impl CandidateBitmap {
    /// Empty bitmap over `len` ids.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
            lo_word: usize::MAX,
            hi_word: 0,
        }
    }

    /// Number of addressable ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no id can be stored (zero capacity).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set ids.
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Clear all bits, keeping the allocation; resizes to `len` ids.
    pub fn reset(&mut self, len: usize) {
        let need = len.div_ceil(64);
        if need > self.words.len() {
            self.words.resize(need, 0);
        } else if self.lo_word <= self.hi_word {
            // Only the dirty range can hold set bits.
            let hi = self.hi_word.min(self.words.len() - 1);
            for w in &mut self.words[self.lo_word..=hi] {
                *w = 0;
            }
        }
        self.len = len;
        self.ones = 0;
        self.lo_word = usize::MAX;
        self.hi_word = 0;
    }

    /// Set `id`'s bit. Out-of-range ids are ignored (they cannot name an
    /// `A` tuple, so dropping them is exact).
    pub fn insert(&mut self, id: TupleId) {
        let i = id as usize;
        if i >= self.len {
            return;
        }
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.ones += 1;
            self.lo_word = self.lo_word.min(w);
            self.hi_word = self.hi_word.max(w);
        }
    }

    /// True iff `id` is set.
    pub fn contains(&self, id: TupleId) -> bool {
        let i = id as usize;
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Intersect in place with `other` (ids absent there are cleared).
    pub fn intersect(&mut self, other: &CandidateBitmap) {
        if self.lo_word > self.hi_word {
            return; // already empty
        }
        let hi = self.hi_word.min(self.words.len() - 1);
        let mut ones = 0usize;
        for w in self.lo_word..=hi {
            let o = other.words.get(w).copied().unwrap_or(0);
            self.words[w] &= o;
            ones += self.words[w].count_ones() as usize;
        }
        self.ones = ones;
    }

    /// Copy `other`'s contents into this buffer (reusing the allocation).
    pub fn copy_from(&mut self, other: &CandidateBitmap) {
        self.reset(other.len);
        if other.lo_word > other.hi_word {
            return;
        }
        let hi = other.hi_word.min(other.words.len() - 1);
        self.words[other.lo_word..=hi].copy_from_slice(&other.words[other.lo_word..=hi]);
        self.ones = other.ones;
        self.lo_word = other.lo_word;
        self.hi_word = other.hi_word;
    }

    /// Visit every set id in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(TupleId)) {
        if self.lo_word > self.hi_word {
            return;
        }
        let hi = self.hi_word.min(self.words.len() - 1);
        for w in self.lo_word..=hi {
            let mut bits = self.words[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f((w * 64 + b) as TupleId);
                bits &= bits - 1;
            }
        }
    }

    /// The set ids, ascending, in a fresh vector.
    pub fn to_vec(&self) -> Vec<TupleId> {
        let mut out = Vec::with_capacity(self.ones);
        self.for_each(|id| out.push(id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedup_and_sorted_iteration() {
        let mut bm = CandidateBitmap::new(200);
        for id in [150, 3, 3, 70, 150, 0] {
            bm.insert(id);
        }
        assert_eq!(bm.ones(), 4);
        assert_eq!(bm.to_vec(), vec![0, 3, 70, 150]);
        assert!(bm.contains(70));
        assert!(!bm.contains(71));
        // Out-of-range insert is a no-op.
        bm.insert(10_000);
        assert_eq!(bm.ones(), 4);
    }

    #[test]
    fn intersect_and_reset_reuse() {
        let mut x = CandidateBitmap::new(130);
        let mut y = CandidateBitmap::new(130);
        for id in [1, 64, 65, 129] {
            x.insert(id);
        }
        for id in [64, 129, 2] {
            y.insert(id);
        }
        x.intersect(&y);
        assert_eq!(x.to_vec(), vec![64, 129]);
        x.reset(130);
        assert_eq!(x.ones(), 0);
        assert_eq!(x.to_vec(), Vec::<TupleId>::new());
        x.insert(5);
        assert_eq!(x.to_vec(), vec![5]);
    }

    #[test]
    fn copy_from_reuses_buffer() {
        let mut src = CandidateBitmap::new(70);
        src.insert(69);
        src.insert(1);
        let mut dst = CandidateBitmap::new(8);
        dst.insert(2);
        dst.copy_from(&src);
        assert_eq!(dst.to_vec(), vec![1, 69]);
        assert_eq!(dst.len(), 70);
    }

    #[test]
    fn intersect_with_smaller_other() {
        let mut x = CandidateBitmap::new(200);
        x.insert(10);
        x.insert(190);
        let mut y = CandidateBitmap::new(64);
        y.insert(10);
        x.intersect(&y);
        assert_eq!(x.to_vec(), vec![10]);
    }
}
