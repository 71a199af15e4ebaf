//! Dense bitmaps over sample indices — the representation Falcon uses for
//! rule coverages (`cov(R, S)`), enabling fast OR-based computation of
//! sequence coverage and selectivity (Section 6).

/// A fixed-length bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Get bit `i`.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place OR.
    pub fn or_with(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Popcount of `self | other` without materializing it.
    pub fn union_count(&self, other: &Bitmap) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// Indices of set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::zeros(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count(), 3);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn or_and_union_count() {
        let mut a = Bitmap::zeros(100);
        let mut b = Bitmap::zeros(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        assert_eq!(a.union_count(&b), 3);
        a.or_with(&b);
        assert_eq!(a.count(), 3);
        assert!(a.get(99));
    }

    #[test]
    fn zero_len_ok() {
        let b = Bitmap::zeros(0);
        assert_eq!(b.count(), 0);
        assert!(b.is_empty());
    }
}
