//! Hash, range and length indexes (equivalence, range and length filters).

use falcon_table::TupleId;
use falcon_textsim::DetMap;
use std::collections::hash_map::Entry;

/// Hash index over rendered attribute values: the equivalence filter for
/// `exact_match` predicates.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: DetMap<String, Vec<TupleId>>,
    entries: usize,
    /// `Σ (key length + 48)` over the distinct keys.
    key_bytes: usize,
}

impl HashIndex {
    /// Build from `(id, value)` pairs; null/empty values are skipped (a
    /// null never exact-matches anything under our missing-value
    /// semantics).
    pub fn build<'a>(values: impl Iterator<Item = (TupleId, &'a str)>) -> Self {
        let mut idx = Self::default();
        for (id, v) in values {
            idx.insert(id, v);
        }
        idx
    }

    /// Insert one `(id, value)` entry. Empty values are skipped (a null
    /// never exact-matches anything). This is the incremental form used by
    /// the columnar one-pass index builds.
    pub fn insert(&mut self, id: TupleId, v: &str) {
        if v.is_empty() {
            return;
        }
        let slot = self.map.entry(v.to_string());
        if let Entry::Vacant(_) = slot {
            self.key_bytes += v.len() + 48;
        }
        slot.or_default().push(id);
        self.entries += 1;
    }

    /// Ids whose value equals the probe exactly.
    pub fn probe(&self, value: &str) -> &[TupleId] {
        self.map.get(value).map_or(&[], Vec::as_slice)
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.key_bytes + self.entries * std::mem::size_of::<TupleId>()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True iff nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// Sorted numeric index: the range filter for `abs_diff` / `rel_diff`
/// predicates (the paper's "B-tree index"; a sorted array with binary
/// search has the same probe complexity and a smaller footprint).
#[derive(Debug, Clone, Default)]
pub struct RangeIndex {
    // Sorted by value.
    entries: Vec<(f64, TupleId)>,
}

impl RangeIndex {
    /// Build from `(id, numeric value)` pairs.
    pub fn build(values: impl Iterator<Item = (TupleId, f64)>) -> Self {
        let mut entries: Vec<(f64, TupleId)> = values
            .filter(|(_, v)| v.is_finite())
            .map(|(id, v)| (v, id))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self { entries }
    }

    /// The `(value, id)` entries whose value lies in `[lo, hi]`
    /// (inclusive), in value order. Both endpoints are located by binary
    /// search, so the probe costs O(log n + k) rather than a linear scan
    /// with a per-entry bound check.
    pub fn range(&self, lo: f64, hi: f64) -> &[(f64, TupleId)] {
        if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less)
            && lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Equal)
        {
            // Empty or NaN-bounded range: nothing can satisfy it.
            return &[];
        }
        let start = self.entries.partition_point(|(v, _)| *v < lo);
        let end = self.entries.partition_point(|(v, _)| *v <= hi);
        &self.entries[start..end]
    }

    /// Append the ids of [`RangeIndex::range`] to `out`.
    pub fn probe(&self, lo: f64, hi: f64, out: &mut Vec<TupleId>) {
        out.extend(self.range(lo, hi).iter().map(|(_, id)| *id));
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(f64, TupleId)>()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Length index: ids bucketed by token-set (or character) length, probed
/// with an inclusive length range — the length filter of Example 6.
#[derive(Debug, Clone, Default)]
pub struct LengthIndex {
    // by_len[l] = ids with length l; lengths are small so a dense Vec is
    // compact and cache friendly.
    by_len: Vec<Vec<TupleId>>,
    entries: usize,
}

impl LengthIndex {
    /// Build from `(id, length)` pairs.
    pub fn build(values: impl Iterator<Item = (TupleId, usize)>) -> Self {
        let mut by_len: Vec<Vec<TupleId>> = Vec::new();
        let mut entries = 0;
        for (id, len) in values {
            if by_len.len() <= len {
                by_len.resize_with(len + 1, Vec::new);
            }
            by_len[len].push(id);
            entries += 1;
        }
        Self { by_len, entries }
    }

    /// The id buckets of the lengths in `[lo, hi]` (inclusive). The
    /// bucket range is clamped up front so empty/degenerate ranges cost
    /// nothing instead of walking the whole bucket table.
    pub fn buckets(&self, lo: usize, hi: usize) -> &[Vec<TupleId>] {
        if self.by_len.is_empty() || lo > hi || lo >= self.by_len.len() {
            return &[];
        }
        &self.by_len[lo..=hi.min(self.by_len.len() - 1)]
    }

    /// Append all ids whose length lies in `[lo, hi]` (inclusive).
    pub fn probe(&self, lo: usize, hi: usize, out: &mut Vec<TupleId>) {
        for bucket in self.buckets(lo, hi) {
            out.extend_from_slice(bucket);
        }
    }

    /// Estimated memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.entries * std::mem::size_of::<TupleId>() + self.by_len.len() * 24
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True iff nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_index_probe() {
        let idx = HashIndex::build([(0, "x"), (1, "y"), (2, "x"), (3, "")].into_iter());
        assert_eq!(idx.probe("x"), &[0, 2]);
        assert_eq!(idx.probe("y"), &[1]);
        assert_eq!(idx.probe("z"), &[] as &[TupleId]);
        assert_eq!(idx.probe(""), &[] as &[TupleId]);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn range_index_probe() {
        let idx = RangeIndex::build([(0, 5.0), (1, 10.0), (2, 7.5), (3, f64::NAN)].into_iter());
        assert_eq!(idx.len(), 3);
        let mut out = Vec::new();
        idx.probe(6.0, 10.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        out.clear();
        idx.probe(-1.0, 100.0, &mut out);
        assert_eq!(out.len(), 3);
        out.clear();
        idx.probe(11.0, 12.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_probe_inclusive() {
        let idx = RangeIndex::build([(0, 5.0), (1, 10.0)].into_iter());
        let mut out = Vec::new();
        idx.probe(5.0, 10.0, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn length_index_probe() {
        let idx = LengthIndex::build([(0, 2), (1, 5), (2, 2), (3, 9)].into_iter());
        let mut out = Vec::new();
        idx.probe(2, 5, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        idx.probe(6, 100, &mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        idx.probe(10, 20, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_probe_degenerate_ranges() {
        let idx = RangeIndex::build([(0, 1.0), (1, 2.0), (2, 3.0)].into_iter());
        let mut out = Vec::new();
        // Inverted range: empty.
        idx.probe(3.0, 1.0, &mut out);
        assert!(out.is_empty());
        // NaN bounds: empty, no panic.
        idx.probe(f64::NAN, 5.0, &mut out);
        idx.probe(0.0, f64::NAN, &mut out);
        assert!(out.is_empty());
        // Point range on a present value.
        idx.probe(2.0, 2.0, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        // Point range between values: empty.
        idx.probe(2.5, 2.5, &mut out);
        assert!(out.is_empty());
        // Empty index.
        let empty = RangeIndex::default();
        empty.probe(0.0, 10.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_probe_duplicate_values_at_bounds() {
        let idx = RangeIndex::build([(0, 5.0), (1, 5.0), (2, 5.0), (3, 7.0), (4, 7.0)].into_iter());
        let mut out = Vec::new();
        idx.probe(5.0, 7.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        out.clear();
        idx.probe(5.0, 5.0, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn length_probe_degenerate_ranges() {
        let idx = LengthIndex::build([(0, 2), (1, 5)].into_iter());
        let mut out = Vec::new();
        // Inverted range.
        idx.probe(5, 2, &mut out);
        assert!(out.is_empty());
        // lo past the largest bucket.
        idx.probe(6, 100, &mut out);
        assert!(out.is_empty());
        // Empty index.
        let empty = LengthIndex::default();
        empty.probe(0, 100, &mut out);
        assert!(out.is_empty());
        // Point range.
        idx.probe(5, 5, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn estimated_bytes_positive() {
        let h = HashIndex::build([(0, "abc")].into_iter());
        assert!(h.estimated_bytes() > 0);
        let r = RangeIndex::build([(0, 1.0)].into_iter());
        assert!(r.estimated_bytes() > 0);
        let l = LengthIndex::build([(0, 3)].into_iter());
        assert!(l.estimated_bytes() > 0);
    }
}
