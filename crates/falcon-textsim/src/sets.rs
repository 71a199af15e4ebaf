//! Set-based similarity coefficients over token sets.
//!
//! These four measures (plus Levenshtein) are the ones the paper's
//! prefix/position/length filters know how to index (Section 7.4).
//!
//! Each coefficient has one definition, a function of [`Counts`]
//! (`jaccard_of`, `dice_of`, ...), and two ways to count:
//!
//! * the `BTreeSet<String>` kernels: the definition behind
//!   `SimFunction::score_str`, used when values are tokenized on the fly
//!   (numeric and uncovered columns, datagen, the lossless tests), and
//! * [`counts_ids`] over sorted interned token ids from a
//!   [`crate::profile::TokenProfile`] — a single O(|x|+|y|) merge with
//!   zero allocation per comparison; `gen_fvs` and the rule evaluator
//!   run it once per pair and token column and score every measure over
//!   the column from its counts (`SimFunction::score_counts`), bit for
//!   bit as the `BTreeSet` kernels score it (a property test in
//!   `falcon-core` checks it end to end).
//!
//! The rule evaluator also reads an upper bound on the counts from two
//! 128-bit token fingerprints ([`intersection_bound`]), which settles most
//! threshold predicates without the merge.
//!
//! Empty-set semantics are shared by both ways: the empty set scores
//! 0.0 against anything, including itself (never `NaN`). A *missing*
//! value is handled one level up (`SimFunction::score_str` returns `None`
//! for empty strings); an empty token set can still arise from a
//! non-empty string, e.g. punctuation-only text under `Tokenizer::Word`.

use std::collections::BTreeSet;

/// `(|x ∩ y|, |x|, |y|)`: all a set coefficient reads of two token sets.
/// Each coefficient below is *defined* on it, and both ways of scoring
/// only differ in how they count — so they cannot disagree, and a caller
/// holding the counts (one merge) can score every measure of the pair.
pub type Counts = (usize, usize, usize);

fn counts(x: &BTreeSet<String>, y: &BTreeSet<String>) -> Counts {
    let (small, large) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    let i = small.iter().filter(|t| large.contains(*t)).count();
    (i, x.len(), y.len())
}

/// [`Counts`] of two sorted, deduplicated id slices.
pub fn counts_ids(x: &[u32], y: &[u32]) -> Counts {
    (intersection_size_ids(x, y), x.len(), y.len())
}

/// Jaccard coefficient `|x ∩ y| / |x ∪ y|` from the counts.
pub fn jaccard_of((i, nx, ny): Counts) -> f64 {
    if nx == 0 && ny == 0 {
        return 0.0;
    }
    let i = i as f64;
    i / (nx as f64 + ny as f64 - i)
}

/// Dice coefficient `2|x ∩ y| / (|x| + |y|)` from the counts.
pub fn dice_of((i, nx, ny): Counts) -> f64 {
    if nx == 0 && ny == 0 {
        return 0.0;
    }
    2.0 * i as f64 / (nx + ny) as f64
}

/// Overlap coefficient `|x ∩ y| / min(|x|, |y|)` from the counts.
pub fn overlap_of((i, nx, ny): Counts) -> f64 {
    let m = nx.min(ny);
    if m == 0 {
        return 0.0;
    }
    i as f64 / m as f64
}

/// Set cosine `|x ∩ y| / sqrt(|x| · |y|)` from the counts.
pub fn cosine_of((i, nx, ny): Counts) -> f64 {
    if nx == 0 || ny == 0 {
        return 0.0;
    }
    i as f64 / ((nx * ny) as f64).sqrt()
}

/// Jaccard coefficient `|x ∩ y| / |x ∪ y|`.
pub fn jaccard(x: &BTreeSet<String>, y: &BTreeSet<String>) -> f64 {
    jaccard_of(counts(x, y))
}

/// Dice coefficient `2|x ∩ y| / (|x| + |y|)`.
pub fn dice(x: &BTreeSet<String>, y: &BTreeSet<String>) -> f64 {
    dice_of(counts(x, y))
}

/// Overlap coefficient `|x ∩ y| / min(|x|, |y|)`.
pub fn overlap_coefficient(x: &BTreeSet<String>, y: &BTreeSet<String>) -> f64 {
    overlap_of(counts(x, y))
}

/// Set cosine `|x ∩ y| / sqrt(|x| · |y|)`.
pub fn cosine(x: &BTreeSet<String>, y: &BTreeSet<String>) -> f64 {
    cosine_of(counts(x, y))
}

/// `|x ∩ y|` of two sorted, deduplicated id slices by linear merge.
pub fn intersection_size_ids(x: &[u32], y: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// The fingerprint bit of a token id: the top seven bits of a
/// multiplicative hash of the dictionary id.
pub fn print_bit(id: u32) -> u32 {
    id.wrapping_mul(0x9E37_79B9) >> 25
}

/// 128-bit fingerprint of a token-id set: bit [`print_bit`] of every id.
pub fn fingerprint(ids: &[u32]) -> u128 {
    ids.iter().fold(0, |f, &id| f | 1 << print_bit(id))
}

/// An upper bound on `|x ∩ y|` from the sets' fingerprints and sizes
/// alone: `hi = min(popcount(f_x & f_y) + min(e(x), e(y)), |x|, |y|)`,
/// where `e(s) = |s| − popcount(f_s)` counts the tokens of `s` that share
/// their bit with another token of `s`.
///
/// Proof: the shared tokens set their bits in both prints, so the bits of
/// `x ∩ y` lie in `f_x & f_y`, and `|x ∩ y| = popcount(f_{x∩y}) +
/// e(x ∩ y)`. Adding a token to a set raises its size by one and its
/// popcount by at most one, so a subset's excess never exceeds its
/// superset's: `e(x ∩ y) ≤ min(e(x), e(y))`. Every coefficient here is
/// non-decreasing in `|x ∩ y|` at fixed sizes (its operands are exact
/// integers and correctly rounded IEEE operations are monotone), so
/// scoring `(hi, |x|, |y|)` bounds the exact score from above.
pub fn intersection_bound((fx, nx): (u128, usize), (fy, ny): (u128, usize)) -> usize {
    let excess = |f: u128, n: usize| n.saturating_sub(f.count_ones() as usize);
    let shared = (fx & fy).count_ones() as usize;
    (shared + excess(fx, nx).min(excess(fy, ny)))
        .min(nx)
        .min(ny)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(words: &[&str]) -> BTreeSet<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_sets_score_one() {
        let x = set(&["a", "b", "c"]);
        for f in [jaccard, dice, overlap_coefficient, cosine] {
            assert!((f(&x, &x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_sets_score_zero() {
        let x = set(&["a", "b"]);
        let y = set(&["c", "d"]);
        for f in [jaccard, dice, overlap_coefficient, cosine] {
            assert_eq!(f(&x, &y), 0.0);
        }
    }

    #[test]
    fn known_values() {
        let x = set(&["a", "b", "c"]);
        let y = set(&["b", "c", "d"]);
        assert!((jaccard(&x, &y) - 0.5).abs() < 1e-12); // 2/4
        assert!((dice(&x, &y) - 2.0 / 3.0).abs() < 1e-12); // 4/6
        assert!((overlap_coefficient(&x, &y) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cosine(&x, &y) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_subset_is_one() {
        let x = set(&["a", "b"]);
        let y = set(&["a", "b", "c", "d"]);
        assert_eq!(overlap_coefficient(&x, &y), 1.0);
    }

    #[test]
    fn empty_sets_are_zero_not_nan() {
        let e = set(&[]);
        let x = set(&["a"]);
        for f in [jaccard, dice, overlap_coefficient, cosine] {
            assert_eq!(f(&e, &e), 0.0);
            assert_eq!(f(&e, &x), 0.0);
        }
    }

    /// The four coefficients, each as a `BTreeSet` kernel and as a
    /// function of counts.
    type Kernels = [(
        fn(&BTreeSet<String>, &BTreeSet<String>) -> f64,
        fn(Counts) -> f64,
    ); 4];
    const KERNELS: Kernels = [
        (jaccard, jaccard_of),
        (dice, dice_of),
        (overlap_coefficient, overlap_of),
        (cosine, cosine_of),
    ];

    #[test]
    fn id_kernels_match_known_values() {
        let x = [1u32, 2, 3];
        let y = [2u32, 3, 4];
        assert_eq!(intersection_size_ids(&x, &y), 2);
        let c = counts_ids(&x, &y);
        assert!((jaccard_of(c) - 0.5).abs() < 1e-12);
        assert!((dice_of(c) - 2.0 / 3.0).abs() < 1e-12);
        assert!((overlap_of(c) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cosine_of(c) - 2.0 / 3.0).abs() < 1e-12);
        for (_, of) in KERNELS {
            assert!((of(counts_ids(&x, &x)) - 1.0).abs() < 1e-12);
            assert_eq!(of(counts_ids(&x, &[7, 8])), 0.0);
        }
    }

    /// Empty-set semantics agree between the `BTreeSet` kernels and
    /// the id counts: empty scores 0.0 against anything, never `NaN`.
    #[test]
    fn id_kernels_empty_semantics_match_legacy() {
        let e_ids: [u32; 0] = [];
        let x_ids = [5u32];
        let e = set(&[]);
        let x = set(&["a"]);
        for (legacy, of) in KERNELS {
            let ee = of(counts_ids(&e_ids, &e_ids));
            assert_eq!(legacy(&e, &e).to_bits(), ee.to_bits());
            assert_eq!(
                legacy(&e, &x).to_bits(),
                of(counts_ids(&e_ids, &x_ids)).to_bits()
            );
            assert_eq!(
                legacy(&x, &e).to_bits(),
                of(counts_ids(&x_ids, &e_ids)).to_bits()
            );
            assert!(!ee.is_nan());
        }
    }

    /// Exhaustive-ish cross-check: the coefficients of the id counts equal
    /// the `BTreeSet` kernels for every subset pair of a small universe
    /// (bit-identical floats).
    #[test]
    fn id_kernels_bit_identical_on_subsets() {
        let universe = ["a", "b", "c", "d"];
        for xm in 0u32..16 {
            for ym in 0u32..16 {
                let xs: Vec<&str> = universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| xm & (1 << i) != 0)
                    .map(|(_, s)| *s)
                    .collect();
                let ys: Vec<&str> = universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| ym & (1 << i) != 0)
                    .map(|(_, s)| *s)
                    .collect();
                let x = set(&xs);
                let y = set(&ys);
                // Interned ids: position in the universe (already sorted).
                let xi: Vec<u32> = (0..4).filter(|i| xm & (1 << i) != 0).collect();
                let yi: Vec<u32> = (0..4).filter(|i| ym & (1 << i) != 0).collect();
                let c = (intersection_size_ids(&xi, &yi), xi.len(), yi.len());
                assert_eq!(c, counts_ids(&xi, &yi));
                for (legacy, of) in KERNELS {
                    assert_eq!(legacy(&x, &y).to_bits(), of(c).to_bits());
                }
            }
        }
    }
}
