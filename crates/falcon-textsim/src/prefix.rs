//! Prefix-length and length-bound arithmetic backing the index-based filters
//! of Section 7.4.
//!
//! Every function here encodes a *necessary* condition for a similarity
//! predicate `sim(x, y) >= t` to hold, derived from the standard
//! set-similarity-join bounds (Chaudhuri et al. 2006; Xiao et al. 2011; the
//! survey the paper cites as \[56\]). Soundness of these bounds is what makes
//! the blocking filters lossless, and is property-tested in this crate.
//!
//! Derivations (`i = |x ∩ y|`):
//! * Jaccard `i/(|x|+|y|-i) >= t`  ⇒  `i >= t/(1+t)·(|x|+|y|)` and
//!   `t·|y| <= |x| <= |y|/t`.
//! * Dice `2i/(|x|+|y|) >= t`      ⇒  `i >= t/2·(|x|+|y|)` and
//!   `t/(2-t)·|y| <= |x| <= (2-t)/t·|y|`.
//! * Cosine `i/√(|x||y|) >= t`     ⇒  `i >= t·√(|x||y|)` and
//!   `t²·|y| <= |x| <= |y|/t²`.
//! * Overlap coefficient `i/min >= t` ⇒ `i >= ⌈t·min(|x|,|y|)⌉`; no length
//!   bound exists (a tiny set can overlap fully with a huge one).
//! * Normalized Levenshtein `1 - ED/max >= t` ⇒ `ED <= (1-t)·max` ⇒ character
//!   lengths satisfy `t·|y| <= |x| <= |y|/t`.

use crate::SimFunction;

/// Ceil of `a * b` computed in f64 with a small epsilon guard, never below 1
/// for positive products.
fn ceil_mul(a: f64, b: f64) -> usize {
    (a * b - 1e-9).ceil().max(0.0) as usize
}

/// Inclusive bounds `[lo, hi]` on the candidate-side length `|x|` given the
/// probe-side length `|y|`, for predicate `sim(x, y) >= t`.
///
/// Lengths are token-set sizes for set measures and character counts for
/// Levenshtein. Returns `None` when the measure admits no length bound.
pub fn length_bounds(sim: SimFunction, t: f64, probe_len: usize) -> Option<(usize, usize)> {
    if !(0.0..=1.0).contains(&t) || t <= 0.0 {
        return None;
    }
    let y = probe_len as f64;
    let (lo, hi) = match sim {
        SimFunction::Jaccard(_) | SimFunction::Levenshtein => (t * y, y / t),
        SimFunction::Dice(_) => (t / (2.0 - t) * y, (2.0 - t) / t * y),
        SimFunction::Cosine(_) => (t * t * y, y / (t * t)),
        _ => return None,
    };
    Some((
        (lo - 1e-9).ceil().max(0.0) as usize,
        (hi + 1e-9).floor() as usize,
    ))
}

/// Minimum token overlap `o` required between `x` and `y` (with the given
/// set sizes) for `sim(x, y) >= t` to hold. Used by the position filter.
/// Returns `None` for measures without an overlap bound.
pub fn required_overlap(sim: SimFunction, t: f64, x_len: usize, y_len: usize) -> Option<usize> {
    if t <= 0.0 {
        return Some(0);
    }
    let (x, y) = (x_len as f64, y_len as f64);
    let o = match sim {
        SimFunction::Jaccard(_) => t / (1.0 + t) * (x + y),
        SimFunction::Dice(_) => t / 2.0 * (x + y),
        SimFunction::Cosine(_) => t * (x * y).sqrt(),
        SimFunction::Overlap(_) => t * x.min(y),
        _ => return None,
    };
    Some(ceil_mul(o, 1.0).max(1))
}

/// Length of the prefix of `x`'s (globally ordered) token list that must be
/// indexed so that any `y` with `sim(x, y) >= t` shares at least one prefix
/// token with `x`. This is the *index-side* prefix; by symmetry the same
/// formula gives the probe-side prefix.
///
/// The per-record minimal overlap `o_min(x)` (minimized over all admissible
/// partner sizes) is:
/// * Jaccard: `⌈t·|x|⌉`   (partner size >= t·|x|)
/// * Dice:    `⌈t/(2-t)·|x|⌉`
/// * Cosine:  `⌈t²·|x|⌉`
/// * Overlap: `1` (partner can be a single shared token) — the prefix
///   degenerates to the whole token list, i.e. a plain inverted index.
///
/// Prefix length is then `|x| - o_min + 1`, clamped to `[1, |x|]`.
pub fn prefix_len(sim: SimFunction, t: f64, set_len: usize) -> usize {
    if set_len == 0 {
        return 0;
    }
    if t <= 0.0 {
        return set_len;
    }
    let n = set_len as f64;
    let o_min = match sim {
        SimFunction::Jaccard(_) => ceil_mul(t, n),
        SimFunction::Dice(_) => ceil_mul(t / (2.0 - t), n),
        SimFunction::Cosine(_) => ceil_mul(t * t, n),
        SimFunction::Overlap(_) => 1,
        _ => 1,
    }
    .max(1);
    (set_len - o_min.min(set_len) + 1).clamp(1, set_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tokenizer;

    const W: Tokenizer = Tokenizer::Word;

    #[test]
    fn jaccard_length_bounds_match_example6() {
        // Example 6 of the paper: jaccard >= 0.6 with |y| = 10 words gives
        // [6, 16] (10·0.6 .. 10/0.6 floor).
        let (lo, hi) = length_bounds(SimFunction::Jaccard(W), 0.6, 10).unwrap();
        assert_eq!((lo, hi), (6, 16));
    }

    #[test]
    fn dice_and_cosine_bounds() {
        let (lo, hi) = length_bounds(SimFunction::Dice(W), 0.8, 12).unwrap();
        // 0.8/1.2·12 = 8, 1.2/0.8·12 = 18
        assert_eq!((lo, hi), (8, 18));
        let (lo, hi) = length_bounds(SimFunction::Cosine(W), 0.5, 8).unwrap();
        // 0.25·8 = 2, 8/0.25 = 32
        assert_eq!((lo, hi), (2, 32));
    }

    #[test]
    fn overlap_has_no_length_bound() {
        assert_eq!(length_bounds(SimFunction::Overlap(W), 0.9, 10), None);
    }

    #[test]
    fn levenshtein_char_bounds() {
        let (lo, hi) = length_bounds(SimFunction::Levenshtein, 0.8, 10).unwrap();
        assert_eq!((lo, hi), (8, 12));
    }

    #[test]
    fn prefix_len_jaccard() {
        // |x| = 10, t = 0.6 -> o_min = 6 -> prefix = 5.
        assert_eq!(prefix_len(SimFunction::Jaccard(W), 0.6, 10), 5);
        // t = 1.0 -> o_min = |x| -> prefix = 1 (exact-match-like).
        assert_eq!(prefix_len(SimFunction::Jaccard(W), 1.0, 10), 1);
        // Overlap -> whole list.
        assert_eq!(prefix_len(SimFunction::Overlap(W), 0.6, 10), 10);
        assert_eq!(prefix_len(SimFunction::Jaccard(W), 0.6, 0), 0);
    }

    #[test]
    fn required_overlap_values() {
        // Jaccard 0.5, |x|=|y|=6 -> 0.5/1.5·12 = 4.
        assert_eq!(
            required_overlap(SimFunction::Jaccard(W), 0.5, 6, 6),
            Some(4)
        );
        // Dice 0.5, sizes 4,4 -> 0.25·8 = 2.
        assert_eq!(required_overlap(SimFunction::Dice(W), 0.5, 4, 4), Some(2));
        // Overlap 0.75, min=4 -> 3.
        assert_eq!(
            required_overlap(SimFunction::Overlap(W), 0.75, 4, 9),
            Some(3)
        );
        assert_eq!(required_overlap(SimFunction::Levenshtein, 0.5, 4, 4), None);
    }

    /// Brute-force soundness check: the required-overlap bound never exceeds
    /// the actual overlap of any pair satisfying the predicate.
    #[test]
    fn required_overlap_is_necessary() {
        use std::collections::BTreeSet;
        let universe: Vec<String> = (0..8).map(|i| format!("t{i}")).collect();
        let sims = [
            SimFunction::Jaccard(W),
            SimFunction::Dice(W),
            SimFunction::Cosine(W),
            SimFunction::Overlap(W),
        ];
        // Enumerate set pairs over a small universe via bitmasks.
        for xm in 1u32..(1 << 6) {
            for ym in 1u32..(1 << 6) {
                let x: BTreeSet<String> = (0..6)
                    .filter(|i| xm >> i & 1 == 1)
                    .map(|i| universe[i].clone())
                    .collect();
                let y: BTreeSet<String> = (0..6)
                    .filter(|i| ym >> i & 1 == 1)
                    .map(|i| universe[i].clone())
                    .collect();
                let inter = x.intersection(&y).count();
                for sim in sims {
                    for t in [0.3, 0.5, 0.8] {
                        let score = match sim {
                            SimFunction::Jaccard(_) => crate::sets::jaccard(&x, &y),
                            SimFunction::Dice(_) => crate::sets::dice(&x, &y),
                            SimFunction::Cosine(_) => crate::sets::cosine(&x, &y),
                            SimFunction::Overlap(_) => crate::sets::overlap_coefficient(&x, &y),
                            _ => unreachable!(),
                        };
                        if score >= t {
                            let need = required_overlap(sim, t, x.len(), y.len()).unwrap();
                            assert!(
                                inter >= need,
                                "{sim:?} t={t}: |x|={} |y|={} inter={inter} need={need}",
                                x.len(),
                                y.len()
                            );
                        }
                    }
                }
            }
        }
    }
}
