//! Hybrid token/character measures (Monge-Elkan).

use crate::profile::TokenDict;
use crate::scratch::SimScratch;
use crate::tokenize::word_tokens;

/// Monge-Elkan similarity over word-token id sequences (order and
/// duplicates kept): for each token of `a`, take the best Jaro-Winkler
/// match among tokens of `b`, and average. Symmetrized by taking the max
/// of both directions so `monge_elkan(a, b) == monge_elkan(b, a)`.
///
/// Token-pair scores come from `scratch`'s memo, so both sequences must
/// hold ids of `dict` and `scratch` must not have served another dict.
///
/// Jaro-Winkler is symmetric to the bit (see [`crate::edit::jaro_slices`]),
/// so one walk of the `|a|·|b|` grid serves both directions: cell `(x, y)`
/// is also the `b → a` direction's cell `(y, x)`. Each row maximum
/// (`a → b`) and column maximum (`b → a`) folds its cells in the order
/// that direction's own loop would, and each sum runs in token order.
pub fn monge_elkan_ids(a: &[u32], b: &[u32], dict: &TokenDict, scratch: &mut SimScratch) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let mut maxima = std::mem::take(&mut scratch.maxima);
    maxima.clear();
    maxima.resize(a.len() + b.len(), 0.0);
    let (rows, cols) = maxima.split_at_mut(a.len());
    for (&x, row) in a.iter().zip(rows.iter_mut()) {
        for (&y, col) in b.iter().zip(cols.iter_mut()) {
            let s = scratch.token_jaro_winkler(dict, x, y);
            *row = row.max(s);
            *col = col.max(s);
        }
    }
    let mean = |best: &[f64]| best.iter().sum::<f64>() / best.len() as f64;
    let score = mean(rows).max(mean(cols));
    scratch.maxima = maxima;
    score
}

/// [`monge_elkan_ids`] over the word tokens of two strings.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    let mut dict = TokenDict::new();
    let mut ids = |s: &str| -> Vec<u32> {
        word_tokens(s)
            .into_iter()
            .map(|t| dict.intern_owned(t))
            .collect()
    };
    let (ta, tb) = (ids(a), ids(b));
    monge_elkan_ids(&ta, &tb, &dict, &mut SimScratch::with_memo_slots(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_is_one() {
        assert_eq!(monge_elkan("john smith", "john smith"), 1.0);
        assert_eq!(monge_elkan("", ""), 1.0);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(monge_elkan("", "abc"), 0.0);
    }

    #[test]
    fn tolerates_token_reordering() {
        let s = monge_elkan("smith john", "john smith");
        assert!(s > 0.99, "{s}");
    }

    #[test]
    fn tolerates_typos() {
        let s = monge_elkan("jon smith", "john smyth");
        assert!(s > 0.8, "{s}");
        let d = monge_elkan("alpha beta", "gamma delta");
        assert!(s > d);
    }

    #[test]
    fn symmetric() {
        let a = "peter christen";
        let b = "christen p";
        assert!((monge_elkan(a, b) - monge_elkan(b, a)).abs() < 1e-12);
    }
}
