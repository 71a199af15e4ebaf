//! Character-level edit similarity measures: Levenshtein, Jaro and
//! Jaro-Winkler.
//!
//! Each measure is one allocation-free kernel over symbol slices (bytes of
//! an ASCII string or decoded `char`s, see [`crate::scratch::Syms`]) that
//! borrows its working rows from the caller; the `&str` functions decode
//! and call it.

use crate::scratch::{on_strs, DpRows, JaroBufs};

/// Raw Levenshtein edit distance (unit costs), O(|a|·|b|) time and O(min)
/// space.
pub fn levenshtein_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut DpRows) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let DpRows { prev, cur } = rows;
    prev.clear();
    prev.extend(0..=short.len() as i32);
    cur.clear();
    cur.resize(short.len() + 1, 0);
    for (i, lc) in long.iter().enumerate() {
        // `left` carries the cell just written: the only loop-carried
        // dependency is one add and one min.
        let mut left = i as i32 + 1;
        cur[0] = left;
        for ((sc, above), out) in short.iter().zip(prev.windows(2)).zip(&mut cur[1..]) {
            let open = (above[0] + i32::from(lc != sc)).min(above[1] + 1);
            left = open.min(left + 1);
            *out = left;
        }
        std::mem::swap(prev, cur);
    }
    prev[short.len()] as usize
}

/// Normalized Levenshtein similarity `1 - ED / max(|a|, |b|)` in `[0, 1]`.
pub fn levenshtein_sim_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut DpRows) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein_slices(a, b, rows) as f64 / max as f64
}

/// Jaro similarity in `[0, 1]`: greedy in-window matching of `a`'s symbols
/// against unused symbols of `b`, then half the out-of-order matches
/// count as transpositions.
///
/// **Symmetric to the bit**: `jaro_slices(a, b) == jaro_slices(b, a)`,
/// bits included, which lets callers score a pair once for both orders.
/// Matches only pair equal symbols, so the greedy matching splits into one
/// per symbol `c`: `a`'s positions `P` of `c` in ascending order each take
/// the first unused position of `Q` (those of `c` in `b`) within
/// `window` of it. That is a two-pointer merge over `P` and `Q`: at
/// `(p, q)`, `q < p - window` advances `q` (no later `p` can reach it
/// either), `q > p + window` advances `p` (it gets no match), otherwise
/// the two match and both advance. The test is the same read from either
/// side, and `window` depends only on `max(|a|, |b|)`, so driving the
/// merge from `b` yields the same matched positions: the same `m`, the
/// same matched subsequences of `a` and `b` (in position order), hence
/// the same transposition count. `m/|a| + m/|b|` is one IEEE addition,
/// which is commutative, and the rest of the formula does not depend on
/// the order. `tests/properties.rs` checks every pair of short strings
/// over small alphabets exhaustively.
pub fn jaro_slices<T: PartialEq>(a: &[T], b: &[T], bufs: &mut JaroBufs) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let JaroBufs { b_used, a_matched } = bufs;
    b_used.clear();
    b_used.resize(b.len(), false);
    a_matched.clear();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                a_matched.push(i as u32);
                break;
            }
        }
    }
    let m = a_matched.len();
    if m == 0 {
        return 0.0;
    }
    let matched_b = b.iter().zip(b_used.iter()).filter(|(_, used)| **used);
    let transpositions = a_matched
        .iter()
        .zip(matched_b)
        .filter(|(&i, (cb, _))| a[i as usize] != **cb)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity with the standard prefix scale 0.1 and prefix cap
/// of 4 symbols.
pub fn jaro_winkler_slices<T: PartialEq>(a: &[T], b: &[T], bufs: &mut JaroBufs) -> f64 {
    winkler(jaro_slices(a, b, bufs), a, b)
}

/// Jaro-Winkler of `a` and `b` from their Jaro similarity `jaro`: the
/// Winkler boost for a common prefix (scale 0.1, at most 4 symbols).
pub fn winkler<T: PartialEq>(jaro: f64, a: &[T], b: &[T]) -> f64 {
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    jaro + prefix * 0.1 * (1.0 - jaro)
}

/// [`levenshtein_slices`] over the characters of two strings.
pub fn levenshtein(a: &str, b: &str) -> usize {
    on_strs!(a, b, |x, y| levenshtein_slices(
        x,
        y,
        &mut DpRows::default()
    ))
}

/// [`levenshtein_sim_slices`] over the characters of two strings.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    on_strs!(a, b, |x, y| levenshtein_sim_slices(
        x,
        y,
        &mut DpRows::default()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jaro(a: &str, b: &str) -> f64 {
        on_strs!(a, b, |x, y| jaro_slices(x, y, &mut JaroBufs::default()))
    }

    fn jaro_winkler(a: &str, b: &str) -> f64 {
        on_strs!(a, b, |x, y| jaro_winkler_slices(
            x,
            y,
            &mut JaroBufs::default()
        ))
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
        let s = levenshtein_sim("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_prefix() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.961111).abs() < 1e-4);
        assert!(jaro_winkler("prefix", "preface") > jaro("prefix", "preface"));
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn jaro_is_symmetric() {
        for (a, b) in [("dwayne", "duane"), ("crate", "trace"), ("a", "ab")] {
            assert_eq!(jaro(a, b).to_bits(), jaro(b, a).to_bits());
        }
    }
}
