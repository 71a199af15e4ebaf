//! Sequence-alignment similarity measures: Needleman-Wunsch (global),
//! Smith-Waterman (local) and Smith-Waterman-Gotoh (affine gaps).
//!
//! Figure 5 lists these as matching-stage-only measures for short strings.
//! Scores use match = +1, mismatch = -1, gap open/extend penalties as noted,
//! normalized by the length of the shorter string so results land in
//! `[0, 1]` (negative raw scores clamp to 0).
//!
//! The DPs run in `i32` **half-units** (match = +2, gap extend = -1): every
//! score is a multiple of 0.5 far below 2⁵³, so the integer DP takes the
//! same maxima an `f64` DP would, and `half_units as f64 * 0.5` is that
//! DP's result exactly — the normalised similarity is bit-identical while
//! the rows are reusable, allocation-free integers.

use crate::scratch::{on_strs, DpRows};

const MATCH: i32 = 2;
const MISMATCH: i32 = -2;
const GAP: i32 = -2;
const GAP_OPEN: i32 = -2;
const GAP_EXTEND: i32 = -1;
/// "No gap open yet": low enough never to win a `max`, high enough that
/// subtracting a penalty per symbol cannot wrap.
const NEVER: i32 = i32::MIN / 2;

fn score<T: PartialEq>(a: &T, b: &T) -> i32 {
    if a == b {
        MATCH
    } else {
        MISMATCH
    }
}

/// Scores of an empty operand, shared by all three measures.
fn empty_score<T>(a: &[T], b: &[T]) -> Option<f64> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => Some(1.0),
        (false, false) => None,
        _ => Some(0.0),
    }
}

/// Raw half-unit score → similarity normalised by the shorter length.
fn normalized<T>(half_units: i32, a: &[T], b: &[T]) -> f64 {
    (f64::from(half_units) * 0.5 / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
}

/// Needleman-Wunsch global alignment score, normalized to `[0, 1]`.
pub fn needleman_wunsch_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut DpRows) -> f64 {
    if let Some(s) = empty_score(a, b) {
        return s;
    }
    let DpRows { prev, cur, .. } = rows;
    prev.clear();
    prev.extend((0..=b.len() as i32).map(|j| j * GAP));
    cur.clear();
    cur.resize(b.len() + 1, 0);
    for (i, ca) in a.iter().enumerate() {
        // `left` carries the cell just written: the only loop-carried
        // dependency is one add and one max.
        let mut left = (i as i32 + 1) * GAP;
        cur[0] = left;
        for ((cb, above), out) in b.iter().zip(prev.windows(2)).zip(&mut cur[1..]) {
            let open = (above[0] + score(ca, cb)).max(above[1] + GAP);
            left = open.max(left + GAP);
            *out = left;
        }
        std::mem::swap(prev, cur);
    }
    normalized(prev[b.len()], a, b)
}

/// Smith-Waterman local alignment score, normalized to `[0, 1]`.
pub fn smith_waterman_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut DpRows) -> f64 {
    if let Some(s) = empty_score(a, b) {
        return s;
    }
    let DpRows { prev, cur, .. } = rows;
    prev.clear();
    prev.resize(b.len() + 1, 0);
    cur.clear();
    cur.resize(b.len() + 1, 0);
    let mut best = 0;
    for ca in a {
        // Two passes per row. First what each cell scores from the row
        // above alone — no cell reads its left neighbour, so the loop
        // vectorizes; then the left-to-right gap is threaded through, one
        // add and one max per cell. (Measured 2.7× over the fused loop.)
        for ((cb, above), out) in b.iter().zip(prev.windows(2)).zip(&mut cur[1..]) {
            *out = (above[0] + score(ca, cb)).max(above[1] + GAP).max(0);
        }
        let mut left = 0;
        for out in &mut cur[1..] {
            left = (*out).max(left + GAP);
            *out = left;
            best = best.max(left);
        }
        std::mem::swap(prev, cur);
    }
    normalized(best, a, b)
}

/// Smith-Waterman-Gotoh: local alignment with affine gap penalties
/// (open -1, extend -0.5), normalized to `[0, 1]`.
pub fn smith_waterman_gotoh_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut DpRows) -> f64 {
    if let Some(s) = empty_score(a, b) {
        return s;
    }
    // prev/cur: best score ending at (i, j); gap: best ending in a gap in
    // `a` (updated in place — column j of row i only reads column j of
    // row i-1); f: best ending in a gap in `b`, carried along the row.
    let DpRows { prev, cur, gap } = rows;
    prev.clear();
    prev.resize(b.len() + 1, 0);
    cur.clear();
    cur.resize(b.len() + 1, 0);
    gap.clear();
    gap.resize(b.len() + 1, NEVER);
    let mut best = 0;
    for ca in a {
        // Two passes per row, as in `smith_waterman_slices`.
        let cells = b.iter().zip(prev.windows(2)).zip(&mut gap[1..]);
        for (((cb, above), e), out) in cells.zip(&mut cur[1..]) {
            *e = (above[1] + GAP_OPEN).max(*e + GAP_EXTEND);
            *out = (above[0] + score(ca, cb)).max(*e).max(0);
        }
        let (mut f, mut left) = (NEVER, 0);
        for out in &mut cur[1..] {
            f = (left + GAP_OPEN).max(f + GAP_EXTEND);
            left = (*out).max(f);
            *out = left;
            best = best.max(left);
        }
        std::mem::swap(prev, cur);
    }
    normalized(best, a, b)
}

/// [`needleman_wunsch_slices`] over the characters of two strings.
pub fn needleman_wunsch_sim(a: &str, b: &str) -> f64 {
    on_strs!(a, b, |x, y| needleman_wunsch_slices(
        x,
        y,
        &mut DpRows::default()
    ))
}

/// [`smith_waterman_slices`] over the characters of two strings.
pub fn smith_waterman_sim(a: &str, b: &str) -> f64 {
    on_strs!(a, b, |x, y| smith_waterman_slices(
        x,
        y,
        &mut DpRows::default()
    ))
}

/// [`smith_waterman_gotoh_slices`] over the characters of two strings.
pub fn smith_waterman_gotoh_sim(a: &str, b: &str) -> f64 {
    on_strs!(a, b, |x, y| smith_waterman_gotoh_slices(
        x,
        y,
        &mut DpRows::default()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings_score_one() {
        for f in [
            needleman_wunsch_sim,
            smith_waterman_sim,
            smith_waterman_gotoh_sim,
        ] {
            assert_eq!(f("hello", "hello"), 1.0);
            assert_eq!(f("", ""), 1.0);
        }
    }

    #[test]
    fn disjoint_strings_score_zero() {
        for f in [
            needleman_wunsch_sim,
            smith_waterman_sim,
            smith_waterman_gotoh_sim,
        ] {
            assert_eq!(f("aaaa", "bbbb"), 0.0);
            assert_eq!(f("a", ""), 0.0);
        }
    }

    #[test]
    fn local_beats_global_on_substring() {
        // Smith-Waterman finds the local "water" block; NW pays for the
        // unmatched flanks.
        let sw = smith_waterman_sim("water", "the waterfall");
        let nw = needleman_wunsch_sim("water", "the waterfall");
        assert!(sw > nw);
        assert_eq!(sw, 1.0); // "water" fully embedded
    }

    #[test]
    fn gotoh_prefers_one_long_gap() {
        // With affine gaps, one long gap is cheaper than many scattered ones,
        // so gotoh >= plain SW on a string with a single inserted run.
        let g = smith_waterman_gotoh_sim("abcdef", "abcXXXXdef");
        let s = smith_waterman_sim("abcdef", "abcXXXXdef");
        assert!(g >= s - 1e-12);
    }

    #[test]
    fn scores_in_unit_interval() {
        for (a, b) in [("abc", "abd"), ("ab", "ba"), ("xyz", "zyxwv"), ("q", "qq")] {
            for f in [
                needleman_wunsch_sim,
                smith_waterman_sim,
                smith_waterman_gotoh_sim,
            ] {
                let v = f(a, b);
                assert!((0.0..=1.0).contains(&v), "{a} vs {b} -> {v}");
            }
        }
    }
}
