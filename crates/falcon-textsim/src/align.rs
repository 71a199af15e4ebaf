//! Sequence-alignment similarity measures: Needleman-Wunsch (global),
//! Smith-Waterman (local) and Smith-Waterman-Gotoh (affine gaps), all
//! three out of one sweep of their DPs.
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

use crate::scratch::DpRows;

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

/// Raw half-unit score → similarity normalised by the shorter length.
fn normalized<T>(half_units: i32, a: &[T], b: &[T]) -> f64 {
    (f64::from(half_units) * 0.5 / a.len().min(b.len()) as f64).clamp(0.0, 1.0)
}

/// `[needleman_wunsch, smith_waterman, smith_waterman_gotoh]` of `a` and
/// `b`, each normalized to `[0, 1]`: Needleman-Wunsch global alignment,
/// Smith-Waterman local alignment, and Smith-Waterman-Gotoh local
/// alignment with affine gaps (open -1, extend -0.5).
///
/// The three DPs advance row by row together. Each row takes two passes:
/// first what every cell of each DP scores from the row above alone — no
/// cell reads its left neighbour, so the loop vectorizes — then the
/// left-to-right gaps, the three chains interleaved so each one's add and
/// max overlap the others'.
pub fn align_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut DpRows) -> [f64; 3] {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return [1.0; 3],
        (false, false) => {}
        _ => return [0.0; 3],
    }
    // prev/cur: the three DPs' rows back to back, NW | SW | SWG, each the
    // best score ending at (i, j); gap: SWG's best ending in a gap in `a`
    // (updated in place — column j of row i only reads column j of row
    // i-1); SWG's gap in `b` is carried along the row.
    let width = b.len() + 1;
    let DpRows { prev, cur, gap } = rows;
    prev.clear();
    prev.extend((0..width as i32).map(|j| j * GAP));
    prev.resize(3 * width, 0);
    cur.clear();
    cur.resize(3 * width, 0);
    gap.clear();
    gap.resize(width, NEVER);
    let (mut sw_best, mut swg_best) = (0, 0);
    for (i, ca) in a.iter().enumerate() {
        let (nw_up, up) = prev.split_at(width);
        let (sw_up, swg_up) = up.split_at(width);
        let (nw, row) = cur.split_at_mut(width);
        let (sw, swg) = row.split_at_mut(width);
        // Every slice is cut to `width` so the indexing below needs no
        // bounds check and the loop vectorizes.
        let (swg_up, swg, gap) = (&swg_up[..width], &mut swg[..width], &mut gap[..width]);
        for (j, cb) in b.iter().enumerate() {
            let s = score(ca, cb);
            nw[j + 1] = (nw_up[j] + s).max(nw_up[j + 1] + GAP);
            sw[j + 1] = (sw_up[j] + s).max(sw_up[j + 1] + GAP).max(0);
            gap[j + 1] = (swg_up[j + 1] + GAP_OPEN).max(gap[j + 1] + GAP_EXTEND);
            swg[j + 1] = (swg_up[j] + s).max(gap[j + 1]).max(0);
        }
        let mut nw_left = (i as i32 + 1) * GAP;
        nw[0] = nw_left;
        let (mut sw_left, mut swg_left, mut f) = (0, 0, NEVER);
        for ((n, s), g) in nw[1..].iter_mut().zip(&mut sw[1..]).zip(&mut swg[1..]) {
            nw_left = (*n).max(nw_left + GAP);
            *n = nw_left;
            sw_left = (*s).max(sw_left + GAP);
            *s = sw_left;
            f = (swg_left + GAP_OPEN).max(f + GAP_EXTEND);
            swg_left = (*g).max(f);
            *g = swg_left;
            sw_best = sw_best.max(sw_left);
            swg_best = swg_best.max(swg_left);
        }
        std::mem::swap(prev, cur);
    }
    [prev[b.len()], sw_best, swg_best].map(|h| normalized(h, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::on_strs;

    /// `[nw, sw, swg]` of the characters of two strings.
    fn sims(a: &str, b: &str) -> [f64; 3] {
        on_strs!(a, b, |x, y| align_slices(x, y, &mut DpRows::default()))
    }

    #[test]
    fn identical_strings_score_one() {
        assert_eq!(sims("hello", "hello"), [1.0; 3]);
        assert_eq!(sims("", ""), [1.0; 3]);
    }

    #[test]
    fn disjoint_strings_score_zero() {
        assert_eq!(sims("aaaa", "bbbb"), [0.0; 3]);
        assert_eq!(sims("a", ""), [0.0; 3]);
    }

    #[test]
    fn local_beats_global_on_substring() {
        // Smith-Waterman finds the local "water" block; NW pays for the
        // unmatched flanks.
        let [nw, sw, _] = sims("water", "the waterfall");
        assert!(sw > nw);
        assert_eq!(sw, 1.0); // "water" fully embedded
    }

    #[test]
    fn gotoh_prefers_one_long_gap() {
        // With affine gaps, one long gap is cheaper than many scattered ones,
        // so gotoh >= plain SW on a string with a single inserted run.
        let [_, s, g] = sims("abcdef", "abcXXXXdef");
        assert!(g >= s - 1e-12);
    }

    #[test]
    fn scores_in_unit_interval() {
        for (a, b) in [("abc", "abd"), ("ab", "ba"), ("xyz", "zyxwv"), ("q", "qq")] {
            for v in sims(a, b) {
                assert!((0.0..=1.0).contains(&v), "{a} vs {b} -> {v}");
            }
        }
    }
}
