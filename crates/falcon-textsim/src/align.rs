//! Sequence-alignment similarity measures: Needleman-Wunsch (global),
//! Smith-Waterman (local) and Smith-Waterman-Gotoh (affine gaps), all
//! three out of one sweep of their DPs — for one pair, or for up to
//! [`LANES`] pairs at once.
//!
//! Figure 5 lists these as matching-stage-only measures for short strings.
//! Scores use match = +1, mismatch = -1, gap open/extend penalties as noted,
//! normalized by the length of the shorter string so results land in
//! `[0, 1]` (negative raw scores clamp to 0).
//!
//! **Half-units.** The DPs run in integer half-units (match = +2, gap
//! extend = -1): every score is a multiple of 0.5, so the integer DP takes
//! the same maxima an `f64` DP would, and `half_units as f64 * 0.5` is that
//! DP's result exactly.
//!
//! **Lanes.** `sweep` is the one kernel, generic over the lane count and
//! the score width. Each lane holds one pair — SWIPE's inter-sequence
//! layout (Rognes, BMC Bioinformatics 2011) in plain arrays: a cell is an
//! array of one score per lane, and every lane takes the same adds and
//! maxes, so the serial left-to-right gap chains of all lanes advance
//! together. [`align_slices`] is its one-lane `i32` instantiation;
//! [`align_batch`] runs [`LANES`] ASCII pairs per sweep in `i16` lanes.
//!
//! **Padding is exact.** A lane's symbols are widened to `u16`, and lanes
//! shorter than the longest `a` or `b` of their sweep are padded with
//! `PAD_A` on the `a` side and `PAD_B` on the `b` side: values no byte
//! takes, so a pad matches no symbol and not the other pad. A lane's cells inside its own `(|a|+1) ×
//! (|b|+1)` corner read only that corner, so they are the unpadded DP's.
//! A padded cell scores a mismatch or a gap (both −2) against each
//! neighbour it reads, so it lies below the best of them (or the SW floor
//! 0): it never raises the lane's SW or SW-Gotoh maximum. NW is read at
//! each lane's own `(|a|, |b|)` cell.
//!
//! **Why `i16`.** Inside a lane's corner every half-unit score lies in
//! `[-2(|a|+|b|), 2·min(|a|, |b|)]`, so `i16` is exact while `|a| + |b| ≤`
//! [`LANE_BOUND`]; padded cells saturate instead of wrapping, which keeps
//! them below the corner's best. The build targets baseline x86-64, whose
//! SSE2 has a packed 16-bit max and saturating add but no packed 32-bit
//! max: eight `i16` lanes fill one register, where `i32` lanes measured no
//! faster than one pair at a time. A pair over the bound, an empty value
//! or a non-ASCII value takes the one-lane path.

use crate::scratch::{on_syms, SimScratch, Syms};

/// Pairs one [`align_batch`] sweep scores together: eight `i16` lanes
/// fill an SSE2 register.
pub const LANES: usize = 8;
/// Largest `|a| + |b|` a pair may have to take an `i16` lane.
pub const LANE_BOUND: usize = 16_000;
/// Pad of the `a` side of a short lane.
const PAD_A: u16 = 0x100;
/// Pad of the `b` side of a short lane.
const PAD_B: u16 = 0x101;

const MATCH: i32 = 2;
const MISMATCH: i32 = -2;
const GAP: i32 = -2;
const GAP_OPEN: i32 = -2;
const GAP_EXTEND: i32 = -1;
/// "No gap open yet": low enough never to win a `max`, high enough that
/// subtracting one extension cannot wrap, in either width.
const NEVER: i32 = i16::MIN as i32 / 2;

/// A half-unit score type the kernel runs in.
trait Half: Copy + Ord {
    /// `x`, saturated to the type's range.
    fn of(x: i32) -> Self;
    fn add(self, other: Self) -> Self;
    fn to_f64(self) -> f64;
}

impl Half for i16 {
    fn of(x: i32) -> Self {
        x.clamp(i16::MIN.into(), i16::MAX.into()) as i16
    }
    // Saturating: a padded cell far below its lane's corner clamps at
    // `i16::MIN` instead of wrapping to a high score.
    fn add(self, other: Self) -> Self {
        self.saturating_add(other)
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Half for i32 {
    fn of(x: i32) -> Self {
        x
    }
    // One lane has no padding; its scores stay within ±2(|a| + |b|).
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

/// Column `j` of the kernel's row, one score per lane: the best NW, SW
/// and SW-Gotoh scores ending at `(i, j)`, and SW-Gotoh's best ending in a
/// gap in `a`.
#[derive(Debug, Clone, Copy)]
struct Cell<S, const L: usize> {
    nw: [S; L],
    sw: [S; L],
    swg: [S; L],
    gap: [S; L],
}

/// The working rows of the alignment kernels: one row of cells per
/// instantiation, and the lane sweep's transposed symbols.
#[derive(Debug, Clone, Default)]
pub struct AlignRows {
    one: Vec<Cell<i32, 1>>,
    lanes: Vec<Cell<i16, LANES>>,
    /// Row `i` of the lane sweep: symbol `i` of each lane's `a`, padded.
    a: Vec<[u16; LANES]>,
    /// Column `j` of the lane sweep: symbol `j` of each lane's `b`, padded.
    b: Vec<[u16; LANES]>,
}

fn add<S: Half, const L: usize>(x: [S; L], y: [S; L]) -> [S; L] {
    std::array::from_fn(|l| x[l].add(y[l]))
}

fn max<S: Half, const L: usize>(x: [S; L], y: [S; L]) -> [S; L] {
    std::array::from_fn(|l| x[l].max(y[l]))
}

/// Half-unit score of a run of `n` linear gaps.
fn gaps<S: Half>(n: usize) -> S {
    S::of(i32::try_from(n).unwrap_or(i32::MAX).saturating_mul(GAP))
}

/// The one alignment kernel: per lane, the half-unit `[nw, sw, swg]` of
/// one pair. `a` yields the rows' symbols and `b` the columns', one per
/// lane; `ends[l]` is lane `l`'s `(|a|, |b|)`, where its NW score is read
/// (a lane that ends at row 0 reads none). The DPs advance row by row,
/// all lanes of a cell in one step, and the row is updated in place: a
/// cell's upper neighbour is the slot before it is overwritten, its left
/// neighbour the cell just written.
fn sweep<T: PartialEq, S: Half, const L: usize>(
    a: impl Iterator<Item = [T; L]>,
    b: impl ExactSizeIterator<Item = [T; L]> + Clone,
    ends: [(usize, usize); L],
    row: &mut Vec<Cell<S, L>>,
) -> [[S; 3]; L] {
    let splat = |x| [S::of(x); L];
    let (zero, gap, open, extend) = (splat(0), splat(GAP), splat(GAP_OPEN), splat(GAP_EXTEND));
    let (hit, miss, never) = (S::of(MATCH), S::of(MISMATCH), splat(NEVER));
    row.clear();
    row.extend((0..=b.len()).map(|j| Cell {
        nw: [gaps(j); L],
        sw: zero,
        swg: zero,
        gap: never,
    }));
    let (mut nw_end, mut sw_best, mut swg_best) = (zero, zero, zero);
    for (i, ca) in a.enumerate() {
        let Some((first, rest)) = row.split_first_mut() else {
            break;
        };
        let mut diag = *first;
        first.nw = [gaps(i + 1); L];
        let mut left = *first;
        // SW-Gotoh's best ending in a gap in `b`, carried along the row.
        let mut f = never;
        for (cell, cb) in rest.iter_mut().zip(b.clone()) {
            let s: [S; L] = std::array::from_fn(|l| if ca[l] == cb[l] { hit } else { miss });
            let up = *cell;
            let nw = max(max(add(diag.nw, s), add(up.nw, gap)), add(left.nw, gap));
            let sw = max(max(add(diag.sw, s), add(up.sw, gap)), add(left.sw, gap));
            let sw = max(sw, zero);
            let e = max(add(up.swg, open), add(up.gap, extend));
            f = max(add(left.swg, open), add(f, extend));
            let swg = max(max(add(diag.swg, s), e), max(f, zero));
            sw_best = max(sw_best, sw);
            swg_best = max(swg_best, swg);
            diag = up;
            left = Cell {
                nw,
                sw,
                swg,
                gap: e,
            };
            *cell = left;
        }
        for (l, &(n, m)) in ends.iter().enumerate() {
            if n == i + 1 {
                nw_end[l] = row.get(m).map_or(zero[l], |c| c.nw[l]);
            }
        }
    }
    std::array::from_fn(|l| [nw_end[l], sw_best[l], swg_best[l]])
}

/// Raw half-unit score → similarity normalised by the shorter length.
fn normalized<S: Half>(half_units: S, (n, m): (usize, usize)) -> f64 {
    (half_units.to_f64() * 0.5 / n.min(m) as f64).clamp(0.0, 1.0)
}

/// `[needleman_wunsch, smith_waterman, smith_waterman_gotoh]` of `a` and
/// `b`, each normalized to `[0, 1]`: Needleman-Wunsch global alignment,
/// Smith-Waterman local alignment, and Smith-Waterman-Gotoh local
/// alignment with affine gaps (open -1, extend -0.5). One pair in one
/// `i32` lane of `sweep`.
pub fn align_slices<T: PartialEq>(a: &[T], b: &[T], rows: &mut AlignRows) -> [f64; 3] {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return [1.0; 3],
        (false, false) => {}
        _ => return [0.0; 3],
    }
    let ends = (a.len(), b.len());
    let [half_units] = sweep(
        a.iter().map(|x| [x]),
        b.iter().map(|y| [y]),
        [ends],
        &mut rows.one,
    );
    half_units.map(|h| normalized(h, ends))
}

/// Whether a pair of ASCII values takes an `i16` lane: both non-empty,
/// `|a| + |b|` at most [`LANE_BOUND`].
fn fits_lane(a: &[u8], b: &[u8]) -> bool {
    !a.is_empty() && !b.is_empty() && a.len() + b.len() <= LANE_BOUND
}

/// Lay out each lane's symbols along `out`, `len` of them, padded with
/// `pad`.
fn transpose<'a>(
    out: &mut Vec<[u16; LANES]>,
    len: usize,
    lanes: impl Iterator<Item = &'a [u8]>,
    pad: u16,
) {
    out.clear();
    out.resize(len, [pad; LANES]);
    for (l, syms) in lanes.enumerate() {
        for (slot, &c) in out.iter_mut().zip(syms) {
            slot[l] = c.into();
        }
    }
}

/// Score up to [`LANES`] pairs that each pass [`fits_lane`] in one `i16`
/// sweep, into `out[at[l]]` for the pair in lane `l`.
fn sweep_lanes(pairs: &[(&[u8], &[u8])], at: &[usize], rows: &mut AlignRows, out: &mut [[f64; 3]]) {
    let ends: [(usize, usize); LANES] =
        std::array::from_fn(|l| pairs.get(l).map_or((0, 0), |(a, b)| (a.len(), b.len())));
    let height = ends.iter().map(|e| e.0).max().unwrap_or(0);
    let width = ends.iter().map(|e| e.1).max().unwrap_or(0);
    let AlignRows { lanes, a, b, .. } = rows;
    transpose(a, height, pairs.iter().map(|p| p.0), PAD_A);
    transpose(b, width, pairs.iter().map(|p| p.1), PAD_B);
    let half_units = sweep(a.iter().copied(), b.iter().copied(), ends, lanes);
    for ((&k, h), end) in at.iter().zip(half_units).zip(ends) {
        if let Some(slot) = out.get_mut(k) {
            *slot = h.map(|h| normalized(h, end));
        }
    }
}

/// [`align_slices`] of every pair of `pairs`, into the same slot of `out`,
/// bit for bit: pairs of non-empty ASCII values with `|a| + |b|` at most
/// [`LANE_BOUND`] are swept [`LANES`] at a time in `i16` lanes, every
/// other pair alone.
pub fn align_batch(pairs: &[(Syms<'_>, Syms<'_>)], scratch: &mut SimScratch, out: &mut [[f64; 3]]) {
    let SimScratch { align, wide, .. } = scratch;
    let mut lanes: [(&[u8], &[u8]); LANES] = [(&[], &[]); LANES];
    let mut at = [0; LANES];
    let mut n = 0;
    for (k, &(a, b)) in pairs.iter().enumerate() {
        match (a, b) {
            (Syms::Ascii(x), Syms::Ascii(y)) if fits_lane(x, y) => {
                lanes[n] = (x, y);
                at[n] = k;
                n += 1;
            }
            _ => {
                if let Some(slot) = out.get_mut(k) {
                    *slot = on_syms!(a, b, wide, |x, y| align_slices(x, y, align));
                }
            }
        }
        if n == LANES {
            sweep_lanes(&lanes, &at, align, out);
            n = 0;
        }
    }
    if n > 0 {
        sweep_lanes(&lanes[..n], &at[..n], align, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::on_strs;

    /// `[nw, sw, swg]` of the characters of two strings.
    fn sims(a: &str, b: &str) -> [f64; 3] {
        on_strs!(a, b, |x, y| align_slices(x, y, &mut AlignRows::default()))
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
