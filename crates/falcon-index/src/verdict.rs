//! Per-probe verdict table: the exact-filter arithmetic of one
//! set-similarity probe, tabulated by candidate set size.
//!
//! For a fixed probe (measure, threshold `t`, probe size `|y|`, and — when
//! the probe is signature-gated — its `min_bits` table) everything the
//! posting walk and the dense signature scan decide about a candidate `x`
//! *before* looking at its fingerprint bits or token positions is a
//! function of `|x|` alone:
//!
//! * the required overlap `o = required_overlap(t, |x|, |y|)`,
//! * the signature verdict: nothing to test when `o = 0`; refuted outright
//!   when `o > |x|` or `o > |y|` (overlap is bounded by both sizes);
//!   otherwise "needs at least `min_bits[o]` shared fingerprint bits",
//! * the length-filter verdict `lo ≤ |x| ≤ hi`.
//!
//! So instead of redoing that float arithmetic (a division, a `ceil`, a
//! `sqrt` for cosine) per posting, a probe fills one `Verdict` per
//! distinct `|x|` it meets — by calling exactly the per-posting functions,
//! once — and every further posting of that size costs a table load and
//! integer compares. The decisions, and therefore the `ProbeStats` bucket
//! every prune lands in, are those of the per-posting arithmetic by
//! construction; `tests/kernel_definition.rs` checks them against it.

use falcon_textsim::{prefix, SimFunction};

/// `floor` value of a candidate size the signature refutes without
/// looking at any bits.
pub(crate) const REFUTED: u32 = u32::MAX;

/// What one probe decides about every candidate of one set size.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Verdict {
    /// Required overlap for the position filter (0 = no bound).
    pub need: u32,
    /// Signature gate: 0 = nothing to test (ungated probe, or no overlap
    /// required), [`REFUTED`] = cannot reach the overlap, otherwise the
    /// minimum number of fingerprint bits the pair must share.
    pub floor: u32,
    /// The length filter admits this size.
    pub len_ok: bool,
    filled: bool,
}

/// The verdict for candidates of size `x_len`: the arithmetic the kernels
/// used to repeat per posting. `bounds` is `length_bounds(sim, t, y_len)`;
/// `min_bits` is the probe's table when the probe is signature-gated.
pub(crate) fn verdict(
    sim: SimFunction,
    threshold: f64,
    x_len: usize,
    y_len: usize,
    bounds: Option<(usize, usize)>,
    min_bits: Option<&[u32]>,
) -> Verdict {
    let need = prefix::required_overlap(sim, threshold, x_len, y_len).unwrap_or(0);
    let floor = match min_bits {
        Some(min_bits) if need > 0 => {
            if x_len < need {
                REFUTED
            } else {
                // `need > |y|` falls off the table: unsatisfiable.
                min_bits.get(need).copied().unwrap_or(REFUTED)
            }
        }
        _ => 0,
    };
    Verdict {
        need: u32::try_from(need).unwrap_or(u32::MAX),
        floor,
        len_ok: bounds.is_none_or(|(lo, hi)| lo <= x_len && x_len <= hi),
        filled: true,
    }
}

/// Reusable memo of `Verdict`s indexed by candidate set size, filled on
/// first touch so a probe pays for the sizes it meets, not for the
/// longest tuple in the index.
#[derive(Debug, Default)]
pub struct VerdictTable {
    entries: Vec<Verdict>,
}

impl VerdictTable {
    /// Forget the previous probe and make room for sizes `0..=max_x_len`.
    pub(crate) fn reset(&mut self, max_x_len: usize) {
        self.entries.clear();
        self.entries.resize(max_x_len + 1, Verdict::default());
    }

    /// The verdict for size `x_len`, computed by `fill` the first time.
    /// Sizes beyond the reset bound (an index whose recorded maximum is
    /// stale) are computed without being remembered.
    #[inline]
    pub(crate) fn at(&mut self, x_len: usize, fill: impl FnOnce(usize) -> Verdict) -> Verdict {
        match self.entries.get_mut(x_len) {
            Some(v) if v.filled => *v,
            Some(v) => {
                *v = fill(x_len);
                *v
            }
            None => fill(x_len),
        }
    }
}
