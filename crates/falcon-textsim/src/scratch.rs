//! What the slice kernels work on and with: [`Syms`] (a string as bytes or
//! decoded chars) and [`SimScratch`] (the reusable buffers one scoring
//! task owns).
//!
//! The character-level kernels in [`crate::edit`] and [`crate::align`]
//! are generic over the symbol type, so an ASCII string is scored straight
//! from its bytes and only a non-ASCII one is ever decoded to `char`s.
//! A [`SimScratch`] holds every buffer those kernels would otherwise
//! allocate per call — Levenshtein's DP rows, the alignment kernel's rows
//! and lane symbols, Jaro match flags, decode buffers, token grid maxima —
//! plus a bounded memo of token-pair Jaro-Winkler scores for the hybrid
//! measures (Monge-Elkan, Soft TF/IDF), which call Jaro-Winkler `|a|·|b|`
//! times per pair over a vocabulary that repeats from pair to pair.

use crate::align::AlignRows;
use crate::edit;
use crate::profile::TokenDict;

/// Slots in a [`SimScratch`]'s Jaro-Winkler memo: 8 192 × 16 B = 128 KB
/// per scoring task. Bounded because an exact map grows with the
/// vocabulary squared (82 K entries on a 369-tuple products table);
/// measured, this size was also faster than the unbounded map.
pub const JW_MEMO_SLOTS: usize = 8192;

/// A string as the character-level kernels read it.
#[derive(Debug, Clone, Copy)]
pub enum Syms<'a> {
    /// An all-ASCII string: one byte per character, read in place.
    Ascii(&'a [u8]),
    /// Decoded `char`s of a string with multi-byte characters.
    Wide(&'a [char]),
}

impl<'a> Syms<'a> {
    /// View `s` as symbols, decoding into `buf` only when it is not ASCII.
    pub fn decode(s: &'a str, buf: &'a mut Vec<char>) -> Self {
        if s.is_ascii() {
            Syms::Ascii(s.as_bytes())
        } else {
            buf.clear();
            buf.extend(s.chars());
            Syms::Wide(buf)
        }
    }
}

/// Widen ASCII bytes into `buf` so they compare against decoded chars.
pub(crate) fn widen<'a>(ascii: &[u8], buf: &'a mut Vec<char>) -> &'a [char] {
    buf.clear();
    buf.extend(ascii.iter().map(|&b| char::from(b)));
    buf
}

/// Run `$body` with `$x`/`$y` bound to two [`Syms`] as slices of one
/// symbol type: bytes when both are ASCII, chars otherwise (the ASCII
/// side of a mixed pair is widened into `$wide`).
macro_rules! on_syms {
    ($a:expr, $b:expr, $wide:expr, |$x:ident, $y:ident| $body:expr) => {
        match ($a, $b) {
            ($crate::scratch::Syms::Ascii($x), $crate::scratch::Syms::Ascii($y)) => $body,
            ($crate::scratch::Syms::Wide($x), $crate::scratch::Syms::Wide($y)) => $body,
            ($crate::scratch::Syms::Ascii(narrow), $crate::scratch::Syms::Wide($y)) => {
                let $x = $crate::scratch::widen(narrow, $wide);
                $body
            }
            ($crate::scratch::Syms::Wide($x), $crate::scratch::Syms::Ascii(narrow)) => {
                let $y = $crate::scratch::widen(narrow, $wide);
                $body
            }
        }
    };
}

/// [`on_syms!`] for two `&str`s with throw-away decode buffers: the body
/// of every `&str` convenience wrapper around a slice kernel.
macro_rules! on_strs {
    ($a:expr, $b:expr, |$x:ident, $y:ident| $body:expr) => {{
        let (mut buf_a, mut buf_b, mut wide) = (Vec::new(), Vec::new(), Vec::new());
        $crate::scratch::on_syms!(
            $crate::scratch::Syms::decode($a, &mut buf_a),
            $crate::scratch::Syms::decode($b, &mut buf_b),
            &mut wide,
            |$x, $y| $body
        )
    }};
}

pub(crate) use {on_strs, on_syms};

/// Levenshtein's two integer DP rows.
#[derive(Debug, Clone, Default)]
pub struct DpRows {
    pub(crate) prev: Vec<i32>,
    pub(crate) cur: Vec<i32>,
}

/// Jaro's per-call working set: which symbols of `b` are taken, and which
/// positions of `a` matched (in order).
#[derive(Debug, Clone, Default)]
pub struct JaroBufs {
    pub(crate) b_used: Vec<bool>,
    pub(crate) a_matched: Vec<u32>,
}

/// Direct-mapped `(token id, token id) → jaro_winkler` memo.
///
/// Lossy by design: a colliding insert overwrites the slot, and a miss
/// recomputes the pure function, so no score can depend on what the memo
/// holds, how big it is, or what was scored before. Token ids are only
/// meaningful within one [`TokenDict`], so a memo (and the [`SimScratch`]
/// owning it) must never be reused with another dictionary.
#[derive(Debug, Clone)]
struct JwMemo {
    /// Empty until the first insert, then `capacity` `(key, score)` slots.
    slots: Vec<(u64, f64)>,
    /// A power of two.
    capacity: usize,
}

/// Key of a slot nothing was stored in: `(u32::MAX, u32::MAX)` is a pair
/// of equal ids, which short-circuits to 1.0 before the memo is consulted.
const EMPTY_KEY: u64 = u64::MAX;

impl JwMemo {
    fn key(x: u32, y: u32) -> u64 {
        u64::from(x) << 32 | u64::from(y)
    }

    fn slot(&self, key: u64) -> usize {
        // Fibonacci hashing; the high half of the product mixes both ids.
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.capacity - 1)
    }

    fn get(&self, x: u32, y: u32) -> Option<f64> {
        let key = Self::key(x, y);
        match self.slots.get(self.slot(key)) {
            Some(&(k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    fn insert(&mut self, x: u32, y: u32, score: f64) {
        if self.slots.is_empty() {
            self.slots = vec![(EMPTY_KEY, 0.0); self.capacity];
        }
        let key = Self::key(x, y);
        let slot = self.slot(key);
        self.slots[slot] = (key, score);
    }
}

/// Reusable buffers for scoring many pairs in one task. Creating one
/// allocates nothing; each buffer grows to the longest input it has seen
/// and the memo is allocated on the first token pair it stores.
///
/// One scratch serves one [`TokenDict`] (see [`SimScratch::token_jaro_winkler`]):
/// `gen_fvs` creates one per map task and drops it with the task.
#[derive(Debug, Clone)]
pub struct SimScratch {
    pub(crate) rows: DpRows,
    pub(crate) align: AlignRows,
    pub(crate) jaro: JaroBufs,
    /// Widening buffer for a mixed ASCII / non-ASCII pair.
    pub(crate) wide: Vec<char>,
    /// Decode buffers for the two tokens of a memo miss.
    tokens: [Vec<char>; 2],
    /// Monge-Elkan's best token score per row, then per column, of its
    /// token grid.
    pub(crate) maxima: Vec<f64>,
    memo: JwMemo,
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SimScratch {
    /// Scratch with the production memo size, [`JW_MEMO_SLOTS`].
    pub fn new() -> Self {
        Self::with_memo_slots(JW_MEMO_SLOTS)
    }

    /// Scratch whose memo has `slots` slots (rounded up to a power of two,
    /// at least 1). Scores never depend on the size: the one-shot `&str`
    /// wrappers use 1 slot to skip the 128 KB table, and tests use it to
    /// make every lookup evict.
    pub fn with_memo_slots(slots: usize) -> Self {
        Self {
            rows: DpRows::default(),
            align: AlignRows::default(),
            jaro: JaroBufs::default(),
            wide: Vec::new(),
            tokens: [Vec::new(), Vec::new()],
            maxima: Vec::new(),
            memo: JwMemo {
                slots: Vec::new(),
                capacity: slots.max(1).next_power_of_two(),
            },
        }
    }

    /// Jaro-Winkler of two tokens of `dict`, in either order: the measure
    /// is symmetric to the bit (see [`edit::jaro_slices`]), so `(x, y)`
    /// and `(y, x)` share the memo key `(min, max)`, scored in that order.
    /// Equal ids score exactly 1.0, as Jaro-Winkler of a string with
    /// itself does.
    pub fn token_jaro_winkler(&mut self, dict: &TokenDict, x: u32, y: u32) -> f64 {
        if x == y {
            return 1.0;
        }
        let (x, y) = (x.min(y), x.max(y));
        if let Some(score) = self.memo.get(x, y) {
            return score;
        }
        let Self {
            jaro,
            wide,
            tokens: [buf_x, buf_y],
            ..
        } = self;
        let score = on_syms!(dict.syms(x, buf_x), dict.syms(y, buf_y), wide, |p, q| {
            edit::jaro_winkler_slices(p, q, jaro)
        });
        self.memo.insert(x, y, score);
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_reads_ascii_in_place_and_widens_the_rest() {
        let mut buf = Vec::new();
        assert!(matches!(Syms::decode("abc", &mut buf), Syms::Ascii(b"abc")));
        assert!(buf.is_empty());
        match Syms::decode("né", &mut buf) {
            Syms::Wide(w) => assert_eq!(w, ['n', 'é']),
            Syms::Ascii(_) => panic!("non-ASCII must decode"),
        }
    }

    #[test]
    fn memo_is_lazy_lossy_and_direction_aware() {
        let mut m = JwMemo {
            slots: Vec::new(),
            capacity: 1,
        };
        assert_eq!(m.get(1, 2), None);
        assert!(m.slots.is_empty());
        m.insert(1, 2, 0.5);
        assert_eq!(m.get(1, 2), Some(0.5));
        assert_eq!(m.get(2, 1), None);
        m.insert(3, 4, 0.25); // evicts the only slot
        assert_eq!(m.get(1, 2), None);
        assert_eq!(m.get(3, 4), Some(0.25));
    }

    #[test]
    fn token_scores_do_not_depend_on_memo_size_or_history() {
        let mut dict = TokenDict::new();
        let ids: Vec<u32> = ["martha", "marhta", "dixon", "dicksonx", "ärger", "arger"]
            .iter()
            .map(|t| dict.intern(t))
            .collect();
        let mut big = SimScratch::new();
        let mut tiny = SimScratch::with_memo_slots(1);
        for round in 0..2 {
            for &x in &ids {
                for &y in &ids {
                    let (tx, ty) = (dict.resolve(x), dict.resolve(y));
                    let want = on_strs!(tx.expect("interned"), ty.expect("interned"), |p, q| {
                        edit::jaro_winkler_slices(p, q, &mut JaroBufs::default())
                    });
                    let b = big.token_jaro_winkler(&dict, x, y);
                    let t = tiny.token_jaro_winkler(&dict, x, y);
                    assert_eq!(b.to_bits(), want.to_bits(), "round {round} ({x},{y})");
                    assert_eq!(t.to_bits(), want.to_bits(), "round {round} ({x},{y})");
                }
            }
        }
        assert_eq!(big.memo.slots.len(), JW_MEMO_SLOTS);
        assert_eq!(tiny.memo.slots.len(), 1);
    }
}
