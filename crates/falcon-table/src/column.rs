//! Struct-of-arrays columnar storage.
//!
//! A [`Column`] holds one attribute of a table in four dense arrays:
//!
//! * `valid` — one bit per row, 0 = `Null`;
//! * `numeric` — one bit per row, 1 = the cell is a number;
//! * `nums` — one `f64` per row (unused slots hold `0.0`), so numeric
//!   scans are a straight sweep over a dense float vector;
//! * `bytes` + `offsets` — a single UTF-8 arena holding every string
//!   cell back to back, with `u32` offsets (`len + 1` entries); string
//!   cells borrow directly out of the arena, one allocation per column
//!   instead of one per cell.
//!
//! Cells are read through [`ValueRef`], a borrowing, copyable view with
//! exactly the same semantics as [`Value`] (`as_num` parses numeric
//! strings, `render` formats numbers identically), so a scan over a
//! column scores exactly what the owned values it was built from would.

use crate::value::{render_num_into, Value};

/// A packed bit vector, one bit per row.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap with room for `n` bits.
    pub fn with_capacity(n: usize) -> Self {
        Bitmap {
            bits: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let (word, shift) = (self.len / 64, self.len % 64);
        if shift == 0 {
            self.bits.push(0);
        }
        if bit {
            self.bits[word] |= 1u64 << shift;
        }
        self.len += 1;
    }

    /// Bit at `i` (false when out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no bits have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The first `n` bits as a new bitmap.
    fn head(&self, n: usize) -> Bitmap {
        let n = n.min(self.len);
        let mut bits = self.bits[..n.div_ceil(64)].to_vec();
        if let Some(last) = bits.last_mut() {
            let rem = n % 64;
            if rem != 0 {
                *last &= (1u64 << rem) - 1;
            }
        }
        Bitmap { bits, len: n }
    }
}

/// A borrowed view of one cell. Copyable; string cells borrow from the
/// column arena (or from a [`Value`] via [`Value::as_value_ref`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ValueRef<'a> {
    /// Missing value.
    #[default]
    Null,
    /// Free-form string.
    Str(&'a str),
    /// Numeric value.
    Num(f64),
}

impl<'a> ValueRef<'a> {
    /// True iff the value is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// View as a string slice, if present (numbers are not stringified).
    pub fn as_str(&self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: numbers directly, strings via parsing. Matches
    /// [`Value::as_num`] exactly.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            ValueRef::Num(x) => Some(*x),
            ValueRef::Str(s) => s.trim().parse().ok(),
            ValueRef::Null => None,
        }
    }

    /// Render to text; identical output to [`Value::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the rendered text to `out` (allocation-free for reused
    /// scratch buffers).
    pub fn render_into(&self, out: &mut String) {
        match self {
            ValueRef::Null => {}
            ValueRef::Str(s) => out.push_str(s),
            ValueRef::Num(x) => render_num_into(*x, out),
        }
    }

    /// Reconstruct an owned [`Value`] with identical contents. `Str` and
    /// `Num` payloads are preserved verbatim (no null-coercion of
    /// whitespace strings or NaN), so round-tripping a `Value` through a
    /// column is lossless.
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Str(s) => Value::Str((*s).to_string()),
            ValueRef::Num(x) => Value::Num(*x),
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Str(s) => ValueRef::Str(s),
            Value::Num(x) => ValueRef::Num(*x),
        }
    }
}

/// One attribute of a table in struct-of-arrays form. Built with
/// [`ColumnBuilder`]; immutable afterwards.
#[derive(Debug, Clone)]
pub struct Column {
    valid: Bitmap,
    numeric: Bitmap,
    /// `len + 1` entries; non-string cells occupy zero-length spans.
    offsets: Vec<u32>,
    /// UTF-8 arena for string cells.
    bytes: Vec<u8>,
    /// One slot per row; non-numeric slots hold `0.0`.
    nums: Vec<f64>,
}

impl Column {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True iff the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Cell at `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<ValueRef<'_>> {
        if i >= self.len() {
            return None;
        }
        Some(if !self.valid.get(i) {
            ValueRef::Null
        } else if self.numeric.get(i) {
            ValueRef::Num(self.nums[i])
        } else {
            ValueRef::Str(self.str_at(i))
        })
    }

    fn str_at(&self, i: usize) -> &str {
        let span = &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        // The arena only ever receives whole `&str` values, so every span
        // is valid UTF-8 and the fallback is unreachable.
        std::str::from_utf8(span).unwrap_or("")
    }

    /// Visit every cell in row order.
    pub fn for_each(&self, mut f: impl FnMut(usize, ValueRef<'_>)) {
        for i in 0..self.len() {
            let v = if !self.valid.get(i) {
                ValueRef::Null
            } else if self.numeric.get(i) {
                ValueRef::Num(self.nums[i])
            } else {
                ValueRef::Str(self.str_at(i))
            };
            f(i, v);
        }
    }

    /// The first `n` cells as a new column (arena prefix is shared by
    /// construction: string spans are append-only).
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        Column {
            valid: self.valid.head(n),
            numeric: self.numeric.head(n),
            offsets: self.offsets[..n + 1].to_vec(),
            bytes: self.bytes[..self.offsets[n] as usize].to_vec(),
            nums: self.nums[..n].to_vec(),
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.bytes.len()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.nums.len() * std::mem::size_of::<f64>()
            + (self.valid.bits.len() + self.numeric.bits.len()) * std::mem::size_of::<u64>()
    }
}

/// Incremental [`Column`] construction: cells are appended once, string
/// bytes go straight into the arena.
#[derive(Debug)]
pub struct ColumnBuilder {
    valid: Bitmap,
    numeric: Bitmap,
    offsets: Vec<u32>,
    bytes: Vec<u8>,
    nums: Vec<f64>,
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ColumnBuilder {
            valid: Bitmap::default(),
            numeric: Bitmap::default(),
            offsets: vec![0],
            bytes: Vec::new(),
            nums: Vec::new(),
        }
    }

    /// An empty builder with row/arena capacity hints.
    pub fn with_capacity(rows: usize, arena_bytes: usize) -> Self {
        let mut b = ColumnBuilder {
            valid: Bitmap::with_capacity(rows),
            numeric: Bitmap::with_capacity(rows),
            offsets: Vec::with_capacity(rows + 1),
            bytes: Vec::with_capacity(arena_bytes),
            nums: Vec::with_capacity(rows),
        };
        b.offsets.push(0);
        b
    }

    /// Number of cells pushed so far.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True iff no cells have been pushed.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    fn close_cell(&mut self) {
        // Column arenas are capped at u32 offsets (4 GiB of string bytes
        // per column) — far beyond the in-memory tables this engine
        // targets, but checked rather than silently wrapped.
        assert!(
            u32::try_from(self.bytes.len()).is_ok(),
            "column arena exceeds u32 offset range"
        );
        self.offsets.push(self.bytes.len() as u32);
    }

    /// Append a missing cell.
    pub fn push_null(&mut self) {
        self.valid.push(false);
        self.numeric.push(false);
        self.nums.push(0.0);
        self.close_cell();
    }

    /// Append a string cell (stored verbatim, even if whitespace-only).
    pub fn push_str(&mut self, s: &str) {
        self.valid.push(true);
        self.numeric.push(false);
        self.nums.push(0.0);
        self.bytes.extend_from_slice(s.as_bytes());
        self.close_cell();
    }

    /// Append a numeric cell (stored verbatim, even NaN).
    pub fn push_num(&mut self, x: f64) {
        self.valid.push(true);
        self.numeric.push(true);
        self.nums.push(x);
        self.close_cell();
    }

    /// Append an owned [`Value`] without altering its payload.
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Str(s) => self.push_str(s),
            Value::Num(x) => self.push_num(*x),
        }
    }

    /// Append a raw text field with [`Value::parse`] semantics — trim,
    /// empty ⇒ null, finite number ⇒ num, else str — without
    /// materializing an intermediate `Value` (string bytes are copied
    /// once, straight into the arena).
    pub fn push_raw(&mut self, raw: &str) {
        let t = raw.trim();
        if t.is_empty() {
            return self.push_null();
        }
        match t.parse::<f64>() {
            Ok(x) if x.is_finite() => self.push_num(x),
            _ => self.push_str(t),
        }
    }

    /// Finish building.
    pub fn finish(self) -> Column {
        Column {
            valid: self.valid,
            numeric: self.numeric,
            offsets: self.offsets,
            bytes: self.bytes,
            nums: self.nums,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_push_get() {
        let mut b = Bitmap::default();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert!(!b.get(500));
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn bitmap_head_masks_tail() {
        let mut b = Bitmap::default();
        for _ in 0..70 {
            b.push(true);
        }
        let h = b.head(65);
        assert_eq!(h.len(), 65);
        assert_eq!(h.count_ones(), 65);
        assert!(!h.get(65));
    }

    #[test]
    fn column_roundtrips_values() {
        let vals = [
            Value::Null,
            Value::Str("hello".into()),
            Value::Num(3.25),
            Value::Str("  ".into()), // whitespace-only must survive
            Value::Num(f64::NAN),    // raw NaN must survive
            Value::Str("naïve, ünïcode".into()),
            Value::Num(-0.0),
        ];
        let mut b = ColumnBuilder::new();
        for v in &vals {
            b.push_value(v);
        }
        let col = b.finish();
        assert_eq!(col.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            let got = col.get(i).unwrap().to_value();
            // NaN != NaN under PartialEq; compare bits for numerics.
            match (&got, v) {
                (Value::Num(a), Value::Num(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "cell {i}")
                }
                _ => assert_eq!(&got, v, "cell {i}"),
            }
        }
        assert_eq!(col.get(vals.len()), None);
    }

    #[test]
    fn push_raw_matches_value_parse() {
        let raws = [
            "12.5", "  42 ", "abc", "", "   ", "inf", "NaN", "1e300", "1e400",
        ];
        let mut b = ColumnBuilder::new();
        for r in raws {
            b.push_raw(r);
        }
        let col = b.finish();
        for (i, r) in raws.iter().enumerate() {
            assert_eq!(col.get(i).unwrap().to_value(), Value::parse(r), "raw {r:?}");
        }
    }

    #[test]
    fn value_ref_semantics_match_value() {
        for v in [
            Value::Null,
            Value::Str(" 3.5 ".into()),
            Value::Str("abc".into()),
            Value::Num(3.0),
            Value::Num(3.25),
        ] {
            let r = v.as_value_ref();
            assert_eq!(r.is_null(), v.is_null());
            assert_eq!(r.as_str(), v.as_str());
            assert_eq!(r.as_num(), v.as_num());
            assert_eq!(r.render(), v.render());
        }
    }

    #[test]
    fn column_head_is_prefix() {
        let mut b = ColumnBuilder::new();
        b.push_str("one");
        b.push_num(2.0);
        b.push_null();
        b.push_str("four");
        let col = b.finish();
        let h = col.head(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(0), Some(ValueRef::Str("one")));
        assert_eq!(h.get(1), Some(ValueRef::Num(2.0)));
        assert_eq!(h.get(2), None);
    }
}
