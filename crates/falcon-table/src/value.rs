//! Attribute values: nullable strings and numbers.

use crate::column::ValueRef;
use std::fmt;
use std::fmt::Write as _;

/// Append the canonical text form of a number to `out`: integral values
/// below 1e15 print without a fractional part, everything else uses the
/// default float formatting. Shared by [`Value::render`] and
/// [`ValueRef::render`] so owned and borrowed cells render bit-identically.
pub(crate) fn render_num_into(x: f64, out: &mut String) {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// A single attribute value. Real-world EM tables are dirty, so every value
/// is nullable and numeric-looking strings can be coerced lazily.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Missing value.
    #[default]
    Null,
    /// Free-form string.
    Str(String),
    /// Numeric value (integer or float).
    Num(f64),
}

impl Value {
    /// Construct a string value, mapping empty/whitespace-only to `Null`.
    pub fn str(s: impl Into<String>) -> Self {
        let s = s.into();
        if s.trim().is_empty() {
            Value::Null
        } else {
            Value::Str(s)
        }
    }

    /// Construct a numeric value.
    pub fn num(x: f64) -> Self {
        if x.is_nan() {
            Value::Null
        } else {
            Value::Num(x)
        }
    }

    /// True iff the value is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as a string slice, if present. Numbers are not stringified here;
    /// use [`Value::render`] for display conversion.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: numbers directly, strings via parsing.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Null => None,
        }
    }

    /// Render to text for similarity computation / display. `Null` renders
    /// empty, which the similarity layer treats as missing.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Str(s) => s.clone(),
            Value::Num(x) => {
                let mut out = String::new();
                render_num_into(*x, &mut out);
                out
            }
        }
    }

    /// Append the rendered text to `out` (allocation-free for reused
    /// scratch buffers); same output as [`Value::render`].
    pub fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => {}
            Value::Str(s) => out.push_str(s),
            Value::Num(x) => render_num_into(*x, out),
        }
    }

    /// A borrowing [`ValueRef`] view of this value.
    pub fn as_value_ref(&self) -> ValueRef<'_> {
        ValueRef::from(self)
    }

    /// Parse a raw text field into the most specific value type.
    pub fn parse(raw: &str) -> Self {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        match t.parse::<f64>() {
            Ok(x) if x.is_finite() => Value::Num(x),
            _ => Value::Str(t.to_string()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::num(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Num(x as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specializes() {
        assert_eq!(Value::parse("12.5"), Value::Num(12.5));
        assert_eq!(Value::parse("  42 "), Value::Num(42.0));
        assert_eq!(Value::parse("abc"), Value::Str("abc".into()));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("   "), Value::Null);
    }

    #[test]
    fn empty_string_is_null() {
        assert!(Value::str("").is_null());
        assert!(Value::str("  ").is_null());
        assert!(!Value::str("x").is_null());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Str("3.5".into()).as_num(), Some(3.5));
        assert_eq!(Value::Num(2.0).as_num(), Some(2.0));
        assert_eq!(Value::Str("abc".into()).as_num(), None);
        assert_eq!(Value::Null.as_num(), None);
    }

    #[test]
    fn render_roundtrip() {
        assert_eq!(Value::Num(3.0).render(), "3");
        assert_eq!(Value::Num(3.25).render(), "3.25");
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::str("hi").render(), "hi");
    }

    #[test]
    fn nan_becomes_null() {
        assert!(Value::num(f64::NAN).is_null());
    }
}
