//! Tuples and tables.
//!
//! A [`Table`] stores its cells as struct-of-arrays [`Column`]s, one per
//! attribute: contiguous byte arena + offsets for strings, a dense `f64`
//! vector for numbers, validity bitmaps for nulls. Operators read cells
//! through [`Table::value_ref`] or the column-at-a-time scans
//! [`Table::for_each_value`] / [`Table::for_each_rendered`].
//!
//! [`Table::rows`] materializes an owned `Vec<Tuple>` on every call; it
//! exists for tests and one-off display at the edges, not for operators.

use crate::column::{Column, ColumnBuilder, ValueRef};
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Tuple identifier, unique within its table.
pub type TupleId = u32;

/// A row: its id plus one value per schema attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Identifier, unique within the owning table.
    pub id: TupleId,
    /// Values, aligned with the table schema.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Value at an attribute index.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// Table construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row's value count differs from the schema's arity.
    ArityMismatch {
        /// 0-based index of the offending row.
        row: usize,
        /// Number of values the row supplied.
        got: usize,
        /// Arity the schema expects.
        expected: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { row, got, expected } => {
                write!(
                    f,
                    "row {row} arity mismatch: got {got} values, schema expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}

/// An in-memory table: a schema plus one [`Column`] per attribute. Cheap
/// to clone (columns behind an `Arc`) so the dataflow engine can hand
/// partitions to worker threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    cols: Arc<Vec<Column>>,
    n_rows: usize,
}

impl Table {
    /// Build a table from rows of values. Ids are assigned positionally.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the schema's; use
    /// [`Table::try_new`] for a fallible variant.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Self {
        // falcon-lint: allow(no-panic) — convenience wrapper over `try_new`.
        Self::try_new(name, schema, rows).unwrap_or_else(|e| panic!("Table::new: {e}"))
    }

    /// Build a table from rows of values, returning
    /// [`TableError::ArityMismatch`] instead of panicking.
    pub fn try_new(
        name: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Self, TableError> {
        let expected = schema.arity();
        let mut builders: Vec<ColumnBuilder> =
            (0..expected).map(|_| ColumnBuilder::new()).collect();
        let mut n_rows = 0usize;
        for (i, values) in rows.into_iter().enumerate() {
            if values.len() != expected {
                return Err(TableError::ArityMismatch {
                    row: i,
                    got: values.len(),
                    expected,
                });
            }
            for (b, v) in builders.iter_mut().zip(&values) {
                b.push_value(v);
            }
            n_rows += 1;
        }
        let cols = builders.into_iter().map(ColumnBuilder::finish).collect();
        Ok(Self::from_columns(name, schema, cols, n_rows))
    }

    /// Build a table directly from finished columns (the streaming CSV
    /// reader's path: cells never exist as rows at all). All columns
    /// must have `n_rows` cells and there must be one per schema
    /// attribute; the caller (in-crate) upholds this.
    pub(crate) fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        cols: Vec<Column>,
        n_rows: usize,
    ) -> Self {
        debug_assert_eq!(cols.len(), schema.arity());
        debug_assert!(cols.iter().all(|c| c.len() == n_rows));
        Self {
            name: name.into(),
            schema,
            cols: Arc::new(cols),
            n_rows,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, materialized on every call. Payloads are reconstructed
    /// verbatim (`Value::Str` / `Value::Num` directly — no
    /// null-coercion), so the result is bit-identical to the rows the
    /// table was built from. For tests and display only; operators use
    /// [`Table::value_ref`] or the `for_each_*` scans.
    pub fn rows(&self) -> Vec<Tuple> {
        (0..self.n_rows)
            .map(|i| Tuple {
                id: i as TupleId,
                values: self
                    .cols
                    .iter()
                    .map(|c| c.get(i).map(|v| v.to_value()).unwrap_or(Value::Null))
                    .collect(),
            })
            .collect()
    }

    /// Borrowed view of the cell at (`id`, `attr_idx`); `None` when the
    /// row or the attribute does not exist. Reads the column directly —
    /// no per-cell allocation.
    pub fn value_ref(&self, id: TupleId, attr_idx: usize) -> Option<ValueRef<'_>> {
        self.cols.get(attr_idx)?.get(id as usize)
    }

    /// Visit every cell of attribute `attr_idx` in row order: one linear
    /// sweep over the column arrays. Visits nothing when
    /// `attr_idx >= arity`.
    pub fn for_each_value(&self, attr_idx: usize, mut f: impl FnMut(TupleId, ValueRef<'_>)) {
        if let Some(col) = self.cols.get(attr_idx) {
            col.for_each(|i, v| f(i as TupleId, v));
        }
    }

    /// Visit the rendered text of every cell of attribute `attr_idx` in
    /// row order (nulls render empty, identically to [`Value::render`]).
    /// String cells are passed as zero-copy arena slices; numeric cells
    /// render into one reused scratch buffer. Visits nothing when
    /// `attr_idx >= arity`.
    pub fn for_each_rendered(&self, attr_idx: usize, mut f: impl FnMut(TupleId, &str)) {
        let mut scratch = String::new();
        self.for_each_value(attr_idx, |id, v| match v {
            ValueRef::Null => f(id, ""),
            ValueRef::Str(s) => f(id, s),
            ValueRef::Num(_) => {
                scratch.clear();
                v.render_into(&mut scratch);
                f(id, &scratch);
            }
        });
    }

    /// A new table containing the first `n` rows (re-identified from 0).
    /// Used by the table-size sensitivity experiments (Figure 10).
    pub fn head(&self, n: usize) -> Table {
        Self {
            name: format!("{}[..{n}]", self.name),
            schema: self.schema.clone(),
            cols: Arc::new(self.cols.iter().map(|c| c.head(n)).collect()),
            n_rows: n.min(self.n_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn schema() -> Schema {
        Schema::new([("name", AttrType::Str), ("age", AttrType::Num)])
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::str("ann"), Value::num(30.0)],
            vec![Value::str("bob"), Value::num(41.0)],
            vec![Value::Null, Value::num(12.0)],
        ]
    }

    fn t() -> Table {
        Table::new("people", schema(), rows())
    }

    /// Payloads `Value::str` / `Value::num` would coerce, pushed verbatim.
    fn dirty() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Str("  ".into()),
                Value::Num(f64::from_bits(0x7ff8_0000_dead_beef)),
            ],
            vec![Value::Str("x,\"y\"\nz".into()), Value::Num(-0.0)],
            vec![Value::Null, Value::Num(1e300)],
        ]
    }

    /// `Value` equality with numbers compared by bit pattern.
    fn same_bits(got: &Value, want: &Value) -> bool {
        match (got, want) {
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            _ => got == want,
        }
    }

    #[test]
    fn ids_positional() {
        let t = t();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value_ref(1, 0), Some(ValueRef::Str("bob")));
        assert_eq!(t.value_ref(9, 0), None);
        let ids: Vec<TupleId> = t.rows().iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn head_reidentifies() {
        let h = t().head(2);
        assert_eq!(h.len(), 2);
        assert_eq!(h.name(), "people[..2]");
        assert_eq!(h.rows(), t().rows()[..2]);
        assert_eq!(t().head(9).rows(), t().rows());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let schema = Schema::new([("a", AttrType::Str)]);
        Table::new("bad", schema, vec![vec![Value::Null, Value::Null]]);
    }

    #[test]
    fn try_new_reports_arity() {
        let schema = Schema::new([("a", AttrType::Str)]);
        let err = Table::try_new("bad", schema, vec![vec![], vec![Value::Null, Value::Null]])
            .unwrap_err();
        assert_eq!(
            err,
            TableError::ArityMismatch {
                row: 0,
                got: 0,
                expected: 1
            }
        );
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn rows_value_ref_and_scans_return_the_input_bit_for_bit() {
        let schema = Schema::new([("s", AttrType::Str), ("n", AttrType::Num)]);
        for input in [rows(), dirty()] {
            let t = Table::try_new("t", schema.clone(), input.clone()).unwrap();
            let got = t.rows();
            assert_eq!(got.len(), input.len());
            for (i, (tuple, want)) in got.iter().zip(&input).enumerate() {
                assert_eq!(tuple.id as usize, i);
                assert_eq!(tuple.values.len(), want.len());
                for (j, w) in want.iter().enumerate() {
                    assert!(same_bits(&tuple.values[j], w), "rows ({i},{j})");
                    let cell = t.value_ref(tuple.id, j).unwrap().to_value();
                    assert!(same_bits(&cell, w), "value_ref ({i},{j})");
                }
            }
            for attr in 0..2 {
                let mut seen = Vec::new();
                t.for_each_value(attr, |id, v| seen.push((id, v.to_value())));
                assert_eq!(seen.len(), input.len());
                for (i, (id, v)) in seen.iter().enumerate() {
                    assert_eq!(*id as usize, i);
                    assert!(same_bits(v, &input[i][attr]), "for_each_value ({i},{attr})");
                }
                let mut rendered = Vec::new();
                t.for_each_rendered(attr, |id, s| rendered.push((id, s.to_string())));
                let expect: Vec<_> = (0u32..)
                    .zip(&input)
                    .map(|(id, row)| (id, row[attr].render()))
                    .collect();
                assert_eq!(rendered, expect);
            }
            assert_eq!(t.value_ref(99, 0), None);
        }
    }

    #[test]
    fn out_of_range_attribute_visits_nothing() {
        let t = t();
        for attr in [2, 7, usize::MAX] {
            assert_eq!(t.value_ref(0, attr), None);
            t.for_each_value(attr, |id, v| panic!("visited ({id}, {v:?})"));
            t.for_each_rendered(attr, |id, s| panic!("visited ({id}, {s:?})"));
        }
    }
}
