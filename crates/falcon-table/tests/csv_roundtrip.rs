//! Property tests: a table hands back exactly the rows it was built
//! from through every accessor, and a table survives a CSV write/read
//! round trip with every field classified like `Value::parse` — over
//! random dirty tables (nulls, quotes, commas, unicode, embedded
//! newlines, empty and whitespace fields).

use falcon_table::{csv, AttrType, Schema, Table, Value};
use proptest::prelude::*;

/// Dirty cells: commas, quotes, embedded newlines and CRs, unicode,
/// whitespace-only strings, fractional and integral numbers, nulls.
fn dirty_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => "[a-zA-Z0-9 ,\"'\n\réüßλ]{0,16}".prop_map(Value::str),
        1 => Just(Value::Str("  ".to_string())),
        2 => (-1.0e6..1.0e6f64).prop_map(Value::Num),
        1 => (-1000i64..1000).prop_map(|x| Value::Num(x as f64)),
        1 => Just(Value::Null),
    ]
}

fn dirty_schema() -> Schema {
    Schema::new([
        ("alpha", AttrType::Str),
        ("beta", AttrType::Str),
        ("gamma", AttrType::Str),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rows in, rows out: the materialized row view, the per-cell views
    /// and the rendered scans all return the values the table was built
    /// from, verbatim.
    #[test]
    fn table_returns_the_rows_it_was_built_from(
        rows in proptest::collection::vec(
            proptest::collection::vec(dirty_value_strategy(), 3..=3),
            0..20,
        ),
    ) {
        let table = Table::try_new("t", dirty_schema(), rows.clone()).unwrap();
        prop_assert_eq!(table.len(), rows.len());

        let got: Vec<Vec<Value>> = table.rows().into_iter().map(|t| t.values).collect();
        prop_assert_eq!(&got, &rows);

        for (rid, row) in rows.iter().enumerate() {
            for (idx, expect) in row.iter().enumerate() {
                let cell = table.value_ref(rid as u32, idx).unwrap().to_value();
                prop_assert_eq!(&cell, expect);
            }
        }

        for idx in 0..3 {
            let mut rendered = Vec::new();
            table.for_each_rendered(idx, |id, s| rendered.push((id, s.to_string())));
            let expect: Vec<_> = rows
                .iter()
                .enumerate()
                .map(|(rid, row)| (rid as u32, row[idx].render()))
                .collect();
            prop_assert_eq!(rendered, expect);
        }
    }

    /// Table → CSV → table: every field comes back as `Value::parse` of
    /// the text that was written ("007" and "7" are the same CSV value)
    /// — the streaming reader's unescaping (quoted fields with embedded
    /// newlines included) and its `push_raw` classification, against
    /// the definition.
    #[test]
    fn reader_classifies_fields_like_value_parse(
        rows in proptest::collection::vec(
            proptest::collection::vec(dirty_value_strategy(), 3..=3),
            0..20,
        ),
    ) {
        let table = Table::try_new("t", dirty_schema(), rows.clone()).unwrap();
        let mut buf = Vec::new();
        csv::write_table(&table, &mut buf).unwrap();
        let back = csv::read_table("t2", buf.as_slice()).unwrap();

        let got: Vec<Vec<Value>> = back.rows().into_iter().map(|t| t.values).collect();
        let want: Vec<Vec<Value>> = rows
            .iter()
            .map(|row| row.iter().map(|v| Value::parse(&v.render())).collect())
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// Hostile input: any bytes at all, weighted towards the reader's
/// structural characters so headers repeat names, rows change arity and
/// quotes stay open.
fn hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let structural = (0usize..7).prop_map(|i| b"a,\n\"\r1b"[i]);
    proptest::collection::vec(prop_oneof![2 => any::<u8>(), 5 => structural], 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reader returns a table or an error on arbitrary bytes, never
    /// a panic.
    #[test]
    fn read_table_never_panics_on_arbitrary_bytes(bytes in hostile_bytes()) {
        let _ = csv::read_table("t", bytes.as_slice());
    }
}
