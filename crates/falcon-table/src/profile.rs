//! Attribute profiling: the "scan through the tables to determine the
//! characteristics of every attribute" step of Section 8. Feature generation
//! (Figure 5) keys off the [`AttrCharacteristic`] inferred here.

use crate::schema::AttrType;
use crate::table::Table;
use falcon_textsim::tokenize::word_len;

/// Attribute characteristic rows of Figure 5, ordered from most to least
/// specific. When two corresponded attributes differ, the paper picks "the
/// characteristic that is at a lower row in Figure 5" — i.e. the larger
/// variant in this ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrCharacteristic {
    /// Single-word strings (names, zip codes...).
    SingleWordString,
    /// 2-5 words (brand names, person names...).
    ShortString,
    /// 6-10 words (street addresses, short descriptions...).
    MediumString,
    /// 11+ words (long descriptions, reviews...).
    LongString,
    /// Numeric (age, price, weight...).
    Numeric,
}

impl AttrCharacteristic {
    /// Classify from a type and the average word count of non-null values.
    pub fn from_stats(ty: AttrType, avg_words: f64) -> Self {
        match ty {
            AttrType::Num => AttrCharacteristic::Numeric,
            AttrType::Str => {
                if avg_words <= 1.2 {
                    AttrCharacteristic::SingleWordString
                } else if avg_words <= 5.0 {
                    AttrCharacteristic::ShortString
                } else if avg_words <= 10.0 {
                    AttrCharacteristic::MediumString
                } else {
                    AttrCharacteristic::LongString
                }
            }
        }
    }

    /// Figure 5 tie-breaking: the "lower row" (more general) of the two.
    pub fn lower_row(self, other: Self) -> Self {
        self.max(other)
    }
}

/// Profile of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrProfile {
    /// Attribute name.
    pub name: String,
    /// Declared/inferred type.
    pub ty: AttrType,
    /// Figure 5 characteristic.
    pub characteristic: AttrCharacteristic,
    /// Fraction of non-null values.
    pub fill_rate: f64,
    /// Average word count among non-null string values.
    pub avg_words: f64,
}

/// Profile of a whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Per-attribute profiles, aligned with the table schema.
    pub attrs: Vec<AttrProfile>,
    /// Number of rows scanned.
    pub rows: usize,
}

impl TableProfile {
    /// Indices of the attributes profiled as strings.
    pub fn string_attrs(&self) -> Vec<usize> {
        let strings = |(i, p): (usize, &AttrProfile)| (p.ty == AttrType::Str).then_some(i);
        self.attrs.iter().enumerate().filter_map(strings).collect()
    }

    /// Scan a table and profile every attribute. For string attributes the
    /// type may be *narrowed* to numeric when ≥95% of non-null values parse
    /// as numbers (dirty numeric columns are common in EM inputs).
    pub fn scan(table: &Table) -> Self {
        let arity = table.schema().arity();
        let mut non_null = vec![0usize; arity];
        let mut word_sums = vec![0usize; arity];
        let mut numeric_like = vec![0usize; arity];
        let mut scratch = String::new();
        for i in 0..arity {
            // Column-at-a-time: one linear sweep per attribute.
            table.for_each_value(i, |_, v| {
                if v.is_null() {
                    return;
                }
                non_null[i] += 1;
                if v.as_num().is_some() {
                    numeric_like[i] += 1;
                }
                scratch.clear();
                v.render_into(&mut scratch);
                word_sums[i] += word_len(&scratch);
            });
        }
        let rows = table.len();
        let attrs = (0..arity)
            .map(|i| {
                let attr = table.schema().attr(i);
                let nn = non_null[i];
                let avg_words = if nn > 0 {
                    word_sums[i] as f64 / nn as f64
                } else {
                    0.0
                };
                let ty = if attr.ty == AttrType::Num
                    || (nn > 0 && numeric_like[i] as f64 >= 0.95 * nn as f64)
                {
                    AttrType::Num
                } else {
                    AttrType::Str
                };
                AttrProfile {
                    name: attr.name.clone(),
                    ty,
                    characteristic: AttrCharacteristic::from_stats(ty, avg_words),
                    fill_rate: if rows > 0 {
                        nn as f64 / rows as f64
                    } else {
                        0.0
                    },
                    avg_words,
                }
            })
            .collect();
        Self { attrs, rows }
    }

    /// Profile of an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&AttrProfile> {
        self.attrs.iter().find(|a| a.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

    fn table() -> Table {
        let schema = Schema::new([
            ("zip", AttrType::Str),
            ("title", AttrType::Str),
            ("descr", AttrType::Str),
            ("price", AttrType::Num),
        ]);
        let rows = (0..10).map(|i| {
            vec![
                Value::str(format!("5370{i}")),
                Value::str("quick brown fox jumps"),
                Value::str(
                    "a very long descriptive paragraph about a product with \
                     many many words in it indeed",
                ),
                Value::num(10.0 + i as f64),
            ]
        });
        Table::new("t", schema, rows)
    }

    #[test]
    fn characteristics_inferred() {
        let p = TableProfile::scan(&table());
        // zip is numeric-looking strings -> narrowed to numeric.
        assert_eq!(p.attr("zip").unwrap().ty, AttrType::Num);
        assert_eq!(
            p.attr("title").unwrap().characteristic,
            AttrCharacteristic::ShortString
        );
        assert_eq!(
            p.attr("descr").unwrap().characteristic,
            AttrCharacteristic::LongString
        );
        assert_eq!(
            p.attr("price").unwrap().characteristic,
            AttrCharacteristic::Numeric
        );
    }

    #[test]
    fn fill_rate_counts_nulls() {
        let schema = Schema::new([("a", AttrType::Str)]);
        let t = Table::new(
            "t",
            schema,
            vec![
                vec![Value::str("x")],
                vec![Value::Null],
                vec![Value::str("y z")],
            ],
        );
        let p = TableProfile::scan(&t);
        assert!((p.attr("a").unwrap().fill_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lower_row_picks_more_general() {
        use AttrCharacteristic::*;
        assert_eq!(SingleWordString.lower_row(MediumString), MediumString);
        assert_eq!(LongString.lower_row(ShortString), LongString);
        assert_eq!(Numeric.lower_row(SingleWordString), Numeric);
    }

    #[test]
    fn single_word_detection() {
        assert_eq!(
            AttrCharacteristic::from_stats(AttrType::Str, 1.0),
            AttrCharacteristic::SingleWordString
        );
        assert_eq!(
            AttrCharacteristic::from_stats(AttrType::Str, 7.0),
            AttrCharacteristic::MediumString
        );
    }
}
