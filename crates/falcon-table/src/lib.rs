//! Tabular data model for Falcon: typed values, schemas, tuples, tables,
//! attribute profiling (the "type and characteristics" analysis of Section 8)
//! and a small CSV reader/writer.
//!
//! Tables are in-memory struct-of-arrays column stores (string arenas,
//! dense numeric vectors, validity bitmaps; see [`mod@column`]). Falcon's
//! input tables in the paper are HDFS files; here a [`Table`] plays that
//! role and the dataflow engine splits it into partitions for mappers.

pub mod column;
pub mod csv;
pub mod profile;
pub mod schema;
pub mod table;
pub mod value;

pub use column::{Bitmap, Column, ColumnBuilder, ValueRef};
pub use profile::{AttrCharacteristic, AttrProfile, TableProfile};
pub use schema::{AttrType, Attribute, Schema};
pub use table::{Table, TableError, Tuple, TupleId};
pub use value::Value;

/// A pair of tuple ids, `(a_id, b_id)`, identifying one candidate match
/// between table A and table B. This is the unit that flows through
/// sampling, blocking, feature generation and matching.
pub type IdPair = (TupleId, TupleId);
