//! # nc-storage
//!
//! Columnar storage substrate used by the NeuroCard reproduction.
//!
//! The paper assumes an existing DBMS storage layer that provides:
//!
//! * base tables with typed columns (integers and strings, both nullable),
//! * per-column **dictionaries** mapping raw values to dense integer codes (the
//!   autoregressive model and the histogram baselines both operate on codes),
//! * **join-key indexes** (`value -> row ids`) used by the join sampler to gather
//!   content columns and by the IBJS baseline to walk joins,
//! * a catalog of tables.
//!
//! This crate implements all of that from scratch.  Tables are immutable once built
//! (the update experiments of the paper append whole partitions, which is modelled by
//! building a new [`Table`] and re-registering it in the [`Database`]).
//!
//! ```
//! use nc_storage::{TableBuilder, Value, Database};
//!
//! let mut b = TableBuilder::new("t", &["id", "name"]);
//! b.push_row(vec![Value::Int(1), Value::from("alice")]);
//! b.push_row(vec![Value::Int(2), Value::from("bob")]);
//! let table = b.finish();
//! assert_eq!(table.num_rows(), 2);
//!
//! let mut db = Database::new();
//! db.add_table(table);
//! assert_eq!(db.table("t").unwrap().num_rows(), 2);
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod binio;
pub mod builder;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod dict;
pub mod index;
pub mod table;
pub mod value;

pub use binio::{BinError, BinReader};
pub use builder::TableBuilder;
pub use catalog::Database;
pub use column::{Column, ColumnData};
pub use csv::{read_csv_str, write_csv_string};
pub use dict::ColumnDictionary;
pub use index::KeyIndex;
pub use table::Table;
pub use value::Value;

/// Row identifier within a single table.
pub type RowId = u32;
