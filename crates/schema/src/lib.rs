//! # nc-schema
//!
//! The join schema and query model of the NeuroCard reproduction.
//!
//! The paper (§2, §3.3) models a database's *join schema* as a graph whose vertices are
//! tables and whose edges connect joinable table pairs via equi-join keys.  Both the schema
//! and the queries submitted to the estimator are assumed **acyclic**, so a schema is a
//! tree rooted at a designated table, and a query is a connected subtree plus a conjunction
//! of single-table filters.
//!
//! This crate provides:
//!
//! * [`JoinSchema`] — the validated join tree (multi-key joins supported: a table pair may
//!   be connected by several key pairs, and a table may join different neighbours on
//!   different columns),
//! * [`Predicate`] / [`CompareOp`] — single-column filters (`=`, `<`, `<=`, `>`, `>=`, `IN`),
//! * [`Query`] — a join subgraph plus filters,
//! * [`subsetting`] — the schema-subsetting helpers of §6: which tables a query omits and
//!   which unique join key each omitted table must be downscaled by; and
//!   [`subset_schema`], the sub-schema a connected table subset induces.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod join_schema;
pub mod predicate;
pub mod query;
pub mod subsetting;

pub use join_schema::{ColumnRef, JoinEdge, JoinSchema, SchemaError};
pub use predicate::{CompareOp, Predicate};
pub use query::{Query, TableFilter};
pub use subsetting::{subset_schema, SubsetPlan};
