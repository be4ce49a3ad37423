//! # nc-workloads
//!
//! The benchmark workloads of the paper's evaluation (§7.1) and the metrics used to score
//! them:
//!
//! * [`job_light`] — the 70-query JOB-light benchmark shape: 2–5 table star joins over the
//!   6-table schema with equality filters plus a range filter on `production_year`,
//! * [`job_light_ranges`] — the harder synthesized benchmark: many more content columns are
//!   filtered, with 3–6 mixed equality/range predicates per query, literals drawn from
//!   actual inner-join tuples so every query has a non-empty answer,
//! * [`job_m`] — multi-key joins over the 16-table JOB-M schema, 2–11 tables per query,
//! * [`qerror`] — the Q-error metric and its quantile summaries,
//! * [`selectivity`] — query selectivity relative to the unfiltered inner join (Figure 6),
//! * [`report`] — fixed-width console tables and JSON output for the reproduction harness.
//!
//! All generators are deterministic given a seed.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod generator;
pub mod job_light;
pub mod job_light_ranges;
pub mod job_m;
pub mod qerror;
pub mod report;
pub mod selectivity;

pub use job_light::job_light_queries;
pub use job_light_ranges::job_light_ranges_queries;
pub use job_m::job_m_queries;
pub use qerror::{q_error, ErrorSummary};
pub use report::{render_error_table, ErrorTableRow};
pub use selectivity::query_selectivity;
