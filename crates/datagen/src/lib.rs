//! # nc-datagen
//!
//! Deterministic synthetic datasets standing in for the IMDB database used by the paper.
//!
//! The paper evaluates on the real IMDB dataset (JOB-light: 6 tables, JOB-M: 16 tables).
//! That dataset is not available offline, so this crate generates *synthetic* databases with
//! the same schemas and — crucially — the same statistical character that makes IMDB a good
//! cardinality-estimation testbed (Leis et al. 2015):
//!
//! * **skewed join fanouts** — the number of cast entries / keywords / info rows per movie
//!   follows a Zipf-like distribution conditioned on the movie's attributes,
//! * **strong inter-column and inter-table correlations** — e.g. `production_year`
//!   correlates with `kind_id`; a child's `role_id` / `company_type_id` / `info_type_id`
//!   distribution depends on the parent movie's kind and year, so independence-based
//!   estimators systematically mis-estimate,
//! * **partial referential integrity** — a small fraction of child rows reference movie ids
//!   absent from `title`, and some movies have no children, so full-outer-join NULL paths
//!   are exercised,
//! * **high-cardinality columns** — id-like columns with domains far larger than what an
//!   embedding-per-value model could store without the paper's column factorization.
//!
//! All generation is seeded and deterministic: the same [`DataGenConfig`] always produces
//! the same database, so experiments are reproducible.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod config;
pub mod distributions;
pub mod imdb_light;
pub mod imdb_m;
pub mod partition;

pub use config::DataGenConfig;
pub use imdb_light::{job_light_database, job_light_schema, JOB_LIGHT_TABLES};
pub use imdb_m::{job_m_database, job_m_schema, JOB_M_TABLES};
pub use partition::partitioned_snapshots;
