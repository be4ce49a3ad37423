//! # nc-baselines
//!
//! The cardinality estimators NeuroCard is compared against in the paper's evaluation
//! (§7.2), re-implemented over the same storage/schema substrate so every method answers
//! the exact same [`nc_schema::Query`] objects:
//!
//! | Paper baseline | Module | Notes |
//! |---|---|---|
//! | Postgres v12 (1-D histograms + heuristics) | [`postgres_like`] | equi-depth histograms, attribute-value independence, join-uniformity formula |
//! | IBJS (Leis et al. 2017) | [`ibjs`] | index-based join sampling with per-table filters applied during the walk |
//! | MSCN (Kipf et al. 2019) | [`mscn`] | supervised query-driven regressor trained on labelled queries (simplified featurisation) |
//! | DeepDB (Hilprecht et al. 2020) | [`deepdb_lite`] | per-(root, child) table-pair densities combined under conditional independence |
//! | Uniform join samples (ablation E) | [`sampling`] | the Exact Weight sampler used directly as an estimator, no model |
//! | One AR model per table (ablation D) | [`independence`] | single-table NeuroCard models combined under independence |
//!
//! Every estimator implements [`CardinalityEstimator`], so the benchmark harness can treat
//! them uniformly.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod deepdb_lite;
pub mod estimator;
pub mod ibjs;
pub mod independence;
pub mod mscn;
pub mod postgres_like;
pub mod sampling;

pub use deepdb_lite::DeepDbLite;
pub use estimator::CardinalityEstimator;
pub use ibjs::IbjsEstimator;
pub use independence::PerTableArEstimator;
pub use mscn::{MscnConfig, MscnEstimator};
pub use postgres_like::PostgresLikeEstimator;
pub use sampling::UniformJoinSampleEstimator;
