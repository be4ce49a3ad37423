//! # nc-exec
//!
//! A small, exact query executor used to produce **ground-truth cardinalities** for the
//! benchmark workloads and to cross-check the join sampler.
//!
//! The paper's evaluation needs, for every benchmark query, the *true* cardinality (to
//! compute Q-errors) and the row count of the query's unfiltered inner join (to compute the
//! selectivity spectrum of Figure 6).  Rather than a general-purpose SQL engine, this crate
//! implements exactly what acyclic inner-join counting needs:
//!
//! * [`filter::filter_mask`] — evaluate a conjunction of single-table predicates into a row
//!   mask,
//! * [`cardinality::true_cardinality`] — exact COUNT(*) of an acyclic join query via the
//!   same bottom-up dynamic programming the Exact Weight sampler uses (linear in the data
//!   size, no intermediate materialisation),
//! * [`full_join::enumerate_full_join`] — a brute-force enumerator of the augmented full
//!   outer join (with the paper's virtual `⊥` tuples) for *tiny* inputs, used by tests to
//!   validate both the DP and the sampler.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod cardinality;
pub mod filter;
pub mod full_join;

pub use cardinality::{inner_join_count, true_cardinality};
pub use filter::filter_mask;
pub use full_join::{enumerate_full_join, FullJoinRow};
