//! # nc-sampler
//!
//! The unbiased full-outer-join sampler of the paper (§4): the component that lets
//! NeuroCard learn the distribution of a join **without ever computing the join**.
//!
//! The requirements (paper §4, §4.2) are strict: every tuple of the (augmented) full outer
//! join `J` must be drawn i.i.d. with probability exactly `1/|J|`; anything weaker (IBJS,
//! Wander Join, reservoir sampling) biases the learned distribution.  NeuroCard implements
//! the *Exact Weight* algorithm of Zhao et al. (2018), adapted to full outer joins via
//! virtual `⊥` tuples:
//!
//! 1. [`join_counts`] — a bottom-up dynamic program computes, for every base tuple, the
//!    number of full-join rows it participates in within its subtree (`O(Σ|Tᵢ|)` time),
//! 2. [`sampler`] — a top-down pass samples one table at a time proportionally to those
//!    counts and gathers content columns through the storage indexes,
//! 3. [`wide`] — sampled assignments are materialised into "wide tuples" over the full-join
//!    column layout, including the paper's two kinds of *virtual columns*: per-table
//!    indicators `1_T` and per-join-key fanouts `F_{T.k}` (§6),
//! 4. [`pool`] — sampling is embarrassingly parallel; a persistent worker pool keeps
//!    long-lived threads fed over channels so the training loop can prefetch batches
//!    (Figure 7b),
//! 5. [`seed`] — deterministic SplitMix64 derivation of per-`(batch, worker)` RNG streams,
//! 6. [`biased`] — an intentionally *biased* IBJS-style sampler used only by the ablation
//!    study (Table 5, row A).

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod biased;
pub mod join_counts;
pub mod pool;
pub mod sampler;
pub mod seed;
pub mod wide;

pub use biased::BiasedSampler;
pub use join_counts::JoinCounts;
pub use pool::{BatchEncoder, BatchTicket, PoolBatch, SamplerPool};
pub use sampler::{JoinSample, JoinSampler};
pub use seed::derive_stream_seed;
pub use wide::{ColumnKind, WideColumn, WideLayout};
