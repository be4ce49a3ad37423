//! # nc-nn
//!
//! A small, from-scratch neural-network substrate sufficient to implement the deep
//! autoregressive density model NeuroCard relies on (paper §3.2, §3.4).
//!
//! The original system uses PyTorch on a GPU; neither is available in this reproduction, so
//! this crate provides the pieces the estimator actually needs, in Rust with no numeric
//! dependency:
//!
//! * [`tensor`] — dense `f32` matrices, the handful of scalar, register-blocked BLAS-like
//!   kernels inference and training run on (each bit-equal to the naive loop it stands in
//!   for: one ascending chain of additions per output element), and MADE's connectivity as
//!   a rule over unit degrees ([`tensor::MadeMask`], [`tensor::LiveUnits`]),
//! * [`kernel`] — three inference kernels re-exported under the benchmark's old path,
//! * [`layers`] — trainable parameters, plain and **masked** linear layers (the masks —
//!   that rule, never a matrix — are what enforce the autoregressive property), per-column
//!   embeddings with a dedicated MASK token for wildcard skipping, ReLU,
//! * [`loss`] — per-column softmax cross-entropy,
//! * [`optim`] — Adam,
//! * [`made`] — the ResMADE architecture: per-column embeddings → masked input layer →
//!   masked residual blocks → per-column output heads tied to the embedding matrices.
//!   A token batch is one flat row-major `batch × num_columns` `[u32]` everywhere:
//!   [`ResMade::apply_wildcard_skipping`] and [`ResMade::forward_backward`] are the
//!   maximum-likelihood training step, every buffer of which lives in a caller-owned
//!   [`TrainScratch`]; [`ResMade::conditional_probs_into`] /
//!   [`ResMade::conditional_probs_step`] read `p(xᵢ | x₍<ᵢ₎)` for progressive sampling
//!   out of an [`InferenceScratch`],
//! * [`serialize`] / [`artifact`] — flat binary save/load of model parameters and the
//!   checksummed section container model artifacts are written in.
//!
//! Everything is deterministic given a seed.  A training step runs in lanes, one per core
//! the process may run on: scoped threads of [`ResMade::forward_backward`] that own
//! disjoint output elements of every product, so the trained weights are the same bits at
//! any lane count, and no thread outlives the call (the model holds no scratch — it is
//! what serving cores clone — so the trainer brings a [`TrainScratch`]).  An inference
//! step wide enough (two lanes of at least 64 rows) runs in lanes the same way, the lanes
//! taking blocks of the batch's rows, so its probabilities are the same bits at any lane
//! count; narrower steps start no thread.  Callers that want many estimates in parallel
//! run one [`InferenceScratch`] per thread over a shared model.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod artifact;
pub mod kernel;
pub mod layers;
pub mod loss;
pub mod made;
pub mod optim;
pub mod serialize;
pub mod tensor;

pub use artifact::{ArtifactError, ArtifactReader, ArtifactWriter};
pub use layers::{relu, relu_backward, Embedding, Linear, MaskedLinear, Param};
pub use loss::softmax_cross_entropy;
pub use made::{InferenceScratch, MadeConfig, ResMade, TrainScratch};
pub use optim::{Adam, AdamConfig};
pub use tensor::Matrix;
