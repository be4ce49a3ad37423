//! # nc-bench
//!
//! The reproduction harness: one binary per table/figure of the paper's evaluation.  The
//! binaries are `src/bin/<table or figure>_*.rs`, named after the paper's numbering.
//!
//! Every binary reads its scale knobs from environment variables (with defaults sized for
//! a single CPU core) and prints, next to each measured number, the value the paper reports
//! on the real IMDB data, so the *shape* of the result can be checked at a glance.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `NC_TITLE_ROWS` | rows of the synthetic `title` fact table | 800 |
//! | `NC_QUERIES` | queries per workload | 40 |
//! | `NC_TRAIN_TUPLES` | NeuroCard training tuples | 30000 |
//! | `NC_PSAMPLES` | progressive samples per query | 64 |
//! | `NC_SAMPLES_BASELINE` | per-query / per-template samples for IBJS, DeepDB-lite, uniform-sample baselines | 4000 |
//! | `NC_SAMPLER_THREADS` | NeuroCard sampler pool worker threads | 2 |
//! | `NC_SEED` | global seed | 42 |
//!
//! A set variable that is not a whole number is an error naming it, not its default.
//!
//! Passing `--smoke` on the command line overrides everything with the tiny test budgets;
//! CI uses it to execute the key binaries end-to-end rather than just compiling them.  Any
//! other argument is an error.

pub mod harness;

pub use harness::{BenchEnv, EvalResult, HarnessConfig};
