//! # nc-bench
//!
//! The reproduction harness: every table and figure of the paper's evaluation (§7) as one
//! function, run by one binary, `reproduce`:
//!
//! ```text
//! reproduce [--smoke] [table1 … table6 figure6 figure7a … figure7d]
//! ```
//!
//! With no name it runs all eleven experiments in [`EXPERIMENTS`] order; otherwise the ones
//! named, in the order named.  An unknown name is an error listing the valid ones.
//!
//! Every experiment reads its scale knobs from environment variables (with defaults sized
//! for a single CPU core) and prints, next to its measured numbers, the values the paper
//! reports on the real IMDB data, so the *shape* of the result can be checked at a glance.
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
//! | `NC_SAVE_ARTIFACT` | file Tables 2–4 write their trained model to (needs exactly one experiment named) | unset |
//!
//! A set variable that is not a whole number is an error naming it, not its default.
//!
//! Passing `--smoke` overrides every knob but `NC_SAVE_ARTIFACT` with the tiny test
//! budgets; CI uses it to execute every experiment end-to-end rather than just compiling
//! it.

mod figures;
pub mod harness;
mod tables;

pub use harness::{BenchEnv, EvalResult, Experiment, HarnessConfig};

/// Every experiment `reproduce` knows, in the order it runs them when none is named.
pub const EXPERIMENTS: [Experiment; 11] = [
    Experiment::new("table1", tables::table1),
    Experiment::new("table2", tables::table2),
    Experiment::new("table3", tables::table3),
    Experiment::new("table4", tables::table4),
    Experiment::new("table5", tables::table5),
    Experiment::new("table6", tables::table6),
    Experiment::new("figure6", figures::figure6),
    Experiment::new("figure7a", figures::figure7a),
    Experiment::new("figure7b", figures::figure7b),
    Experiment::new("figure7c", figures::figure7c),
    Experiment::new("figure7d", figures::figure7d),
];
