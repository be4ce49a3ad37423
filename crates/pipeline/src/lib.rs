//! # nc-pipeline
//!
//! The continuous-retraining control plane: the loop that keeps a served NeuroCard
//! model honest as its underlying data changes.  NeuroCard's §6.6 update experiment
//! (retrain-on-append for the DMV table) is a one-shot measurement; this crate closes
//! the loop operationally, the way ByteCard and Scardina (PAPERS.md) argue a learned
//! estimator must be deployed:
//!
//! 1. **Ingest** ([`ingest`]): a seeded update stream appends row batches to the live
//!    [`nc_storage::Database`] snapshot; per-column rolling statistics ([`stats`])
//!    track distribution movement.
//! 2. **Detect** ([`drift`]): each step, the incumbent model is scored on a rolling
//!    oracle sample (generated workload + exact [`nc_exec::true_cardinality`]
//!    answers).  Drift fires on q-error regression against the baseline recorded at
//!    the last (re)train, or on raw distribution shift — both thresholds typed in
//!    [`PipelineConfig`], both decisions pure functions of the seeded stream.
//! 3. **Retrain** ([`retrain`]): a candidate is trained on the drifted snapshot on a
//!    background thread (serving threads never block on training), emitting a
//!    [`neurocard::ModelArtifact`].
//! 4. **Shadow-deploy** ([`shadow`]): the candidate registers under a shadow name no
//!    [`nc_serve::ModelSelector::Latest`] ever routes to, and a configurable fraction
//!    of traffic is mirrored to it through a second lease; per-query q-error (and
//!    report-only latency) are compared against the incumbent.
//! 5. **Promote** ([`pipeline`]): only when the candidate beats the incumbent by the
//!    configured margin over enough mirrored samples does the controller swap it in —
//!    write-ahead journaling the promotion ([`nc_serve::JournalEvent::promote`]) and
//!    stamping the decision into the new artifact's manifest
//!    ([`neurocard::PromotionRecord`]), so a `kill -9` at any point restores a
//!    consistent registry and the promoted artifact explains itself.
//!
//! **Determinism:** every decision (drift verdicts, retrain seeds, mirror draws,
//! promotion verdicts) derives from `(PipelineConfig::seed, step)` via the workspace
//! SplitMix64 streams.  Replaying a pipeline at the same seed reproduces bit-identical
//! [`StepReport`] digests; wall-clock only ever lands in report-only latency fields.
//! All pacing waits go through [`nc_serve::FaultInjector::sleep`], the injectable
//! clock, so chaos schedules stay replayable too.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

pub mod config;
pub mod demo;
pub mod drift;
pub mod ingest;
pub mod pipeline;
pub mod retrain;
pub mod shadow;
pub mod stats;

pub use config::PipelineConfig;
pub use demo::{demo_env, DemoEnv, DriftingSource};
pub use drift::{oracle_workload, DriftDetector, DriftReport, OracleCase};
pub use ingest::{apply_batch, UpdateBatch, UpdateSource};
pub use pipeline::{
    Pipeline, PipelineCounters, PipelineError, PipelineEvent, PipelineReport, StepReport,
};
pub use retrain::{retrain_in_background, RetrainOutcome};
pub use shadow::{shadow_compare, ShadowReport};
pub use stats::{profile_database, shift_metric, ColumnProfile};
