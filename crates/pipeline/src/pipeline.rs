//! The promotion controller: one loop closing ingest → drift → retrain → shadow →
//! promote.
//!
//! [`Pipeline::step`] advances the world by one batch and makes every decision for
//! it.  The ordering inside a promotion is the crash-consistency contract:
//!
//! 1. the candidate artifact is written and fsynced to disk,
//! 2. the promotion is appended (durably) to the registry journal —
//!    [`nc_serve::JournalEvent::promote`], which folds like a publish,
//! 3. only then does [`nc_serve::ModelRegistry::swap`] make the candidate current.
//!
//! A `kill -9` between any two of these restores consistently: before (2) the journal
//! still names the old incumbent; after (2) it names the promoted version, whose
//! artifact — written in (1) — is on disk and carries the [`neurocard::PromotionRecord`]
//! explaining the decision.  The journal is never behind the served state.
//!
//! Determinism: a [`StepReport`]'s [`StepReport::digest`] covers every decision input
//! and output, and excludes the report-only wall-clock fields; two runs of the same
//! config produce equal digest sequences, bit for bit.

use std::path::Path;
use std::sync::Arc;

use nc_sampler::seed::derive_stream_seed;
use nc_schema::JoinSchema;
use nc_serve::{
    JournalError, JournalEvent, ModelKey, ModelRegistry, ModelSelector, ServeError, SharedJournal,
};
use nc_storage::Database;
use neurocard::infer::SamplerScratch;
use neurocard::{schema_fingerprint, ModelArtifact, Precision, PromotionRecord};
use serde::Serialize;

use crate::config::PipelineConfig;
use crate::drift::{oracle_workload, DriftDetector};
use crate::ingest::{apply_batch, UpdateSource};
use crate::retrain::retrain_in_background;
use crate::shadow::{shadow_compare, ShadowReport};

/// Why the pipeline stopped.
#[derive(Debug)]
pub enum PipelineError {
    /// A registry operation failed.
    Serve(ServeError),
    /// A journal append failed (the mutation it guarded was not applied).
    Journal(JournalError),
    /// A candidate artifact failed to load back or to serialise.
    Artifact(String),
    /// Artifact file I/O failed.
    Io(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Serve(e) => write!(f, "registry error: {e}"),
            PipelineError::Journal(e) => write!(f, "journal error: {e}"),
            PipelineError::Artifact(msg) => write!(f, "artifact error: {msg}"),
            PipelineError::Io(msg) => write!(f, "artifact i/o error: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ServeError> for PipelineError {
    fn from(e: ServeError) -> Self {
        PipelineError::Serve(e)
    }
}

impl From<JournalError> for PipelineError {
    fn from(e: JournalError) -> Self {
        PipelineError::Journal(e)
    }
}

/// Control-plane notifications, in decision order — the serving binary renders these
/// as progress markers (the library itself never prints).
#[derive(Debug, Clone)]
pub enum PipelineEvent {
    /// A step began.
    StepStarted(u64),
    /// The drift check concluded (fired or not).
    DriftChecked {
        /// The step.
        step: u64,
        /// Incumbent median q-error on this step's oracle.
        median_qerr: f64,
        /// Distribution shift against the last-retrain profile.
        shift: f64,
        /// Whether any signal fired.
        fired: bool,
    },
    /// A retrain attempt aborted (injected fault or trainer panic).
    RetrainAborted(String),
    /// The shadow comparison concluded.
    ShadowCompared(ShadowReport),
    /// The promotion was durably journaled; the registry swap happens next.
    PromotionJournaled(ModelKey),
    /// The swap completed; the candidate is now current.
    Promoted(ModelKey),
    /// The candidate lost (or lacked samples) and was retired.
    CandidateRetired(String),
}

/// Monotonic totals over a pipeline's life.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PipelineCounters {
    /// Steps executed.
    pub steps: u64,
    /// Rows ingested from the update stream.
    pub ingested_rows: u64,
    /// Drift checks that fired.
    pub drift_detections: u64,
    /// Retrains that produced a candidate.
    pub retrains: u64,
    /// Retrain attempts aborted (fault or panic).
    pub retrain_aborts: u64,
    /// Shadow samples compared (both sides answered).
    pub shadow_comparisons: u64,
    /// Mirrored samples lost to `pipeline.shadow-drop`.
    pub shadow_drops: u64,
    /// Candidates promoted.
    pub promotions: u64,
    /// Candidates retired.
    pub retirements: u64,
    /// Non-finite / negative estimates seen anywhere (must stay 0).
    pub wrong_estimates: u64,
    /// Oracle queries the incumbent failed to answer.
    pub oracle_errors: u64,
}

/// Everything one step saw and decided.
#[derive(Debug, Clone, Serialize)]
pub struct StepReport {
    /// Step index (1-based).
    pub step: u64,
    /// Rows this step's batch appended.
    pub ingested_rows: u64,
    /// Total rows across all tables after ingest.
    pub total_rows: u64,
    /// Incumbent median q-error on this step's oracle sample.
    pub median_qerr: f64,
    /// Baseline median recorded at the last (re)train.
    pub baseline_qerr: f64,
    /// Distribution-shift metric.
    pub shift: f64,
    /// Oracle queries the incumbent could not answer.
    pub oracle_errors: u64,
    /// Whether drift fired this step.
    pub drift_fired: bool,
    /// Why the retrain aborted, when it did.
    pub retrain_aborted: Option<String>,
    /// The shadow comparison, when one ran.
    pub shadow: Option<ShadowReport>,
    /// The promoted key (rendered), when the candidate won.
    pub promoted: Option<String>,
    /// Why the candidate was retired, when it lost.
    pub retired: Option<String>,
    /// Wall-clock microseconds the retrain took (report-only).
    pub retrain_wall_us: u64,
}

impl StepReport {
    /// A replay digest over the *decision* fields: f64s as raw bits, wall-clock and
    /// latency fields excluded.  Two runs at the same config must produce equal
    /// digest sequences.
    pub fn digest(&self) -> String {
        let shadow = match &self.shadow {
            Some(s) => format!(
                "m{}d{}c{}i{:016x}g{:016x}w{}",
                s.mirrored,
                s.dropped,
                s.compared,
                s.incumbent_median_qerr.to_bits(),
                s.candidate_median_qerr.to_bits(),
                s.wrong_estimates
            ),
            None => "-".to_string(),
        };
        format!(
            "s{}:r{}:t{}:q{:016x}:b{:016x}:h{:016x}:e{}:f{}:a{:?}:S{}:P{:?}:R{:?}",
            self.step,
            self.ingested_rows,
            self.total_rows,
            self.median_qerr.to_bits(),
            self.baseline_qerr.to_bits(),
            self.shift.to_bits(),
            self.oracle_errors,
            self.drift_fired,
            self.retrain_aborted,
            shadow,
            self.promoted,
            self.retired
        )
    }
}

/// A whole run: per-step reports plus the counters.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// Per-step reports, in order.
    pub steps: Vec<StepReport>,
    /// Totals.
    pub counters: PipelineCounters,
}

impl PipelineReport {
    /// The concatenated per-step [`StepReport::digest`] (the replay invariant).
    pub fn digest(&self) -> String {
        let parts: Vec<String> = self.steps.iter().map(|s| s.digest()).collect();
        parts.join("\n")
    }
}

/// The control plane for one served model name.
pub struct Pipeline<S: UpdateSource> {
    config: PipelineConfig,
    registry: Arc<ModelRegistry>,
    journal: Option<SharedJournal>,
    schema: Arc<JoinSchema>,
    db: Arc<Database>,
    source: S,
    detector: DriftDetector,
    scratch: SamplerScratch,
    fingerprint: u64,
    step: u64,
    counters: PipelineCounters,
}

fn write_artifact(path: &Path, artifact: &ModelArtifact) -> Result<(), PipelineError> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| PipelineError::Io(format!("create {}: {e}", parent.display())))?;
        }
    }
    let mut file = std::fs::File::create(path)
        .map_err(|e| PipelineError::Io(format!("create {}: {e}", path.display())))?;
    file.write_all(&artifact.to_bytes())
        .map_err(|e| PipelineError::Io(format!("write {}: {e}", path.display())))?;
    // Durable before anything (journal, registry) references the path.
    file.sync_all()
        .map_err(|e| PipelineError::Io(format!("fsync {}: {e}", path.display())))?;
    Ok(())
}

fn total_rows(db: &Database) -> u64 {
    db.tables().map(|t| t.num_rows() as u64).sum()
}

impl<S: UpdateSource> Pipeline<S> {
    /// Builds the control plane over an already-registered incumbent.
    ///
    /// `registry` must hold `config.model_name` for `schema`'s fingerprint (the
    /// serving binary registers v1 before starting the pipeline).  The incumbent is
    /// scored on the step-0 oracle to seed the drift baseline, and the journal — when
    /// present — gets the configured compaction threshold installed.
    pub fn new(
        config: PipelineConfig,
        registry: Arc<ModelRegistry>,
        journal: Option<SharedJournal>,
        schema: Arc<JoinSchema>,
        db: Arc<Database>,
        source: S,
    ) -> Result<Self, PipelineError> {
        let fingerprint = schema_fingerprint(&schema);
        let mut scratch = SamplerScratch::new();
        let lease = registry.acquire(&ModelSelector::latest(
            fingerprint,
            config.model_name.as_str(),
        ))?;
        let oracle = oracle_workload(
            &db,
            &schema,
            derive_stream_seed(config.seed, 0, 0),
            config.oracle_sample,
        );
        let baseline = crate::drift::median_qerr(
            &oracle,
            |q| lease.estimate(q, None, &mut scratch, Precision::Exact).ok(),
            &mut SamplerScratch::new(),
        );
        drop(lease);
        if let Some(journal) = journal.as_ref() {
            journal.set_compact_threshold(config.journal_compact_bytes);
        }
        let detector = DriftDetector::new(&db, baseline);
        Ok(Pipeline {
            config,
            registry,
            journal,
            schema,
            db,
            source,
            detector,
            scratch,
            fingerprint,
            step: 0,
            counters: PipelineCounters::default(),
        })
    }

    /// The current snapshot.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Totals so far.
    pub fn counters(&self) -> &PipelineCounters {
        &self.counters
    }

    /// One step with no observer.
    pub fn step(&mut self) -> Result<StepReport, PipelineError> {
        self.step_with(&mut |_| {})
    }

    /// Runs `n` steps, collecting the whole report.
    pub fn run(&mut self, n: u64) -> Result<PipelineReport, PipelineError> {
        let mut steps = Vec::with_capacity(n as usize);
        for _ in 0..n {
            steps.push(self.step()?);
        }
        Ok(PipelineReport {
            steps,
            counters: self.counters.clone(),
        })
    }

    fn append_journal(&self, event: &JournalEvent) -> Result<(), PipelineError> {
        match self.journal.as_ref() {
            Some(journal) => Ok(journal.append(event)?),
            None => Ok(()),
        }
    }

    /// Advances the world one batch and makes every decision for it, reporting each
    /// milestone through `observe` in order.
    pub fn step_with(
        &mut self,
        observe: &mut dyn FnMut(PipelineEvent),
    ) -> Result<StepReport, PipelineError> {
        self.step += 1;
        let step = self.step;
        observe(PipelineEvent::StepStarted(step));

        // 1. Ingest.
        let ingested = match self.source.next_batch() {
            Some(batch) => {
                self.db = Arc::new(apply_batch(&self.db, &batch));
                batch.len() as u64
            }
            None => 0,
        };

        // 2. Drift check against the live incumbent.
        let incumbent = self.registry.acquire(&ModelSelector::latest(
            self.fingerprint,
            self.config.model_name.as_str(),
        ))?;
        let scratch = &mut self.scratch;
        let (drift, _oracle) =
            self.detector
                .check(&self.db, &self.schema, &self.config, step, |q| {
                    incumbent.estimate(q, None, scratch, Precision::Exact).ok()
                });
        observe(PipelineEvent::DriftChecked {
            step,
            median_qerr: drift.median_qerr,
            shift: drift.shift,
            fired: drift.fired(),
        });
        self.counters.oracle_errors += drift.oracle_errors;

        let mut report = StepReport {
            step,
            ingested_rows: ingested,
            total_rows: total_rows(&self.db),
            median_qerr: drift.median_qerr,
            baseline_qerr: drift.baseline_qerr,
            shift: drift.shift,
            oracle_errors: drift.oracle_errors,
            drift_fired: drift.fired(),
            retrain_aborted: None,
            shadow: None,
            promoted: None,
            retired: None,
            retrain_wall_us: 0,
        };

        if drift.fired() {
            self.counters.drift_detections += 1;
            // 3. Background retrain on the drifted snapshot.
            let train_config =
                self.config
                    .model
                    .clone()
                    .with_seed(derive_stream_seed(self.config.seed, step, 2));
            let outcome = retrain_in_background(
                self.db.clone(),
                self.schema.clone(),
                train_config,
                &self.config.faults,
            );
            report.retrain_wall_us = outcome.wall_us;
            match outcome.artifact {
                None => {
                    let reason = outcome.aborted.unwrap_or_else(|| "unknown".to_string());
                    self.counters.retrain_aborts += 1;
                    observe(PipelineEvent::RetrainAborted(reason.clone()));
                    report.retrain_aborted = Some(reason);
                }
                Some(artifact) => {
                    self.counters.retrains += 1;
                    self.shadow_and_decide(step, &incumbent, artifact, &mut report, observe)?;
                }
            }
        }

        drop(incumbent);
        self.counters.steps += 1;
        self.counters.ingested_rows += ingested;
        // The injectable clock: chaos schedules pace the pipeline, not wall time.
        self.config.faults.sleep(self.config.step_pause);
        Ok(report)
    }

    /// Shadow-deploys `artifact`, compares it against the incumbent on mirrored
    /// traffic, and either promotes (journal-first) or retires it.
    fn shadow_and_decide(
        &mut self,
        step: u64,
        incumbent: &nc_serve::ModelLease,
        artifact: ModelArtifact,
        report: &mut StepReport,
        observe: &mut dyn FnMut(PipelineEvent),
    ) -> Result<(), PipelineError> {
        let config = &self.config;
        let core = Arc::new(
            artifact
                .to_core()
                .map_err(|e| PipelineError::Artifact(e.to_string()))?,
        );
        let candidate_path = config
            .artifact_dir
            .join(format!("{}.candidate-step{}.ncar", config.model_name, step));
        write_artifact(&candidate_path, &artifact)?;

        // Shadow registration is journaled like any publish: a crash while the
        // comparison runs restores the candidate too (still unrouted — `Latest`
        // selectors for the served name cannot see the shadow name).
        let shadow_name = config.shadow_name();
        let shadow_key = ModelKey::new(self.fingerprint, shadow_name.clone(), 1);
        self.append_journal(&JournalEvent::publish(
            &shadow_key,
            candidate_path.to_string_lossy().as_ref(),
        ))?;
        let registered = self
            .registry
            .register_core(shadow_name.as_str(), core.clone())?;
        debug_assert_eq!(registered, shadow_key);
        let candidate = self.registry.acquire(&ModelSelector::Exact(shadow_key))?;

        // 4. Mirrored traffic: fresh workload, seeded mirror draws.
        let traffic = oracle_workload(
            &self.db,
            &self.schema,
            derive_stream_seed(config.seed, step, 3),
            config.oracle_sample,
        );
        let shadow = shadow_compare(
            incumbent,
            &candidate,
            &traffic,
            derive_stream_seed(config.seed, step, 4),
            config.mirror_per_mille,
            &config.faults,
            &mut self.scratch,
        );
        drop(candidate);
        observe(PipelineEvent::ShadowCompared(shadow.clone()));
        self.counters.shadow_comparisons += shadow.compared;
        self.counters.shadow_drops += shadow.dropped;
        self.counters.wrong_estimates += shadow.wrong_estimates;

        // 5. The promotion gate.
        let enough = shadow.compared >= config.min_shadow_samples;
        let wins =
            shadow.incumbent_median_qerr >= config.promote_margin * shadow.candidate_median_qerr;
        if enough && wins {
            let incumbent_version = incumbent.key().version;
            let promoted_key = ModelKey::new(
                self.fingerprint,
                config.model_name.clone(),
                self.registry
                    .latest(self.fingerprint, &config.model_name)
                    .map_or(1, |k| k.version + 1),
            );
            let record = PromotionRecord {
                pipeline_seed: format!("{:016x}", config.seed),
                step,
                incumbent_version,
                shadow_samples: shadow.compared,
                incumbent_median_qerr: shadow.incumbent_median_qerr,
                candidate_median_qerr: shadow.candidate_median_qerr,
                promote_margin: config.promote_margin,
                qerr_regression_threshold: config.qerr_regression_threshold,
                verdict: "promoted".to_string(),
            };
            let promoted = artifact.with_promotion(record);
            let promoted_path = config.artifact_dir.join(format!(
                "{}-v{}.ncar",
                config.model_name, promoted_key.version
            ));
            write_artifact(&promoted_path, &promoted)?;
            // Write-ahead: the journal names the promoted version before the swap,
            // so a crash in between restores the *promoted* state (its artifact is
            // already durable) — the journal is never behind the served state.
            self.append_journal(&JournalEvent::promote(
                &promoted_key,
                promoted_path.to_string_lossy().as_ref(),
            ))?;
            observe(PipelineEvent::PromotionJournaled(promoted_key.clone()));
            let receipt = self
                .registry
                .swap(self.fingerprint, &config.model_name, core)?;
            debug_assert_eq!(receipt.new, promoted_key);
            observe(PipelineEvent::Promoted(promoted_key.clone()));
            self.counters.promotions += 1;
            report.promoted = Some(promoted_key.to_string());
            self.detector
                .rebaseline(&self.db, shadow.candidate_median_qerr);
        } else {
            let reason = if !enough {
                format!(
                    "insufficient shadow samples ({} < {})",
                    shadow.compared, config.min_shadow_samples
                )
            } else {
                format!(
                    "candidate lost (median {:.4} vs incumbent {:.4}, margin {})",
                    shadow.candidate_median_qerr,
                    shadow.incumbent_median_qerr,
                    config.promote_margin
                )
            };
            self.counters.retirements += 1;
            observe(PipelineEvent::CandidateRetired(reason.clone()));
            report.retired = Some(reason);
        }

        // Retire the shadow registration either way (journaled, write-ahead).
        self.append_journal(&JournalEvent::deregister(
            self.fingerprint,
            shadow_name.as_str(),
        ))?;
        self.registry.deregister(self.fingerprint, &shadow_name)?;
        report.shadow = Some(shadow);
        Ok(())
    }
}
