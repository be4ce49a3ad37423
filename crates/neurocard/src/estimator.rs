//! The public training API: build once per schema, estimate any query, keep training.
//!
//! An estimator has three life-stages, each its own type:
//!
//! * [`NeuroCard`] **trains**: it owns the training database and a live [`Trainer`] (with
//!   its sampler worker pool), supports incremental updates and snapshot ingestion, and
//!   exports its state as a [`ModelArtifact`] ([`NeuroCard::to_artifact`], or
//!   [`NeuroCard::train`] for the one-shot "train → artifact" path).
//! * [`ModelArtifact`] is the model **at rest**: self-contained bytes, no database.
//! * [`EstimatorCore`] **estimates**: the `Send + Sync` engine `nc-serve` shares across
//!   worker threads, bit-identical to the `NeuroCard` that wrote the artifact.  Loading
//!   has one spelling, `ModelArtifact::from_bytes(..)?.to_core()?`; [`NeuroCard::core`]
//!   snapshots the live model without the byte round trip.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use nc_sampler::{BiasedSampler, JoinCounts, JoinSampler, WideLayout};
use nc_schema::{JoinSchema, Query};
use nc_storage::Database;

use crate::artifact::ModelArtifact;
use crate::config::NeuroCardConfig;
use crate::core::{derive_query_seed, estimate_seeded, EstimatorCore};
use crate::encoding::EncodedLayout;
use crate::infer::{EstimateError, ProgressiveSampler, SamplerScratch};
use crate::train::{TrainProgress, Trainer, TrainingSource};

/// Construction and size statistics of a built estimator (the "Size" / timing columns of
/// the paper's tables and Figure 7c).
#[derive(Debug, Clone)]
pub struct EstimatorStats {
    /// Number of scalar model parameters.
    pub num_params: usize,
    /// Model size in bytes (4 bytes per parameter).
    pub model_bytes: usize,
    /// Rows of the augmented full outer join (`|J|`).
    pub full_join_rows: u128,
    /// Wall-clock time spent computing join counts (sampler preparation).
    pub prepare_time: Duration,
    /// Wall-clock time spent sampling training tuples.
    pub sampling_time: Duration,
    /// Wall-clock time spent on gradient computation.
    pub training_time: Duration,
    /// Total training tuples consumed.
    pub tuples_trained: usize,
    /// Training loss of the last mini-batch (nats/tuple).
    pub final_loss: f32,
}

/// Options that deviate from the plain `build` path (ablations and update experiments).
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Build dictionaries from this database instead of the sampled one (update
    /// experiments keep the token space fixed across snapshots).
    pub dictionary_db: Option<Arc<Database>>,
    /// Train from the biased IBJS-style sampler instead of the Exact Weight sampler
    /// (ablation Table 5 row A).
    pub biased_sampler: bool,
}

/// A trained NeuroCard estimator for one join schema, together with the database and
/// the live [`Trainer`] it keeps learning from.
pub struct NeuroCard {
    schema: Arc<JoinSchema>,
    encoded: Arc<EncodedLayout>,
    config: NeuroCardConfig,
    full_join_rows: u128,
    stats: EstimatorStats,
    db: Arc<Database>,
    trainer: Trainer,
}

impl NeuroCard {
    /// Builds (trains) an estimator over `db` with the default options.
    pub fn build(db: Arc<Database>, schema: Arc<JoinSchema>, config: &NeuroCardConfig) -> Self {
        Self::build_with(db, schema, config, BuildOptions::default())
    }

    /// Trains an estimator and exports it as a self-contained [`ModelArtifact`] in one
    /// step — the "train once, serve anywhere" entry point.  Equivalent to
    /// `NeuroCard::build(..).to_artifact()`.
    pub fn train(
        db: Arc<Database>,
        schema: Arc<JoinSchema>,
        config: &NeuroCardConfig,
    ) -> ModelArtifact {
        Self::build(db, schema, config).to_artifact()
    }

    /// Exports the current model state as a self-contained [`ModelArtifact`].
    pub fn to_artifact(&self) -> ModelArtifact {
        ModelArtifact::from_parts(
            self.config.clone(),
            self.schema.clone(),
            self.encoded.clone(),
            self.full_join_rows,
            self.trainer.model(),
            self.stats.tuples_trained,
            self.stats.final_loss,
        )
    }

    /// The `Send + Sync` estimation engine over the current model state — a **snapshot**:
    /// the model weights are copied, so later [`NeuroCard::update_incremental`] calls do
    /// not show up in a core handed out earlier.
    pub fn core(&self) -> Arc<EstimatorCore> {
        Arc::new(
            EstimatorCore::new(
                self.trainer.model().clone(),
                self.encoded.clone(),
                self.schema.clone(),
                self.config.clone(),
                self.full_join_rows,
            )
            .expect("a trained estimator's parts are consistent by construction"),
        )
    }

    /// Builds an estimator with explicit [`BuildOptions`].
    pub fn build_with(
        db: Arc<Database>,
        schema: Arc<JoinSchema>,
        config: &NeuroCardConfig,
        options: BuildOptions,
    ) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "build-time stat (prepare duration in the returned metadata); estimates \
                      remain a pure function of (model, query, seed)"
        )]
        let prepare_start = Instant::now();
        let dict_db = options.dictionary_db.clone().unwrap_or_else(|| db.clone());
        let layout = if config.model_join_keys {
            WideLayout::new(&dict_db, &schema)
        } else {
            WideLayout::without_join_keys(&dict_db, &schema)
        };
        let encoded = Arc::new(EncodedLayout::build(&dict_db, layout, config.fact_bits));
        // |J| always comes from the exact join counts of the *sampled* database, even when
        // training data is drawn from the biased sampler (the normalising constant must
        // refer to the actual full join).
        let counts = JoinCounts::compute_shared(&db, &schema);
        let full_join_rows = counts.full_join_rows();
        let source = if options.biased_sampler {
            TrainingSource::Biased(BiasedSampler::new(db.clone(), schema.clone()))
        } else {
            TrainingSource::Unbiased(JoinSampler::with_counts(db.clone(), schema.clone(), counts))
        };
        let prepare_time = prepare_start.elapsed();

        let mut trainer = Trainer::new(db.clone(), encoded.clone(), source, config.clone());
        let progress = trainer.train_tuples(config.training_tuples);

        let stats = EstimatorStats {
            num_params: trainer.model().num_params(),
            model_bytes: trainer.model().size_bytes(),
            full_join_rows,
            prepare_time,
            sampling_time: progress.sampling_time,
            training_time: progress.training_time,
            tuples_trained: trainer.tuples_trained(),
            final_loss: progress.last_loss,
        };

        NeuroCard {
            schema,
            encoded,
            config: config.clone(),
            full_join_rows,
            stats,
            db,
            trainer,
        }
    }

    /// Estimates the cardinality of `query` (rows of the inner join of the query's tables
    /// passing all filters), using the configured number of progressive samples (0 clamps
    /// to 1) and a fresh scratch; panics with the [`EstimateError`] text on a query that
    /// cannot be estimated.
    pub fn estimate(&self, query: &Query) -> f64 {
        self.try_estimate(
            query,
            self.config.progressive_samples.max(1),
            &mut SamplerScratch::new(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one fallible estimate entry point: explicit progressive-sample budget (zero is
    /// [`EstimateError::InvalidSampleCount`]) and caller-owned scratch buffers (zero
    /// allocations in steady state).  Reports — instead of panicking — queries that are
    /// invalid or filter a column the wide layout does not model (e.g. a raw join key
    /// with `model_join_keys = false`).
    pub fn try_estimate(
        &self,
        query: &Query,
        num_samples: usize,
        scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        estimate_seeded(
            &self.sampler(),
            self.config.seed,
            query,
            num_samples,
            scratch,
        )
    }

    /// Estimates a batch of independent queries with `num_samples` progressive samples
    /// each, fanning them out across threads; panics like [`NeuroCard::estimate`].
    ///
    /// Each worker reuses one [`SamplerScratch`] across its queries, and every query's RNG
    /// is derived purely from `(config.seed, query)` — so the results are **identical** to
    /// calling [`NeuroCard::try_estimate`] sequentially, regardless of thread count or
    /// scheduling (the `inference_fastpath` integration test pins this).
    pub fn estimate_batch(&self, queries: &[Query], num_samples: usize) -> Vec<f64> {
        if queries.is_empty() {
            return Vec::new();
        }
        // Workers share only the sampler and the seed, never the estimator itself (the
        // trainer's sampler pool is not shareable across threads).
        let sampler = self.sampler();
        let seed = self.config.seed;
        let run = |queries: &[Query], outs: &mut [f64]| {
            let mut scratch = SamplerScratch::new();
            for (query, out) in queries.iter().zip(outs) {
                *out = estimate_seeded(&sampler, seed, query, num_samples, &mut scratch)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        };
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(queries.len());
        let mut results = vec![0.0f64; queries.len()];
        if threads <= 1 {
            run(queries, &mut results);
            return results;
        }
        let chunk = queries.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (queries, outs) in queries.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(|| run(queries, outs));
            }
        });
        results
    }

    /// Estimates through the pre-fast-path inference code: the determinism baseline, a
    /// test oracle with no production caller.
    pub fn estimate_with_samples_reference(&self, query: &Query, num_samples: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(self.query_seed(query));
        self.sampler()
            .estimate_reference(query, num_samples, &mut rng)
    }

    /// The progressive-sampling engine over the trained model.
    fn sampler(&self) -> ProgressiveSampler<'_> {
        ProgressiveSampler::new(
            self.trainer.model(),
            &self.encoded,
            &self.schema,
            self.full_join_rows,
        )
    }

    /// Seed of the per-query RNG stream: a pure function of `(config.seed, query)`.  See
    /// [`crate::core::derive_query_seed`] — the derivation is shared with
    /// [`EstimatorCore`] so loaded cores and serving workers consume the exact same
    /// stream.
    ///
    /// Note: PR 3 deliberately changed this derivation from the earlier `seed ^ hash`
    /// (which left structured low-entropy relations between query streams, the same
    /// weakness the pool's seed rework fixed in PR 2), so *absolute* estimates differ
    /// from pre-PR-3 builds for the same `config.seed`.  The inference determinism
    /// contract is about the sampling *algorithm*: both in-tree paths (fast and
    /// reference) are driven from this same derived seed and must agree bit-for-bit.
    pub(crate) fn query_seed(&self, query: &Query) -> u64 {
        derive_query_seed(self.config.seed, query)
    }

    /// Continues training on additional tuples sampled from the *current* database
    /// (incremental update / "fast update" of §7.6).
    pub fn update_incremental(&mut self, tuples: usize) -> TrainProgress {
        let progress = self.trainer.train_tuples(tuples);
        self.refresh_stats(&progress);
        progress
    }

    /// Ingests a new database snapshot: the sampler and `|J|` are rebuilt over `new_db`,
    /// then `tuples` additional training tuples are streamed (pass 0 to model the "stale"
    /// strategy, a small number for "fast update", or the full budget for "retrain").
    ///
    /// The token space (dictionaries) is kept fixed, so the snapshot must be compatible
    /// with the dictionary database supplied at build time.
    pub fn ingest_snapshot(&mut self, new_db: Arc<Database>, tuples: usize) -> TrainProgress {
        let counts = JoinCounts::compute_shared(&new_db, &self.schema);
        self.full_join_rows = counts.full_join_rows();
        let schema = self.schema.clone();
        let source =
            TrainingSource::Unbiased(JoinSampler::with_counts(new_db.clone(), schema, counts));
        self.trainer.set_source(source);
        let progress = self.trainer.train_tuples(tuples);
        self.db = new_db;
        self.refresh_stats(&progress);
        progress
    }

    fn refresh_stats(&mut self, progress: &TrainProgress) {
        self.stats.tuples_trained = self.trainer.tuples_trained();
        self.stats.full_join_rows = self.full_join_rows;
        if progress.batches > 0 {
            self.stats.final_loss = progress.last_loss;
        }
        self.stats.sampling_time += progress.sampling_time;
        self.stats.training_time += progress.training_time;
    }

    /// Construction statistics.
    pub fn stats(&self) -> &EstimatorStats {
        &self.stats
    }

    /// The estimator's configuration.
    pub fn config(&self) -> &NeuroCardConfig {
        &self.config
    }

    /// The join schema this estimator serves.
    pub fn schema(&self) -> &Arc<JoinSchema> {
        &self.schema
    }

    /// The database currently backing the sampler.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// `|J|`, the size of the augmented full outer join.
    pub fn full_join_rows(&self) -> u128 {
        self.full_join_rows
    }

    /// Model size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.stats.model_bytes
    }

    /// Serialises the model parameters (see [`nc_nn::serialize`]).  For the full
    /// self-contained format use [`NeuroCard::to_artifact`].
    pub fn model_bytes(&self) -> bytes::Bytes {
        nc_nn::serialize::model_to_bytes(self.trainer.model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, Predicate};
    use nc_storage::{TableBuilder, Value};

    /// A two-table database with a strong correlation: B rows exist only for even A.x and
    /// their payload equals A.x's parity class.
    fn correlated_db() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "cls"]);
        for i in 0..200i64 {
            a.push_row(vec![Value::Int(i), Value::Int(i % 4)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "tag"]);
        for i in 0..200i64 {
            if i % 2 == 0 {
                for _ in 0..3 {
                    b.push_row(vec![Value::Int(i), Value::Int(i % 4)]);
                }
            }
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    #[test]
    fn estimates_are_in_the_right_ballpark() {
        let (db, schema) = correlated_db();
        let mut config = NeuroCardConfig::tiny();
        config.training_tuples = 6_000;
        let model = NeuroCard::build(db.clone(), schema.clone(), &config);
        assert!(model.stats().num_params > 0);
        assert!(model.size_bytes() > 0);
        assert!(model.full_join_rows() >= 400);

        // Full-join query: A ⋈ B has 100 * 3 = 300 rows.
        let q = Query::join(&["A", "B"]);
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        assert_eq!(truth, 300.0);
        let est = model.estimate(&q);
        let qerr = (est / truth).max(truth / est);
        assert!(
            qerr < 3.0,
            "estimate {est} vs truth {truth} (q-error {qerr})"
        );

        // Single-table query with a filter: |σ(cls=1)(A)| = 50.
        let q = Query::join(&["A"]).filter("A", "cls", Predicate::eq(1i64));
        let truth = nc_exec::true_cardinality(&db, &schema, &q) as f64;
        let est = model.estimate(&q);
        let qerr = (est / truth).max(truth / est);
        assert!(
            qerr < 4.0,
            "estimate {est} vs truth {truth} (q-error {qerr})"
        );

        // Deterministic estimates for the same query.
        assert_eq!(model.estimate(&q), model.estimate(&q));
    }

    #[test]
    fn batch_estimates_match_sequential_and_try_estimate_reports_errors() {
        let (db, schema) = correlated_db();
        let config = NeuroCardConfig::tiny().with_training_tuples(1_000);
        let model = NeuroCard::build(db, schema, &config);

        let queries = vec![
            Query::join(&["A", "B"]),
            Query::join(&["A"]).filter("A", "cls", Predicate::eq(1i64)),
            Query::join(&["A", "B"]).filter("B", "tag", Predicate::le(2i64)),
            Query::join(&["B"]),
        ];
        let samples = config.progressive_samples;
        let sequential: Vec<f64> = queries.iter().map(|q| model.estimate(q)).collect();
        let batch = model.estimate_batch(&queries, samples);
        assert_eq!(sequential, batch, "batch API must be bit-identical");

        // try_estimate agrees with estimate on valid queries...
        let mut scratch = SamplerScratch::new();
        assert_eq!(
            model.try_estimate(&queries[0], samples, &mut scratch),
            Ok(sequential[0])
        );
        // ...and reports (not panics) filters on unmodelled columns: join keys are left
        // out of the wide layout under the default `model_join_keys = false`.
        let bad = Query::join(&["A", "B"]).filter("A", "x", Predicate::eq(0i64));
        assert_eq!(
            model.try_estimate(&bad, samples, &mut scratch),
            Err(crate::infer::EstimateError::UnknownColumn {
                table: "A".into(),
                column: "x".into(),
            })
        );
        // Invalid queries (schema-level) surface as InvalidQuery.
        let invalid = Query::join(&["A"]).filter("B", "tag", Predicate::eq(1i64));
        assert!(matches!(
            model.try_estimate(&invalid, samples, &mut scratch),
            Err(crate::infer::EstimateError::InvalidQuery(_))
        ));
        assert!(model.estimate_batch(&[], samples).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn estimate_still_panics_on_unknown_columns() {
        let (db, schema) = correlated_db();
        let config = NeuroCardConfig::tiny().with_training_tuples(500);
        let model = NeuroCard::build(db, schema, &config);
        model.estimate(&Query::join(&["A", "B"]).filter("A", "x", Predicate::eq(0i64)));
    }

    #[test]
    fn artifact_backed_estimator_is_estimation_only() {
        let (db, schema) = correlated_db();
        let config = NeuroCardConfig::tiny().with_training_tuples(1_000);
        let trained = NeuroCard::build(db.clone(), schema.clone(), &config);
        let artifact = trained.to_artifact();
        let loaded = artifact.to_core().unwrap();
        let snapshot = trained.core();

        assert_eq!(
            artifact.manifest().tuples_trained,
            trained.stats().tuples_trained
        );

        // Estimation parity of both kinds of core, including the batch and scratch paths.
        let queries = vec![
            Query::join(&["A", "B"]),
            Query::join(&["A"]).filter("A", "cls", Predicate::eq(1i64)),
        ];
        let samples = config.progressive_samples;
        let batch = trained.estimate_batch(&queries, samples);
        let mut scratch = SamplerScratch::new();
        for core in [&loaded, &*snapshot] {
            assert_eq!(core.full_join_rows(), trained.full_join_rows());
            assert_eq!(core.size_bytes(), trained.size_bytes());
            assert_eq!(
                nc_nn::serialize::model_to_bytes(core.model()),
                trained.model_bytes()
            );
            for (q, batched) in queries.iter().zip(&batch) {
                let expected = trained.estimate(q).to_bits();
                assert_eq!(batched.to_bits(), expected);
                assert_eq!(core.estimate(q).to_bits(), expected);
                let scratched = core.try_estimate(q, samples, &mut scratch);
                assert_eq!(scratched.map(f64::to_bits), Ok(expected));
            }
        }

        // `train` is the one-shot wrapper: same config + db ⇒ same artifact bytes.
        let oneshot = NeuroCard::train(db, schema, &config);
        assert_eq!(oneshot.to_bytes(), artifact.to_bytes());
    }

    #[test]
    fn zero_sample_budget_errors_in_try_api_and_clamps_in_infallible_api() {
        let (db, schema) = correlated_db();
        let mut config = NeuroCardConfig::tiny().with_training_tuples(500);
        config.progressive_samples = 0;
        let model = NeuroCard::build(db, schema, &config);
        let q = Query::join(&["A"]).filter("A", "cls", Predicate::eq(1i64));
        let mut scratch = SamplerScratch::new();
        assert_eq!(
            model.try_estimate(&q, 0, &mut scratch),
            Err(crate::infer::EstimateError::InvalidSampleCount)
        );
        // Documented infallible fallback: a configured budget of 0 clamps to 1 sample.
        assert_eq!(
            model.try_estimate(&q, 1, &mut scratch),
            Ok(model.estimate(&q))
        );
    }

    #[test]
    fn unsatisfiable_filters_return_minimum() {
        let (db, schema) = correlated_db();
        let config = NeuroCardConfig::tiny().with_training_tuples(1_000);
        let model = NeuroCard::build(db, schema, &config);
        let q = Query::join(&["A"]).filter("A", "cls", Predicate::eq(999i64));
        assert_eq!(model.estimate(&q), 1.0);
    }

    #[test]
    fn incremental_update_and_snapshot_ingest() {
        let (db, schema) = correlated_db();
        let config = NeuroCardConfig::tiny().with_training_tuples(1_500);
        let mut model = NeuroCard::build_with(
            db.clone(),
            schema.clone(),
            &config,
            BuildOptions {
                dictionary_db: Some(db.clone()),
                biased_sampler: false,
            },
        );
        let before = model.stats().tuples_trained;
        model.update_incremental(500);
        assert_eq!(model.stats().tuples_trained, before + 500);
        // Re-ingesting the same snapshot keeps |J| and allows further training.
        let j = model.full_join_rows();
        model.ingest_snapshot(db.clone(), 200);
        assert_eq!(model.full_join_rows(), j);
        assert_eq!(model.stats().tuples_trained, before + 700);
        assert!(!model.model_bytes().is_empty());
    }

    #[test]
    fn biased_build_option_still_produces_estimates() {
        let (db, schema) = correlated_db();
        let config = NeuroCardConfig::tiny().with_training_tuples(1_000);
        let model = NeuroCard::build_with(
            db.clone(),
            schema.clone(),
            &config,
            BuildOptions {
                dictionary_db: None,
                biased_sampler: true,
            },
        );
        let q = Query::join(&["A", "B"]);
        let est = model.estimate(&q);
        assert!(est.is_finite() && est >= 1.0);
        assert_eq!(model.config().training_tuples, 1_000);
        assert_eq!(model.schema().root(), "A");
        assert_eq!(model.database().num_tables(), 2);
    }
}
