//! Maximum-likelihood training of the autoregressive model on streamed join samples
//! (paper §3.2 and §2.2: "repeatedly requesting batches of sampled tuples from the
//! sampler").
//!
//! Training is pipelined (paper §4.1, Figure 7b): a persistent [`SamplerPool`] samples
//! *and encodes* batch `k+1` on its worker threads while the trainer thread runs
//! forward/backward on batch `k`.  The sample stream is a pure function of
//! `(seed, sampler_threads)` — the prefetch depth changes only wall-clock overlap, never
//! results (see [`nc_sampler::pool`] for the determinism contract).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nc_nn::{Adam, AdamConfig, ResMade, TrainScratch};
use nc_sampler::{
    derive_stream_seed, BatchEncoder, BatchTicket, BiasedSampler, JoinSampler, SamplerPool,
};
use nc_storage::Database;

use crate::config::NeuroCardConfig;
use crate::encoding::EncodedLayout;

/// Where training tuples come from.
pub enum TrainingSource {
    /// The unbiased Exact Weight sampler (the NeuroCard design).
    Unbiased(JoinSampler),
    /// The intentionally biased IBJS-style sampler (ablation Table 5, row A).
    Biased(BiasedSampler),
}

impl TrainingSource {
    /// `|J|` if known (the biased sampler has no principled normalising constant, so the
    /// caller must compute it separately via [`nc_sampler::JoinCounts`]).
    pub fn full_join_rows(&self) -> Option<u128> {
        match self {
            TrainingSource::Unbiased(s) => Some(s.full_join_rows()),
            TrainingSource::Biased(_) => None,
        }
    }

    /// The snapshot the source samples.
    fn database(&self) -> &Arc<Database> {
        match self {
            TrainingSource::Unbiased(s) => s.database(),
            TrainingSource::Biased(s) => s.database(),
        }
    }
}

/// How a [`TrainingSource`] delivers batches once the trainer owns it.
enum Batches {
    /// The unbiased sampler, moved into a persistent worker pool that samples *and
    /// encodes* on its own threads, `prefetch_depth` batches ahead of the trainer.
    Pool(SamplerPool),
    /// The biased ablation sampler: sample, encode and train strictly alternating on the
    /// trainer thread.
    Serial {
        sampler: BiasedSampler,
        db: Arc<Database>,
    },
}

impl Batches {
    fn new(
        source: TrainingSource,
        db: Arc<Database>,
        encoded: &Arc<EncodedLayout>,
        config: &NeuroCardConfig,
    ) -> Self {
        match source {
            TrainingSource::Unbiased(sampler) => {
                // Token encoding moves behind the pool boundary so it overlaps the
                // trainer's compute.
                let layout = encoded.clone();
                let encoder: BatchEncoder = Arc::new(move |rows| layout.encode_batch(rows));
                Batches::Pool(SamplerPool::new(
                    Arc::new(sampler),
                    Arc::new(encoded.layout().clone()),
                    config.sampler_threads,
                    config.seed,
                    Some(encoder),
                ))
            }
            TrainingSource::Biased(sampler) => Batches::Serial { sampler, db },
        }
    }
}

/// Progress statistics of a training run.
///
/// When a call trains zero batches (`train_tuples(0)`), `batches == 0` and both losses
/// are `0.0` — callers must check `batches` before interpreting the losses.
#[derive(Debug, Clone)]
pub struct TrainProgress {
    /// Tuples consumed by this call.
    pub tuples: usize,
    /// Mini-batches processed.
    pub batches: usize,
    /// Mean negative log-likelihood (nats/tuple) of the first processed batch; `0.0` if
    /// no batch ran.
    pub first_loss: f32,
    /// Mean negative log-likelihood of the last processed batch; `0.0` if no batch ran.
    pub last_loss: f32,
    /// Wall-clock time the trainer thread spent waiting on sampled-and-encoded batches.
    /// With prefetching this is only the *stall* time not hidden behind compute, so
    /// `sampling_time + training_time` is the pipeline's critical path, not the total
    /// sampling work.
    pub sampling_time: Duration,
    /// Wall-clock time spent in forward/backward/optimizer work.  A step runs in lanes
    /// across the cores ([`ResMade::forward_backward`]), so this is wall time across the
    /// lanes, not CPU time.
    pub training_time: Duration,
}

impl TrainProgress {
    fn empty(tuples: usize) -> Self {
        TrainProgress {
            tuples,
            batches: 0,
            first_loss: 0.0,
            last_loss: 0.0,
            sampling_time: Duration::ZERO,
            training_time: Duration::ZERO,
        }
    }
}

/// Streams batches from a [`TrainingSource`] into a [`ResMade`] model.
pub struct Trainer {
    encoded: Arc<EncodedLayout>,
    batches: Batches,
    model: ResMade,
    optimizer: Adam,
    rng: StdRng,
    /// The wildcard-skipped copy of the batch being trained on, reused across steps.
    inputs: Vec<u32>,
    config: NeuroCardConfig,
    tuples_trained: usize,
    /// The next batch index to submit; together with `config.seed` it determines every
    /// batch's RNG streams, across `train_tuples` calls and source swaps.
    batch_counter: u64,
    /// Pool tickets in flight, oldest first, each with its batch's size.  They outlive a
    /// `train_tuples` call — the next call's first batch is sampled while this call's last
    /// one trains — and are dropped, their batch indices handed back to `batch_counter`,
    /// when the call that reaches them wants another size or the source changes.
    pending: VecDeque<(usize, BatchTicket)>,
}

impl Trainer {
    /// Creates a trainer with a freshly initialised model.
    pub fn new(
        db: Arc<Database>,
        encoded: Arc<EncodedLayout>,
        source: TrainingSource,
        config: NeuroCardConfig,
    ) -> Self {
        let model = ResMade::new(nc_nn::MadeConfig {
            domains: encoded.model_domains(),
            d_emb: config.d_emb,
            d_hidden: config.d_hidden,
            num_blocks: config.num_blocks,
            seed: config.seed,
        });
        let optimizer = Adam::for_params(
            AdamConfig {
                lr: config.learning_rate,
                ..Default::default()
            },
            &model.params(),
        );
        let rng = StdRng::seed_from_u64(config.seed ^ 0x7261_696E);
        Trainer {
            batches: Batches::new(source, db, &encoded, &config),
            encoded,
            model,
            optimizer,
            rng,
            inputs: Vec::new(),
            config,
            tuples_trained: 0,
            batch_counter: 0,
            pending: VecDeque::new(),
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &ResMade {
        &self.model
    }

    /// Total number of tuples consumed so far.
    pub fn tuples_trained(&self) -> usize {
        self.tuples_trained
    }

    /// Consumes the trainer and returns the trained model.
    pub fn into_model(self) -> ResMade {
        self.model
    }

    /// Replaces the training source (used by the update strategies of §7.6: after a new
    /// partition is ingested, fresh samples must come from the new snapshot).  The worker
    /// pool is rebuilt over the new source; the batch counter keeps advancing, so streams
    /// never repeat across the swap.  A batch the old pool was preparing is dropped and its
    /// index reused, so the first batch after the swap comes from the new snapshot.
    pub fn set_source(&mut self, source: TrainingSource) {
        self.drop_pending_from(0);
        let db = source.database().clone();
        self.batches = Batches::new(source, db, &self.encoded, &self.config);
    }

    /// Drops every ticket in flight from the `keep`-th on and hands their batch indices
    /// back: the next submission reuses the first of them.
    fn drop_pending_from(&mut self, keep: usize) {
        if let Some((_, ticket)) = self.pending.get(keep) {
            self.batch_counter = ticket.batch_index();
        }
        self.pending.truncate(keep);
    }

    /// Streams `tuples` training tuples through the model (maximum-likelihood steps with
    /// wildcard skipping) and returns progress statistics.
    ///
    /// With an unbiased source, sampling and encoding run on the persistent worker pool
    /// with `config.prefetch_depth` batches kept in flight ahead of the one being trained
    /// on — past the end of the call too, at the full batch size, so the next call's first
    /// batch is ready when it starts (a call that starts with another size drops those
    /// tickets and resubmits their batch indices); the biased ablation source samples
    /// serially on the trainer thread.
    pub fn train_tuples(&mut self, tuples: usize) -> TrainProgress {
        let mut progress = TrainProgress::empty(tuples);
        if tuples == 0 {
            return progress;
        }
        // The per-batch sizes, planned up front so tickets can be submitted ahead.
        let batch_size = self.config.batch_size.max(1);
        let full = tuples / batch_size;
        let mut sizes = vec![batch_size; full];
        if !tuples.is_multiple_of(batch_size) {
            sizes.push(tuples % batch_size);
        }
        // Tickets left in flight by the last call are for this call's first batches if
        // their sizes match; the first that does not match is dropped with all after it.
        let planned = |batch: usize| sizes.get(batch).copied().unwrap_or(batch_size);
        let keep = self
            .pending
            .iter()
            .enumerate()
            .take_while(|&(batch, (rows, _))| *rows == planned(batch))
            .count();
        self.drop_pending_from(keep);
        // The next planned size to submit.
        let mut next = self.pending.len();
        // Every activation and gradient buffer of a step, allocated by the first batch and
        // reused by the rest.  It lives for this call only: held any longer — by the
        // trainer, let alone by the model every serving core clones — its ≈ 2 MB would sit
        // under whatever the process does after training.
        let mut scratch = TrainScratch::new();
        for &n in &sizes {
            #[expect(
                clippy::disallowed_methods,
                reason = "phase timing for TrainProgress only; the elapsed values never feed \
                          RNG streams, weights or estimates"
            )]
            let t0 = Instant::now();
            let targets = match &self.batches {
                Batches::Pool(pool) => {
                    while self.pending.len() <= self.config.prefetch_depth {
                        let rows = planned(next);
                        let ticket = pool.submit_indexed(self.batch_counter, rows);
                        self.pending.push_back((rows, ticket));
                        self.batch_counter += 1;
                        next += 1;
                    }
                    let (_, ticket) = self.pending.pop_front().expect("a ticket is in flight");
                    ticket.wait().into_encoded()
                }
                Batches::Serial { sampler, db } => {
                    let seed = derive_stream_seed(self.config.seed, self.batch_counter, 0);
                    self.batch_counter += 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let samples = sampler.sample_many(&mut rng, n);
                    let wide_rows = self.encoded.layout().materialize_batch(db, &samples);
                    self.encoded.encode_batch(&wide_rows)
                }
            };
            progress.sampling_time += t0.elapsed();

            #[expect(clippy::disallowed_methods, reason = "same: training-phase stopwatch")]
            let t1 = Instant::now();
            let loss = self.train_step(&targets, &mut scratch);
            progress.training_time += t1.elapsed();
            if progress.batches == 0 {
                progress.first_loss = loss;
            }
            progress.last_loss = loss;
            progress.batches += 1;
            self.tuples_trained += n;
        }
        progress
    }

    /// One maximum-likelihood step over an encoded batch (flat row-major tokens).
    fn train_step(&mut self, targets: &[u32], scratch: &mut TrainScratch) -> f32 {
        // Wildcard skipping: most batches use the varied-rate scheme (covering heavily
        // masked inputs, which is what low-filter queries condition on at inference
        // time); the rest use the configured fixed rate so lightly-masked inputs stay
        // well represented too.
        let varied = self.rng.random::<f32>() < 0.75;
        let rate = (!varied).then_some(self.config.wildcard_skip_prob);
        self.model
            .apply_wildcard_skipping(targets, rate, &mut self.rng, &mut self.inputs);
        let loss = self.model.forward_backward(&self.inputs, targets, scratch);
        self.optimizer.step(&mut self.model.params_mut());
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sampler::WideLayout;
    use nc_schema::{JoinEdge, JoinSchema};
    use nc_storage::{TableBuilder, Value};

    fn tiny() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "c"]);
        for i in 0..60i64 {
            a.push_row(vec![Value::Int(i % 6), Value::Int(i % 3)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "d"]);
        for i in 0..90i64 {
            b.push_row(vec![Value::Int(i % 6), Value::Int(i % 4)]);
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

    fn encoded(db: &Arc<Database>, schema: &Arc<JoinSchema>) -> Arc<EncodedLayout> {
        let layout = WideLayout::new(db, schema);
        Arc::new(EncodedLayout::build(db, layout, Some(8)))
    }

    #[test]
    fn training_loss_decreases() {
        let (db, schema) = tiny();
        let enc = encoded(&db, &schema);
        let source = TrainingSource::Unbiased(JoinSampler::new(db.clone(), schema.clone()));
        assert!(source.full_join_rows().is_some());
        let config = NeuroCardConfig::tiny();
        let mut trainer = Trainer::new(db.clone(), enc, source, config);
        let progress = trainer.train_tuples(2_000);
        assert_eq!(progress.tuples, 2_000);
        assert!(progress.batches >= 2_000 / 64);
        assert!(progress.last_loss.is_finite());
        assert!(
            progress.last_loss < progress.first_loss,
            "loss should decrease: {} -> {}",
            progress.first_loss,
            progress.last_loss
        );
        assert_eq!(trainer.tuples_trained(), 2_000);
        let model = trainer.into_model();
        assert!(model.num_params() > 0);
    }

    #[test]
    fn biased_source_also_trains() {
        let (db, schema) = tiny();
        let enc = encoded(&db, &schema);
        let biased = TrainingSource::Biased(BiasedSampler::new(db.clone(), schema.clone()));
        assert!(biased.full_join_rows().is_none());
        let mut trainer = Trainer::new(db.clone(), enc, biased, NeuroCardConfig::tiny());
        let progress = trainer.train_tuples(500);
        assert!(progress.last_loss.is_finite());
        // Swapping the source keeps the model.
        let unbiased = JoinSampler::new(db.clone(), schema.clone());
        trainer.set_source(TrainingSource::Unbiased(unbiased));
        let p2 = trainer.train_tuples(200);
        assert!(p2.last_loss.is_finite());
        assert_eq!(trainer.tuples_trained(), 700);
    }

    #[test]
    fn zero_tuples_returns_zeroed_progress() {
        let (db, schema) = tiny();
        let enc = encoded(&db, &schema);
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let mut trainer = Trainer::new(
            db.clone(),
            enc,
            TrainingSource::Unbiased(sampler),
            NeuroCardConfig::tiny(),
        );
        let progress = trainer.train_tuples(0);
        assert_eq!(progress.tuples, 0);
        assert_eq!(progress.batches, 0);
        assert_eq!(progress.first_loss, 0.0);
        assert_eq!(progress.last_loss, 0.0);
        assert_eq!(progress.sampling_time, Duration::ZERO);
        assert_eq!(progress.training_time, Duration::ZERO);
        assert_eq!(trainer.tuples_trained(), 0);
        // A later real call is unaffected.
        let p = trainer.train_tuples(128);
        assert_eq!(p.batches, 2);
        assert!(p.first_loss.is_finite() && p.first_loss != 0.0);
    }

    fn train_model_bytes(threads: usize, depth: usize, tuples: usize) -> bytes::Bytes {
        let (db, schema) = tiny();
        let enc = encoded(&db, &schema);
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let mut config = NeuroCardConfig::tiny();
        config.sampler_threads = threads;
        config.prefetch_depth = depth;
        let mut trainer = Trainer::new(db, enc, TrainingSource::Unbiased(sampler), config);
        trainer.train_tuples(tuples);
        nc_nn::serialize::model_to_bytes(&trainer.into_model())
    }

    #[test]
    fn prefetch_depth_never_changes_the_trained_model() {
        // The determinism contract: (seed, threads) fixes the sample stream, so training
        // with prefetch depths 0, 1 and 2 must produce bit-identical models.
        let base = train_model_bytes(2, 0, 600);
        for depth in [1usize, 2, 5] {
            assert_eq!(
                base,
                train_model_bytes(2, depth, 600),
                "prefetch depth {depth} changed the trained model"
            );
        }
    }

    /// A ticket kept in flight across `train_tuples` calls changes nothing: calls of 320,
    /// 40 and 320 tuples (the 40-tuple batch has another size than the ticket the first
    /// call left in flight, which is dropped and its index resubmitted) and a source swap
    /// train the same model at prefetch depths 0 (nothing in flight between calls), 1
    /// and 2.
    #[test]
    fn tickets_in_flight_across_calls_never_change_the_trained_model() {
        let train = |depth: usize| {
            let (db, schema) = tiny();
            let enc = encoded(&db, &schema);
            let sampler = || TrainingSource::Unbiased(JoinSampler::new(db.clone(), schema.clone()));
            let mut config = NeuroCardConfig::tiny();
            config.sampler_threads = 2;
            config.prefetch_depth = depth;
            let mut trainer = Trainer::new(db.clone(), enc, sampler(), config);
            for tuples in [320, 40, 320] {
                trainer.train_tuples(tuples);
            }
            trainer.set_source(sampler());
            trainer.train_tuples(128);
            nc_nn::serialize::model_to_bytes(&trainer.into_model())
        };
        let base = train(0);
        for depth in [1usize, 2] {
            assert_eq!(base, train(depth), "prefetch depth {depth}");
        }
    }

    #[test]
    fn thread_count_is_part_of_the_stream_contract() {
        // Different worker counts chunk batches differently, so they are *allowed* to
        // produce different streams — and in practice do.
        let one = train_model_bytes(1, 1, 600);
        let two = train_model_bytes(2, 1, 600);
        assert_ne!(one, two);
        // But each is reproducible.
        assert_eq!(two, train_model_bytes(2, 1, 600));
    }

    #[test]
    fn multiple_train_calls_continue_the_stream() {
        // 600 tuples in one call == 300 + 300 in two calls: the batch counter persists.
        let (db, schema) = tiny();
        let enc = encoded(&db, &schema);
        let mk = |db: &Arc<Database>, schema: &Arc<JoinSchema>| {
            Trainer::new(
                db.clone(),
                enc.clone(),
                TrainingSource::Unbiased(JoinSampler::new(db.clone(), schema.clone())),
                NeuroCardConfig::tiny(),
            )
        };
        let mut once = mk(&db, &schema);
        once.train_tuples(640);
        let mut twice = mk(&db, &schema);
        twice.train_tuples(320);
        twice.train_tuples(320);
        assert_eq!(
            nc_nn::serialize::model_to_bytes(once.model()),
            nc_nn::serialize::model_to_bytes(twice.model())
        );
    }
}
