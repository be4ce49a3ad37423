//! The generated fixture every workload runs on, the scale constants, and the model
//! build all four workloads share.
//!
//! The dataset, the query workload and the training stream are generated from the fixed
//! [`FIXTURE_SEED`] — they play the part the IMDB snapshot plays in the paper — so that
//! accuracy (`qerror_*`) and `model_bytes` repeat exactly and latency percentiles are
//! taken over the same query mix in every run.  `--seed` drives what a *client* decides:
//! the order requests are issued in and which client issues them.

use std::sync::Arc;
use std::time::Instant;

use nc_schema::{JoinSchema, Query};
use nc_storage::Database;
use neurocard::NeuroCardConfig;

use crate::layers::{self, Dataset};
use crate::refclock::{self, Reading};
use crate::stats::{self, Summary};
use crate::trace;

/// Seed of everything generated: database, queries, training stream, pipeline decisions.
pub const FIXTURE_SEED: u64 = 42;

/// Worker and client threads never exceed this machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop client connections: `min(nproc, 2)`.
pub fn clients() -> usize {
    nproc().min(2)
}

/// Sampler threads of every build.  Fixed rather than `min(nproc, 2)`: the training
/// stream is a function of `(seed, threads)`, and seeded quantities (`qerror_*`,
/// `model_bytes`, the decision digest) must repeat exactly on any machine.
pub const SAMPLER_THREADS: usize = 2;

/// Scale constants, fixed in the benchmark and recorded in its output (never read from
/// `NC_*` environment variables).  `seconds` is the measured phase the caller asked
/// for; the budgets of the two workloads whose measured phase *is* training grow with it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--smoke`: every constant shrunk so all four workloads finish in seconds.
    pub smoke: bool,
    /// Requested length of the measured phase.
    pub seconds: f64,
}

impl Scale {
    /// Rows of `title`.
    pub fn title_rows(&self, dataset: Dataset) -> usize {
        match (dataset, self.smoke) {
            (Dataset::JobLight, false) => 800,
            (Dataset::JobM, false) => 400,
            (Dataset::JobLight, true) => 150,
            (Dataset::JobM, true) => 80,
        }
    }

    /// Queries in the workload.
    pub fn queries(&self) -> usize {
        if self.smoke {
            8
        } else {
            40
        }
    }

    /// Progressive samples per estimate.
    pub fn psamples(&self, dataset: Dataset) -> usize {
        match (dataset, self.smoke) {
            (Dataset::JobLight, false) => 64,
            (Dataset::JobM, false) => 512,
            (Dataset::JobLight, true) => 16,
            (Dataset::JobM, true) => 16,
        }
    }

    /// Training tuples of a set-up build (`plan_burst`, `direct_m`): 30 whole chunks.
    pub fn setup_tuples(&self) -> usize {
        if self.smoke {
            1_024
        } else {
            30_720
        }
    }

    /// Training tuples of `build_light`'s measured build: 4 000 per requested second
    /// (120 000 at 30 s), so the build fills the measured phase at the ~4.5 k tuples/s
    /// this code trains at on two cores.
    pub fn build_tuples(&self) -> usize {
        (self.seconds * if self.smoke { 2_048.0 } else { 4_000.0 }) as usize
    }

    /// Training tuples of the `update_serve` incumbent and of each of its four retrains:
    /// 500 per requested second (15 000 at 30 s), so four contended retrains fit.
    pub fn retrain_tuples(&self) -> usize {
        (self.seconds * if self.smoke { 1_024.0 } else { 500.0 }) as usize
    }
}

/// Database, schema, queries and exact answers of one dataset.
pub struct Fixture {
    /// Which dataset.
    pub dataset: Dataset,
    /// The generated database.
    pub db: Arc<Database>,
    /// Its join schema.
    pub schema: Arc<JoinSchema>,
    /// The query workload.
    pub queries: Vec<Query>,
}

impl Fixture {
    /// Generates the fixture.
    pub fn new(dataset: Dataset, title_rows: usize, queries: usize) -> Self {
        let (db, schema) = layers::database(dataset, FIXTURE_SEED, title_rows);
        refclock::tick();
        let queries = layers::queries(dataset, &db, &schema, queries, FIXTURE_SEED);
        refclock::tick();
        Fixture {
            dataset,
            db,
            schema,
            queries,
        }
    }

    /// Exact cardinalities of `queries` on `db` (floored at 1).
    pub fn truths(&self, db: &Database, queries: &[Query]) -> Vec<f64> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                refclock::tick_if_due();
                layers::true_cardinality(db, &self.schema, q, i as u64)
            })
            .collect()
    }
}

/// Training configuration: the crate defaults (`d_emb` 12, `d_hidden` 96, 2 blocks,
/// batch 128) with the budget, sample count and sampler threads pinned.
pub fn model_config(tuples: usize, psamples: usize) -> NeuroCardConfig {
    NeuroCardConfig {
        training_tuples: tuples,
        progressive_samples: psamples,
        sampler_threads: SAMPLER_THREADS,
        prefetch_depth: 1,
        seed: FIXTURE_SEED,
        ..NeuroCardConfig::default()
    }
}

/// Training batches per call into the trainer.  Between calls the build runs the
/// reference clock, so a 6 s build is read at ~30 points.
const CHUNK_BATCHES: usize = 8;

/// A finished build: artifact bytes and how long each part took, as measured.
pub struct Built {
    /// Serving-ready artifact bytes.
    pub bytes: Vec<u8>,
    /// `Database` → artifact bytes, wall seconds (reference-clock time included).
    pub build_s: f64,
    /// Trained tuples ÷ (sampler stall + compute), per slice of the budget.
    pub train_tuples_per_s: Summary,
    /// Share of training wall time the trainer spent waiting on the sampler pool.
    pub stall_share: f64,
    /// Forward + backward + optimizer step of one training batch, milliseconds.
    pub train_step_ms: f64,
    /// Tuples trained on.
    pub tuples: usize,
    /// What the reference clock read while the build ran.
    pub reference: Reading,
}

impl Built {
    /// `build_s` at reference speed, the reference clock's own time taken out.
    pub fn build_s_at_reference(&self) -> f64 {
        (self.build_s - self.reference.spent_s) / self.reference.factor
    }
}

/// Builds a model from `db` to artifact bytes, training `tuples` in chunks of whole
/// batches (so the weights equal those of one uninterrupted run); the chunks are grouped
/// into ten slices for `train_tuples_per_s`.
pub fn build(
    db: &Arc<Database>,
    schema: &Arc<JoinSchema>,
    tuples: usize,
    psamples: usize,
) -> Built {
    let (started, from) = (Instant::now(), trace::now());
    let batch = NeuroCardConfig::default().batch_size;
    let chunk = CHUNK_BATCHES * batch;
    let chunks = (tuples / chunk).max(1);
    let mut model = layers::build_start(db, schema, &model_config(chunk, psamples));
    let first = layers::build_stats(&model);
    let (mut stall, mut compute) = (first.sampling_time, first.training_time);
    let mut batches = CHUNK_BATCHES;
    let mut timed = vec![(chunk as f64, (stall + compute).as_secs_f64())];
    refclock::tick();
    for c in 1..chunks {
        let progress = layers::build_continue(&mut model, chunk, c as u64);
        timed.push((
            chunk as f64,
            (progress.sampling_time + progress.training_time).as_secs_f64(),
        ));
        stall += progress.sampling_time;
        compute += progress.training_time;
        batches += progress.batches;
        refclock::tick();
    }
    let bytes = layers::artifact_bytes(&model);
    Built {
        bytes,
        build_s: started.elapsed().as_secs_f64(),
        train_tuples_per_s: stats::sliced_rate(&timed),
        stall_share: stall.as_secs_f64() / (stall + compute).as_secs_f64().max(1e-12),
        train_step_ms: compute.as_secs_f64() * 1e3 / batches as f64,
        tuples: chunk * chunks,
        reference: refclock::reading(from, trace::now()),
    }
}
