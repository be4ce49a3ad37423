//! Cross-crate determinism contract of the pipelined training path: for a fixed
//! `(seed, sampler_threads)` pair, the training sample stream — and therefore the trained
//! model and its estimates — is identical at every prefetch depth, and a [`SamplerPool`]
//! batch is exactly the in-order concatenation of its workers' derived streams.

use std::sync::Arc;

use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_sampler::{derive_stream_seed, JoinSampler, SamplerPool, WideLayout};
use nc_schema::{Predicate, Query};
use neurocard::{EstimatorCore, NeuroCard, NeuroCardConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn job_light_env() -> (Arc<nc_storage::Database>, Arc<nc_schema::JoinSchema>) {
    let datagen = DataGenConfig {
        title_rows: 120,
        ..DataGenConfig::tiny()
    };
    (
        Arc::new(job_light_database(&datagen)),
        Arc::new(job_light_schema()),
    )
}

#[test]
fn pool_batch_is_the_concatenation_of_its_worker_streams_on_job_light() {
    let (db, schema) = job_light_env();
    let sampler = Arc::new(JoinSampler::new(db.clone(), schema.clone()));
    let layout = Arc::new(WideLayout::new(&db, &schema));
    let n = 300usize;
    for threads in [1usize, 3] {
        let pool = SamplerPool::new(sampler.clone(), layout.clone(), threads, 42, None);
        for batch in [0u64, 5] {
            // Worker t draws its quota from the stream derived for (seed, batch, t); no
            // thread is needed to say what the pool must return.
            let expected: Vec<_> = (0..threads)
                .flat_map(|t| {
                    let quota = n / threads + usize::from(t < n % threads);
                    let seed = derive_stream_seed(42, batch, t as u64);
                    let samples = sampler.sample_many(&mut StdRng::seed_from_u64(seed), quota);
                    layout.materialize_batch(&db, &samples)
                })
                .collect();
            let pooled = pool.submit_indexed(batch, n).wait().into_wide();
            assert_eq!(pooled, expected, "threads={threads} batch={batch}");
        }
    }
}

#[test]
fn prefetch_depth_never_changes_estimates() {
    let (db, schema) = job_light_env();
    let query = Query::join(&["title", "cast_info"]).filter(
        "title",
        "production_year",
        Predicate::ge(2000i64),
    );

    let build = |depth: usize| {
        let mut config = NeuroCardConfig::tiny();
        config.training_tuples = 2_000;
        config.sampler_threads = 2;
        config.prefetch_depth = depth;
        NeuroCard::build(db.clone(), schema.clone(), &config).core()
    };
    let weights = |core: &EstimatorCore| nc_nn::serialize::model_to_bytes(core.model());

    let base = build(0);
    let base_bytes = weights(&base);
    let base_estimate = base.estimate(&query);
    for depth in [1usize, 2] {
        let other = build(depth);
        assert_eq!(
            base_bytes,
            weights(&other),
            "prefetch depth {depth} changed the trained model"
        );
        assert_eq!(
            base_estimate,
            other.estimate(&query),
            "prefetch depth {depth} changed an estimate"
        );
    }
}

#[test]
fn stream_seeds_distinct_across_training_scale_grid() {
    // The trainer derives one stream per (batch, worker); a realistic training run's
    // whole grid must be collision-free.
    let mut seen = std::collections::HashSet::new();
    for batch in 0..2_000u64 {
        for worker in 0..8u64 {
            assert!(
                seen.insert(derive_stream_seed(42, batch, worker)),
                "seed collision at batch={batch} worker={worker}"
            );
        }
    }
}
