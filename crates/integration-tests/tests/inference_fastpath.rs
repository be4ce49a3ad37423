//! Determinism contract of the inference fast path (PR 3): for a fixed
//! `(model, query, seed)` the zero-allocation / GEMM-backed / compacting progressive
//! sampler returns **bit-identical** estimates to the pre-optimization reference path,
//! and [`NeuroCard::estimate_batch`] is bit-identical to calling
//! [`NeuroCard::estimate`] sequentially, at every thread count the scheduler picks.

use std::sync::Arc;

use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_schema::{Predicate, Query};
use nc_workloads::job_light_ranges_queries;
use neurocard::{EstimateError, NeuroCard, NeuroCardConfig, SamplerScratch};

fn build_model() -> (
    NeuroCard,
    Arc<nc_storage::Database>,
    Arc<nc_schema::JoinSchema>,
) {
    let datagen = DataGenConfig {
        title_rows: 120,
        ..DataGenConfig::tiny()
    };
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 2_000;
    (
        NeuroCard::build(db.clone(), schema.clone(), &config),
        db,
        schema,
    )
}

#[test]
fn fast_path_is_bit_identical_to_reference_path() {
    let (model, db, schema) = build_model();
    let mut queries = job_light_ranges_queries(&db, &schema, 12, 99);
    // Cover the constraint kinds the generator may not hit: a bare single-table query
    // (all-fanout downscaling) and an unfiltered full join (indicators only).
    queries.push(Query::join(&["title"]));
    queries.push(Query::join(&["title", "cast_info", "movie_companies"]));

    let mut scratch = SamplerScratch::new();
    for (i, query) in queries.iter().enumerate() {
        for samples in [1usize, 33, 64] {
            let reference = model.estimate_with_samples_reference(query, samples);
            let fast = model.try_estimate(query, samples, &mut scratch).unwrap();
            assert!(
                reference == fast,
                "query {i} ({query}) samples {samples}: reference {reference} != fast {fast}"
            );
        }
    }
}

#[test]
fn estimate_batch_matches_sequential_estimates() {
    let (model, db, schema) = build_model();
    let mut queries = job_light_ranges_queries(&db, &schema, 10, 7);
    queries.push(Query::join(&["title"]).filter(
        "title",
        "production_year",
        Predicate::ge(2000i64),
    ));

    let sequential: Vec<f64> = queries.iter().map(|q| model.estimate(q)).collect();
    let samples = model.config().progressive_samples;
    let batch = model.estimate_batch(&queries, samples);
    assert_eq!(sequential, batch);

    // Scratch reuse across a batch must not leak state between queries: estimating the
    // same workload twice through the batch API is also identical.
    assert_eq!(batch, model.estimate_batch(&queries, samples));
}

#[test]
fn try_estimate_surfaces_unmodelled_columns_as_errors() {
    let (model, _db, _schema) = build_model();
    // Join keys are not modelled under the default `model_join_keys = false`, so a filter
    // on one is an UnknownColumn error, not a panic.
    let bad = Query::join(&["title", "cast_info"]).filter("title", "id", Predicate::eq(1i64));
    let samples = model.config().progressive_samples;
    let mut scratch = SamplerScratch::new();
    assert_eq!(
        model.try_estimate(&bad, samples, &mut scratch),
        Err(EstimateError::UnknownColumn {
            table: "title".into(),
            column: "id".into(),
        })
    );
    // A valid query round-trips through the fallible API with the same value.
    let good = Query::join(&["title", "cast_info"]);
    assert_eq!(
        model.try_estimate(&good, samples, &mut scratch),
        Ok(model.estimate(&good))
    );
}
