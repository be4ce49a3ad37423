//! End-to-end integration test: generate a synthetic JOB-light database, train NeuroCard,
//! and verify that it is (a) usable for every query shape the workloads produce and (b)
//! clearly better at the tail than an independence-based estimator on correlated queries.
//!
//! Training budgets are kept small so the whole test runs in seconds; the full-scale
//! comparison is `reproduce table2` (`nc-bench`).

use std::sync::Arc;

use nc_baselines::{CardinalityEstimator, PostgresLikeEstimator};
use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_workloads::{job_light_queries, q_error, ErrorSummary};
use neurocard::{NeuroCard, NeuroCardConfig};

#[test]
fn neurocard_end_to_end_on_job_light() {
    let datagen = DataGenConfig {
        title_rows: 250,
        ..DataGenConfig::tiny()
    };
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());

    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 12_000;
    config.progressive_samples = 64;
    let model = NeuroCard::build(db.clone(), schema.clone(), &config);
    assert!(model.stats().num_params > 0);
    assert!(model.stats().full_join_rows > db.expect_table("title").num_rows() as u128);
    let core = model.core();

    let queries = job_light_queries(&db, &schema, 20, 3);
    assert!(!queries.is_empty());
    let postgres = PostgresLikeEstimator::build(&db, &schema);

    let mut nc_errors = Vec::new();
    let mut pg_errors = Vec::new();
    for q in &queries {
        let truth = (nc_exec::true_cardinality(&db, &schema, q) as f64).max(1.0);
        let nc_est = core.estimate(q);
        assert!(
            nc_est.is_finite() && nc_est >= 1.0,
            "estimate for {q} is {nc_est}"
        );
        nc_errors.push(q_error(nc_est, truth));
        pg_errors.push(q_error(postgres.estimate(q), truth));
    }
    let nc = ErrorSummary::from_errors(&nc_errors);
    let pg = ErrorSummary::from_errors(&pg_errors);

    // This is a smoke test with a deliberately tiny training budget, so the bounds are
    // loose sanity checks (the real comparison at realistic budgets is produced by
    // `reproduce`, in nc-bench); they still catch gross regressions such as broken fanout
    // scaling or unnormalised selectivities.
    assert!(nc.median < 40.0, "NeuroCard median too high: {nc}");
    assert!(
        nc.max <= pg.max.max(1e4) * 3.0,
        "NeuroCard ({nc}) should not be far worse than Postgres-like ({pg}) at the tail"
    );
}

#[test]
fn estimator_handles_every_table_subset_shape() {
    let datagen = DataGenConfig::tiny();
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 8_000;
    let model = NeuroCard::build(db.clone(), schema.clone(), &config).core();

    // Single table, root + one child, root + all children — all answered by one model.
    use nc_schema::{Predicate, Query};
    let shapes = vec![
        Query::join(&["title"]),
        Query::join(&["cast_info"]),
        Query::join(&["title", "movie_keyword"]),
        Query::join(&[
            "title",
            "cast_info",
            "movie_companies",
            "movie_info",
            "movie_keyword",
            "movie_info_idx",
        ]),
        Query::join(&["title", "movie_info_idx"]).filter(
            "movie_info_idx",
            "rating",
            Predicate::ge(40i64),
        ),
    ];
    for q in &shapes {
        let est = model.estimate(q);
        assert!(est.is_finite() && est >= 1.0, "query {q} produced {est}");
    }

    // Unfiltered single-table estimates require downscaling by the learned fanouts of all
    // five omitted child tables.  A tiny under-trained model captures the fanout joint only
    // roughly, so the bound is generous — but a *missing* fanout downscale would be off by
    // the full-join blow-up factor (several orders of magnitude), which this still catches.
    let title_rows = db.expect_table("title").num_rows() as f64;
    let est = model.estimate(&Query::join(&["title"]));
    let qerr = (est / title_rows).max(title_rows / est);
    assert!(qerr < 60.0, "|title| = {title_rows}, estimated {est}");
}
