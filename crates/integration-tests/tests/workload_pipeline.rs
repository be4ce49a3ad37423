//! Integration test of the full benchmark pipeline: data generation → workload generation →
//! ground truth → estimator evaluation → reporting, for all three workloads at tiny scale.
//!
//! This is the same code path the `reproduce` experiments use (via `nc_bench::harness`), so
//! it protects the reproduction harness itself from regressions.

use nc_baselines::{
    CardinalityEstimator, IbjsEstimator, PostgresLikeEstimator, UniformJoinSampleEstimator,
};
use nc_bench::harness::{evaluate, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_workloads::report::{render_error_table, ErrorTableRow};
use nc_workloads::{job_light_queries, job_light_ranges_queries, job_m_queries};

#[test]
fn job_light_pipeline_runs_for_all_estimators() {
    let config = HarnessConfig::tiny();
    let env = BenchEnv::job_light(&config);
    let queries = job_light_queries(&env.db, &env.schema, config.queries, config.seed);
    assert!(!queries.is_empty());
    let truths = true_cardinalities(&env, &queries);
    assert!(truths.iter().all(|t| *t >= 1.0));

    let postgres = PostgresLikeEstimator::build(&env.db, &env.schema);
    let ibjs = IbjsEstimator::new(env.db.clone(), env.schema.clone(), 500, 1);
    let uniform = UniformJoinSampleEstimator::new(env.db.clone(), env.schema.clone(), 500, 1);

    let mut rows = Vec::new();
    for est in [
        &postgres as &dyn CardinalityEstimator,
        &ibjs as &dyn CardinalityEstimator,
        &uniform as &dyn CardinalityEstimator,
    ] {
        let result = evaluate(est, &queries, &truths);
        assert_eq!(result.latencies.len(), queries.len());
        assert!(result.summary.median >= 1.0);
        rows.push(ErrorTableRow::new(
            result.name,
            result.size_bytes,
            result.summary,
        ));
    }
    let table = render_error_table("pipeline smoke", &rows);
    assert!(table.contains("Postgres-like"));
    assert!(table.contains("IBJS"));
    assert!(table.contains("UniformJoinSamples"));
}

#[test]
fn ranges_and_job_m_workloads_generate_and_score() {
    let config = HarnessConfig::tiny();
    let light = BenchEnv::job_light(&config);
    let ranges = job_light_ranges_queries(&light.db, &light.schema, 6, 5);
    assert_eq!(ranges.len(), 6);
    for q in &ranges {
        assert!(q.validate(&light.schema).is_ok());
    }

    let m = BenchEnv::job_m(&config);
    let m_queries = job_m_queries(&m.db, &m.schema, 5, 6);
    assert_eq!(m_queries.len(), 5);
    let truths = true_cardinalities(&m, &m_queries);
    let postgres = PostgresLikeEstimator::build(&m.db, &m.schema);
    let result = evaluate(&postgres, &m_queries, &truths);
    assert!(result.summary.max >= 1.0);
}
