//! Reproduces **Table 4**: estimation errors on the 16-table, multi-key JOB-M workload.
//!
//! Paper numbers (real IMDB): Postgres 174 / 1e4 / 8e4 / 1e5; IBJS 61.1 / 3e5 / 4e6 / 4e6;
//! NeuroCard 3.2 / 283 / 1297 / 1e4 at 27.3MB.  MSCN and DeepDB are omitted exactly as in
//! the paper (unsupported filters / intractable training).

use nc_baselines::{IbjsEstimator, PostgresLikeEstimator};
use nc_bench::harness::{build_neurocard, evaluate, print_preamble, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_workloads::{job_m_queries, render_error_table, ErrorTableRow};

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_m(&config);
    print_preamble("Table 4: JOB-M estimation errors", &env.name, &config);

    let queries = job_m_queries(&env.db, &env.schema, config.queries, config.seed);
    println!(
        "generated {} JOB-M queries; computing true cardinalities...",
        queries.len()
    );
    let truths = true_cardinalities(&env, &queries);

    let mut rows = Vec::new();

    let postgres = PostgresLikeEstimator::build(&env.db, &env.schema);
    let r = evaluate(&postgres, &queries, &truths);
    rows.push(ErrorTableRow::new(r.name, r.size_bytes, r.summary));

    let ibjs = IbjsEstimator::new(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples,
        config.seed,
    );
    let r = evaluate(&ibjs, &queries, &truths);
    rows.push(ErrorTableRow::new(r.name, r.size_bytes, r.summary));

    let model = build_neurocard(&env, &config);
    let r = evaluate(&model, &queries, &truths);
    rows.push(ErrorTableRow::new(r.name, r.size_bytes, r.summary));

    println!();
    print!(
        "{}",
        render_error_table("Table 4 (measured, synthetic data)", &rows)
    );
    println!();
    println!("Paper (real IMDB):");
    println!("  Postgres   120KB   median 174   p95 1e4  p99 8e4   max 1e5");
    println!("  IBJS       –       median 61.1  p95 3e5  p99 4e6   max 4e6");
    println!("  NeuroCard  27.3MB  median 3.2   p95 283  p99 1297  max 1e4");
    println!();
    println!("shape check: NeuroCard should beat both baselines by roughly an order of");
    println!("magnitude across the quantiles while remaining a small fraction of data size.");
}
