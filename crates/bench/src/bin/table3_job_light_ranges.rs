//! Reproduces **Table 3**: estimation errors on JOB-light-ranges, including the "-large"
//! configurations of DeepDB and NeuroCard.
//!
//! Paper numbers (real IMDB, 1000 queries): Postgres 13.8 / 2e3 / 2e4 / 5e6;
//! IBJS 10.1 / 4e4 / 1e6 / 1e8; MSCN 4.53 / 397 / 6e3 / 2e4; DeepDB 3.40 / 537 / 8e3 / 2e5;
//! DeepDB-large 2.35 / 441 / 1e4 / 3e5; NeuroCard 1.87 / 57.1 / 375 / 8169;
//! NeuroCard-large 1.49 / 44.0 / 300 / 4116.

use nc_baselines::{DeepDbLite, IbjsEstimator, MscnConfig, MscnEstimator, PostgresLikeEstimator};
use nc_bench::harness::{build_neurocard, evaluate, print_preamble, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_workloads::{job_light_ranges_queries, render_error_table, ErrorTableRow};
use neurocard::NeuroCard;

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_light(&config);
    print_preamble(
        "Table 3: JOB-light-ranges estimation errors",
        &env.name,
        &config,
    );

    let queries = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed);
    println!(
        "generated {} JOB-light-ranges queries; computing true cardinalities...",
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

    let training = job_light_ranges_queries(
        &env.db,
        &env.schema,
        config.queries.max(150),
        config.seed + 2000,
    );
    let labelled: Vec<(nc_schema::Query, f64)> = training
        .iter()
        .map(|q| {
            let card = nc_exec::true_cardinality(&env.db, &env.schema, q) as f64;
            (q.clone(), card.max(1.0))
        })
        .collect();
    let mscn = MscnEstimator::train(
        &env.db,
        env.schema.clone(),
        &labelled,
        &MscnConfig::default(),
    );
    let r = evaluate(&mscn, &queries, &truths);
    rows.push(ErrorTableRow::new(r.name, r.size_bytes, r.summary));

    let deepdb = DeepDbLite::build(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples,
        config.seed,
    );
    let r = evaluate(&deepdb, &queries, &truths);
    rows.push(ErrorTableRow::new("DeepDB-lite", r.size_bytes, r.summary));

    let deepdb_large = DeepDbLite::build(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples * 4,
        config.seed,
    );
    let r = evaluate(&deepdb_large, &queries, &truths);
    rows.push(ErrorTableRow::new(
        "DeepDB-lite-large",
        r.size_bytes,
        r.summary,
    ));

    let base = build_neurocard(&env, &config);
    let r = evaluate(&base, &queries, &truths);
    rows.push(ErrorTableRow::new("NeuroCard", r.size_bytes, r.summary));

    println!("training NeuroCard-large...");
    let large = NeuroCard::build(
        env.db.clone(),
        env.schema.clone(),
        &config.neurocard_large(),
    )
    .core();
    let r = evaluate(&large, &queries, &truths);
    rows.push(ErrorTableRow::new(
        "NeuroCard-large",
        r.size_bytes,
        r.summary,
    ));

    println!();
    print!(
        "{}",
        render_error_table("Table 3 (measured, synthetic data)", &rows)
    );
    println!();
    println!("Paper (real IMDB): NeuroCard improves on the best prior method by 2x at the");
    println!("median and 15-72x at the tail; the -large variants improve further.");
}
