//! JOB-light demo: the scenario the paper's introduction motivates — a star-schema movie
//! database where child-table contents correlate with the fact table, so independence-based
//! estimators go wrong on join queries.
//!
//! Builds the synthetic 6-table JOB-light database, trains NeuroCard once, and compares its
//! estimates against a Postgres-style histogram estimator on a handful of queries.
//!
//! Run with:
//! ```text
//! cargo run --release --example job_light_demo
//! ```

use std::sync::Arc;

use nc_baselines::{CardinalityEstimator, PostgresLikeEstimator};
use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_schema::{Predicate, Query};
use neurocard::{NeuroCard, NeuroCardConfig};

fn main() {
    let datagen = DataGenConfig {
        title_rows: 600,
        ..DataGenConfig::default()
    };
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    println!(
        "synthetic IMDB-like database: {} tables, {} total rows",
        schema.num_tables(),
        db.total_rows()
    );

    let config = NeuroCardConfig::default().with_training_tuples(25_000);
    println!("training a single NeuroCard model over the full outer join of all 6 tables...");
    let neurocard = NeuroCard::build(db.clone(), schema.clone(), &config).core();
    let postgres = PostgresLikeEstimator::build(&db, &schema);
    println!(
        "NeuroCard size: {} KB; Postgres-like stats size: {} KB\n",
        neurocard.size_bytes() / 1024,
        postgres.size_bytes() / 1024
    );

    let queries = [
        Query::join(&["title", "cast_info"])
            .filter("title", "production_year", Predicate::ge(2005i64))
            .filter("cast_info", "role_id", Predicate::eq(2i64)),
        Query::join(&["title", "movie_companies", "movie_keyword"])
            .filter("title", "kind_id", Predicate::eq(1i64))
            .filter("movie_companies", "company_type_id", Predicate::eq(2i64)),
        Query::join(&["title", "movie_info", "movie_info_idx"])
            .filter("movie_info", "info_type_id", Predicate::le(5i64))
            .filter("movie_info_idx", "rating", Predicate::ge(60i64)),
        Query::join(&["title"]).filter("title", "production_year", Predicate::le(1990i64)),
    ];

    println!(
        "{:<4} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "#", "truth", "NeuroCard", "Postgres", "q-err NC", "q-err PG"
    );
    for (i, q) in queries.iter().enumerate() {
        let truth = (nc_exec::true_cardinality(&db, &schema, q) as f64).max(1.0);
        let nc = neurocard.estimate(q);
        let pg = postgres.estimate(q);
        let qe = |e: f64| (e.max(1.0) / truth).max(truth / e.max(1.0));
        println!(
            "{:<4} {:>14.0} {:>14.1} {:>14.1} {:>10.2} {:>10.2}",
            i + 1,
            truth,
            nc,
            pg,
            qe(nc),
            qe(pg)
        );
    }
    println!("\nqueries touch different subsets of tables; the same single NeuroCard model");
    println!("answers all of them (no per-join-template estimators, no independence).");
}
