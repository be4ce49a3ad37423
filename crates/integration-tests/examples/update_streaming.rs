//! Update strategies under streaming ingest (paper §7.6): keep an estimator fresh as new
//! partitions of the fact table arrive.
//!
//! The example partitions the synthetic JOB-light database by `production_year`, ingests
//! the partitions one by one, and shows how a never-updated ("stale") model degrades while
//! a few incremental gradient steps ("fast update") keep the estimator accurate.
//!
//! Run with:
//! ```text
//! cargo run --release --example update_streaming
//! ```

use std::sync::Arc;

use nc_datagen::{job_light_database, job_light_schema, partitioned_snapshots, DataGenConfig};
use nc_schema::{Predicate, Query};
use nc_workloads::q_error;
use neurocard::{estimator::BuildOptions, EstimatorCore, NeuroCard, NeuroCardConfig};

fn main() {
    let datagen = DataGenConfig {
        title_rows: 500,
        ..DataGenConfig::default()
    };
    let full_db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    let snapshots: Vec<Arc<nc_storage::Database>> =
        partitioned_snapshots(&full_db, &schema, "production_year", 4)
            .into_iter()
            .map(Arc::new)
            .collect();
    println!(
        "4 cumulative snapshots of the database: {:?} total rows",
        snapshots.iter().map(|s| s.total_rows()).collect::<Vec<_>>()
    );

    // Both estimators start from the same model trained on the first snapshot; the
    // dictionaries cover the full database so later values are representable.  The stale
    // estimator is that model's estimation core, a snapshot no later training reaches.
    let config = NeuroCardConfig::default().with_training_tuples(15_000);
    let options = BuildOptions {
        dictionary_db: Some(full_db.clone()),
        biased_sampler: false,
    };
    println!("training the initial model on snapshot 1...");
    let mut fresh = NeuroCard::build_with(snapshots[0].clone(), schema.clone(), &config, options);
    let stale = fresh.core();

    let queries = vec![
        Query::join(&["title", "cast_info"]).filter(
            "title",
            "production_year",
            Predicate::ge(1990i64),
        ),
        Query::join(&["title", "movie_keyword"]).filter("title", "kind_id", Predicate::eq(1i64)),
        Query::join(&["title"]).filter("title", "production_year", Predicate::ge(2000i64)),
    ];

    println!(
        "\n{:<10} {:>22} {:>22}",
        "snapshot", "stale (mean q-error)", "fast-update (mean q-error)"
    );
    for (i, snapshot) in snapshots.iter().enumerate() {
        if i > 0 {
            // Fast update: re-point the sampler at the new snapshot and take a small number
            // of gradient steps (1% of the original budget).
            fresh.ingest_snapshot(snapshot.clone(), config.training_tuples / 100 + 200);
        }
        let mean = |model: &EstimatorCore| {
            let mut total = 0.0;
            for q in &queries {
                let truth = nc_exec::true_cardinality(snapshot, &schema, q) as f64;
                total += q_error(model.estimate(q), truth);
            }
            total / queries.len() as f64
        };
        println!(
            "{:<10} {:>22.2} {:>22.2}",
            i + 1,
            mean(&stale),
            mean(&fresh.core())
        );
    }
    println!("\nThe stale model's error grows as new partitions change the data distribution;");
    println!("a handful of incremental gradient steps after each ingest keeps the fast-update");
    println!("model close to its original accuracy (paper Table 6).");
}
