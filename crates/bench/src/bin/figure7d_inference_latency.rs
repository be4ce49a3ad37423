//! Reproduces **Figure 7d**: per-query inference latency CDF of MSCN, DeepDB and NeuroCard
//! on JOB-light-ranges queries.
//!
//! Paper: MSCN is fastest (a tiny feed-forward net), DeepDB spans ~1–100 ms depending on
//! query complexity, NeuroCard sits at a predictable ~10–20 ms.  The orderings (MSCN ≪
//! NeuroCard, DeepDB's wide spread) are the reproduced shape.
//!
//! NeuroCard's own latency and throughput record — per tier, per transport, against a
//! committed baseline — is `bench/nc_benchmark` (`neurocard.infer.*`); the fast path's
//! bit-identity and q-error-delta contracts are tier-1 tests.

use nc_baselines::{CardinalityEstimator, DeepDbLite, MscnConfig, MscnEstimator};
use nc_bench::harness::{evaluate, print_preamble, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_serve::nearest_rank;
use nc_workloads::job_light_ranges_queries;
use neurocard::NeuroCard;

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_light(&config);
    print_preamble("Figure 7d: inference latency CDF", &env.name, &config);

    let queries = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = true_cardinalities(&env, &queries);

    let training = job_light_ranges_queries(
        &env.db,
        &env.schema,
        config.queries.max(120),
        config.seed + 3000,
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
    let deepdb = DeepDbLite::build(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples,
        config.seed,
    );
    let neurocard =
        NeuroCard::build(env.db.clone(), env.schema.clone(), &config.neurocard()).core();

    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "Estimator", "min (ms)", "median (ms)", "max (ms)"
    );
    for est in [
        &mscn as &dyn CardinalityEstimator,
        &deepdb as &dyn CardinalityEstimator,
        &neurocard as &dyn CardinalityEstimator,
    ] {
        let result = evaluate(est, &queries, &truths);
        let mut ms: Vec<f64> = result
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1000.0)
            .collect();
        ms.sort_by(f64::total_cmp);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2}",
            result.name,
            nearest_rank(&ms, 0.0),
            nearest_rank(&ms, 0.5),
            nearest_rank(&ms, 1.0)
        );
    }
    println!();
    println!("Paper: MSCN fastest; DeepDB 1-100ms spread; NeuroCard predictable ~12-17ms.");
}
