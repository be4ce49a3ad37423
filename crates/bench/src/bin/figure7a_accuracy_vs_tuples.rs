//! Reproduces **Figure 7a**: estimation accuracy (p99 Q-error) versus the number of tuples
//! trained, on JOB-light and JOB-light-ranges.
//!
//! The paper's observation: 2–3M tuples (≈0.001% of the full join) already reach
//! best-in-class accuracy; more tuples give diminishing returns.  At this reproduction's
//! scale the same saturation curve appears at proportionally fewer tuples.

use nc_bench::harness::{print_preamble, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_schema::Query;
use nc_workloads::{job_light_queries, job_light_ranges_queries, q_error, ErrorSummary};
use neurocard::{EstimatorCore, NeuroCard};

fn p99(model: &EstimatorCore, queries: &[Query], truths: &[f64]) -> f64 {
    let errors: Vec<f64> = queries
        .iter()
        .zip(truths)
        .map(|(q, t)| q_error(model.estimate(q), *t))
        .collect();
    ErrorSummary::from_errors(&errors).p99
}

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_light(&config);
    print_preamble("Figure 7a: accuracy vs tuples trained", &env.name, &config);

    let light = job_light_queries(&env.db, &env.schema, config.queries, config.seed);
    let ranges = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed + 1);
    let light_truths = true_cardinalities(&env, &light);
    let ranges_truths = true_cardinalities(&env, &ranges);

    // Train in increments and evaluate after each checkpoint.
    let total = config.train_tuples;
    let checkpoints = [total / 8, total / 8, total / 4, total / 2]; // cumulative: 1/8, 1/4, 1/2, 1
    let mut cfg = config.neurocard();
    cfg.training_tuples = checkpoints[0];
    let mut model = NeuroCard::build(env.db.clone(), env.schema.clone(), &cfg);

    println!(
        "{:>14} {:>22} {:>22}",
        "tuples", "p99 (JOB-light)", "p99 (JOB-light-ranges)"
    );
    let mut trained = checkpoints[0];
    // A core is a snapshot: take a fresh one at each checkpoint.
    let core = model.core();
    println!(
        "{:>14} {:>22.1} {:>22.1}",
        trained,
        p99(&core, &light, &light_truths),
        p99(&core, &ranges, &ranges_truths)
    );
    for step in &checkpoints[1..] {
        model.update_incremental(*step);
        trained += step;
        let core = model.core();
        println!(
            "{:>14} {:>22.1} {:>22.1}",
            trained,
            p99(&core, &light, &light_truths),
            p99(&core, &ranges, &ranges_truths)
        );
    }
    println!();
    println!("Paper: p99 drops steeply over the first ~2-3M tuples then flattens; the same");
    println!("monotone-then-flat shape should appear here at this reproduction's scale.");
}
