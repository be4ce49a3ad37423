//! Reproduces **Table 5**: ablation studies on JOB-light-ranges (p50 / p99 Q-errors).
//!
//! Rows:
//!   Base        — the standard NeuroCard configuration,
//!   (A) biased  — train from an IBJS-style biased sampler,
//!   (B) fact.bits — vary the column-factorization width (fewer bits = more sub-columns),
//!   (C) model size — vary `d_ff` / `d_emb`,
//!   (D) one AR per table — per-table models combined under independence,
//!   (E) no model — uniform join samples used directly.
//!
//! Paper (real IMDB): Base 1.9 / 375; (A) 33 / 1e4; (B) 10 bits 2.2 / 2811, 12 bits
//! 2.0 / 936, none 1.6 / 375; (C) larger embeddings help most; (D) 40 / 7e6; (E) 4.0 / 3e6.
//! The shape to reproduce: (A) and (D) blow up, (E) collapses at the tail, (B)/(C) are
//! second-order.

use nc_baselines::{CardinalityEstimator, PerTableArEstimator, UniformJoinSampleEstimator};
use nc_bench::harness::{print_preamble, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_schema::Query;
use nc_workloads::{job_light_ranges_queries, q_error, ErrorSummary};
use neurocard::{estimator::BuildOptions, NeuroCard, NeuroCardConfig};

fn summarise(est: &dyn CardinalityEstimator, queries: &[Query], truths: &[f64]) -> (f64, f64) {
    let errors: Vec<f64> = queries
        .iter()
        .zip(truths)
        .map(|(q, t)| q_error(est.estimate(q), *t))
        .collect();
    let s = ErrorSummary::from_errors(&errors);
    (s.median, s.p99)
}

fn print_row(label: &str, size: usize, p50: f64, p99: f64, paper: &str) {
    println!(
        "{:<28} {:>9} {:>8.2} {:>10.1}   paper: {}",
        label,
        nc_workloads::report::format_size(size),
        p50,
        p99,
        paper
    );
}

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_light(&config);
    print_preamble(
        "Table 5: ablation studies (JOB-light-ranges)",
        &env.name,
        &config,
    );

    let queries = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = true_cardinalities(&env, &queries);
    println!("{} queries\n", queries.len());
    println!(
        "{:<28} {:>9} {:>8} {:>10}",
        "Configuration", "Size", "p50", "p99"
    );

    // Base configuration.
    let base_cfg = config.neurocard();
    let base = NeuroCard::build(env.db.clone(), env.schema.clone(), &base_cfg).core();
    let (p50, p99) = summarise(&base, &queries, &truths);
    print_row(
        "Base (unbiased, fact=10)",
        base.size_bytes(),
        p50,
        p99,
        "1.9 / 375",
    );

    // (A) biased sampler.
    let biased = NeuroCard::build_with(
        env.db.clone(),
        env.schema.clone(),
        &base_cfg,
        BuildOptions {
            dictionary_db: None,
            biased_sampler: true,
        },
    )
    .core();
    let (p50, p99) = summarise(&biased, &queries, &truths);
    print_row(
        "(A) biased sampler",
        biased.size_bytes(),
        p50,
        p99,
        "33 / 1e4",
    );

    // (B) factorization bits.
    for (bits, paper) in [
        (Some(6u32), "2.2 / 2811 (10 bits)"),
        (Some(8), "2.0 / 936 (12 bits)"),
        (None, "1.6 / 375 (none)"),
    ] {
        let mut cfg = base_cfg.clone();
        cfg.fact_bits = bits;
        let model = NeuroCard::build(env.db.clone(), env.schema.clone(), &cfg).core();
        let (p50, p99) = summarise(&model, &queries, &truths);
        let label = match bits {
            Some(b) => format!("(B) fact.bits = {b}"),
            None => "(B) fact.bits = none".to_string(),
        };
        print_row(&label, model.size_bytes(), p50, p99, paper);
    }

    // (C) model size.
    for (d_hidden, d_emb, paper) in [
        (64usize, 24usize, "128;64 → 1.5 / 300"),
        (192, 12, "1024;16 → 1.7 / 497"),
    ] {
        let mut cfg = base_cfg.clone();
        cfg.d_hidden = d_hidden;
        cfg.d_emb = d_emb;
        let model = NeuroCard::build(env.db.clone(), env.schema.clone(), &cfg).core();
        let (p50, p99) = summarise(&model, &queries, &truths);
        print_row(
            &format!("(C) dff={d_hidden}, demb={d_emb}"),
            model.size_bytes(),
            p50,
            p99,
            paper,
        );
    }

    // (D) one AR model per table, combined under independence.
    let per_table = PerTableArEstimator::build(
        env.db.clone(),
        env.schema.clone(),
        &NeuroCardConfig {
            progressive_samples: config.psamples,
            seed: config.seed,
            ..NeuroCardConfig::default()
        },
        config.train_tuples / env.schema.num_tables().max(1),
    );
    let (p50, p99) = summarise(&per_table, &queries, &truths);
    print_row(
        "(D) one AR per table",
        per_table.size_bytes(),
        p50,
        p99,
        "40 / 7e6",
    );

    // (E) no model: uniform join samples only.
    let uniform = UniformJoinSampleEstimator::new(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples,
        config.seed,
    );
    let (p50, p99) = summarise(&uniform, &queries, &truths);
    print_row(
        "(E) uniform join samples",
        uniform.size_bytes(),
        p50,
        p99,
        "4.0 / 3e6",
    );

    println!();
    println!("shape check: (A) and (D) should degrade most (median and tail respectively),");
    println!("(E) should collapse at the tail, (B)/(C) should move errors only mildly.");
}
