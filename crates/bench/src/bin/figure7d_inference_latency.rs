//! Reproduces **Figure 7d**: per-query inference latency CDF of MSCN, DeepDB and NeuroCard
//! on JOB-light-ranges queries — and benchmarks NeuroCard's inference fast path (PR 3)
//! against the pre-optimization reference path.
//!
//! Paper: MSCN is fastest (a tiny feed-forward net), DeepDB spans ~1–100 ms depending on
//! query complexity, NeuroCard sits at a predictable ~10–20 ms.  The orderings (MSCN ≪
//! NeuroCard, DeepDB's wide spread) are the reproduced shape.
//!
//! The fast-path section reports old-vs-new p50/p99 latency and progressive-sample
//! throughput, asserts the two paths return **bit-identical** estimates (the determinism
//! contract), and writes a machine-readable `BENCH_inference.json` (path overridable via
//! `NC_BENCH_JSON`) so CI can track the perf trajectory.  A closing JOB-M phase records
//! the forward-pass work counters and asserts that the prefix-incremental input layer is
//! actually carrying its prefix (a forwarded row embeds fewer columns than the model has);
//! both phases assert that the mask-aware block GEMMs walk fewer product terms than a
//! dense hidden stack would for the same rows.

use std::time::Instant;

use nc_baselines::{CardinalityEstimator, DeepDbLite, MscnConfig, MscnEstimator};
use nc_bench::harness::{evaluate, print_preamble, true_cardinalities};
use nc_bench::{BenchEnv, HarnessConfig};
use nc_workloads::{job_light_ranges_queries, job_m_queries};
use neurocard::{ForwardCounters, NeuroCard, NeuroCardConfig, Precision};

/// The two-tier determinism contract's accuracy gate: over the whole workload, the fast
/// tier's estimate may not differ from the exact tier's by more than this factor in
/// either direction (`max(fast/exact, exact/fast)`).  bf16 keeps every weight within
/// 2⁻⁸ relative, and the tiers share the per-query RNG stream, so the observed delta is
/// small (≈1.1 on the smoke workload); the bound leaves room for an occasional flipped
/// progressive sample without ever letting the tiers drift apart silently.
const QERROR_DELTA_BOUND: f64 = 4.0;

fn latency_quantiles(mut ms: Vec<f64>) -> (f64, f64, f64) {
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
    (pick(0.0), pick(0.5), pick(1.0))
}

/// Latency distribution and throughput of one inference path over a workload.
struct PathStats {
    p50_us: f64,
    p99_us: f64,
    total_secs: f64,
    samples_per_sec: f64,
}

fn path_stats(mut latencies_us: Vec<f64>, psamples: usize) -> PathStats {
    let total_secs = latencies_us.iter().sum::<f64>() / 1e6;
    let total_samples = (latencies_us.len() * psamples) as f64;
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Nearest-rank quantile over the (now sorted) latencies.
    let pick = |q: f64| latencies_us[((latencies_us.len() - 1) as f64 * q).round() as usize];
    PathStats {
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        total_secs,
        samples_per_sec: total_samples / total_secs.max(1e-12),
    }
}

/// Sums one estimate's forward-pass counters into a workload total.
fn add_counters(total: &mut ForwardCounters, one: ForwardCounters) {
    total.forwards += one.forwards;
    total.rows_forwarded += one.rows_forwarded;
    total.columns_embedded += one.columns_embedded;
    total.block_terms += one.block_terms;
}

/// Product terms the block GEMMs of a forward blind to the masks would walk for the rows
/// `c` counted: `rows_forwarded × 2·num_blocks·d_hidden²`.
fn dense_block_terms(c: ForwardCounters, net: &NeuroCardConfig) -> u64 {
    c.rows_forwarded * (2 * net.num_blocks * net.d_hidden * net.d_hidden) as u64
}

/// `block_terms` over its dense count; the mask-aware hidden stack must stay below 1.
fn block_terms_ratio(c: ForwardCounters, net: &NeuroCardConfig, phase: &str) -> f64 {
    let dense = dense_block_terms(c, net);
    let ratio = c.block_terms as f64 / dense as f64;
    assert!(
        dense > 0 && ratio < 1.0,
        "{phase}: the block GEMMs walked {} product terms, a dense hidden stack walks {dense}",
        c.block_terms
    );
    ratio
}

fn counters_json(c: ForwardCounters, net: &NeuroCardConfig) -> String {
    format!(
        "\"forwards\": {}, \"rows_forwarded\": {}, \"columns_embedded\": {}, \
         \"block_terms\": {}, \"dense_block_terms\": {}",
        c.forwards,
        c.rows_forwarded,
        c.columns_embedded,
        c.block_terms,
        dense_block_terms(c, net)
    )
}

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
    let neurocard = NeuroCard::build(env.db.clone(), env.schema.clone(), &config.neurocard());

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
        let ms: Vec<f64> = result
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1000.0)
            .collect();
        let (min, median, max) = latency_quantiles(ms);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2}",
            result.name, min, median, max
        );
    }
    println!();
    println!("Paper: MSCN fastest; DeepDB 1-100ms spread; NeuroCard predictable ~12-17ms.");

    // --- NeuroCard inference fast path vs pre-PR-3 reference path ---------------------
    let rounds = if config.smoke { 2 } else { 4 };
    let mut ref_us = Vec::with_capacity(rounds * queries.len());
    let mut fast_us = Vec::with_capacity(rounds * queries.len());
    let mut scratch = neurocard::SamplerScratch::new();
    for _ in 0..rounds {
        for query in &queries {
            let start = Instant::now();
            let est_ref = neurocard.estimate_with_samples_reference(query, config.psamples);
            ref_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let est_fast = neurocard
                .try_estimate(query, config.psamples, &mut scratch)
                .unwrap();
            fast_us.push(start.elapsed().as_secs_f64() * 1e6);
            // The determinism contract, enforced on every benchmark run.
            assert!(
                est_ref == est_fast,
                "fast path diverged from reference on {query}: {est_ref} vs {est_fast}"
            );
        }
    }
    let start = Instant::now();
    let batch_estimates = neurocard.estimate_batch(&queries, config.psamples);
    let batch_secs = start.elapsed().as_secs_f64();
    let mut light_counters = ForwardCounters::default();
    let sequential: Vec<f64> = queries
        .iter()
        .map(|q| {
            let estimate = neurocard
                .try_estimate(q, config.psamples, &mut scratch)
                .unwrap();
            add_counters(&mut light_counters, scratch.last_estimate());
            estimate
        })
        .collect();
    assert_eq!(
        batch_estimates, sequential,
        "estimate_batch diverged from sequential estimates"
    );

    let light_ratio = block_terms_ratio(light_counters, &config.neurocard(), "JOB-light");

    let reference = path_stats(ref_us, config.psamples);
    let fast = path_stats(fast_us, config.psamples);
    let speedup = reference.total_secs / fast.total_secs.max(1e-12);
    let batch_samples_per_sec = (queries.len() * config.psamples) as f64 / batch_secs.max(1e-12);

    println!();
    println!("NeuroCard fast path (PR 3) vs reference path, {rounds} rounds:");
    println!(
        "{:<22} {:>12} {:>12} {:>16}",
        "Path", "p50 (us)", "p99 (us)", "samples/sec"
    );
    println!(
        "{:<22} {:>12.0} {:>12.0} {:>16.0}",
        "reference (pre-PR3)", reference.p50_us, reference.p99_us, reference.samples_per_sec
    );
    println!(
        "{:<22} {:>12.0} {:>12.0} {:>16.0}",
        "fast path", fast.p50_us, fast.p99_us, fast.samples_per_sec
    );
    println!(
        "{:<22} {:>12} {:>12} {:>16.0}",
        "estimate_batch", "-", "-", batch_samples_per_sec
    );
    println!("single-query speedup: {speedup:.2}x (determinism verified: estimates bit-identical)");
    println!("block-GEMM product terms walked: {light_ratio:.2} of a dense hidden stack");

    // --- Two-tier determinism contract: exact tier vs SIMD/bf16 fast tier -------------
    let core = neurocard.core();
    let isa = nc_nn::kernel::isa_name();
    let mut exact_us = Vec::with_capacity(rounds * queries.len());
    let mut fast_tier_us = Vec::with_capacity(rounds * queries.len());
    let mut max_qerror_delta = 1.0f64;
    for round in 0..rounds {
        for (i, query) in queries.iter().enumerate() {
            let start = Instant::now();
            let est_exact = core
                .try_estimate_with_samples_scratch_precision(
                    query,
                    config.psamples,
                    &mut scratch,
                    Precision::Exact,
                )
                .unwrap();
            exact_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let est_fast = core
                .try_estimate_with_samples_scratch_precision(
                    query,
                    config.psamples,
                    &mut scratch,
                    Precision::Fast,
                )
                .unwrap();
            fast_tier_us.push(start.elapsed().as_secs_f64() * 1e6);
            // Tier one: the exact tier stays pinned — bit-identical to the sequential
            // estimates computed above, regardless of the `simd` feature.
            if round == 0 {
                assert!(
                    est_exact == sequential[i],
                    "exact tier diverged from the pinned path on {query}: \
                     {est_exact} vs {}",
                    sequential[i]
                );
            }
            // Tier two: bit-identity is relaxed, but the q-error delta is bounded.
            let delta = (est_fast / est_exact).max(est_exact / est_fast);
            assert!(
                delta.is_finite() && delta <= QERROR_DELTA_BOUND,
                "fast tier drifted past the q-error-delta bound on {query}: \
                 exact {est_exact}, fast {est_fast} (delta {delta:.3} > {QERROR_DELTA_BOUND})"
            );
            max_qerror_delta = max_qerror_delta.max(delta);
        }
    }
    let exact_tier = path_stats(exact_us, config.psamples);
    let fast_tier = path_stats(fast_tier_us, config.psamples);
    let fast_vs_exact = exact_tier.total_secs / fast_tier.total_secs.max(1e-12);
    // The ISSUE's acceptance ratio: SIMD fast mode over the PR-3 scalar serving path.
    let fast_vs_scalar = fast_tier.samples_per_sec / fast.samples_per_sec.max(1e-12);

    println!();
    println!("Two-tier precision (kernel ISA: {isa}), {rounds} rounds:");
    println!(
        "{:<22} {:>12} {:>12} {:>16}",
        "Tier", "p50 (us)", "p99 (us)", "samples/sec"
    );
    println!(
        "{:<22} {:>12.0} {:>12.0} {:>16.0}",
        "exact (pinned)", exact_tier.p50_us, exact_tier.p99_us, exact_tier.samples_per_sec
    );
    println!(
        "{:<22} {:>12.0} {:>12.0} {:>16.0}",
        "fast (simd+bf16)", fast_tier.p50_us, fast_tier.p99_us, fast_tier.samples_per_sec
    );
    println!(
        "fast-tier speedup: {fast_vs_exact:.2}x vs exact tier, {fast_vs_scalar:.2}x vs PR-3 \
         scalar path; max q-error delta {max_qerror_delta:.3} (bound {QERROR_DELTA_BOUND})"
    );

    // --- JOB-M: is the input-layer prefix actually carried? ---------------------------
    // 16 tables put ~60 columns in the model, so a forward that re-embedded the whole
    // tuple would pay the full column count per row; the prefix-incremental step pays only
    // for the columns drawn (or skipped as wildcards) since the previous forward.
    let m_env = BenchEnv::job_m(&config);
    let m_queries = job_m_queries(&m_env.db, &m_env.schema, config.queries, config.seed);
    let m_model = NeuroCard::build(m_env.db.clone(), m_env.schema.clone(), &config.neurocard());
    let m_columns = m_model.core().encoded().num_model_columns();
    let mut m_us = Vec::with_capacity(m_queries.len());
    let mut m_counters = ForwardCounters::default();
    for query in &m_queries {
        let est_ref = m_model.estimate_with_samples_reference(query, config.psamples);
        let start = Instant::now();
        let est_fast = m_model
            .try_estimate(query, config.psamples, &mut scratch)
            .unwrap();
        m_us.push(start.elapsed().as_secs_f64() * 1e6);
        add_counters(&mut m_counters, scratch.last_estimate());
        assert!(
            est_ref == est_fast,
            "fast path diverged from reference on JOB-M {query}: {est_ref} vs {est_fast}"
        );
    }
    let job_m = path_stats(m_us, config.psamples);
    let columns_per_row = m_counters.columns_embedded as f64 / m_counters.rows_forwarded as f64;
    assert!(
        m_counters.rows_forwarded > 0 && columns_per_row < m_columns as f64,
        "the input-layer prefix is not being reused: {columns_per_row:.1} columns embedded \
         per forwarded row, the model has {m_columns}"
    );
    let m_ratio = block_terms_ratio(m_counters, &config.neurocard(), "JOB-M");

    println!();
    println!(
        "JOB-M ({} queries, {m_columns} model columns): p50 {:.0} us, p99 {:.0} us; {} forwards, \
         {} rows, {columns_per_row:.1} columns embedded per row (a stateless forward pays \
         {m_columns}), {m_ratio:.2} of a dense hidden stack's block-GEMM terms",
        m_queries.len(),
        job_m.p50_us,
        job_m.p99_us,
        m_counters.forwards,
        m_counters.rows_forwarded,
    );

    let json = format!(
        "{{\n  \"bench\": \"inference\",\n  \"smoke\": {},\n  \"queries\": {},\n  \
         \"psamples\": {},\n  \"rounds\": {},\n  \"reference\": {{ \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"samples_per_sec\": {:.0} }},\n  \"fastpath\": {{ \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"samples_per_sec\": {:.0} }},\n  \
         \"batch\": {{ \"total_secs\": {:.4}, \"samples_per_sec\": {:.0} }},\n  \
         \"single_query_speedup\": {:.2},\n  \
         \"precision\": {{ \"isa\": \"{}\", \"exact\": {{ \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"samples_per_sec\": {:.0} }}, \"fast\": {{ \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"samples_per_sec\": {:.0} }}, \
         \"fast_vs_exact_speedup\": {:.2}, \"fast_vs_scalar_speedup\": {:.2}, \
         \"max_qerror_delta\": {:.4}, \"qerror_delta_bound\": {:.1} }},\n  \
         \"fastpath_counters\": {{ {} }},\n  \
         \"job_m\": {{ \"queries\": {}, \"model_columns\": {}, \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"samples_per_sec\": {:.0}, {}, \
         \"columns_embedded_per_row\": {:.2} }}\n}}\n",
        config.smoke,
        queries.len(),
        config.psamples,
        rounds,
        reference.p50_us,
        reference.p99_us,
        reference.samples_per_sec,
        fast.p50_us,
        fast.p99_us,
        fast.samples_per_sec,
        batch_secs,
        batch_samples_per_sec,
        speedup,
        isa,
        exact_tier.p50_us,
        exact_tier.p99_us,
        exact_tier.samples_per_sec,
        fast_tier.p50_us,
        fast_tier.p99_us,
        fast_tier.samples_per_sec,
        fast_vs_exact,
        fast_vs_scalar,
        max_qerror_delta,
        QERROR_DELTA_BOUND,
        counters_json(light_counters, &config.neurocard()),
        m_queries.len(),
        m_columns,
        job_m.p50_us,
        job_m.p99_us,
        job_m.samples_per_sec,
        counters_json(m_counters, &config.neurocard()),
        columns_per_row,
    );
    let json_path =
        std::env::var("NC_BENCH_JSON").unwrap_or_else(|_| "BENCH_inference.json".to_string());
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
