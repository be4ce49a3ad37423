//! Figures 6 and 7a–7d of the paper's evaluation.

use std::sync::Arc;
use std::time::Instant;

use nc_baselines::CardinalityEstimator;
use nc_sampler::{BatchEncoder, JoinSampler, SamplerPool, WideLayout};
use nc_serve::nearest_rank;
use nc_workloads::selectivity::selectivity_spectrum;
use nc_workloads::{job_light_queries, job_light_ranges_queries, job_m_queries};
use neurocard::{EncodedLayout, NeuroCard};

use crate::harness::{
    build_deepdb, evaluate, labelled_training_set, print_preamble, secs, train_mscn,
    true_cardinalities,
};
use crate::{BenchEnv, HarnessConfig};

fn print_cdf(name: &str, spectrum: &[f64]) {
    if spectrum.is_empty() {
        println!("{name}: no queries generated");
        return;
    }
    println!(
        "{:<22} min {:>9.2e}  p25 {:>9.2e}  median {:>9.2e}  p75 {:>9.2e}  max {:>9.2e}",
        name,
        nearest_rank(spectrum, 0.0),
        nearest_rank(spectrum, 0.25),
        nearest_rank(spectrum, 0.5),
        nearest_rank(spectrum, 0.75),
        nearest_rank(spectrum, 1.0)
    );
}

/// **Figure 6**: the query-selectivity distribution (CDF) of JOB-light, JOB-light-ranges
/// and JOB-M.  The two new benchmarks have a much wider selectivity spectrum than
/// JOB-light; the paper also finds their minima about 1000× lower.
pub(crate) fn figure6(config: &HarnessConfig) {
    let light = BenchEnv::job_light(config);
    print_preamble(
        "Figure 6: query selectivity distribution",
        &light.name,
        config,
    );

    let job_light = job_light_queries(&light.db, &light.schema, config.queries, config.seed);
    let ranges =
        job_light_ranges_queries(&light.db, &light.schema, config.queries, config.seed + 1);
    let light_spec = selectivity_spectrum(&light.db, &light.schema, &job_light);
    let ranges_spec = selectivity_spectrum(&light.db, &light.schema, &ranges);

    let m_env = BenchEnv::job_m(config);
    let job_m = job_m_queries(&m_env.db, &m_env.schema, config.queries, config.seed + 2);
    let m_spec = selectivity_spectrum(&m_env.db, &m_env.schema, &job_m);

    println!("selectivity = true cardinality / unfiltered inner-join cardinality\n");
    print_cdf("JOB-light", &light_spec);
    print_cdf("JOB-light-ranges", &ranges_spec);
    print_cdf("JOB-M", &m_spec);

    let median = |s: &[f64]| {
        if s.is_empty() {
            1.0
        } else {
            nearest_rank(s, 0.5).max(1e-12)
        }
    };
    println!();
    println!(
        "shape check (paper: ranges/JOB-M medians >100x lower than JOB-light): \
         median ratio JOB-light / JOB-light-ranges = {:.1}x, JOB-light / JOB-M = {:.1}x",
        median(&light_spec) / median(&ranges_spec),
        median(&light_spec) / median(&m_spec)
    );
}

/// **Figure 7a**: estimation accuracy (p99 Q-error) versus the number of tuples trained,
/// on JOB-light and JOB-light-ranges.  At this reproduction's scale the paper's
/// saturation curve appears at proportionally fewer tuples.
pub(crate) fn figure7a(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble("Figure 7a: accuracy vs tuples trained", &env.name, config);

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
    let mut trained = 0;
    for (i, step) in checkpoints.iter().enumerate() {
        if i > 0 {
            model.update_incremental(*step);
        }
        trained += step;
        // A core is a snapshot: take a fresh one at each checkpoint.
        let core = model.core();
        println!(
            "{:>14} {:>22.1} {:>22.1}",
            trained,
            evaluate(&*core, &light, &light_truths).summary.p99,
            evaluate(&*core, &ranges, &ranges_truths).summary.p99
        );
    }
    println!();
    println!("Paper: p99 drops steeply over the first ~2-3M tuples then flattens; the same");
    println!("monotone-then-flat shape should appear here at this reproduction's scale.");
}

/// **Figure 7b**: training-tuple sampling throughput versus the number of sampler
/// threads.  There is no GPU here and the host may have one core, so the absolute
/// numbers and the saturation point differ from the paper's; what is preserved is that
/// the sampler itself parallelises and the per-thread cost is dominated by index lookups.
///
/// The measurement: tuples/second versus worker count, drawn through a persistent
/// [`SamplerPool`] in training-sized batches over the layout and encoder the trainer
/// uses at [`HarnessConfig::neurocard`] (join keys dropped unless `model_join_keys`,
/// tokens encoded behind the pool), so it is the pipeline the trainer actually runs.
pub(crate) fn figure7b(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble(
        "Figure 7b: sampling throughput vs threads",
        &env.name,
        config,
    );

    let nc_config = config.neurocard();
    let sampler = Arc::new(JoinSampler::new(env.db.clone(), env.schema.clone()));
    let layout = if nc_config.model_join_keys {
        WideLayout::new(&env.db, &env.schema)
    } else {
        WideLayout::without_join_keys(&env.db, &env.schema)
    };
    let encoded = Arc::new(EncodedLayout::build(&env.db, layout, nc_config.fact_bits));
    let layout = Arc::new(encoded.layout().clone());
    let encoder: BatchEncoder = Arc::new(move |rows| encoded.encode_batch(rows));
    let tuples = if config.smoke {
        2_000
    } else {
        (config.train_tuples / 2).max(2_000)
    };

    // Throughput vs worker count (persistent pool, pipelined submission).
    let batch = 1_024.min(tuples);
    println!("{:>8} {:>16} {:>14}", "threads", "tuples/second", "elapsed");
    for threads in [1usize, 2, 4, 8] {
        // Construct the pool outside the timer: this table reports steady-state sampling
        // throughput.
        let pool = SamplerPool::new(
            sampler.clone(),
            layout.clone(),
            threads,
            config.seed,
            Some(encoder.clone()),
        );
        let start = Instant::now();
        // `batch`-sized batches plus a remainder.
        let tickets: Vec<_> = (0..tuples)
            .step_by(batch)
            .enumerate()
            .map(|(i, first)| pool.submit_indexed(i as u64, batch.min(tuples - first)))
            .collect();
        let drawn: usize = tickets.into_iter().map(|t| t.wait().len()).sum();
        let elapsed = start.elapsed();
        assert_eq!(drawn, tuples);
        println!(
            "{:>8} {:>16.0} {:>13.2}s",
            threads,
            drawn as f64 / elapsed.as_secs_f64(),
            elapsed.as_secs_f64()
        );
    }

    println!();
    println!("Paper (V100 + 32 vCPUs): 1→4 threads scale throughput to ~40K tuples/s, after");
    println!("which the GPU consumer is saturated.");
}

/// **Figure 7c**: wall-clock construction time of MSCN, DeepDB and NeuroCard.  The paper's
/// ordering, and the fact that MSCN's hidden labelling cost dominates its pipeline, is
/// what this measures on the synthetic data (the paper's NeuroCard time includes a 13 s
/// join-count step).
pub(crate) fn figure7c(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble("Figure 7c: construction time comparison", &env.name, config);

    // --- MSCN: label generation (executing training queries) + training ---------------
    let t0 = Instant::now();
    let labelled = labelled_training_set(&env, config, 150, 7);
    let labelling = t0.elapsed();
    let t1 = Instant::now();
    let _mscn = train_mscn(&env, &labelled);
    let mscn_train = t1.elapsed();

    // --- DeepDB-lite --------------------------------------------------------------------
    let t2 = Instant::now();
    let _deepdb = build_deepdb(&env, config, config.baseline_samples);
    let deepdb_time = t2.elapsed();

    // --- NeuroCard ----------------------------------------------------------------------
    let t3 = Instant::now();
    let model = NeuroCard::build(env.db.clone(), env.schema.clone(), &config.neurocard());
    let neurocard_total = t3.elapsed();
    let stats = model.stats();

    println!("{:<22} {:>14} {:>30}", "System", "construction", "notes");
    println!(
        "{:<22} {:>14} {:>30}",
        "MSCN",
        secs(mscn_train),
        format!("+ {} labelling true cards", secs(labelling))
    );
    println!(
        "{:<22} {:>14} {:>30}",
        "DeepDB-lite",
        secs(deepdb_time),
        "pair-model sampling"
    );
    println!(
        "{:<22} {:>14} {:>30}",
        "NeuroCard",
        secs(neurocard_total),
        format!(
            "prep {} + stall {} + train {}",
            secs(stats.prepare_time),
            secs(stats.sampling_time),
            secs(stats.training_time)
        )
    );
    println!();
    println!(
        "NeuroCard pipeline split ({} sampler threads, prefetch depth {}):",
        config.sampler_threads,
        config.neurocard().prefetch_depth
    );
    let total = stats.sampling_time + stats.training_time;
    let stall_pct = 100.0 * stats.sampling_time.as_secs_f64() / total.as_secs_f64().max(1e-9);
    println!(
        "  training compute {} ({:.0}%), sampler stall {} ({:.0}%)",
        secs(stats.training_time),
        100.0 - stall_pct,
        secs(stats.sampling_time),
        stall_pct
    );
    println!("  (the pool samples and encodes batch k+1 while batch k trains, so 'stall'");
    println!("  is only the sampling time NOT hidden behind the forward/backward pass)");
    println!();
    println!("Paper: NeuroCard 3-7 min, DeepDB 24-38 min, MSCN 3 min + 3.2 h of labelling.");
    println!("Shape check: NeuroCard's join-count preparation is a tiny fraction of its");
    println!("total construction time, and MSCN's labelling dominates its pipeline.");
}

/// **Figure 7d**: per-query inference latency CDF of MSCN, DeepDB and NeuroCard on
/// JOB-light-ranges queries.  The orderings (MSCN ≪ NeuroCard, DeepDB's wide spread) are
/// the reproduced shape.
///
/// NeuroCard's own latency and throughput record — per transport, against a committed
/// baseline — is `bench/nc_benchmark` (`neurocard.infer.*`); the fast path's
/// bit-identity and q-error-delta contracts are tier-1 tests.
pub(crate) fn figure7d(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble("Figure 7d: inference latency CDF", &env.name, config);

    let queries = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = true_cardinalities(&env, &queries);

    let mscn = train_mscn(&env, &labelled_training_set(&env, config, 120, 3000));
    let deepdb = build_deepdb(&env, config, config.baseline_samples);
    let neurocard =
        NeuroCard::build(env.db.clone(), env.schema.clone(), &config.neurocard()).core();

    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "Estimator", "min (ms)", "median (ms)", "max (ms)"
    );
    for est in [&mscn as &dyn CardinalityEstimator, &deepdb, &*neurocard] {
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
