//! Tables 1–6 of the paper's evaluation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_baselines::{
    CardinalityEstimator, IbjsEstimator, PerTableArEstimator, PostgresLikeEstimator,
    UniformJoinSampleEstimator,
};
use nc_datagen::partitioned_snapshots;
use nc_sampler::JoinCounts;
use nc_schema::Query;
use nc_workloads::report::format_size;
use nc_workloads::{
    job_light_queries, job_light_ranges_queries, job_m_queries, render_error_table, ErrorSummary,
    ErrorTableRow,
};
use neurocard::{estimator::BuildOptions, NeuroCard, NeuroCardConfig};

use crate::harness::{
    build_deepdb, build_neurocard, error_row, evaluate, labelled_training_set, print_preamble,
    secs, train_mscn, true_cardinalities,
};
use crate::{BenchEnv, HarnessConfig};

/// `(tables, full-join rows, columns, maximum column domain)` of an environment.
fn describe(env: &BenchEnv) -> (usize, u128, usize, usize) {
    let counts = JoinCounts::compute(&env.db, &env.schema);
    let num_tables = env.schema.num_tables();
    let full_join_rows = counts.full_join_rows();
    // Columns of the full join = base columns of all tables (the paper counts content
    // columns of the join, not virtual columns).
    let cols: usize = env
        .schema
        .tables()
        .iter()
        .map(|t| env.db.expect_table(t).num_columns())
        .sum();
    let max_domain = env
        .schema
        .tables()
        .iter()
        .flat_map(|t| env.db.expect_table(t).columns().iter())
        .map(|c| c.distinct_count())
        .max()
        .unwrap_or(0);
    (num_tables, full_join_rows, cols, max_domain)
}

/// **Table 1**: workload characteristics (tables, rows of the full outer join, columns,
/// maximum column domain size) of JOB-light, JOB-light-ranges and JOB-M.
pub(crate) fn table1(config: &HarnessConfig) {
    print_preamble("Table 1: workload characteristics", "all", config);

    println!(
        "{:<22} {:>7} {:>16} {:>6} {:>10}   paper (real IMDB)",
        "Workload", "Tables", "FullJoinRows", "Cols", "MaxDomain"
    );
    let light = BenchEnv::job_light(config);
    let (t, j, c, d) = describe(&light);
    println!(
        "{:<22} {:>7} {:>16} {:>6} {:>10}   6 tables, 2e12 rows, 8 cols, 235K domain",
        "JOB-light", t, j, c, d
    );
    println!(
        "{:<22} {:>7} {:>16} {:>6} {:>10}   6 tables, 2e12 rows, 13 cols, 134K domain",
        "JOB-light-ranges", t, j, c, d
    );
    let m = BenchEnv::job_m(config);
    let (t, j, c, d) = describe(&m);
    println!(
        "{:<22} {:>7} {:>16} {:>6} {:>10}   16 tables, 1e13 rows, 16 cols, 2.7M domain",
        "JOB-M", t, j, c, d
    );
    println!();
    println!(
        "shape check: the JOB-M full join must be substantially larger and wider than the \
         JOB-light full join, and both full joins dwarf the base tables."
    );
}

/// Announces a generated workload and returns its true cardinalities.
fn workload_truths(workload: &str, env: &BenchEnv, queries: &[Query]) -> Vec<f64> {
    println!(
        "generated {} {workload} queries; computing true cardinalities...",
        queries.len()
    );
    true_cardinalities(env, queries)
}

/// Prints a measured error table between blank lines.
fn print_error_table(title: &str, rows: &[ErrorTableRow]) {
    println!();
    print!("{}", render_error_table(title, rows));
    println!();
}

/// IBJS at the harness's baseline sample budget.
fn build_ibjs(env: &BenchEnv, config: &HarnessConfig) -> IbjsEstimator {
    IbjsEstimator::new(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples,
        config.seed,
    )
}

/// **Table 2**: estimation errors on JOB-light for the Postgres baseline, IBJS, MSCN,
/// DeepDB-lite and NeuroCard.
///
/// The shape to reproduce: NeuroCard dominates at the tail (99th/max), the data-driven
/// methods beat the query-driven and heuristic ones, and Postgres has the worst median.
pub(crate) fn table2(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble("Table 2: JOB-light estimation errors", &env.name, config);

    let queries = job_light_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = workload_truths("JOB-light", &env, &queries);

    let postgres = PostgresLikeEstimator::build(&env.db, &env.schema);
    let ibjs = build_ibjs(&env, config);
    let mscn = train_mscn(&env, &labelled_training_set(&env, config, 100, 1000));
    let deepdb = build_deepdb(&env, config, config.baseline_samples);
    let model = build_neurocard(&env, config);
    let rows: Vec<ErrorTableRow> = [
        &postgres as &dyn CardinalityEstimator,
        &ibjs,
        &mscn,
        &deepdb,
        &*model,
    ]
    .into_iter()
    .map(|est| error_row(est, &queries, &truths))
    .collect();

    print_error_table("Table 2 (measured, synthetic data)", &rows);
    println!("Paper (real IMDB):");
    println!("  Postgres   70KB   median 7.97  p95 797   p99 3e3   max 1e3");
    println!("  IBJS       –      median 1.48  p95 1e3   p99 1e3   max 1e4");
    println!("  MSCN       2.7MB  median 3.01  p95 136   p99 1e3   max 1e3");
    println!("  DeepDB     3.7MB  median 1.32  p95 4.90  p99 33.7  max 72.0");
    println!("  NeuroCard  3.8MB  median 1.57  p95 5.91  p99 8.48  max 8.51");
}

/// **Table 3**: estimation errors on JOB-light-ranges, including the "-large"
/// configurations of DeepDB and NeuroCard.
///
/// Paper numbers (real IMDB, 1000 queries; median / 95th / 99th / max): Postgres 13.8 /
/// 2e3 / 2e4 / 5e6; IBJS 10.1 / 4e4 / 1e6 / 1e8; MSCN 4.53 / 397 / 6e3 / 2e4; DeepDB 3.40
/// / 537 / 8e3 / 2e5; DeepDB-large 2.35 / 441 / 1e4 / 3e5; NeuroCard 1.87 / 57.1 / 375 /
/// 8169; NeuroCard-large 1.49 / 44.0 / 300 / 4116.
pub(crate) fn table3(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble(
        "Table 3: JOB-light-ranges estimation errors",
        &env.name,
        config,
    );

    let queries = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = workload_truths("JOB-light-ranges", &env, &queries);

    let postgres = PostgresLikeEstimator::build(&env.db, &env.schema);
    let ibjs = build_ibjs(&env, config);
    let mscn = train_mscn(&env, &labelled_training_set(&env, config, 150, 2000));
    let deepdb = build_deepdb(&env, config, config.baseline_samples);
    let deepdb_large = build_deepdb(&env, config, config.baseline_samples * 4);
    let base = build_neurocard(&env, config);
    println!("training NeuroCard-large...");
    let large = NeuroCard::build(
        env.db.clone(),
        env.schema.clone(),
        &config.neurocard_large(),
    )
    .core();

    let mut rows: Vec<ErrorTableRow> = [
        &postgres as &dyn CardinalityEstimator,
        &ibjs,
        &mscn,
        &deepdb,
        &deepdb_large,
        &*base,
        &*large,
    ]
    .into_iter()
    .map(|est| error_row(est, &queries, &truths))
    .collect();
    // The -large variants carry their base estimator's name.
    rows[4].estimator = "DeepDB-lite-large".to_string();
    rows[6].estimator = "NeuroCard-large".to_string();

    print_error_table("Table 3 (measured, synthetic data)", &rows);
    println!("Paper (real IMDB): NeuroCard improves on the best prior method by 2x at the");
    println!("median and 15-72x at the tail; the -large variants improve further.");
}

/// **Table 4**: estimation errors on the 16-table, multi-key JOB-M workload.  MSCN and
/// DeepDB are omitted exactly as in the paper (unsupported filters / intractable
/// training).
pub(crate) fn table4(config: &HarnessConfig) {
    let env = BenchEnv::job_m(config);
    print_preamble("Table 4: JOB-M estimation errors", &env.name, config);

    let queries = job_m_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = workload_truths("JOB-M", &env, &queries);

    let postgres = PostgresLikeEstimator::build(&env.db, &env.schema);
    let ibjs = build_ibjs(&env, config);
    let model = build_neurocard(&env, config);
    let rows: Vec<ErrorTableRow> = [&postgres as &dyn CardinalityEstimator, &ibjs, &*model]
        .into_iter()
        .map(|est| error_row(est, &queries, &truths))
        .collect();

    print_error_table("Table 4 (measured, synthetic data)", &rows);
    println!("Paper (real IMDB):");
    println!("  Postgres   120KB   median 174   p95 1e4  p99 8e4   max 1e5");
    println!("  IBJS       –       median 61.1  p95 3e5  p99 4e6   max 4e6");
    println!("  NeuroCard  27.3MB  median 3.2   p95 283  p99 1297  max 1e4");
    println!();
    println!("shape check: NeuroCard should beat both baselines by roughly an order of");
    println!("magnitude across the quantiles while remaining a small fraction of data size.");
}

/// **Table 5**: ablation studies on JOB-light-ranges (p50 / p99 Q-errors).
///
/// Rows:
///   Base        — the standard NeuroCard configuration,
///   (A) biased  — train from an IBJS-style biased sampler,
///   (B) fact.bits — vary the column-factorization width (fewer bits = more sub-columns),
///   (C) model size — vary `d_ff` / `d_emb`,
///   (D) one AR per table — per-table models combined under independence,
///   (E) no model — uniform join samples used directly.
///
/// The shape to reproduce: (A) and (D) blow up, (E) collapses at the tail, (B)/(C) are
/// second-order.
pub(crate) fn table5(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble(
        "Table 5: ablation studies (JOB-light-ranges)",
        &env.name,
        config,
    );

    let queries = job_light_ranges_queries(&env.db, &env.schema, config.queries, config.seed);
    let truths = true_cardinalities(&env, &queries);
    println!("{} queries\n", queries.len());
    println!(
        "{:<28} {:>9} {:>8} {:>10}",
        "Configuration", "Size", "p50", "p99"
    );
    let print_row = |label: &str, estimator: &dyn CardinalityEstimator, paper: &str| {
        let r = evaluate(estimator, &queries, &truths);
        println!(
            "{:<28} {:>9} {:>8.2} {:>10.1}   paper: {}",
            label,
            format_size(r.size_bytes),
            r.summary.median,
            r.summary.p99,
            paper
        );
    };
    let build =
        |cfg: &NeuroCardConfig| NeuroCard::build(env.db.clone(), env.schema.clone(), cfg).core();

    let base_cfg = config.neurocard();
    print_row("Base (unbiased, fact=10)", &*build(&base_cfg), "1.9 / 375");

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
    print_row("(A) biased sampler", &*biased, "33 / 1e4");

    for (bits, paper) in [
        (Some(6u32), "2.2 / 2811 (10 bits)"),
        (Some(8), "2.0 / 936 (12 bits)"),
        (None, "1.6 / 375 (none)"),
    ] {
        let label = match bits {
            Some(b) => format!("(B) fact.bits = {b}"),
            None => "(B) fact.bits = none".to_string(),
        };
        let cfg = NeuroCardConfig {
            fact_bits: bits,
            ..base_cfg.clone()
        };
        print_row(&label, &*build(&cfg), paper);
    }

    for (d_hidden, d_emb, paper) in [
        (64usize, 24usize, "128;64 → 1.5 / 300"),
        (192, 12, "1024;16 → 1.7 / 497"),
    ] {
        let cfg = NeuroCardConfig {
            d_hidden,
            d_emb,
            ..base_cfg.clone()
        };
        print_row(
            &format!("(C) dff={d_hidden}, demb={d_emb}"),
            &*build(&cfg),
            paper,
        );
    }

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
    print_row("(D) one AR per table", &per_table, "40 / 7e6");

    let uniform = UniformJoinSampleEstimator::new(
        env.db.clone(),
        env.schema.clone(),
        config.baseline_samples,
        config.seed,
    );
    print_row("(E) uniform join samples", &uniform, "4.0 / 3e6");

    println!();
    println!("shape check: (A) and (D) should degrade most (median and tail respectively),");
    println!("(E) should collapse at the tail, (B)/(C) should move errors only mildly.");
}

/// **Table 6**: update strategies under time-ordered partition appends.
///
/// `title` is range-partitioned on `production_year` into 5 partitions; each ingest
/// defines a new snapshot of the whole database.  Three strategies are compared on the
/// same query set after every ingest:
///
/// * **stale** — train once on the first snapshot, never update,
/// * **fast update** — after each ingest, take gradient steps on a small number of fresh
///   samples (the paper uses 1% of the original budget),
/// * **retrain** — after each ingest, train on the full budget again.
pub(crate) fn table6(config: &HarnessConfig) {
    let env = BenchEnv::job_light(config);
    print_preamble(
        "Table 6: update strategies (stale / fast update / retrain)",
        &env.name,
        config,
    );

    let snapshots: Vec<BenchEnv> =
        partitioned_snapshots(&env.db, &env.schema, "production_year", 5)
            .into_iter()
            .map(|db| BenchEnv {
                db: Arc::new(db),
                schema: env.schema.clone(),
                name: env.name.clone(),
            })
            .collect();
    let queries = job_light_queries(&env.db, &env.schema, config.queries, config.seed);
    println!("{} queries, 5 cumulative partitions\n", queries.len());

    // All strategies start from the same model trained on the first snapshot, with
    // dictionaries built over the full database so the token space is stable.
    let options = BuildOptions {
        dictionary_db: Some(env.db.clone()),
        biased_sampler: false,
    };
    let cfg = config.neurocard();
    let fast_tuples = (config.train_tuples / 100).max(200);
    let first = &snapshots[0].db;

    let mut fast = NeuroCard::build_with(first.clone(), env.schema.clone(), &cfg, options.clone());
    // Stale: the first snapshot's model as an estimation core, which no later ingest or
    // training reaches (training is deterministic, so this is the model all three start
    // from).
    let stale = fast.core();
    let mut retrain = NeuroCard::build_with(first.clone(), env.schema.clone(), &cfg, options);

    println!(
        "{:<12} {:>10} {:>7} | partitions 1..5",
        "Strategy", "UpdateTime", "Metric"
    );
    // Per partition, for the stale, fast-update and retrain strategies.
    let mut evals: [Vec<ErrorSummary>; 3] = Default::default();

    let mut fast_time = Duration::ZERO;
    let mut retrain_time = Duration::ZERO;
    for (p, snapshot) in snapshots.iter().enumerate() {
        if p > 0 {
            let t = Instant::now();
            fast.ingest_snapshot(snapshot.db.clone(), fast_tuples);
            fast_time += t.elapsed();
            let t = Instant::now();
            retrain.ingest_snapshot(snapshot.db.clone(), config.train_tuples);
            retrain_time += t.elapsed();
        }
        // Once per snapshot, shared by the three strategies.
        let truths = true_cardinalities(snapshot, &queries);
        // A core is a snapshot: take fresh ones after the updates above.
        for (strategy, core) in evals
            .iter_mut()
            .zip([stale.clone(), fast.core(), retrain.core()])
        {
            strategy.push(evaluate(&*core, &queries, &truths).summary);
        }
    }
    let rows = [
        ("stale", "none".to_string()),
        ("fast update", format!("~{} total", secs(fast_time))),
        ("retrain", format!("~{} total", secs(retrain_time))),
    ];

    for ((name, time), per_partition) in rows.iter().zip(&evals) {
        let column = |metric: fn(&ErrorSummary) -> f64| {
            per_partition
                .iter()
                .map(|s| format!("{:>8.2}", metric(s)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:<12} {:>10} {:>7} | {}",
            name,
            time,
            "p95",
            column(|s| s.p95)
        );
        println!(
            "{:<12} {:>10} {:>7} | {}",
            "",
            "",
            "p50",
            column(|s| s.median)
        );
    }

    println!();
    println!("Paper: stale degrades to 1e4-1e5 p95 by partition 3; fast update stays ~13x;");
    println!("retrain stays ~6-8x.  Shape check: stale must degrade monotonically while the");
    println!("updated strategies stay within a small factor of their partition-1 accuracy.");
}
