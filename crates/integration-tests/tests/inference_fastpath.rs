//! Determinism contract of the inference fast path (PR 3): for a fixed
//! `(model, query, seed)` the zero-allocation / GEMM-backed / compacting progressive
//! sampler behind [`EstimatorCore::try_estimate`] returns **bit-identical** estimates to
//! the pre-optimization reference path ([`ProgressiveSampler::estimate_reference`] over
//! the same [`EstimatorCore::query_seed`] stream), with any scratch it is handed, at
//! whatever lane count the host's cores give a wide forward.

use std::sync::Arc;

use nc_datagen::{
    job_light_database, job_light_schema, job_m_database, job_m_schema, DataGenConfig,
};
use nc_sampler::ColumnKind;
use nc_schema::{JoinEdge, JoinSchema, Predicate, Query};
use nc_storage::{Database, TableBuilder, Value};
use nc_workloads::{job_light_ranges_queries, job_m_queries};
use neurocard::{
    EstimateError, EstimatorCore, NeuroCard, NeuroCardConfig, ProgressiveSampler, SamplerScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_model() -> (
    Arc<EstimatorCore>,
    Arc<nc_storage::Database>,
    Arc<nc_schema::JoinSchema>,
) {
    let datagen = DataGenConfig {
        title_rows: 120,
        ..DataGenConfig::tiny()
    };
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 2_000;
    (
        NeuroCard::build(db.clone(), schema.clone(), &config).core(),
        db,
        schema,
    )
}

#[test]
fn fast_path_is_bit_identical_to_reference_path() {
    let (core, db, schema) = build_model();
    let mut queries = job_light_ranges_queries(&db, &schema, 12, 99);
    // Cover the constraint kinds the generator may not hit: a bare single-table query
    // (all-fanout downscaling) and an unfiltered full join (indicators only).
    queries.push(Query::join(&["title"]));
    queries.push(Query::join(&["title", "cast_info", "movie_companies"]));

    let mut scratch = SamplerScratch::new();
    for (i, query) in queries.iter().enumerate() {
        for samples in [1usize, 33, 64] {
            let mut rng = StdRng::seed_from_u64(core.query_seed(query));
            let reference = sampler(&core).estimate_reference(query, samples, &mut rng);
            let fast = core.try_estimate(query, samples, &mut scratch).unwrap();
            assert!(
                reference == fast,
                "query {i} ({query}) samples {samples}: reference {reference} != fast {fast}"
            );
            // JOB-light's 64 samples never make a forward wide enough to split across
            // cores: every forward runs in one lane, on the calling thread.
            let counters = scratch.last_estimate();
            assert_eq!(
                counters.max_lanes,
                u64::from(counters.forwards > 0),
                "query {i} ({query}) samples {samples}"
            );
        }
    }
}

#[test]
fn try_estimate_surfaces_unmodelled_columns_as_errors() {
    let (core, _db, _schema) = build_model();
    // Join keys are not modelled under the default `model_join_keys = false`, so a filter
    // on one is an UnknownColumn error, not a panic.
    let bad = Query::join(&["title", "cast_info"]).filter("title", "id", Predicate::eq(1i64));
    let samples = core.config().progressive_samples;
    let mut scratch = SamplerScratch::new();
    assert_eq!(
        core.try_estimate(&bad, samples, &mut scratch),
        Err(EstimateError::UnknownColumn {
            table: "title".into(),
            column: "id".into(),
        })
    );
    // A valid query round-trips through the fallible API with the same value.
    let good = Query::join(&["title", "cast_info"]);
    assert_eq!(
        core.try_estimate(&good, samples, &mut scratch),
        Ok(core.estimate(&good))
    );
}

/// A JOB-M-shaped estimator: 16 tables (so most queries draw several fanout columns) and
/// 3-bit factorization (so content columns span up to three sub-columns).
fn build_job_m_model() -> (
    Arc<EstimatorCore>,
    Arc<nc_storage::Database>,
    Arc<nc_schema::JoinSchema>,
) {
    let datagen = DataGenConfig {
        title_rows: 60,
        ..DataGenConfig::tiny()
    };
    let db = Arc::new(job_m_database(&datagen));
    let schema = Arc::new(job_m_schema());
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 1_500;
    config.fact_bits = Some(3);
    (
        NeuroCard::build(db.clone(), schema.clone(), &config).core(),
        db,
        schema,
    )
}

fn sampler(core: &EstimatorCore) -> ProgressiveSampler<'_> {
    ProgressiveSampler::new(
        core.model(),
        core.encoded(),
        core.schema(),
        core.full_join_rows(),
    )
}

/// Fast path and reference path over the same explicit RNG stream, compared by bits.
fn assert_matches_reference(
    core: &EstimatorCore,
    query: &Query,
    samples: usize,
    seed: u64,
    scratch: &mut SamplerScratch,
) -> f64 {
    let sampler = sampler(core);
    let reference = sampler.estimate_reference(query, samples, &mut StdRng::seed_from_u64(seed));
    let fast = sampler
        .try_estimate_with_scratch(query, samples, &mut StdRng::seed_from_u64(seed), scratch)
        .unwrap();
    assert_eq!(
        reference.to_bits(),
        fast.to_bits(),
        "{query} samples {samples} seed {seed}: reference {reference} != fast {fast}"
    );
    fast
}

/// The first content column split into at least three sub-columns: `(wide index, table,
/// column)`.
fn three_digit_column(core: &EstimatorCore) -> (usize, String, String) {
    let encoded = core.encoded();
    encoded
        .layout()
        .columns()
        .iter()
        .enumerate()
        .find(|(i, c)| c.kind == ColumnKind::Content && encoded.subcolumns_of(*i).len() >= 3)
        .map(|(i, c)| (i, c.table.clone(), c.column.clone()))
        .expect("3-bit factorization splits some content column three ways")
}

#[test]
fn prefix_steps_keep_estimates_bit_identical_across_seeds_and_budgets() {
    let (light, light_db, light_schema) = build_model();
    let mut light_queries = job_light_ranges_queries(&light_db, &light_schema, 4, 5);
    light_queries.push(Query::join(&["title"]));

    let (m_core, m_db, m_schema) = build_job_m_model();
    let mut m_queries = job_m_queries(&m_db, &m_schema, 3, 11);
    // All-fanout downscaling of a 16-table schema, and a range over a column that spans
    // three sub-columns (classes split and re-parent digit by digit).
    m_queries.push(Query::join(&["title"]));
    let (idx, table, column) = three_digit_column(&m_core);
    let dict = m_core.encoded().dictionary(idx);
    let mid = dict.decode(dict.domain_size() as u32 / 2);
    m_queries.push(Query::join(&[table.as_str()]).filter(&table, &column, Predicate::ge(mid)));

    // Per workload, the model forwards and the block terms — product terms the residual
    // blocks' new-unit kernels walk — summed over its 60 estimates; both are deterministic.
    // One forward per drawn sub-column, each reading the point constraints before it as
    // heads, makes 264 (JOB-light, 27 columns) and 948 (JOB-M, 75 columns) forwards; one
    // forward per point constraint as well made 612 and 1 140.  A step that computes only
    // the units its new columns reach walks 7 563 032 and 571 096 block terms.  The bounds
    // add about 10 % and 25 %; JOB-light's stays below the 9 112 248 of one forward
    // per point constraint (JOB-M's point columns lie at degrees with no unit in a 32-wide
    // layer, so its block terms do not tell them apart).  Recomputing every live unit at
    // every step walks 26 716 368 and 25 687 328, and fails both.
    let pins = [(264, 8_300_000), (948, 714_000)];
    let mut scratch = SamplerScratch::new();
    let mut widest = 0;
    for ((core, queries), (pinned_forwards, bound)) in
        [(light, &light_queries), (m_core, &m_queries)]
            .into_iter()
            .zip(pins)
    {
        let columns = core.encoded().num_model_columns() as u64;
        let (mut block_terms, mut forwards) = (0, 0);
        for query in queries {
            for samples in [1usize, 7, 64, 512] {
                for seed in [3u64, 17, 40_009] {
                    assert_matches_reference(&core, query, samples, seed, &mut scratch);
                    // The prefix is carried: a row never re-embeds the whole tuple.
                    let counters = scratch.last_estimate();
                    assert!(counters.forwards > 0 && counters.rows_forwarded >= counters.forwards);
                    assert!(counters.columns_embedded < counters.rows_forwarded * columns);
                    block_terms += counters.block_terms;
                    forwards += counters.forwards;
                    widest = widest.max(counters.max_lanes);
                }
            }
        }
        // Point constraints ride on the next forward.
        assert_eq!(forwards, pinned_forwards, "{columns} columns: forwards");
        // The masks and the carry are used: a step computes only the hidden units its new
        // columns reach, from only the units the masks let into its column.
        assert!(
            block_terms <= bound,
            "{columns} columns: {block_terms} block terms, bound {bound}"
        );
    }
    // On a host with two cores or more, the 512-sample budgets make forwards wide enough
    // to split, so the bits above were also compared across lanes.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        (cores.min(2) as u64..=cores as u64).contains(&widest),
        "{cores} cores, at most {widest} lanes"
    );
}

/// A three-table chain `A.id = B.a_id`, `B.id = C.b_id` with one content column per table:
/// `A.kind` (4 codes), `B.size` (12) and `C.flag` (2), all unfactorized.  The layout puts
/// the content columns first, then the three indicators, then the fanout columns.
fn build_chain_model() -> Arc<EstimatorCore> {
    let mut db = Database::new();
    let mut a = TableBuilder::new("A", &["id", "kind"]);
    let mut b = TableBuilder::new("B", &["a_id", "id", "size"]);
    let mut c = TableBuilder::new("C", &["b_id", "flag"]);
    for i in 0..40i64 {
        a.push_row(vec![Value::Int(i), Value::Int(i % 4)]);
        for j in 0..i % 3 {
            let id = 3 * i + j;
            b.push_row(vec![
                Value::Int(i),
                Value::Int(id),
                Value::Int((i + j) % 12),
            ]);
            for _ in 0..id % 2 + j {
                c.push_row(vec![Value::Int(id), Value::Int((id + j) % 2)]);
            }
        }
    }
    for table in [a, b, c] {
        db.add_table(table.finish());
    }
    let schema = JoinSchema::new(
        vec!["A".into(), "B".into(), "C".into()],
        vec![
            JoinEdge::parse("A.id", "B.a_id"),
            JoinEdge::parse("B.id", "C.b_id"),
        ],
        "A",
    )
    .unwrap();
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 1_000;
    NeuroCard::build(Arc::new(db), Arc::new(schema), &config).core()
}

/// A point constraint — a joined table's indicator, an equality filter on an unfactorized
/// column — costs no forward of its own: it is read off the next forward's trunk, and a run
/// of them at the end of the walk takes one forward.
#[test]
fn point_constraints_ride_on_the_next_forward() {
    let chain = build_chain_model();
    let full = Query::join(&["A", "B", "C"]);
    let eq_kind = full.clone().filter("A", "kind", Predicate::eq(2i64));
    let (light, _, _) = build_model();
    let cases = [
        // The unfiltered full join: three indicators, nothing drawn — one forward.
        (&chain, full.clone(), 1),
        // Equality filters on unfactorized columns are points too.
        (
            &chain,
            eq_kind.clone().filter("C", "flag", Predicate::eq(1i64)),
            1,
        ),
        // A range is drawn: its forward reads the point before it (`A.kind`), and the
        // indicators after it take one more.
        (&chain, eq_kind.filter("B", "size", Predicate::ge(5i64)), 2),
        // Omitting C draws its fanout column, the last of the layout: one forward, which
        // reads both indicators.
        (&chain, Query::join(&["A", "B"]), 1),
        // JOB-light's unfiltered 3-table join: one forward per omitted table's fanout
        // column, the first reading the three indicators.
        (
            &light,
            Query::join(&["title", "cast_info", "movie_companies"]),
            3,
        ),
    ];
    let mut scratch = SamplerScratch::new();
    for (core, query, forwards) in cases {
        for samples in [1usize, 64, 512] {
            assert_matches_reference(core, &query, samples, 5, &mut scratch);
            let counters = scratch.last_estimate();
            assert_eq!(counters.forwards, forwards, "{query} samples {samples}");
            if forwards == 1 {
                // All samples start in one class, and points never split one.
                assert_eq!(counters.rows_forwarded, 1, "{query} samples {samples}");
            }
        }
    }
}

#[test]
fn samples_that_all_die_mid_column_match_the_reference() {
    let (core, _db, _schema) = build_job_m_model();
    let (idx, table, column) = three_digit_column(&core);
    let encoded = core.encoded();
    let code = encoded.dictionary(idx).domain_size() as u32 / 2;
    let literal = encoded.dictionary(idx).decode(code);
    let middle = encoded.subcolumns_of(idx)[1];
    assert!(encoded.layout().columns()[..idx]
        .iter()
        .all(|c| c.kind == ColumnKind::Content));
    let digit = encoded.factorization(idx).split(code)[1] as usize;

    // Push the middle digit's logit bias to -1e30: its probability underflows to exactly
    // zero, so every sample of an equality filter on `literal` dies at the middle
    // sub-column and the last sub-column is forwarded with no live sample at all.
    let mut model = core.model().clone();
    let mut params = model.params_mut();
    let bias = params.len() - core.model().num_columns() + middle;
    assert_eq!(
        (params[bias].value.rows(), params[bias].value.cols()),
        (1, core.model().domain(middle))
    );
    params[bias].value.set(0, digit, -1e30);
    let poisoned = EstimatorCore::new(
        model,
        core.encoded().clone(),
        core.schema().clone(),
        core.config().clone(),
        core.full_join_rows(),
    )
    .unwrap();

    let query = Query::join(&[table.as_str()]).filter(&table, &column, Predicate::eq(literal));
    let mut scratch = SamplerScratch::new();
    for samples in [1usize, 7, 64] {
        let estimate = assert_matches_reference(&poisoned, &query, samples, 23, &mut scratch);
        assert_eq!(
            estimate, 1.0,
            "no sample survives, so the estimate is the 1-row floor"
        );
        // The filtered column is the first constrained one (only unfiltered content
        // columns precede it), so the walk is: first digit, middle digit — where every
        // sample dies — and the last digit, forwarded as one placeholder row.
        let counters = scratch.last_estimate();
        assert_eq!((counters.forwards, counters.rows_forwarded), (3, 3));
    }
    // The unpoisoned model answers the same query with live samples, all the way through
    // the indicator and fanout columns behind the filter.
    assert_matches_reference(&core, &query, 64, 23, &mut scratch);
    assert!(scratch.last_estimate().forwards > 3);
}

#[test]
fn one_scratch_alternated_between_models_returns_fresh_scratch_bits() {
    let (light, light_db, light_schema) = build_model();
    let (m, m_db, m_schema) = build_job_m_model();
    let light_queries = job_light_ranges_queries(&light_db, &light_schema, 4, 21);
    let m_queries = job_m_queries(&m_db, &m_schema, 4, 22);

    // Stale accumulators, parent rows or counters of one (model, query) must never leak
    // into the next estimate: the shared scratch sees model A, then B, then A again...
    let mut shared = SamplerScratch::new();
    for round in 0..2 {
        for (a, b) in light_queries.iter().zip(&m_queries) {
            for (model, query) in [(&light, a), (&m, b)] {
                let samples = if round == 0 { 64 } else { 9 };
                let fresh = model
                    .try_estimate(query, samples, &mut SamplerScratch::new())
                    .unwrap();
                let reused = model.try_estimate(query, samples, &mut shared).unwrap();
                assert_eq!(fresh.to_bits(), reused.to_bits(), "{query} round {round}");
            }
        }
    }
}
