//! Criterion micro-benchmark: end-to-end progressive-sampling inference latency of a small
//! trained NeuroCard (the per-query cost behind Figure 7d).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_schema::{Predicate, Query};
use neurocard::{NeuroCard, NeuroCardConfig};

fn bench_inference(c: &mut Criterion) {
    let cfg = DataGenConfig {
        title_rows: 300,
        ..DataGenConfig::default()
    };
    let db = Arc::new(job_light_database(&cfg));
    let schema = Arc::new(job_light_schema());
    let mut nc_cfg = NeuroCardConfig::tiny();
    nc_cfg.training_tuples = 4_000;
    nc_cfg.progressive_samples = 64;
    let model = NeuroCard::build(db, schema, &nc_cfg);

    let q2 = Query::join(&["title", "cast_info"]).filter(
        "title",
        "production_year",
        Predicate::ge(2000i64),
    );
    let q4 = Query::join(&["title", "cast_info", "movie_keyword", "movie_info"])
        .filter("title", "production_year", Predicate::le(2005i64))
        .filter("cast_info", "role_id", Predicate::eq(2i64));

    let mut group = c.benchmark_group("progressive_sampling");
    group.sample_size(10);
    group.bench_function("two_table_query", |b| {
        b.iter(|| std::hint::black_box(model.estimate(&q2)))
    });
    group.bench_function("four_table_query", |b| {
        b.iter(|| std::hint::black_box(model.estimate(&q4)))
    });
    group.bench_function("psamples_16_vs_64", |b| {
        let mut scratch = neurocard::SamplerScratch::new();
        b.iter(|| std::hint::black_box(model.try_estimate(&q4, 16, &mut scratch).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
