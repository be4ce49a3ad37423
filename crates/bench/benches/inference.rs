//! Criterion micro-benchmark: end-to-end progressive-sampling inference latency of a small
//! trained NeuroCard (the per-query cost behind Figure 7d), and one block layer of an
//! inference step — the units it computes beside the units it reads — at the two
//! hidden-stack shapes of `nc_benchmark`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use nc_datagen::{
    job_light_database, job_light_schema, job_m_database, job_m_schema, DataGenConfig,
};
use nc_nn::tensor::{add_bias, matmul_blocked, matmul_units_live};
use nc_nn::{relu, Matrix};
use nc_schema::{JoinSchema, Predicate, Query};
use nc_storage::Database;
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

/// One block layer of an inference step on the per-step unit kernel, fed the operands a
/// real forward hands it: a briefly trained default-architecture model (`d_hidden` 96) is
/// run by hand — embed, input layer, first block layer — over progressive-sampling-shaped
/// rows, so `h` and `a` carry the zeros real activations have (they repeat down a batch;
/// synthetic random zeros make the zero-skip branch look far worse than it is).  `*_new`
/// computes the units a step for `col` computes when it continues a prefix of `col − 1`
/// columns ([`nc_nn::ResMade::new_units`]); `*_live` every unit that step reads, which is
/// what it would compute without the carried prefix.
fn bench_block_gemm(c: &mut Criterion, name: &str, db: Database, schema: JoinSchema) {
    let config = NeuroCardConfig {
        training_tuples: 2_000,
        ..NeuroCardConfig::default()
    };
    let core = NeuroCard::build(Arc::new(db), Arc::new(schema), &config).core();
    let net = core.model();
    let n = net.num_columns();
    let col = n / 2;

    // Rows as the sampler forwards them for `col`: drawn codes or wildcards before it,
    // wildcards from it on.
    let rows = 64;
    let mut seed = 0xB10C_u64;
    let tokens: Vec<u32> = (0..rows * n)
        .map(|i| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = i % n;
            if c >= col || (seed >> 40) & 1 == 0 {
                net.mask_token(c)
            } else {
                ((seed >> 33) % net.domain(c) as u64) as u32
            }
        })
        .collect();

    // Parameter order: one embedding table per column, then (weight, bias) of the input
    // layer and of each block layer.
    let params = net.params();
    let layer = |i: usize| (&params[n + 2 * i].value, params[n + 2 * i + 1].value.row(0));
    let ((w_in, b_in), (w1, b1), (w2, _)) = (layer(0), layer(1), layer(2));
    let d_hidden = net.config().d_hidden;
    let mut x = Matrix::zeros(0, 0);
    net.embed_flat_into(&tokens, &mut x);
    let mut h = Matrix::zeros(rows, d_hidden);
    matmul_blocked(&x, w_in, &mut h);
    add_bias(&mut h, b_in);
    relu(&mut h);
    let mut a = Matrix::zeros(rows, d_hidden);
    matmul_blocked(&h, w1, &mut a);
    add_bias(&mut a, b1);
    relu(&mut a);

    let live = net.live_units(col);
    let mut out = Matrix::zeros(rows, d_hidden);
    let mut group = c.benchmark_group(format!("block_gemm_{name}_n{n}_col{col}"));
    for (operand, input, weight) in [("h", &h, w1), ("a", &a, w2)] {
        for (units, from) in [("new", col - 1), ("live", 0)] {
            group.bench_function(format!("{operand}_{units}"), |b| {
                b.iter(|| {
                    for run in net.new_units(from, col) {
                        matmul_units_live(input, weight, run, live, &mut out);
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_block_gemms(c: &mut Criterion) {
    let cfg = DataGenConfig {
        title_rows: 300,
        ..DataGenConfig::default()
    };
    bench_block_gemm(c, "job_light", job_light_database(&cfg), job_light_schema());
    bench_block_gemm(c, "job_m", job_m_database(&cfg), job_m_schema());
}

criterion_group!(benches, bench_inference, bench_block_gemms);
criterion_main!(benches);
