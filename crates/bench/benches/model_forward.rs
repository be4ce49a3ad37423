//! Criterion micro-benchmark: ResMADE forward/backward training steps and conditional
//! probability evaluation (the per-batch cost behind Figures 7a–7c).

use criterion::{criterion_group, criterion_main, Criterion};
use nc_nn::{Adam, AdamConfig, InferenceScratch, MadeConfig, ResMade, TrainScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The model `bench/nc_benchmark` trains on its JOB-light fixture: these 27 column
/// domains (Σ 2 737) at the crate's default width.
fn model() -> ResMade {
    ResMade::new(MadeConfig {
        domains: vec![
            7, 62, 41, 13, 768, 753, 12, 60, 275, 5, 21, 201, 11, 87, 288, 3, 3, 3, 3, 3, 3, 33,
            16, 29, 13, 22, 2,
        ],
        d_emb: 12,
        d_hidden: 96,
        num_blocks: 2,
        seed: 1,
    })
}

/// `n` rows of tokens, flat row-major.
fn batch(model: &ResMade, n: usize) -> Vec<u32> {
    (0..n as u32)
        .flat_map(|i| {
            (0..model.num_columns()).map(move |c| (i * 7 + c as u32) % model.domain(c) as u32)
        })
        .collect()
}

fn bench_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("resmade");
    group.sample_size(20);

    // One step as `Trainer::train_step` runs it: inputs wildcard-skipped at the varied
    // per-row rate, every buffer out of one reused scratch.
    group.bench_function("forward_backward_batch128", |b| {
        let mut m = model();
        let mut adam = Adam::for_params(AdamConfig::default(), &m.params());
        let targets = batch(&m, 128);
        let mut inputs = Vec::new();
        m.apply_wildcard_skipping(&targets, None, &mut StdRng::seed_from_u64(7), &mut inputs);
        let mut scratch = TrainScratch::new();
        b.iter(|| {
            let loss = m.forward_backward(&inputs, &targets, &mut scratch);
            adam.step(&mut m.params_mut());
            std::hint::black_box(loss)
        })
    });

    // What production calls: one reused scratch, no allocation in steady state.
    group.bench_function("conditional_probs_batch64", |b| {
        let m = model();
        let rows = batch(&m, 64);
        let mut scratch = InferenceScratch::new();
        b.iter(|| {
            let probs = m.conditional_probs_into(std::hint::black_box(&rows), 6, &mut scratch);
            std::hint::black_box(probs.get(0, 0))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
