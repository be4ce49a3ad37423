//! Reproduces **Figure 7b**: training-tuple sampling throughput versus the number of
//! sampler threads.
//!
//! The paper reports ~40K tuples/s peak with four threads saturating the GPU consumer.
//! Here there is no GPU and a single CPU core, so the absolute numbers and the saturation
//! point differ; what is preserved is that the sampler itself parallelises and the
//! per-thread cost is dominated by index lookups.
//!
//! The measurement: tuples/second versus worker count, drawn through a persistent
//! [`SamplerPool`] in training-sized batches (the pipeline the trainer actually runs).

use std::sync::Arc;
use std::time::Instant;

use nc_bench::harness::print_preamble;
use nc_bench::{BenchEnv, HarnessConfig};
use nc_sampler::{JoinSampler, SamplerPool, WideLayout};

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_light(&config);
    print_preamble(
        "Figure 7b: sampling throughput vs threads",
        &env.name,
        &config,
    );

    let sampler = Arc::new(JoinSampler::new(env.db.clone(), env.schema.clone()));
    let layout = Arc::new(WideLayout::new(&env.db, &env.schema));
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
        let pool = SamplerPool::new(sampler.clone(), layout.clone(), threads, config.seed, None);
        let start = Instant::now();
        let mut drawn = 0usize;
        let tickets: Vec<_> = batch_sizes(tuples, batch)
            .enumerate()
            .map(|(i, n)| pool.submit_indexed(i as u64, n))
            .collect();
        for t in tickets {
            drawn += t.wait().len();
        }
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

/// Splits `total` into `chunk`-sized batches plus a remainder.
fn batch_sizes(total: usize, chunk: usize) -> impl Iterator<Item = usize> {
    let full = total / chunk;
    let rem = total % chunk;
    (0..full)
        .map(move |_| chunk)
        .chain(std::iter::once(rem).filter(|r| *r > 0))
}
