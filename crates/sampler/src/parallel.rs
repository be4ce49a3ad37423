//! Parallel batch sampling (paper §4.1, "Parallel sampling"; evaluated in Figure 7b).
//!
//! This is the legacy one-shot entry point: it spawns scoped threads per call — the
//! spawn-per-batch scheme the persistent [`crate::pool::SamplerPool`] exists to replace —
//! but shares the pool's chunking (`pool::chunk_quotas`) and stream derivation
//! ([`derive_stream_seed`] over `(seed, batch 0, worker)`), so its output is identical to
//! `pool.submit_indexed(0, n)` for the same `(seed, threads)`.  Callers with more than
//! one batch to draw should hold a [`crate::pool::SamplerPool`] instead.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nc_storage::Value;

use crate::pool::chunk_quotas;
use crate::sampler::JoinSampler;
use crate::seed::derive_stream_seed;
use crate::wide::WideLayout;

/// Draws `n` wide-layout tuples using `threads` sampling threads.
///
/// The sampler and layout are shared read-only across threads (the join counts are behind
/// an `Arc`).  With `threads == 1` this is equivalent to sequential sampling; the result
/// for any `threads` equals the corresponding [`crate::pool::SamplerPool`] batch `0`.
pub fn sample_wide_batch_parallel(
    sampler: &JoinSampler,
    layout: &WideLayout,
    n: usize,
    threads: usize,
    seed: u64,
) -> Vec<Vec<Value>> {
    let threads = threads.max(1);
    let chunk = |worker: u64, quota: usize| {
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(seed, 0, worker));
        let samples = sampler.sample_many(&mut rng, quota);
        layout.materialize_batch(sampler.database(), &samples)
    };
    if threads == 1 {
        // Sequential fast path: exactly worker 0's stream for batch 0.
        return chunk(0, n);
    }
    let mut out: Vec<Vec<Vec<Value>>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (worker, quota) in chunk_quotas(n, threads).enumerate() {
            if quota == 0 {
                continue;
            }
            let chunk = &chunk;
            handles.push(scope.spawn(move || chunk(worker as u64, quota)));
        }
        for h in handles {
            out.push(h.join().expect("sampling thread panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, JoinSchema};
    use nc_storage::{Database, TableBuilder};
    use std::sync::Arc;

    fn tiny() -> (Arc<Database>, Arc<JoinSchema>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "v"]);
        for i in 0..20 {
            a.push_row(vec![Value::Int(i % 5), Value::Int(i)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "w"]);
        for i in 0..30 {
            b.push_row(vec![Value::Int(i % 6), Value::Int(i * 10)]);
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        (Arc::new(db), Arc::new(schema))
    }

    #[test]
    fn parallel_batch_has_requested_size_and_valid_rows() {
        let (db, schema) = tiny();
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let layout = WideLayout::new(&db, &schema);
        for threads in [1, 2, 4] {
            let batch = sample_wide_batch_parallel(&sampler, &layout, 257, threads, 42);
            assert_eq!(batch.len(), 257, "threads={threads}");
            for row in &batch {
                assert_eq!(row.len(), layout.len());
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let (db, schema) = tiny();
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let layout = WideLayout::new(&db, &schema);
        let a = sample_wide_batch_parallel(&sampler, &layout, 200, 3, 7);
        let b = sample_wide_batch_parallel(&sampler, &layout, 200, 3, 7);
        assert_eq!(a, b);
        let c = sample_wide_batch_parallel(&sampler, &layout, 200, 3, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn single_thread_fast_path_matches_pool_chunking() {
        use crate::pool::SamplerPool;
        let (db, schema) = tiny();
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let layout = WideLayout::new(&db, &schema);
        let seq = sample_wide_batch_parallel(&sampler, &layout, 64, 1, 5);
        let pool = SamplerPool::new(
            Arc::new(sampler.clone()),
            Arc::new(layout.clone()),
            1,
            5,
            None,
        );
        assert_eq!(seq, pool.submit_indexed(0, 64).wait().into_wide());
    }

    #[test]
    fn small_requests_still_return_requested_size() {
        let (db, schema) = tiny();
        let sampler = JoinSampler::new(db.clone(), schema.clone());
        let layout = WideLayout::new(&db, &schema);
        let batch = sample_wide_batch_parallel(&sampler, &layout, 3, 8, 1);
        assert_eq!(batch.len(), 3);
    }
}
