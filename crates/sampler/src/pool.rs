//! Persistent sampling worker pool (paper §4.1, "Parallel sampling"; Figure 7b).
//!
//! Training cost is dominated by repeatedly requesting batches of sampled tuples (§2.2),
//! and spawning OS threads per batch wastes a fixed spawn/join cost on every one of them.
//! [`SamplerPool`] keeps `threads` long-lived workers fed over channels instead: a batch
//! request is split into one chunk per worker, each worker samples (and optionally encodes)
//! its chunk with a private RNG stream, and the chunks are reassembled in worker order.
//!
//! # Determinism contract
//!
//! Worker `t`'s stream for batch `b` is seeded with
//! [`derive_stream_seed`]`(seed, b, t)` and its chunk size is a pure function of
//! `(n, threads)`, so the assembled batch depends only on `(seed, threads, b, n)` — not on
//! scheduling, the number of batches in flight, or whether the caller prefetches.  A fixed
//! `(seed, threads)` pair therefore yields an identical sample stream at any prefetch
//! depth.  Stated without threads: batch `b` is the in-order concatenation, over workers
//! `t`, of `sample_many(StdRng::seed_from_u64(derive_stream_seed(seed, b, t)), quota_t)`
//! materialised through the layout, with `quota_t = n / threads + (t < n % threads)`.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nc_storage::Value;

use crate::sampler::JoinSampler;
use crate::seed::derive_stream_seed;
use crate::wide::WideLayout;

/// Post-processing a worker applies to its materialised chunk before handing it back —
/// in practice token encoding, so that encoding overlaps the consumer's compute.  Maps a
/// chunk of wide rows to one flat row-major token buffer, the same width for every row.
pub type BatchEncoder = Arc<dyn Fn(&[Vec<Value>]) -> Vec<u32> + Send + Sync>;

/// A completed batch: wide rows, or encoded tokens when the pool has an encoder.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolBatch {
    /// Materialised wide-layout rows (pool built without an encoder).
    Wide(Vec<Vec<Value>>),
    /// Token-encoded rows (pool built with an encoder): `rows` rows, flat row-major.
    Encoded { rows: usize, tokens: Vec<u32> },
}

impl PoolBatch {
    /// Unwraps the wide rows; panics if the pool encoded the batch.
    pub fn into_wide(self) -> Vec<Vec<Value>> {
        match self {
            PoolBatch::Wide(rows) => rows,
            PoolBatch::Encoded { .. } => {
                panic!("pool was built with an encoder; batch is encoded")
            }
        }
    }

    /// Unwraps the flat row-major encoded tokens; panics if the pool did not encode.
    pub fn into_encoded(self) -> Vec<u32> {
        match self {
            PoolBatch::Encoded { tokens, .. } => tokens,
            PoolBatch::Wide(_) => panic!("pool was built without an encoder; batch is wide"),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        match self {
            PoolBatch::Wide(rows) => rows.len(),
            PoolBatch::Encoded { rows, .. } => *rows,
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Job {
    quota: usize,
    stream_seed: u64,
    /// `(worker, its chunk)` — a chunk is a batch of `quota` rows.
    reply: Sender<(usize, PoolBatch)>,
}

/// Handle to one in-flight batch; [`BatchTicket::wait`] blocks until every worker chunk
/// has arrived and assembles them in worker order.
pub struct BatchTicket {
    batch_index: u64,
    expected: usize,
    encoded: bool,
    rx: Receiver<(usize, PoolBatch)>,
}

impl BatchTicket {
    /// The batch index this ticket was submitted under.
    pub fn batch_index(&self) -> u64 {
        self.batch_index
    }

    /// Blocks until the batch is complete and returns it.
    ///
    /// Chunks are reassembled in worker order regardless of completion order, so the
    /// result is independent of scheduling.
    pub fn wait(self) -> PoolBatch {
        let mut chunks: Vec<Option<PoolBatch>> = Vec::new();
        chunks.resize_with(self.expected, || None);
        for _ in 0..self.expected {
            let (worker, payload) = self
                .rx
                .recv()
                .expect("sampler pool worker dropped a chunk (worker panicked?)");
            chunks[worker] = Some(payload);
        }
        let mut batch = if self.encoded {
            PoolBatch::Encoded {
                rows: 0,
                tokens: Vec::new(),
            }
        } else {
            PoolBatch::Wide(Vec::new())
        };
        for chunk in chunks {
            match (&mut batch, chunk.expect("all chunks received")) {
                (PoolBatch::Wide(out), PoolBatch::Wide(rows)) => out.extend(rows),
                (
                    PoolBatch::Encoded { rows, tokens },
                    PoolBatch::Encoded {
                        rows: chunk_rows,
                        tokens: chunk_tokens,
                    },
                ) => {
                    *rows += chunk_rows;
                    tokens.extend(chunk_tokens);
                }
                _ => unreachable!("a pool's chunks are all of its own kind"),
            }
        }
        batch
    }
}

/// A persistent pool of sampling workers over one `(sampler, layout)` pair.
///
/// Workers live until the pool is dropped; queued jobs are drained before the workers
/// exit, so tickets submitted before the drop remain waitable.
pub struct SamplerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    seed: u64,
    encoded: bool,
}

impl SamplerPool {
    /// Spawns `threads` workers sharing `sampler`/`layout`, with streams rooted at `seed`.
    ///
    /// When `encoder` is provided, workers encode their chunk after materialising it and
    /// the pool yields [`PoolBatch::Encoded`] batches.
    pub fn new(
        sampler: Arc<JoinSampler>,
        layout: Arc<WideLayout>,
        threads: usize,
        seed: u64,
        encoder: Option<BatchEncoder>,
    ) -> Self {
        let threads = threads.max(1);
        let encoded = encoder.is_some();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let (tx, rx) = channel::<Job>();
            let sampler = sampler.clone();
            let layout = layout.clone();
            let encoder = encoder.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(worker, rx, &sampler, &layout, encoder.as_ref())
            }));
            senders.push(tx);
        }
        SamplerPool {
            senders,
            handles,
            seed,
            encoded,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Submits a batch under an explicit batch index.  Callers own the batch numbering
    /// (the trainer's counter persists across pool rebuilds on source swaps), so the pool
    /// deliberately keeps no sequencing state of its own.
    ///
    /// The result depends only on `(seed, threads, batch_index, n)`; submitting the same
    /// index twice reproduces the same batch.
    pub fn submit_indexed(&self, batch_index: u64, n: usize) -> BatchTicket {
        let (reply_tx, reply_rx) = channel();
        let mut expected = 0usize;
        for (worker, quota) in chunk_quotas(n, self.threads()).enumerate() {
            if quota == 0 {
                continue;
            }
            self.senders[worker]
                .send(Job {
                    quota,
                    stream_seed: derive_stream_seed(self.seed, batch_index, worker as u64),
                    reply: reply_tx.clone(),
                })
                .expect("sampler pool worker exited while pool is alive");
            expected += 1;
        }
        // Quotas are front-loaded, so the workers that received a job are exactly
        // 0..expected and chunk assembly can index by raw worker id.
        BatchTicket {
            batch_index,
            expected,
            encoded: self.encoded,
            rx: reply_rx,
        }
    }
}

impl Drop for SamplerPool {
    fn drop(&mut self) {
        // Closing the job channels lets each worker drain its queue and exit.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Per-worker chunk sizes for a batch of `n` rows over `threads` workers: `n / threads`
/// each, with the remainder spread over the first workers (front-loaded, so zero quotas
/// can only trail).
fn chunk_quotas(n: usize, threads: usize) -> impl Iterator<Item = usize> {
    let per = n / threads;
    let rem = n % threads;
    (0..threads).map(move |t| per + usize::from(t < rem))
}

fn worker_loop(
    worker: usize,
    rx: Receiver<Job>,
    sampler: &JoinSampler,
    layout: &WideLayout,
    encoder: Option<&BatchEncoder>,
) {
    // `recv` keeps returning queued jobs after the pool drops its senders, so in-flight
    // tickets stay waitable during shutdown.
    while let Ok(job) = rx.recv() {
        let mut rng = StdRng::seed_from_u64(job.stream_seed);
        let samples = sampler.sample_many(&mut rng, job.quota);
        let rows = layout.materialize_batch(sampler.database(), &samples);
        let chunk = match encoder {
            Some(enc) => PoolBatch::Encoded {
                rows: rows.len(),
                tokens: enc(&rows),
            },
            None => PoolBatch::Wide(rows),
        };
        // The ticket may have been dropped without waiting; that is not an error.
        let _ = job.reply.send((worker, chunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, JoinSchema};
    use nc_storage::{Database, TableBuilder};

    fn tiny() -> (Arc<JoinSampler>, Arc<WideLayout>) {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "v"]);
        for i in 0..25 {
            a.push_row(vec![Value::Int(i % 5), Value::Int(i)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "w"]);
        for i in 0..40 {
            b.push_row(vec![Value::Int(i % 7), Value::Int(i * 10)]);
        }
        db.add_table(b.finish());
        let schema = Arc::new(
            JoinSchema::new(
                vec!["A".into(), "B".into()],
                vec![JoinEdge::parse("A.x", "B.x")],
                "A",
            )
            .unwrap(),
        );
        let db = Arc::new(db);
        let layout = Arc::new(WideLayout::new(&db, &schema));
        let sampler = Arc::new(JoinSampler::new(db, schema));
        (sampler, layout)
    }

    #[test]
    fn pool_batches_are_deterministic_per_index() {
        let (sampler, layout) = tiny();
        let pool = SamplerPool::new(sampler, layout, 3, 11, None);
        let a = pool.submit_indexed(4, 100).wait().into_wide();
        let b = pool.submit_indexed(4, 100).wait().into_wide();
        assert_eq!(a, b);
        let c = pool.submit_indexed(5, 100).wait().into_wide();
        assert_ne!(a, c, "distinct batch indices must give distinct batches");
    }

    /// The determinism contract, stated without threads: a batch is the in-order
    /// concatenation of each worker's own stream, drawn here one after the other.
    #[test]
    fn pool_batch_is_the_concatenation_of_its_worker_streams() {
        let (sampler, layout) = tiny();
        for threads in [1usize, 2, 3, 8] {
            let pool = SamplerPool::new(sampler.clone(), layout.clone(), threads, 9, None);
            for batch in [0u64, 5] {
                for n in [0usize, 1, 3, 64, 257] {
                    let expected: Vec<Vec<Value>> = (0..threads)
                        .flat_map(|t| {
                            let quota = n / threads + usize::from(t < n % threads);
                            let seed = derive_stream_seed(9, batch, t as u64);
                            let samples =
                                sampler.sample_many(&mut StdRng::seed_from_u64(seed), quota);
                            layout.materialize_batch(sampler.database(), &samples)
                        })
                        .collect();
                    let pooled = pool.submit_indexed(batch, n).wait().into_wide();
                    assert_eq!(pooled, expected, "threads={threads} batch={batch} n={n}");
                }
            }
        }
    }

    #[test]
    fn in_flight_depth_does_not_change_results() {
        let (sampler, layout) = tiny();
        // Serial: submit, wait, submit, wait ...
        let pool = SamplerPool::new(sampler.clone(), layout.clone(), 2, 21, None);
        let serial: Vec<_> = (0..6u64)
            .map(|b| pool.submit_indexed(b, 33).wait().into_wide())
            .collect();
        // Pipelined: all six in flight at once, waited in order.
        let pool2 = SamplerPool::new(sampler, layout, 2, 21, None);
        let tickets: Vec<_> = (0..6u64).map(|b| pool2.submit_indexed(b, 33)).collect();
        let pipelined: Vec<_> = tickets.into_iter().map(|t| t.wait().into_wide()).collect();
        assert_eq!(serial, pipelined);
    }

    #[test]
    fn tickets_carry_their_batch_index() {
        let (sampler, layout) = tiny();
        let pool = SamplerPool::new(sampler, layout, 2, 3, None);
        let t0 = pool.submit_indexed(0, 10);
        let t1 = pool.submit_indexed(1, 10);
        assert_eq!(t0.batch_index(), 0);
        assert_eq!(t1.batch_index(), 1);
        assert_ne!(t0.wait().into_wide(), t1.wait().into_wide());
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn encoder_runs_inside_workers() {
        let (sampler, layout) = tiny();
        let width = layout.len();
        // A stand-in encoder: row -> [row length, 7].
        let encoder: BatchEncoder =
            Arc::new(move |rows| rows.iter().flat_map(|r| [r.len() as u32, 7]).collect());
        let pool = SamplerPool::new(sampler, layout, 3, 5, Some(encoder));
        let batch = pool.submit_indexed(0, 50).wait();
        assert_eq!(batch.len(), 50, "len() counts rows, not tokens");
        assert_eq!(batch.into_encoded(), [width as u32, 7].repeat(50));
        assert!(pool.submit_indexed(1, 0).wait().is_empty());
    }

    /// An encoder pool's batch is the row-major concatenation of encoding each wide row of
    /// the no-encoder pool's batch at the same `(seed, threads, index)`: chunking moves
    /// where the encoder runs, never what the consumer sees.
    #[test]
    fn encoded_batch_is_the_flat_encoding_of_the_wide_batch() {
        let (sampler, layout) = tiny();
        // Row -> one token per value plus a trailing row-arity token.
        let encode_row = |row: &Vec<Value>| -> Vec<u32> {
            let value_token = |v: &Value| match v {
                Value::Int(i) => *i as u32 + 1,
                _ => 0,
            };
            let mut tokens: Vec<u32> = row.iter().map(value_token).collect();
            tokens.push(row.len() as u32);
            tokens
        };
        let encoder: BatchEncoder =
            Arc::new(move |rows| rows.iter().flat_map(encode_row).collect());
        for threads in [1usize, 3] {
            let wide = SamplerPool::new(sampler.clone(), layout.clone(), threads, 13, None);
            let encoded = SamplerPool::new(
                sampler.clone(),
                layout.clone(),
                threads,
                13,
                Some(encoder.clone()),
            );
            for (index, n) in [(0u64, 50usize), (3, 7), (4, 1)] {
                let expected: Vec<u32> = wide
                    .submit_indexed(index, n)
                    .wait()
                    .into_wide()
                    .iter()
                    .flat_map(encode_row)
                    .collect();
                let batch = encoded.submit_indexed(index, n).wait();
                assert_eq!(batch.len(), n);
                assert_eq!(batch.into_encoded(), expected, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "built with an encoder")]
    fn wide_unwrap_of_encoded_batch_panics() {
        let (sampler, layout) = tiny();
        let encoder: BatchEncoder = Arc::new(|rows| vec![0; rows.len()]);
        let pool = SamplerPool::new(sampler, layout, 1, 5, Some(encoder));
        pool.submit_indexed(0, 2).wait().into_wide();
    }

    #[test]
    fn tickets_survive_pool_shutdown() {
        let (sampler, layout) = tiny();
        let pool = SamplerPool::new(sampler.clone(), layout.clone(), 2, 17, None);
        let expect = pool.submit_indexed(0, 40).wait().into_wide();
        let ticket = pool.submit_indexed(0, 40);
        drop(pool); // joins workers; queued job must be drained first
        assert_eq!(ticket.wait().into_wide(), expect);
    }

    #[test]
    fn dropping_unwaited_tickets_does_not_hang_shutdown() {
        let (sampler, layout) = tiny();
        let pool = SamplerPool::new(sampler, layout, 4, 1, None);
        for b in 0..8u64 {
            drop(pool.submit_indexed(b, 16));
        }
        drop(pool); // must not deadlock or panic
    }

    #[test]
    fn zero_and_tiny_batches() {
        let (sampler, layout) = tiny();
        let pool = SamplerPool::new(sampler, layout, 8, 2, None);
        assert!(pool.submit_indexed(0, 0).wait().is_empty());
        let batch = pool.submit_indexed(0, 3).wait();
        assert_eq!(batch.len(), 3);
        let rows = batch.into_wide();
        for row in &rows {
            assert!(!row.is_empty());
        }
    }
}
