//! In-process serving: a worker pool that drains [`ServeRequest`]s through a
//! [`ModelRegistry`].
//!
//! [`RegistryService`] is a **bounded** request channel (clients block when the queue is
//! full — natural backpressure), N workers each checking a reusable [`SamplerScratch`]
//! out of a pre-grown [`ScratchPool`] per request, and p50/p99 latency accounting.
//! Requests carry a [`crate::ModelSelector`], so one service serves every registered
//! model — and keeps serving across hot swaps, since routing happens per request.
//!
//! Determinism: every exact-tier estimate is **bit-identical** to a sequential
//! [`neurocard::EstimatorCore::estimate`] of the same query, regardless of worker count,
//! queueing order or thread interleaving.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_schema::Query;
use neurocard::infer::SamplerScratch;

use crate::lockcheck::Mutex;
use crate::pool::ScratchPool;
use crate::protocol::{ServeReply, ServeRequest};
use crate::registry::{ModelRegistry, ModelSelector, ModelStats};
use crate::stats::{LatencyLog, Quantiles};
use crate::ServeError;

pub use crate::stats::LATENCY_WINDOW;

/// Configuration of a [`RegistryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads serving requests.
    pub workers: usize,
    /// Capacity of the bounded request queue (clients block when it is full).
    pub queue_depth: usize,
    /// Sample budget applied when a request carries none; `None` defers to the selected
    /// model's own default.
    pub default_samples: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_depth: 64,
            default_samples: None,
        }
    }
}

impl ServiceConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            ..Default::default()
        }
    }
}

/// Latency summary of a service (microseconds, nearest-rank quantiles over the most
/// recent [`LATENCY_WINDOW`] requests; `served` counts everything).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests completed.
    pub served: usize,
    /// Median request latency (enqueue → reply ready).
    pub p50_us: f64,
    /// 99th-percentile request latency.
    pub p99_us: f64,
    /// Worst request latency.
    pub max_us: f64,
    /// Mean request latency.
    pub mean_us: f64,
}

impl ServiceStats {
    fn from_log(served: u64, us: Vec<f64>) -> Self {
        let q = Quantiles::of(us);
        ServiceStats {
            served: served as usize,
            p50_us: q.p50,
            p99_us: q.p99,
            max_us: q.max,
            mean_us: q.mean,
        }
    }
}

struct WorkItem {
    request: ServeRequest,
    enqueued: Instant,
    /// Rendezvous for exactly one reply.  `sync_channel(1)` rather than an unbounded
    /// channel: the worker's send never blocks (capacity one, one message ever), and
    /// the reply path carries no unbounded queue the lint would have to trust.
    reply: SyncSender<Result<ServeReply, ServeError>>,
}

/// A cloneable client handle onto a running [`RegistryService`].
#[derive(Clone)]
pub struct RegistryHandle {
    tx: SyncSender<WorkItem>,
    depth: Arc<AtomicUsize>,
    registry: Arc<ModelRegistry>,
}

impl RegistryHandle {
    /// Submits a request and blocks for the reply (waiting for queue space if the
    /// request channel is full — in-process callers get blocking backpressure).
    pub fn request(&self, request: ServeRequest) -> Result<ServeReply, ServeError> {
        self.enqueue(request, true)
            .map_err(|_| ServeError::ShuttingDown)?
            .recv()
            .map_err(|_| ServeError::ShuttingDown)?
    }

    /// Submits a request **without blocking for queue space**: a full queue is an
    /// immediate [`ServeError::Overloaded`] (the request was not queued) — the
    /// admission-control path transports use so a burst sheds load instead of pinning
    /// client connections.  Still blocks for the reply once admitted.
    ///
    /// When the registry carries a fallback estimator
    /// ([`ModelRegistry::set_fallback`]), a shed request is answered from it inline
    /// instead — a cheap statistics lookup on the caller's thread, flagged
    /// `degraded` — so overload degrades accuracy before it degrades availability.
    pub fn try_request(&self, request: ServeRequest) -> Result<ServeReply, ServeError> {
        match self.enqueue(request, false) {
            Ok(rx) => rx.recv().map_err(|_| ServeError::ShuttingDown)?,
            Err(TrySendError::Full(item)) => {
                let mut scratch = SamplerScratch::new();
                match self.registry.serve_fallback(&item.request, &mut scratch) {
                    Some(result) => result,
                    None => Err(ServeError::Overloaded),
                }
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Queues a request — waiting for queue space, or refusing with
    /// [`TrySendError::Full`] — and returns its reply rendezvous.
    fn enqueue(
        &self,
        request: ServeRequest,
        wait_for_space: bool,
    ) -> Result<Receiver<Result<ServeReply, ServeError>>, TrySendError<WorkItem>> {
        let (reply, rx) = sync_channel(1);
        let item = WorkItem {
            request,
            enqueued: Instant::now(),
            reply,
        };
        // Counted before the enqueue and undone if it fails: a worker may dequeue (and
        // decrement) the instant the item is queued, so counting afterwards lets the
        // gauge be observed wrapped below zero.
        self.depth.fetch_add(1, Ordering::Relaxed);
        let sent = if wait_for_space {
            self.tx
                .send(item)
                .map_err(|e| TrySendError::Disconnected(e.0))
        } else {
            self.tx.try_send(item)
        };
        if sent.is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent.map(|()| rx)
    }

    /// Requests currently queued (admitted, not yet picked up by a worker).  A probe —
    /// racy by nature, exact enough for load shedding and dashboards.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Estimates `query` on the model `selector` resolves to, with its default budget.
    pub fn estimate(
        &self,
        selector: &ModelSelector,
        query: &Query,
    ) -> Result<ServeReply, ServeError> {
        self.request(ServeRequest::new(selector.clone(), query.clone()))
    }
}

/// A long-lived, concurrent serving front over a [`ModelRegistry`].
pub struct RegistryService {
    registry: Arc<ModelRegistry>,
    tx: Option<SyncSender<WorkItem>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    latencies: Arc<Mutex<LatencyLog>>,
    scratch_pool: Arc<ScratchPool>,
    depth: Arc<AtomicUsize>,
    /// Tells workers to exit at their next idle check even while cloned
    /// [`RegistryHandle`]s keep the request channel open — shutdown must be bounded,
    /// not hostage to a leaked handle.
    stop: Arc<AtomicBool>,
}

impl RegistryService {
    /// Starts a service over a registry (which may gain, lose and swap models while the
    /// service runs — routing is per request).
    pub fn new(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let default_samples = config.default_samples;
        let (tx, rx) = sync_channel::<WorkItem>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new("service.worker_rx", rx));
        let latencies = Arc::new(Mutex::new(
            "service.latencies",
            LatencyLog::new(LATENCY_WINDOW),
        ));
        let scratch_pool = Arc::new(ScratchPool::new(workers));
        let stop = Arc::new(AtomicBool::new(false));
        let depth = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|i| {
                let registry = registry.clone();
                let rx = rx.clone();
                let latencies = latencies.clone();
                let pool = scratch_pool.clone();
                let stop = stop.clone();
                let depth = depth.clone();
                std::thread::Builder::new()
                    .name(format!("nc-serve-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &registry,
                            default_samples,
                            &rx,
                            &latencies,
                            &pool,
                            &stop,
                            &depth,
                        )
                    })
                    // nc-lint: allow(panic-in-serving) — startup path, before any
                    // request is admitted; a process that cannot spawn OS threads
                    // cannot serve, and there is no client to hand an error to.
                    .expect("spawning a service worker")
            })
            .collect();
        RegistryService {
            registry,
            tx: Some(tx),
            workers: handles,
            latencies,
            scratch_pool,
            depth,
            stop,
        }
    }

    /// A cloneable client handle (one per client thread).
    pub fn handle(&self) -> RegistryHandle {
        RegistryHandle {
            // nc-lint: allow(panic-in-serving) — `tx` is Some for the service's whole
            // life: only `shutdown()` clears it, and it consumes `self`, so no caller
            // can still reach this method afterwards.
            tx: self.tx.clone().expect("service is running"),
            depth: self.depth.clone(),
            registry: self.registry.clone(),
        }
    }

    /// Requests currently queued (admitted, not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Per-model latency/throughput split (see [`ModelRegistry::model_stats`]).
    pub fn model_stats(&self) -> Vec<ModelStats> {
        self.registry.model_stats()
    }

    /// The routed registry (register/swap while serving through it).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The scratch workspace pool (exposed for observability in benches/tests).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.scratch_pool
    }

    /// Latency summary: exact served count, quantiles over the most recent
    /// [`LATENCY_WINDOW`] requests.
    pub fn stats(&self) -> ServiceStats {
        let log = self.latencies.lock();
        ServiceStats::from_log(log.total(), log.window_samples())
    }

    /// Stops accepting requests, drains the queue, joins the workers and returns the
    /// final stats.
    ///
    /// Workers exit once the queue is empty — even if a leaked [`RegistryHandle`] still
    /// keeps the channel open, shutdown completes within one idle-poll interval rather
    /// than deadlocking (requests sent through such a handle afterwards fail with
    /// [`ServeError::ShuttingDown`]).
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop.store(true, Ordering::Release);
        self.tx = None; // close our side of the channel; workers drain, then exit
        for w in self.workers.drain(..) {
            // nc-lint: allow(panic-in-serving) — shutdown path, after the last reply:
            // a worker that panicked despite the catch_unwind in its loop is a bug
            // that must surface, not be swallowed into the final stats.
            w.join().expect("service worker panicked");
        }
        self.stats()
    }
}

impl Drop for RegistryService {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.tx = None;
        for w in self.workers.drain(..) {
            // A panic in a worker already unwound; don't double-panic in drop.
            let _ = w.join();
        }
    }
}

/// How often an idle worker wakes to check the stop flag.  Only reached when the queue
/// is empty, so it costs nothing on the serving hot path; it bounds shutdown latency
/// when a leaked handle keeps the channel open.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Renders a caught panic payload for a [`ServeError::Internal`] reply.
pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "estimator panicked".to_string()
    }
}

fn worker_loop(
    registry: &ModelRegistry,
    default_samples: Option<usize>,
    rx: &Mutex<Receiver<WorkItem>>,
    latencies: &Mutex<LatencyLog>,
    pool: &ScratchPool,
    stop: &AtomicBool,
    depth: &AtomicUsize,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the compute.  Queued
        // requests are always served before a stop-flag exit (recv_timeout only times
        // out on an empty queue), so shutdown() still drains.
        let item = match rx.lock().recv_timeout(IDLE_POLL) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return, // all senders gone
        };
        let depth_before = depth.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(depth_before >= 1, "queue-depth gauge wrapped below zero");
        let mut request = item.request;
        if request.samples.is_none() {
            request.samples = default_samples;
        }
        // A panicking model must not take the worker (and with it the whole service)
        // down: catch the unwind, reply with a typed Internal error, and *discard* the
        // scratch that was live during the panic — its state is suspect, and the pool
        // replaces discarded scratches on demand.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = pool.checkout();
            let result = registry.handle(&request, &mut scratch);
            pool.checkin(scratch);
            result
        }))
        .unwrap_or_else(|panic| Err(ServeError::Internal(panic_message(panic))));
        latencies
            .lock()
            .push(item.enqueued.elapsed().as_secs_f64() * 1e6);
        // A client that gave up (dropped the reply receiver) is not an error.
        let _ = item.reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::{JoinEdge, JoinSchema, Predicate};
    use nc_storage::{Database, TableBuilder, Value};
    use neurocard::{EstimateError, EstimatorCore, ModelArtifact, NeuroCard, NeuroCardConfig};

    fn trained_core() -> Arc<EstimatorCore> {
        let mut db = Database::new();
        let mut a = TableBuilder::new("A", &["x", "c"]);
        for i in 0..50i64 {
            a.push_row(vec![Value::Int(i % 6), Value::Int(i % 4)]);
        }
        db.add_table(a.finish());
        let mut b = TableBuilder::new("B", &["x", "d"]);
        for i in 0..70i64 {
            b.push_row(vec![Value::Int(i % 6), Value::Int(i % 3)]);
        }
        db.add_table(b.finish());
        let schema = JoinSchema::new(
            vec!["A".into(), "B".into()],
            vec![JoinEdge::parse("A.x", "B.x")],
            "A",
        )
        .unwrap();
        let config = NeuroCardConfig::tiny().with_training_tuples(600);
        let artifact = NeuroCard::train(Arc::new(db), Arc::new(schema), &config);
        // Serve through the full persistence path, as production would.
        Arc::new(
            ModelArtifact::from_bytes(&artifact.to_bytes())
                .unwrap()
                .to_core()
                .unwrap(),
        )
    }

    /// A service over a registry holding exactly `core`, and the selector pinned to it.
    fn single_model_service(
        core: Arc<EstimatorCore>,
        config: ServiceConfig,
    ) -> (RegistryService, ModelSelector) {
        let registry = Arc::new(ModelRegistry::new());
        let key = registry.register_core("default", core).unwrap();
        (
            RegistryService::new(registry, config),
            ModelSelector::Exact(key),
        )
    }

    fn workload() -> Vec<Query> {
        let mut queries = vec![Query::join(&["A", "B"]), Query::join(&["A"])];
        for v in 0..4i64 {
            queries.push(Query::join(&["A", "B"]).filter("A", "c", Predicate::eq(v)));
            queries.push(Query::join(&["B"]).filter("B", "d", Predicate::le(v)));
        }
        queries
    }

    #[test]
    fn concurrent_service_matches_sequential_estimates_at_any_worker_count() {
        let core = trained_core();
        let queries = workload();
        let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

        for workers in [1usize, 2, 4] {
            let (service, selector) = single_model_service(
                core.clone(),
                ServiceConfig {
                    workers,
                    queue_depth: 2,
                    default_samples: None,
                },
            );
            // 3 client threads hammer the service with interleaved repetitions.
            let results: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3)
                    .map(|client| {
                        let handle = service.handle();
                        let (queries, selector) = (&queries, &selector);
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for round in 0..3 {
                                for (i, q) in queries.iter().enumerate() {
                                    if (i + round + client) % 3 == client % 3 {
                                        let reply = handle.estimate(selector, q).unwrap();
                                        out.push((i, reply.estimate));
                                    }
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for client_results in &results {
                for (i, est) in client_results {
                    assert_eq!(
                        est.to_bits(),
                        sequential[*i].to_bits(),
                        "service with {workers} workers diverged on query {i}"
                    );
                }
            }
            let stats = service.shutdown();
            let expected = results.iter().map(|r| r.len()).sum::<usize>();
            assert_eq!(stats.served, expected);
            assert!(stats.p50_us <= stats.p99_us && stats.p99_us <= stats.max_us);
            assert!(stats.p50_us > 0.0);
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let core = trained_core();
        let (service, selector) = single_model_service(core, ServiceConfig::with_workers(2));
        let handle = service.handle();
        let q = Query::join(&["A"]);
        // Zero sample budget → typed error (the PR-4 satellite contract).
        assert_eq!(
            handle.request(ServeRequest::new(selector.clone(), q.clone()).with_samples(0)),
            Err(ServeError::Estimate(EstimateError::InvalidSampleCount))
        );
        // Unknown column → typed error; the worker survives to serve the next request.
        let bad = Query::join(&["A", "B"]).filter("A", "x", Predicate::eq(0i64));
        assert!(matches!(
            handle.estimate(&selector, &bad),
            Err(ServeError::Estimate(EstimateError::UnknownColumn { .. }))
        ));
        assert!(handle.estimate(&selector, &q).is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.served, 3);
    }

    #[test]
    fn service_under_load_never_grows_the_scratch_pool() {
        let core = trained_core();
        let (service, selector) = single_model_service(
            core,
            ServiceConfig {
                workers: 2,
                queue_depth: 1,
                default_samples: Some(16),
            },
        );
        let queries = workload();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = service.handle();
                let (queries, selector) = (&queries, &selector);
                scope.spawn(move || {
                    for q in queries {
                        handle.estimate(selector, q).unwrap();
                    }
                });
            }
        });
        // One scratch per worker, checked out and in per request — no emergency growth.
        assert_eq!(service.scratch_pool().total_created(), 2);
        let stats = service.shutdown();
        assert_eq!(stats.served, 4 * queries.len());
    }

    #[test]
    fn drop_with_leaked_handle_does_not_deadlock() {
        let core = trained_core();
        let (service, selector) = single_model_service(core, ServiceConfig::with_workers(2));
        let handle = service.handle();
        let q = Query::join(&["A"]);
        assert!(handle.estimate(&selector, &q).is_ok());
        // The leaked handle keeps the request channel open; drop must still return
        // (workers exit via the stop flag at their next idle poll).
        drop(service);
        // ...and the orphaned handle fails cleanly instead of blocking.
        assert_eq!(
            handle.estimate(&selector, &q),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn registry_service_routes_and_survives_swaps() {
        let core = trained_core();
        let queries = workload();
        let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

        let registry = Arc::new(ModelRegistry::new());
        let key = registry.register_core("neurocard", core.clone()).unwrap();
        let service = RegistryService::new(registry.clone(), ServiceConfig::with_workers(2));
        let handle = service.handle();

        // Routed estimates are bit-identical to the direct core.
        let selector = ModelSelector::latest(key.schema_fingerprint, "neurocard");
        for (q, want) in queries.iter().zip(&sequential) {
            let reply = handle.estimate(&selector, q).unwrap();
            assert_eq!(reply.key, key);
            assert_eq!(reply.estimate.to_bits(), want.to_bits());
        }

        // Swap in "the same model, next version" mid-flight: routing follows.
        let receipt = registry
            .swap(key.schema_fingerprint, "neurocard", core.clone())
            .unwrap();
        let reply = handle.estimate(&selector, &queries[0]).unwrap();
        assert_eq!(reply.key, receipt.new);
        assert_eq!(reply.estimate.to_bits(), sequential[0].to_bits());

        // Unknown models come back as routed errors, not worker deaths.
        assert!(matches!(
            handle.estimate(
                &ModelSelector::latest(key.schema_fingerprint, "nope"),
                &queries[0]
            ),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(handle.estimate(&selector, &queries[1]).is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.served, queries.len() + 3);
    }

    #[test]
    fn panicking_model_yields_internal_error_and_service_survives() {
        use crate::model::BaselineModel;
        use nc_baselines::CardinalityEstimator;

        struct Bomb;
        impl CardinalityEstimator for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn estimate(&self, _q: &Query) -> f64 {
                panic!("boom")
            }
        }
        struct One;
        impl CardinalityEstimator for One {
            fn name(&self) -> &str {
                "one"
            }
            fn estimate(&self, _q: &Query) -> f64 {
                1.0
            }
        }

        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(1, "bomb", Arc::new(BaselineModel::new(Bomb)))
            .unwrap();
        registry
            .register(1, "one", Arc::new(BaselineModel::new(One)))
            .unwrap();
        // One worker: if the panic killed it, nothing would serve the next request.
        let service = RegistryService::new(registry, ServiceConfig::with_workers(1));
        let handle = service.handle();
        let q = Query::join(&["t"]);
        match handle.estimate(&ModelSelector::latest(1, "bomb"), &q) {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("boom"), "got {msg:?}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        let reply = handle
            .estimate(&ModelSelector::latest(1, "one"), &q)
            .unwrap();
        assert_eq!(reply.estimate, 1.0);
        let stats = service.shutdown();
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn try_request_sheds_load_when_the_queue_is_full() {
        use crate::model::BaselineModel;
        use nc_baselines::CardinalityEstimator;
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};

        struct Gate {
            state: Arc<(StdMutex<bool>, StdCondvar)>,
            waiters: Arc<AtomicUsize>,
        }
        impl CardinalityEstimator for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn estimate(&self, _q: &Query) -> f64 {
                let (lock, cv) = &*self.state;
                let mut open = lock.lock().unwrap_or_else(|p| p.into_inner());
                self.waiters.fetch_add(1, Ordering::SeqCst);
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                7.0
            }
        }

        let state = Arc::new((StdMutex::new(false), StdCondvar::new()));
        let waiters = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(
                1,
                "gate",
                Arc::new(BaselineModel::new(Gate {
                    state: state.clone(),
                    waiters: waiters.clone(),
                })),
            )
            .unwrap();
        let service = RegistryService::new(
            registry,
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
                default_samples: None,
            },
        );
        let handle = service.handle();
        let q = Query::join(&["t"]);
        let sel = ModelSelector::latest(1, "gate");

        // One blocking client, held inside the (closed) gate by the single worker...
        let held = {
            let (h, sel, q) = (handle.clone(), sel.clone(), q.clone());
            std::thread::spawn(move || h.estimate(&sel, &q))
        };
        while waiters.load(Ordering::SeqCst) != 1 {
            std::thread::yield_now();
        }
        // ...and a second request placed in the queue's one slot without waiting for
        // its reply.  (A second blocking client would not do: a request is counted
        // before it is enqueued, so the depth gauge cannot prove its item has landed.)
        let queued = handle
            .enqueue(ServeRequest::new(sel.clone(), q.clone()), true)
            .unwrap();
        assert_eq!(handle.queue_depth(), 1);

        // The queue is provably full: admission control refuses instead of blocking.
        assert_eq!(
            handle.try_request(ServeRequest::new(sel.clone(), q.clone())),
            Err(ServeError::Overloaded)
        );

        // Open the gate: both admitted requests complete; the shed one never ran.
        *state.0.lock().unwrap_or_else(|p| p.into_inner()) = true;
        state.1.notify_all();
        assert_eq!(held.join().unwrap().unwrap().estimate, 7.0);
        assert_eq!(queued.recv().unwrap().unwrap().estimate, 7.0);
        let stats = service.shutdown();
        assert_eq!(stats.served, 2);
        // A post-shutdown try_request reports shutdown, not overload.
        assert!(matches!(
            handle.try_request(ServeRequest::new(sel, q)),
            Err(ServeError::ShuttingDown) | Err(ServeError::Overloaded)
        ));
    }

    #[test]
    fn queue_shed_degrades_through_the_fallback() {
        use crate::fallback::StatsFallback;
        use crate::model::BaselineModel;
        use nc_baselines::CardinalityEstimator;
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};

        struct Gate {
            state: Arc<(StdMutex<bool>, StdCondvar)>,
            waiters: Arc<AtomicUsize>,
        }
        impl CardinalityEstimator for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn estimate(&self, _q: &Query) -> f64 {
                let (lock, cv) = &*self.state;
                let mut open = lock.lock().unwrap_or_else(|p| p.into_inner());
                self.waiters.fetch_add(1, Ordering::SeqCst);
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                7.0
            }
        }

        let state = Arc::new((StdMutex::new(false), StdCondvar::new()));
        let waiters = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(
                1,
                "gate",
                Arc::new(BaselineModel::new(Gate {
                    state: state.clone(),
                    waiters: waiters.clone(),
                })),
            )
            .unwrap();
        // Install a stats fallback over a tiny one-table database.
        let mut db = Database::new();
        let mut t = TableBuilder::new("t", &["v"]);
        for i in 0..40i64 {
            t.push_row(vec![Value::Int(i % 8)]);
        }
        db.add_table(t.finish());
        let schema = JoinSchema::new(vec!["t".into()], vec![], "t").unwrap();
        registry.set_fallback(Arc::new(StatsFallback::from_database(
            &db,
            Arc::new(schema),
        )));

        let service = RegistryService::new(
            registry.clone(),
            ServiceConfig {
                workers: 1,
                queue_depth: 1,
                default_samples: None,
            },
        );
        let handle = service.handle();
        let q = Query::join(&["t"]);
        let sel = ModelSelector::latest(1, "gate");

        // One blocking client, held inside the (closed) gate by the single worker...
        let held = {
            let (h, sel, q) = (handle.clone(), sel.clone(), q.clone());
            std::thread::spawn(move || h.estimate(&sel, &q))
        };
        while waiters.load(Ordering::SeqCst) != 1 {
            std::thread::yield_now();
        }
        // ...and a second request placed in the queue's one slot without waiting for
        // its reply.  (A second blocking client would not do: a request is counted
        // before it is enqueued, so the depth gauge cannot prove its item has landed.)
        let queued = handle
            .enqueue(ServeRequest::new(sel.clone(), q.clone()), true)
            .unwrap();
        assert_eq!(handle.queue_depth(), 1);

        // The shed request is answered inline by the fallback, flagged degraded.
        let reply = handle
            .try_request(ServeRequest::new(sel.clone(), q.clone()))
            .unwrap();
        assert!(reply.degraded);
        assert_eq!(reply.estimate, 40.0);
        assert_eq!(reply.key.name, "stats-fallback");
        assert_eq!(reply.key.version, 0);
        assert_eq!(registry.stats().degraded, 1);

        *state.0.lock().unwrap_or_else(|p| p.into_inner()) = true;
        state.1.notify_all();
        assert_eq!(held.join().unwrap().unwrap().estimate, 7.0);
        assert_eq!(queued.recv().unwrap().unwrap().estimate, 7.0);
        let stats = service.shutdown();
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn stats_on_empty_service_are_zero() {
        let stats = ServiceStats::from_log(0, Vec::new());
        assert_eq!(stats.served, 0);
        assert_eq!(stats.p99_us, 0.0);
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }

    #[test]
    fn latency_log_is_bounded_but_counts_everything() {
        let mut log = LatencyLog::new(LATENCY_WINDOW);
        for i in 0..(LATENCY_WINDOW + 500) {
            log.push(i as f64);
        }
        assert_eq!(log.total(), (LATENCY_WINDOW + 500) as u64);
        let window = log.window_samples();
        assert_eq!(window.len(), LATENCY_WINDOW);
        let stats = ServiceStats::from_log(log.total(), window.clone());
        assert_eq!(stats.served, LATENCY_WINDOW + 500);
        // The window holds the most recent values: the oldest 500 were overwritten.
        assert!(window.iter().all(|&v| v >= 500.0));
    }
}
