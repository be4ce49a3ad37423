//! In-process serving: [`ServeRequest`]s submitted from the caller's own threads,
//! through the crate's dispatch core (`dispatch.rs`; `docs/serving.md` describes the
//! thread set, the queue, shedding, the panic fence and shutdown once), to a
//! [`ModelRegistry`].
//!
//! What is particular to this transport: [`RegistryHandle::request`] **blocks** for
//! queue space (natural backpressure for in-process callers) and then for the reply, and
//! the service reports p50/p99 latency over everything it executed.  Requests carry a
//! [`crate::ModelSelector`], so one service serves every registered model — and keeps
//! serving across hot swaps, since routing happens per request.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use nc_schema::Query;

use crate::dispatch::{Dispatch, Executor, Submitter};
use crate::lockcheck::Mutex;
use crate::pool::ScratchPool;
use crate::protocol::{ServeReply, ServeRequest};
use crate::registry::{ModelRegistry, ModelSelector};
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
    fn of(latencies: &Mutex<LatencyLog>) -> Self {
        let log = latencies.lock();
        Self::from_log(log.total(), log.window_samples())
    }

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

/// One queued request, when it was submitted, and the rendezvous for exactly one reply.
/// `sync_channel(1)` rather than an unbounded channel: the worker's send never blocks
/// (capacity one, one message ever), and the reply path carries no unbounded queue the
/// lint would have to trust.
type ServiceJob = (
    ServeRequest,
    Instant,
    SyncSender<Result<ServeReply, ServeError>>,
);

/// A cloneable client handle onto a running [`RegistryService`].
#[derive(Clone)]
pub struct RegistryHandle {
    jobs: Submitter<ServiceJob>,
}

impl RegistryHandle {
    /// Submits a request and blocks for the reply (waiting for queue space if the
    /// request channel is full — in-process callers get blocking backpressure).
    pub fn request(&self, request: ServeRequest) -> Result<ServeReply, ServeError> {
        let (reply, rx) = sync_channel(1);
        self.jobs
            .submit((request, Instant::now(), reply), true)
            .map_err(|_| ServeError::ShuttingDown)?;
        rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Requests currently queued (admitted, not yet picked up by a worker).  A probe —
    /// racy by nature, exact enough for load shedding and dashboards.
    pub fn queue_depth(&self) -> usize {
        self.jobs.executor.queue_depth()
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
    // Declared (so dropped) before the workers it would otherwise keep polling.
    handle: RegistryHandle,
    dispatch: Dispatch,
    latencies: Arc<Mutex<LatencyLog>>,
}

impl RegistryService {
    /// Starts a service over a registry (which may gain, lose and swap models while the
    /// service runs — routing is per request).
    pub fn new(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let mut executor = Executor::new(registry, workers);
        executor.default_samples = config.default_samples;
        let latencies = Arc::new(Mutex::new(
            "service.latencies",
            LatencyLog::new(LATENCY_WINDOW),
        ));
        let log = latencies.clone();
        let (dispatch, jobs) = Dispatch::start(
            executor,
            workers,
            config.queue_depth.max(1),
            "nc-serve",
            move |executor, (request, enqueued, reply): ServiceJob| {
                let result = executor.execute(request);
                // Logged before the reply leaves: a client holding its answer is
                // already counted in `stats()`.
                log.lock().push(enqueued.elapsed().as_secs_f64() * 1e6);
                // A client that gave up (dropped the reply receiver) is not an error.
                let _ = reply.send(result);
            },
        );
        RegistryService {
            handle: RegistryHandle { jobs },
            dispatch,
            latencies,
        }
    }

    /// A cloneable client handle (one per client thread).
    pub fn handle(&self) -> RegistryHandle {
        self.handle.clone()
    }

    /// The routed registry (register/swap while serving through it).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.dispatch.executor.registry
    }

    /// The scratch workspace pool (exposed for observability in benches/tests).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.dispatch.executor.scratch_pool
    }

    /// Latency summary: exact served count, quantiles over the most recent
    /// [`LATENCY_WINDOW`] requests.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::of(&self.latencies)
    }

    /// Stops accepting requests, drains the queue, joins the workers and returns the
    /// final stats.  Dropping the service does the same, minus the stats.
    ///
    /// Workers exit once the queue is empty — even if a leaked [`RegistryHandle`] still
    /// keeps the channel open, shutdown completes within one idle-poll interval rather
    /// than deadlocking (requests sent through such a handle afterwards fail with
    /// [`ServeError::ShuttingDown`]).
    pub fn shutdown(mut self) -> ServiceStats {
        drop(self.handle);
        self.dispatch.shutdown();
        ServiceStats::of(&self.latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Bomb, Fixed};
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
        let registry = Arc::new(ModelRegistry::new());
        registry.register(1, "bomb", Arc::new(Bomb)).unwrap();
        registry.register(1, "one", Arc::new(Fixed(1.0))).unwrap();
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
    fn both_transports_answer_alike() {
        use crate::tcp::{ClientConfig, ServeClient};
        use crate::TcpServer;

        let registry = Arc::new(ModelRegistry::new());
        let key = registry.register_core("default", trained_core()).unwrap();
        registry.register(1, "bomb", Arc::new(Bomb)).unwrap();
        let service = RegistryService::new(registry.clone(), ServiceConfig::with_workers(1));
        let handle = service.handle();
        let server = TcpServer::bind(registry.clone(), "127.0.0.1:0").unwrap();
        // No retries: an `Internal` must come back as the one answer it is.
        let no_retries = ClientConfig {
            max_retries: 0,
            ..ClientConfig::default()
        };
        let mut client = ServeClient::connect_with(server.local_addr(), no_retries).unwrap();
        // The same request through both transports: equal results, estimate bits included.
        let mut both = |request: ServeRequest| {
            let in_process = handle.request(request.clone());
            let wire = client.request(&request);
            assert_eq!(in_process, wire, "transports disagree on {request:?}");
            if let (Ok(a), Ok(b)) = (&in_process, &wire) {
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            }
            in_process
        };

        let exact = ModelSelector::Exact(key.clone());
        let nobody = ModelSelector::latest(key.schema_fingerprint, "nobody");
        let q = Query::join(&["A", "B"]).filter("A", "c", Predicate::eq(1i64));
        let ok = both(ServeRequest::new(exact.clone(), q.clone())).unwrap();
        assert_eq!((ok.key.clone(), ok.degraded), (key.clone(), false));
        assert!(matches!(
            both(ServeRequest::new(nobody, q.clone())),
            Err(ServeError::UnknownModel(_))
        ));
        match both(ServeRequest::new(
            ModelSelector::latest(1, "bomb"),
            q.clone(),
        )) {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("kaboom"), "got {msg:?}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(
            both(ServeRequest::new(exact.clone(), q.clone()).with_samples(0)),
            Err(ServeError::Estimate(EstimateError::InvalidSampleCount))
        );

        // The pinned version is superseded by a swap.
        let receipt = registry
            .swap(key.schema_fingerprint, "default", trained_core())
            .unwrap();
        assert_eq!(
            both(ServeRequest::new(exact, q)),
            Err(ServeError::StaleVersion {
                requested: key,
                current: receipt.new
            })
        );
        server.shutdown();
        service.shutdown();
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
