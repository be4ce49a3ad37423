//! Chaos serving: the full TCP stack under deterministic fault injection (PR 8).
//!
//! The serving tier's robustness contract, exercised end to end at a pinned seed:
//!
//! * **Nothing wrong, ever.**  With worker panics, injected latency, partial
//!   socket I/O and client-side connection drops all firing, every request a
//!   client completes is either bit-identical to the direct [`EstimatorCore`]
//!   answer at the request's sample budget (the model's default, or every other
//!   request's own), or a typed error — never a silently wrong estimate.
//! * **Retries hide the chaos.**  With a generous retry budget, all four
//!   concurrent clients complete *every* request; the fault arithmetic closes
//!   exactly (each worker panic and each connection drop is one retry).
//! * **Replayable.**  A single-client scenario rerun at the same seed reproduces
//!   bit-identical fault-point hit counts, retry counters and estimates.
//!
//! Fault hooks exist only under `debug_assertions` (the workspace test profile
//! keeps them on; release builds compile them away).
#![cfg(debug_assertions)]

use std::sync::Arc;
use std::time::Duration;

use nc_sampler::seed::derive_stream_seed;
use nc_schema::{JoinEdge, JoinSchema, Predicate, Query};
use nc_serve::{
    ClientConfig, FaultCount, FaultPlan, ModelRegistry, ModelSelector, ReactorConfig, ServeClient,
    ServeError, ServeRequest, TcpServer,
};
use nc_storage::{Database, TableBuilder, Value};
use neurocard::infer::SamplerScratch;
use neurocard::{schema_fingerprint, EstimatorCore, ModelArtifact, NeuroCard, NeuroCardConfig};

const CHAOS_SEED: u64 = 0xC0A5;

fn fixture() -> (Vec<u8>, Vec<Query>) {
    let mut db = Database::new();
    let mut a = TableBuilder::new("A", &["x", "c"]);
    for i in 0..60i64 {
        a.push_row(vec![Value::Int(i % 7), Value::Int(i % 4)]);
    }
    db.add_table(a.finish());
    let mut b = TableBuilder::new("B", &["x", "d"]);
    for i in 0..90i64 {
        b.push_row(vec![Value::Int(i % 7), Value::Int(i % 3)]);
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
    let config = NeuroCardConfig::tiny().with_training_tuples(600);
    let artifact = NeuroCard::train(db.clone(), schema.clone(), &config);
    let mut queries = vec![Query::join(&["A", "B"]), Query::join(&["A"])];
    for v in 0..3i64 {
        queries.push(Query::join(&["A", "B"]).filter("A", "c", Predicate::eq(v)));
        queries.push(Query::join(&["B"]).filter("B", "d", Predicate::le(v)));
    }
    (artifact.to_bytes(), queries)
}

fn load_core(bytes: &[u8]) -> Arc<EstimatorCore> {
    Arc::new(
        ModelArtifact::from_bytes(bytes)
            .expect("artifact bytes round-trip")
            .to_core()
            .expect("weights load"),
    )
}

fn client_config(chaos_seed: u64, client_id: u64, drop_per_mille: u32) -> ClientConfig {
    ClientConfig {
        request_timeout: Duration::from_secs(30),
        max_retries: 12,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        retry_seed: derive_stream_seed(chaos_seed, 1, client_id),
        faults: FaultPlan::new(derive_stream_seed(chaos_seed, 2, client_id))
            .point("client.conn-drop", drop_per_mille)
            .injector(),
    }
}

#[test]
fn four_chaos_clients_at_the_pinned_seed_complete_everything_correctly() {
    let (bytes, queries) = fixture();
    let core = load_core(&bytes);
    let fingerprint = schema_fingerprint(core.schema());
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();
    // Every other request names its own sample budget instead of the model's default.
    const BUDGET: usize = 24;
    let budgeted: Vec<f64> = queries
        .iter()
        .map(|q| {
            core.try_estimate(q, BUDGET, &mut SamplerScratch::new())
                .unwrap()
        })
        .collect();
    assert_ne!(
        budgeted, sequential,
        "the explicit budget must change some estimate, or it is not exercised"
    );

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(fingerprint, "m", load_core(&bytes));
    let server_faults = FaultPlan::chaos(CHAOS_SEED).injector();
    let config = ReactorConfig {
        io_threads: 2,
        workers: 2,
        faults: server_faults.clone(),
        ..ReactorConfig::default()
    };
    let server = TcpServer::bind_with(registry, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let selector = ModelSelector::latest(fingerprint, "m");
    let ghost = ModelSelector::latest(fingerprint, "ghost");

    const CLIENTS: u64 = 4;
    const ROUNDS: usize = 3;
    let client_injectors: Vec<_> = (0..CLIENTS)
        .map(|id| client_config(CHAOS_SEED, id, 150))
        .collect();

    let retries_total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client_id| {
                let (queries, sequential, budgeted, selector, ghost) =
                    (&queries, &sequential, &budgeted, &selector, &ghost);
                let config = client_injectors[client_id as usize].clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect_with(addr, config).unwrap();
                    for round in 0..ROUNDS {
                        for (idx, q) in queries.iter().enumerate() {
                            let request = ServeRequest::new(selector.clone(), q.clone());
                            let (request, want) = if (round + idx) % 2 == 1 {
                                (request.with_samples(BUDGET), budgeted[idx])
                            } else {
                                (request, sequential[idx])
                            };
                            let reply = client.request(&request).unwrap_or_else(|e| {
                                panic!(
                                    "client {client_id} round {round} query {idx} \
                                     exhausted its retry budget: {e}"
                                )
                            });
                            assert!(!reply.degraded, "live model must not degrade");
                            assert_eq!(
                                reply.estimate.to_bits(),
                                want.to_bits(),
                                "client {client_id} got a WRONG estimate under chaos \
                                 (round {round}, query {idx})"
                            );
                        }
                    }
                    // A selector matching no model is a typed error, under chaos too.
                    let ghost_result =
                        client.request(&ServeRequest::new(ghost.clone(), queries[0].clone()));
                    assert!(
                        matches!(ghost_result, Err(ServeError::UnknownModel(_))),
                        "client {client_id}: ghost selector got {ghost_result:?}"
                    );
                    client.retries()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // The fault arithmetic closes exactly.  Every attempt that reaches the server
    // is one job; every job draws `worker.panic` once, and draws `worker.delay`
    // unless the panic fired first.  Every panic and every client-side connection
    // drop costs exactly one retry (all requests completed, so no fault was ever
    // absorbed by giving up).
    let requests = CLIENTS * (ROUNDS * queries.len() + 1) as u64;
    let count = |counts: &[FaultCount], point: &str| -> (u64, u64) {
        counts
            .iter()
            .find(|c| c.point == point)
            .map(|c| (c.hits, c.fired))
            .unwrap_or((0, 0))
    };
    let server_counts = server_faults.counts();
    let (panic_hits, panic_fired) = count(&server_counts, "worker.panic");
    let (delay_hits, _) = count(&server_counts, "worker.delay");
    let drops_fired: u64 = client_injectors
        .iter()
        .map(|c| count(&c.faults.counts(), "client.conn-drop").1)
        .sum();
    assert!(
        panic_fired > 0,
        "the pinned seed must actually inject panics"
    );
    assert!(
        drops_fired > 0,
        "the pinned seed must actually drop connections"
    );
    assert_eq!(
        panic_hits,
        requests + panic_fired,
        "jobs = requests + retried panics"
    );
    assert_eq!(delay_hits, panic_hits - panic_fired);
    assert_eq!(retries_total, panic_fired + drops_fired);
    assert_eq!(server.served(), panic_hits);
    server.shutdown();
}

/// One single-client scenario: sequential, so every fault draw is reached in a
/// deterministic order — the whole run must replay bit-identically.
fn replay_run(chaos_seed: u64) -> (Vec<FaultCount>, Vec<FaultCount>, u64, u64, Vec<u64>) {
    let (bytes, queries) = fixture();
    let core = load_core(&bytes);
    let fingerprint = schema_fingerprint(core.schema());

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(fingerprint, "m", load_core(&bytes));
    let server_faults = FaultPlan::new(chaos_seed)
        .point("worker.panic", 120)
        .point_with_delay("worker.delay", 150, Duration::from_millis(1))
        .injector();
    let config = ReactorConfig {
        io_threads: 1,
        workers: 1,
        faults: server_faults.clone(),
        ..ReactorConfig::default()
    };
    let server = TcpServer::bind_with(registry, "127.0.0.1:0", config).unwrap();
    let client_config = client_config(chaos_seed, 0, 250);
    let client_faults = client_config.faults.clone();
    let mut client = ServeClient::connect_with(server.local_addr(), client_config).unwrap();

    let selector = ModelSelector::latest(fingerprint, "m");
    let mut bits = Vec::new();
    for round in 0..2 {
        for q in &queries {
            let reply = client
                .request(&ServeRequest::new(selector.clone(), q.clone()))
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            bits.push(reply.estimate.to_bits());
        }
    }
    let out = (
        server_faults.counts(),
        client_faults.counts(),
        client.retries(),
        client.reconnects(),
        bits,
    );
    server.shutdown();
    out
}

#[test]
fn rerunning_the_same_seed_reproduces_identical_fault_counts() {
    let a = replay_run(CHAOS_SEED);
    let b = replay_run(CHAOS_SEED);
    assert_eq!(
        a.0, b.0,
        "server fault-point hit counts diverged between runs"
    );
    assert_eq!(
        a.1, b.1,
        "client fault-point hit counts diverged between runs"
    );
    assert_eq!((a.2, a.3), (b.2, b.3), "retry/reconnect counters diverged");
    assert_eq!(a.4, b.4, "estimates diverged");
    // And the chaos was real: faults fired on both sides.
    assert!(a.0.iter().any(|c| c.fired > 0), "no server fault fired");
    assert!(a.1.iter().any(|c| c.fired > 0), "no client fault fired");

    // A different seed yields a different schedule (the seed is load-bearing).
    let c = replay_run(CHAOS_SEED ^ 0xFFFF);
    assert_ne!(
        a.0, c.0,
        "different seeds produced identical fault schedules"
    );
}

/// One full pipeline run under the chaos plan: the `pipeline.*` fault points fire on
/// a replayable schedule, aborted retrains and dropped mirror samples are accounted
/// one-for-one, and no wrong estimate ever slips through.
fn chaos_pipeline_run(chaos_seed: u64) -> (Vec<FaultCount>, String, nc_pipeline::PipelineCounters) {
    use nc_pipeline::{demo_env, DriftingSource, Pipeline, PipelineConfig};

    let pipeline_seed = 0x10E0u64;
    let env = demo_env(pipeline_seed);
    let train = NeuroCardConfig::tiny()
        .with_training_tuples(600)
        .with_seed(derive_stream_seed(pipeline_seed, 0, 2));
    let artifact = NeuroCard::train(env.db.clone(), env.schema.clone(), &train);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_core("demo", Arc::new(artifact.to_core().unwrap()))
        .unwrap();

    let dir = std::env::temp_dir().join(format!(
        "nc-chaos-pipeline-{}-{chaos_seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let faults = FaultPlan::chaos(chaos_seed).injector();
    let mut config = PipelineConfig::new(pipeline_seed, &dir).with_faults(faults.clone());
    config.model_name = "demo".to_string();
    let mut pipeline = Pipeline::new(
        config,
        registry,
        None,
        env.schema.clone(),
        env.db.clone(),
        DriftingSource::new(pipeline_seed, 3),
    )
    .unwrap();
    let report = pipeline.run(10).unwrap();
    let out = (faults.counts(), report.digest(), report.counters);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn pipeline_under_chaos_is_accounted_and_replayable() {
    let (counts, digest, counters) = chaos_pipeline_run(CHAOS_SEED);

    // The pipeline points are armed and the schedule reached them.
    let fired = |name: &str| {
        counts
            .iter()
            .find(|c| c.point == name)
            .map(|c| c.fired)
            .unwrap_or_else(|| panic!("chaos plan lost the {name} point"))
    };
    let retrain_fails = fired("pipeline.retrain-fail");
    let shadow_drops = fired("pipeline.shadow-drop");
    assert!(
        retrain_fails + shadow_drops > 0,
        "no pipeline fault fired over 10 chaos steps: {counts:?}"
    );

    // Every fault is accounted one-for-one in the counters, and chaos never
    // produces a wrong estimate — faults lose samples, not correctness.
    assert_eq!(counters.retrain_aborts, retrain_fails);
    assert_eq!(counters.shadow_drops, shadow_drops);
    assert_eq!(counters.wrong_estimates, 0);

    // The whole run — fault schedule included — replays bit-identically.
    let (counts_b, digest_b, counters_b) = chaos_pipeline_run(CHAOS_SEED);
    assert_eq!(counts, counts_b, "fault-point hit counts diverged");
    assert_eq!(digest, digest_b, "decision digests diverged");
    assert_eq!(counters, counters_b);

    // A different chaos seed yields a different schedule.
    let (counts_c, _, _) = chaos_pipeline_run(CHAOS_SEED ^ 0x5A5A);
    assert_ne!(counts, counts_c, "the chaos seed is not load-bearing");
}
