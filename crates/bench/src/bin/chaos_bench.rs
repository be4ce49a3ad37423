//! Chaos benchmark: the TCP serving stack under seeded deterministic fault
//! injection, reported as a machine-readable robustness record.
//!
//! The server runs the full `FaultPlan::chaos(seed)` schedule (worker panics and
//! delays, partial socket reads/writes, journal faults are idle here); each client
//! additionally drops its own connection mid-flight from a per-client seeded
//! stream.  Clients retry with bounded jittered backoff and reconnect-and-replay.
//! What the record certifies, per run:
//!
//! * `wrong_estimates` is **always 0** — every completed reply was bit-identical
//!   to the sequential [`neurocard::EstimatorCore`], or explicitly `degraded`
//!   (the stats fallback answer for a selector naming no model),
//! * `failed_requests` is 0 — the retry budget absorbed every injected fault,
//! * the per-point fault counters (`hits`/`fired`) that produced that outcome,
//!   so two runs at the same seed can be diffed for replayability.
//!
//! In release builds the fault hooks are compiled away: the run degrades to a
//! plain serving pass and the record says `faults_compiled_in: false`.  CI runs
//! this binary **unoptimised** (dev profile keeps `debug_assertions` on) so the
//! chaos is real.
//!
//! Knobs: `NC_CHAOS_SEED` (default 49317), `NC_CHAOS_CLIENTS` (default 4),
//! `NC_CHAOS_ROUNDS` (default 3).  Writes `BENCH_chaos.json` (path overridable
//! via `NC_BENCH_CHAOS_JSON`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_bench::harness::print_preamble;
use nc_bench::{BenchEnv, HarnessConfig};
use nc_sampler::seed::derive_stream_seed;
use nc_serve::{
    ClientConfig, FaultInjector, FaultPlan, ModelRegistry, ModelSelector, ReactorConfig,
    ServeClient, ServeRequest, StatsFallback, TcpServer,
};
use nc_workloads::job_light_queries;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[derive(serde::Serialize)]
struct PointRecord {
    point: String,
    hits: u64,
    fired: u64,
}

/// The machine-readable robustness record CI archives.
#[derive(serde::Serialize)]
struct ChaosBenchRecord {
    bench: String,
    smoke: bool,
    faults_compiled_in: bool,
    seed: u64,
    clients: u64,
    rounds: u64,
    queries: usize,
    requests: u64,
    completed: u64,
    failed_requests: u64,
    wrong_estimates: u64,
    degraded: u64,
    retries: u64,
    reconnects: u64,
    server_jobs: u64,
    wall_secs: f64,
    server_faults: Vec<PointRecord>,
    client_conn_drops_fired: u64,
}

fn main() {
    let config = HarnessConfig::from_cli();
    let env = BenchEnv::job_light(&config);
    print_preamble(
        "Chaos bench: serving under deterministic fault injection",
        &env.name,
        &config,
    );

    let seed = env_u64("NC_CHAOS_SEED", 49_317);
    let clients = env_u64("NC_CHAOS_CLIENTS", 4);
    let rounds = env_u64("NC_CHAOS_ROUNDS", 3);
    if !FaultInjector::compiled_in() {
        println!("note: release build — fault hooks compiled away, plain serving pass");
    }

    println!("training NeuroCard ({} tuples)...", config.train_tuples);
    let artifact_bytes =
        neurocard::NeuroCard::train(env.db.clone(), env.schema.clone(), &config.neurocard())
            .to_bytes();
    let artifact = neurocard::ModelArtifact::from_bytes(&artifact_bytes)
        .expect("round-tripping the just-written artifact");
    let fingerprint = artifact.schema_fingerprint();
    let core = Arc::new(
        artifact
            .to_core()
            .expect("loading the just-written weights"),
    );

    let queries = job_light_queries(&env.db, &env.schema, config.queries, config.seed);
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();
    let selector = ModelSelector::latest(fingerprint, "neurocard");
    // A selector naming no model: must degrade to the stats fallback, never error.
    let ghost = ModelSelector::latest(fingerprint, "ghost");

    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_core("neurocard", core.clone())
        .expect("fresh registry");
    registry.set_fallback(Arc::new(StatsFallback::from_database(
        &env.db,
        env.schema.clone(),
    )));
    let server_faults = FaultPlan::chaos(seed).injector();
    let server = TcpServer::bind_with(
        registry.clone(),
        "127.0.0.1:0",
        ReactorConfig {
            faults: server_faults.clone(),
            ..ReactorConfig::default()
        },
    )
    .expect("binding loopback");
    let addr = server.local_addr();

    println!(
        "chaos seed {seed}: {clients} clients x {rounds} rounds x {} queries (+1 degraded probe each)\n",
        queries.len()
    );
    let start = Instant::now();
    // (completed, failed, wrong, retries, reconnects, drops_fired) per client.
    let per_client: Vec<(u64, u64, u64, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_id| {
                let (queries, sequential, selector, ghost) =
                    (&queries, &sequential, &selector, &ghost);
                let psamples = config.psamples;
                let faults = FaultPlan::new(derive_stream_seed(seed, 2, client_id))
                    .point("client.conn-drop", 150)
                    .injector();
                let client_config = ClientConfig {
                    request_timeout: Duration::from_secs(30),
                    max_retries: 12,
                    backoff_base: Duration::from_millis(1),
                    backoff_cap: Duration::from_millis(10),
                    retry_seed: derive_stream_seed(seed, 1, client_id),
                    faults: faults.clone(),
                };
                scope.spawn(move || {
                    let mut conn =
                        ServeClient::connect_with(addr, client_config).expect("loopback connect");
                    let (mut completed, mut failed, mut wrong, mut degraded) =
                        (0u64, 0u64, 0u64, 0u64);
                    for round in 0..rounds {
                        for i in 0..queries.len() {
                            let idx = (i + (client_id + round) as usize) % queries.len();
                            let request = ServeRequest::new(selector.clone(), queries[idx].clone())
                                .with_samples(psamples);
                            match conn.request(&request) {
                                Ok(reply) => {
                                    completed += 1;
                                    if reply.degraded {
                                        degraded += 1;
                                    } else if reply.estimate.to_bits() != sequential[idx].to_bits()
                                    {
                                        wrong += 1;
                                        eprintln!(
                                            "WRONG estimate on query {idx}: {} vs {}",
                                            reply.estimate, sequential[idx]
                                        );
                                    }
                                }
                                Err(e) => {
                                    failed += 1;
                                    eprintln!("request failed past the retry budget: {e}");
                                }
                            }
                        }
                        // One degraded probe per round: the ghost selector must come
                        // back flagged, from the fallback, not as an error.
                        match conn.request(&ServeRequest::new(ghost.clone(), queries[0].clone())) {
                            Ok(reply) if reply.degraded => {
                                completed += 1;
                                degraded += 1;
                            }
                            Ok(_) => wrong += 1,
                            Err(e) => {
                                failed += 1;
                                eprintln!("degraded probe failed: {e}");
                            }
                        }
                    }
                    let drops = faults
                        .counts()
                        .iter()
                        .find(|c| c.point == "client.conn-drop")
                        .map(|c| c.fired)
                        .unwrap_or(0);
                    let _ = degraded; // folded into the registry-side counter below
                    (
                        completed,
                        failed,
                        wrong,
                        conn.retries(),
                        conn.reconnects(),
                        drops,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let server_jobs = server.served();
    server.shutdown();

    let requests = clients * rounds * (queries.len() as u64 + 1);
    let completed: u64 = per_client.iter().map(|c| c.0).sum();
    let failed: u64 = per_client.iter().map(|c| c.1).sum();
    let wrong: u64 = per_client.iter().map(|c| c.2).sum();
    let retries: u64 = per_client.iter().map(|c| c.3).sum();
    let reconnects: u64 = per_client.iter().map(|c| c.4).sum();
    let drops_fired: u64 = per_client.iter().map(|c| c.5).sum();
    let degraded = registry.stats().degraded;

    let server_counts: Vec<PointRecord> = server_faults
        .counts()
        .into_iter()
        .map(|c| PointRecord {
            point: c.point.to_string(),
            hits: c.hits,
            fired: c.fired,
        })
        .collect();

    println!(
        "{completed}/{requests} completed  |  {failed} failed  |  {wrong} wrong  |  \
         {degraded} degraded  |  {retries} retries  |  {reconnects} reconnects"
    );
    for p in &server_counts {
        println!(
            "  fault {:<22} hits {:>6}  fired {:>5}",
            p.point, p.hits, p.fired
        );
    }
    println!(
        "  fault {:<22} fired {drops_fired} (across {clients} clients)",
        "client.conn-drop"
    );

    assert_eq!(wrong, 0, "a chaos run must never surface a wrong estimate");
    assert_eq!(
        failed, 0,
        "the retry budget must absorb every injected fault on loopback"
    );
    assert_eq!(completed, requests);

    let record = ChaosBenchRecord {
        bench: "chaos".to_string(),
        smoke: config.smoke,
        faults_compiled_in: FaultInjector::compiled_in(),
        seed,
        clients,
        rounds,
        queries: queries.len(),
        requests,
        completed,
        failed_requests: failed,
        wrong_estimates: wrong,
        degraded,
        retries,
        reconnects,
        server_jobs,
        wall_secs: wall,
        server_faults: server_counts,
        client_conn_drops_fired: drops_fired,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serialisation");
    let json_path =
        std::env::var("NC_BENCH_CHAOS_JSON").unwrap_or_else(|_| "BENCH_chaos.json".to_string());
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
