//! The nonblocking TCP front-end, end to end (PR 6).
//!
//! Everything the reactor promises, exercised over real sockets with a real
//! NeuroCard model:
//!
//! * **bit-identity** — estimates served over TCP, by any number of pipelined
//!   clients, are bit-for-bit equal to direct sequential [`EstimatorCore`] calls,
//! * **zero lost requests across hot swap** — publishing v2/v3 mid-flight never
//!   surfaces an error or a stale-then-fresh-then-stale version to any client,
//! * **slow-loris containment** — a connection dribbling a partial frame is
//!   disconnected on the stall clock while pipelined neighbours finish untouched.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nc_schema::{JoinEdge, JoinSchema, Predicate, Query};
use nc_serve::{ModelRegistry, ModelSelector, ReactorConfig, ServeClient, ServeRequest, TcpServer};
use nc_storage::{Database, TableBuilder, Value};
use neurocard::{schema_fingerprint, EstimatorCore, ModelArtifact, NeuroCard, NeuroCardConfig};

fn trained_artifact_bytes() -> (Vec<u8>, Vec<Query>) {
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
    let schema = JoinSchema::new(
        vec!["A".into(), "B".into()],
        vec![JoinEdge::parse("A.x", "B.x")],
        "A",
    )
    .unwrap();
    let config = NeuroCardConfig::tiny().with_training_tuples(600);
    let artifact = NeuroCard::train(Arc::new(db), Arc::new(schema), &config);
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

#[test]
fn pipelined_clients_over_tcp_are_bit_identical_to_the_direct_core() {
    let (bytes, queries) = trained_artifact_bytes();
    let core = load_core(&bytes);
    let fingerprint = schema_fingerprint(core.schema());
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(fingerprint, "m", load_core(&bytes));
    let server = TcpServer::bind(registry, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let selector = ModelSelector::latest(fingerprint, "m");

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let (queries, sequential, selector) = (&queries, &sequential, &selector);
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    // The pipelining path: every request of the round goes on the
                    // wire before any reply is read; the server must answer them
                    // strictly in order.
                    let order: Vec<usize> = (0..queries.len())
                        .map(|i| (i + client_id + round) % queries.len())
                        .collect();
                    for &idx in &order {
                        client
                            .send_request(&ServeRequest::new(
                                selector.clone(),
                                queries[idx].clone(),
                            ))
                            .unwrap();
                    }
                    for &idx in &order {
                        let reply = client.recv_result().unwrap();
                        assert_eq!(
                            reply.estimate.to_bits(),
                            sequential[idx].to_bits(),
                            "client {client_id} diverged on query {idx} (round {round})"
                        );
                    }
                }
            });
        }
    });

    let expected = (CLIENTS * ROUNDS * queries.len()) as u64;
    assert_eq!(server.served(), expected, "every request was answered");
    let stats = server.stats();
    assert_eq!(stats.overloaded, 0);
    assert_eq!(stats.stalled_disconnects, 0);
    assert_eq!(stats.overflow_disconnects, 0);
    server.shutdown();
}

#[test]
fn hot_swap_under_tcp_load_loses_zero_requests() {
    let (bytes, queries) = trained_artifact_bytes();
    let core = load_core(&bytes);
    let fingerprint = schema_fingerprint(core.schema());
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(fingerprint, "m", load_core(&bytes));
    let server = TcpServer::bind(registry.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let selector = ModelSelector::latest(fingerprint, "m");
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for client_id in 0..3usize {
            let (queries, sequential, selector, stop) = (&queries, &sequential, &selector, &stop);
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut last_version = 0u64;
                let mut idx = client_id;
                // Hammer until both swaps have landed; every single reply must be
                // an estimate (zero lost requests) at a non-decreasing version.
                while !stop.load(Ordering::Relaxed) {
                    idx = (idx + 1) % queries.len();
                    let reply = client
                        .estimate(selector, &queries[idx])
                        .expect("no request may be lost across a hot swap");
                    assert!(
                        reply.key.version >= last_version,
                        "client {client_id} went back in time: \
                         v{} after v{last_version}",
                        reply.key.version
                    );
                    last_version = reply.key.version;
                    assert_eq!(
                        reply.estimate.to_bits(),
                        sequential[idx].to_bits(),
                        "v{last_version} diverged on query {idx}"
                    );
                }
                last_version
            });
        }

        // Two hot swaps (same artifact bytes, so bit-identity must hold across
        // versions) while the clients are mid-flight.
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(30));
            registry.publish(fingerprint, "m", load_core(&bytes));
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // Every connected client reached the final version before stopping.
    let mut probe = ServeClient::connect(addr).unwrap();
    assert_eq!(
        probe.estimate(&selector, &queries[0]).unwrap().key.version,
        3
    );
    assert_eq!(server.stats().overloaded, 0);
    server.shutdown();
}

#[test]
fn slow_loris_is_disconnected_while_pipelined_neighbours_finish() {
    let (bytes, queries) = trained_artifact_bytes();
    let core = load_core(&bytes);
    let fingerprint = schema_fingerprint(core.schema());
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(fingerprint, "m", load_core(&bytes));
    let config = ReactorConfig {
        stall_timeout: Duration::from_millis(150),
        ..ReactorConfig::default()
    };
    let server = TcpServer::bind_with(registry, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let selector = ModelSelector::latest(fingerprint, "m");

    // The attacker: dribbles half a length prefix, then goes quiet.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&[0x10, 0x00]).unwrap();

    // A healthy pipelined client on the same reactor, unaffected throughout.
    let mut client = ServeClient::connect(addr).unwrap();
    for q in &queries {
        client
            .send_request(&ServeRequest::new(selector.clone(), q.clone()))
            .unwrap();
    }
    for want in &sequential {
        assert_eq!(
            client.recv_result().unwrap().estimate.to_bits(),
            want.to_bits()
        );
    }

    // The stall clock fires: the loris is disconnected (EOF or reset on read),
    // having consumed one connection slot for `stall_timeout`, not forever.
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match loris.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("the stalled connection got {n} bytes instead of a close"),
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().stalled_disconnects == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().stalled_disconnects, 1);

    // The healthy client's connection survived the sweep.
    let reply = client.estimate(&selector, &queries[0]).unwrap();
    assert_eq!(reply.estimate.to_bits(), sequential[0].to_bits());
    server.shutdown();
}
