//! The wire protocol end to end: property-based codec round-trips, and the TCP
//! front-end's determinism contract — for a fixed `(artifact, query, seed)`, an
//! estimate that crossed the wire is **bit-identical** to a direct sequential
//! [`EstimatorCore`] estimate.

use std::net::TcpStream;
use std::sync::Arc;

use proptest::prelude::*;

use nc_schema::{CompareOp, JoinEdge, JoinSchema, Predicate, Query, TableFilter};
use nc_serve::{
    decode_request, decode_result, encode_request, encode_result, read_frame, write_frame,
    ModelKey, ModelRegistry, ModelSelector, ServeClient, ServeError, ServeReply, ServeRequest,
    TcpServer,
};
use nc_storage::{Database, TableBuilder, Value};
use neurocard::{EstimatorCore, ModelArtifact, NeuroCard, NeuroCardConfig};

// ---- Property-based codec round-trips -----------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        4 => (-1_000_000i64..1_000_000).prop_map(Value::Int),
        4 => "[a-z ,.\"\n]{0,12}".prop_map(Value::from),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        5 => (0usize..5, arb_value()).prop_map(|(op, v)| {
            let op = CompareOp::BINARY_OPS[op].clone();
            Predicate { op, literals: vec![v] }
        }),
        2 => proptest::collection::vec(arb_value(), 1..5)
            .prop_map(|vs| Predicate { op: CompareOp::In, literals: vs }),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec("[a-z_]{1,10}", 1..5),
        proptest::collection::vec(("[a-z_]{1,8}", "[a-z_]{1,8}", arb_predicate()), 0..4),
    )
        .prop_map(|(tables, filters)| Query {
            tables,
            filters: filters
                .into_iter()
                .map(|(table, column, predicate)| TableFilter {
                    table,
                    column,
                    predicate,
                })
                .collect(),
        })
}

fn arb_key() -> impl Strategy<Value = ModelKey> {
    (0u64..u64::MAX, "[a-z0-9_-]{1,16}", 1u64..1_000_000).prop_map(|(fp, name, version)| ModelKey {
        schema_fingerprint: fp,
        name,
        version,
    })
}

fn arb_selector() -> impl Strategy<Value = ModelSelector> {
    prop_oneof![
        arb_key().prop_map(ModelSelector::Exact),
        (0u64..u64::MAX, "[a-z0-9_-]{1,16}").prop_map(|(fp, name)| ModelSelector::latest(fp, name)),
        (0u64..u64::MAX).prop_map(ModelSelector::latest_for_schema),
    ]
}

fn arb_request() -> impl Strategy<Value = ServeRequest> {
    (
        arb_selector(),
        arb_query(),
        prop_oneof![
            1 => Just(None),
            2 => (1u64..100_000).prop_map(|n| Some(n as usize)),
        ],
    )
        .prop_map(|(selector, query, samples)| ServeRequest {
            selector,
            query,
            samples,
        })
}

fn arb_error() -> impl Strategy<Value = ServeError> {
    prop_oneof![
        "[ -~]{0,40}".prop_map(|m| ServeError::Estimate(neurocard::EstimateError::InvalidQuery(m))),
        ("[a-z]{1,8}", "[a-z]{1,8}").prop_map(|(table, column)| ServeError::Estimate(
            neurocard::EstimateError::UnknownColumn { table, column }
        )),
        Just(ServeError::Estimate(
            neurocard::EstimateError::InvalidSampleCount
        )),
        "[ -~]{0,40}".prop_map(ServeError::UnknownModel),
        (arb_key(), arb_key())
            .prop_map(|(requested, current)| ServeError::StaleVersion { requested, current }),
        arb_key().prop_map(ServeError::AlreadyRegistered),
        Just(ServeError::ShuttingDown),
        "[ -~]{0,40}".prop_map(ServeError::Transport),
        "[ -~]{0,40}".prop_map(ServeError::Protocol),
    ]
}

proptest! {
    /// Any request survives the wire codec unchanged.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let bytes = encode_request(&request);
        prop_assert_eq!(decode_request(&bytes).unwrap(), request);
    }

    /// Any reply survives the wire codec with bit-exact estimates — including NaN,
    /// infinities and subnormals, since the wire carries raw f64 bits.
    #[test]
    fn replies_round_trip_bit_exactly(key in arb_key(), bits in 0u64..u64::MAX, flag in 0u64..2) {
        let degraded = flag == 1;
        let reply = ServeReply { key, estimate: f64::from_bits(bits), degraded };
        let back = decode_result(&encode_result(&Ok(reply.clone()))).unwrap().unwrap();
        prop_assert_eq!(back.key, reply.key);
        prop_assert_eq!(back.estimate.to_bits(), bits);
        prop_assert_eq!(back.degraded, degraded);
    }

    /// Any serving error survives the wire codec unchanged.
    #[test]
    fn errors_round_trip(error in arb_error()) {
        let back = decode_result(&encode_result(&Err(error.clone()))).unwrap();
        prop_assert_eq!(back, Err(error));
    }

    /// Truncating an encoded request anywhere yields a typed error, never a panic.
    #[test]
    fn truncated_requests_error_cleanly(request in arb_request(), frac in 0.0f64..1.0) {
        let bytes = encode_request(&request);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(decode_request(&bytes[..cut]).is_err());
    }
}

// ---- TCP end-to-end determinism ------------------------------------------------------

fn trained_core() -> (Arc<EstimatorCore>, u64) {
    let mut db = Database::new();
    let mut a = TableBuilder::new("A", &["x", "c"]);
    for i in 0..60i64 {
        a.push_row(vec![Value::Int(i % 6), Value::Int(i % 5)]);
    }
    db.add_table(a.finish());
    let mut b = TableBuilder::new("B", &["x", "d"]);
    for i in 0..80i64 {
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
    let artifact = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
    let fingerprint = artifact.schema_fingerprint();
    (Arc::new(artifact.to_core().unwrap()), fingerprint)
}

fn workload() -> Vec<Query> {
    let mut queries = vec![Query::join(&["A", "B"]), Query::join(&["B"])];
    for v in 0..3i64 {
        queries.push(Query::join(&["A", "B"]).filter("A", "c", Predicate::eq(v)));
        queries.push(Query::join(&["B"]).filter("B", "d", Predicate::ge(v)));
        queries.push(
            Query::join(&["A", "B"])
                .filter("A", "c", Predicate::le(v))
                .filter(
                    "B",
                    "d",
                    Predicate::isin(vec![Value::Int(0), Value::Int(v)]),
                ),
        );
    }
    queries
}

#[test]
fn tcp_estimates_are_bit_identical_to_the_direct_core() {
    let (core, fingerprint) = trained_core();
    let queries = workload();
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();

    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register_core("neurocard", core.clone()).unwrap();
    assert_eq!(key.schema_fingerprint, fingerprint);
    let server = TcpServer::bind(registry.clone(), "127.0.0.1:0").unwrap();

    // Two concurrent wire clients, interleaved with in-process requests.
    std::thread::scope(|scope| {
        for offset in 0..2usize {
            let addr = server.local_addr();
            let queries = &queries;
            let sequential = &sequential;
            let key = &key;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for i in 0..queries.len() {
                    let idx = (i + offset) % queries.len();
                    let reply = client
                        .estimate(&ModelSelector::Exact(key.clone()), &queries[idx])
                        .unwrap();
                    assert_eq!(
                        reply.estimate.to_bits(),
                        sequential[idx].to_bits(),
                        "wire estimate diverged on query {idx}"
                    );
                    assert_eq!(&reply.key, key);
                }
            });
        }
    });
    assert_eq!(server.served(), 2 * queries.len() as u64);

    // Selector indirection resolves to the same model: latest-by-name and
    // latest-for-schema estimates are the same bits.
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    for (selector, q) in [
        (ModelSelector::latest(fingerprint, "neurocard"), &queries[0]),
        (ModelSelector::latest_for_schema(fingerprint), &queries[1]),
    ] {
        let reply = client.estimate(&selector, q).unwrap();
        let direct = core.estimate(q);
        assert_eq!(reply.estimate.to_bits(), direct.to_bits());
    }

    // Typed errors cross the wire: unknown model, stale version, estimator errors.
    assert!(matches!(
        client.estimate(&ModelSelector::latest(fingerprint, "nope"), &queries[0]),
        Err(ServeError::UnknownModel(_))
    ));
    let receipt = registry
        .swap(fingerprint, "neurocard", core.clone())
        .unwrap();
    assert_eq!(
        client.estimate(&ModelSelector::Exact(key.clone()), &queries[0]),
        Err(ServeError::StaleVersion {
            requested: key.clone(),
            current: receipt.new.clone(),
        })
    );
    let bad = Query::join(&["A", "B"]).filter("A", "x", Predicate::eq(0i64));
    assert!(matches!(
        client.estimate(&ModelSelector::Exact(receipt.new.clone()), &bad),
        Err(ServeError::Estimate(
            neurocard::EstimateError::UnknownColumn { .. }
        ))
    ));
    // And the connection still serves after remote errors.
    let reply = client
        .estimate(&ModelSelector::Exact(receipt.new), &queries[0])
        .unwrap();
    assert_eq!(reply.estimate.to_bits(), sequential[0].to_bits());

    server.shutdown();
}

/// An older client's fast-tier request — the request frame plus a trailing `0x01` — sent
/// over a raw socket is answered with the direct core's bits.
#[test]
fn legacy_fast_tier_frames_are_answered_with_exact_bits() {
    let (core, _) = trained_core();
    let registry = Arc::new(ModelRegistry::new());
    let key = registry.register_core("neurocard", core.clone()).unwrap();
    let server = TcpServer::bind(registry, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for q in workload() {
        let mut payload = encode_request(&ServeRequest::new(
            ModelSelector::Exact(key.clone()),
            q.clone(),
        ));
        payload.push(0x01);
        write_frame(&mut stream, &payload).unwrap();
        let reply = decode_result(&read_frame(&mut stream).unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(reply.estimate.to_bits(), core.estimate(&q).to_bits(), "{q}");
        assert_eq!(reply.key, key);
    }
    drop(stream);
    server.shutdown();
}
