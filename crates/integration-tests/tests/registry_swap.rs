//! Hot swap under load: the registry's drain discipline, end to end.
//!
//! Client threads hammer a [`RegistryService`] with "latest NeuroCard" requests while
//! the main thread publishes v1 → v2 → v3.  The contract under test:
//!
//! * **zero lost requests** — no `ServeError` of any kind across the swaps,
//! * **monotonic version observation** — a client that saw v(n) never sees v(n-1),
//! * **drain before retirement** — a superseded version is retired exactly when its
//!   last in-flight lease drops, never earlier,
//! * **determinism** — every estimate, from every version (same artifact bytes), is
//!   bit-identical to a direct sequential [`EstimatorCore`] estimate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nc_schema::{JoinEdge, JoinSchema, Predicate, Query};
use nc_serve::{ModelRegistry, ModelSelector, RegistryService, ServeRequest, ServiceConfig};
use nc_storage::{Database, TableBuilder, Value};
use neurocard::{EstimatorCore, ModelArtifact, NeuroCard, NeuroCardConfig, SamplerScratch};

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
fn swap_under_load_loses_nothing_and_drains_before_retiring() {
    let (bytes, queries) = trained_artifact_bytes();
    let artifact = ModelArtifact::from_bytes(&bytes).unwrap();
    let fingerprint = artifact.schema_fingerprint();
    // v1..v3 are loaded from the same bytes: distinct version identities, identical
    // estimates — so determinism stays assertable across the swaps.
    let v1 = load_core(&bytes);
    // The clients below request 16 samples; the sequential baseline must match.
    let mut scratch = SamplerScratch::new();
    let sequential: Vec<f64> = queries
        .iter()
        .map(|q| v1.try_estimate(q, 16, &mut scratch).unwrap())
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    let k1 = registry.register_core("neurocard", v1).unwrap();
    assert_eq!(k1.version, 1);
    let service = RegistryService::new(
        registry.clone(),
        ServiceConfig {
            workers: 2,
            queue_depth: 4,
        },
    );

    let stop = AtomicBool::new(false);
    let selector = ModelSelector::latest(fingerprint, "neurocard");
    let (observed, receipts) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..3usize)
            .map(|client_id| {
                let handle = service.handle();
                let stop = &stop;
                let queries = &queries;
                let sequential = &sequential;
                let selector = &selector;
                scope.spawn(move || {
                    let mut observed: Vec<u64> = Vec::new();
                    let mut i = client_id;
                    // Hammer until the swapper says stop — every reply must succeed.
                    while !stop.load(Ordering::Relaxed) {
                        let idx = i % queries.len();
                        let reply = handle
                            .request(
                                ServeRequest::new(selector.clone(), queries[idx].clone())
                                    .with_samples(16),
                            )
                            .expect("no request may fail across a hot swap");
                        assert_eq!(
                            reply.estimate.to_bits(),
                            sequential[idx].to_bits(),
                            "estimate diverged on query {idx} (version {})",
                            reply.key.version
                        );
                        observed.push(reply.key.version);
                        i += 1;
                    }
                    observed
                })
            })
            .collect();

        // Swap v1 → v2 → v3 while the clients hammer; after each swap, wait for the
        // superseded version to drain and assert it retired only then.
        let mut receipts = Vec::new();
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(30));
            let retired_before = registry.stats().retired;
            let receipt = registry
                .swap(fingerprint, "neurocard", load_core(&bytes))
                .unwrap();
            assert!(
                registry.wait_drained(&receipt.old, Duration::from_secs(30)),
                "{} must drain once its in-flight requests finish",
                receipt.old
            );
            // Retirement happened (exactly once for this version), and only via the
            // drain path or an empty-at-swap fast path — never while still leased.
            assert_eq!(registry.stats().retired, retired_before + 1);
            assert!(!registry
                .draining_versions()
                .iter()
                .any(|k| k == &receipt.old));
            receipts.push(receipt);
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
        (
            clients
                .into_iter()
                .map(|c| c.join().expect("client panicked"))
                .collect::<Vec<_>>(),
            receipts,
        )
    });

    let stats = service.shutdown();
    let total: usize = observed.iter().map(|o| o.len()).sum();
    assert_eq!(stats.served, total);
    assert!(total > 0, "clients must have served requests");

    // Monotonic version observation per client, and v3 is current at the end.
    for versions in &observed {
        assert!(
            versions.windows(2).all(|w| w[0] <= w[1]),
            "a client observed a version rollback: {versions:?}"
        );
        assert!(versions.iter().all(|&v| (1..=3).contains(&v)));
    }
    assert_eq!(receipts.last().unwrap().new.version, 3);
    assert_eq!(
        registry.latest(fingerprint, "neurocard"),
        Some(receipts.last().unwrap().new.clone())
    );
    // Nothing left draining; both superseded versions were retired.
    assert!(registry.draining_versions().is_empty());
    let rstats = registry.stats();
    assert_eq!(rstats.swaps, 2);
    assert_eq!(rstats.retired, 2);
    assert_eq!(rstats.models, 1);
}

#[test]
fn an_explicit_lease_blocks_retirement_until_dropped() {
    let (bytes, queries) = trained_artifact_bytes();
    let fingerprint = ModelArtifact::from_bytes(&bytes)
        .unwrap()
        .schema_fingerprint();
    let registry = ModelRegistry::new();
    let k1 = registry.register_core("m", load_core(&bytes)).unwrap();

    // Pin v1 explicitly (as a long-running request would), then swap.
    let lease = registry.acquire(&ModelSelector::Exact(k1.clone())).unwrap();
    let receipt = registry.swap(fingerprint, "m", load_core(&bytes)).unwrap();
    assert!(!receipt.old_retired_immediately);
    assert_eq!(registry.draining_versions(), vec![k1.clone()]);
    // The drain does not complete while the lease lives...
    assert!(!registry.wait_drained(&k1, Duration::from_millis(20)));
    assert_eq!(registry.stats().retired, 0);
    // ...the pinned version still serves, bit-identically to a fresh load...
    let mut scratch = SamplerScratch::new();
    assert_eq!(
        lease
            .estimate(&queries[0], Some(16), &mut scratch)
            .unwrap()
            .to_bits(),
        load_core(&bytes)
            .try_estimate(&queries[0], 16, &mut scratch)
            .unwrap()
            .to_bits()
    );
    // ...and retirement happens at the drop, not before.
    drop(lease);
    assert!(registry.wait_drained(&k1, Duration::from_secs(5)));
    assert_eq!(registry.stats().retired, 1);
    assert!(registry.draining_versions().is_empty());
}
