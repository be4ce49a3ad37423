//! Crash-restart persistence of the `neurocard-serve` binary.
//!
//! The acceptance contract of the registry journal: `kill -9` the serving process,
//! restart it from the journal alone (no artifacts on the command line), and every
//! model comes back at the exact version it had — with estimates that are
//! bit-identical to a direct [`neurocard::EstimatorCore`], before and after the crash.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use nc_schema::{JoinEdge, JoinSchema, Predicate, Query};
use nc_serve::{ModelSelector, ServeClient};
use nc_storage::{Database, TableBuilder, Value};
use neurocard::{schema_fingerprint, ModelArtifact, NeuroCard, NeuroCardConfig};

fn trained_artifact_bytes() -> Vec<u8> {
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
    NeuroCard::train(Arc::new(db), Arc::new(schema), &config)
        .to_bytes()
        .to_vec()
}

fn workload() -> Vec<Query> {
    let mut queries = vec![Query::join(&["A", "B"]), Query::join(&["A"])];
    for v in 0..3i64 {
        queries.push(Query::join(&["A", "B"]).filter("A", "c", Predicate::eq(v)));
    }
    queries
}

/// Spawns `neurocard-serve` and blocks until it prints its bound address.
fn spawn_server(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_neurocard-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning neurocard-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("serving on ") {
                    break rest
                        .split_whitespace()
                        .next()
                        .expect("an address after 'serving on'")
                        .to_string();
                }
            }
            other => panic!("server exited before announcing its address: {other:?}"),
        }
    };
    // Keep draining stdout in the background so the server never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[expect(
    clippy::disallowed_methods,
    reason = "a test client polls for the spawned server's port"
)]
fn connect(addr: &str) -> ServeClient {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match ServeClient::connect(addr) {
            Ok(c) => return c,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(e) => panic!("could not connect to {addr}: {e}"),
        }
    }
}

#[test]
fn kill_dash_nine_then_restart_restores_every_model_from_the_journal() {
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("nc-journal-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    };
    let artifact_path: PathBuf = dir.join("model.ncar");
    let journal_path: PathBuf = dir.join("registry.jsonl");
    let bytes = trained_artifact_bytes();
    std::fs::write(&artifact_path, &bytes).unwrap();

    // Ground truth: the direct core the served estimates must match bit-for-bit.
    let core = ModelArtifact::from_bytes(&bytes)
        .unwrap()
        .to_core()
        .unwrap();
    let queries = workload();
    let sequential: Vec<f64> = queries.iter().map(|q| core.estimate(q)).collect();
    let fingerprint = schema_fingerprint(core.schema());

    // First life: publish the same name twice — register v1, hot-swap to v2 — with
    // every publish journalled.
    let artifact_arg = format!("m={}", artifact_path.display());
    let (mut child, addr) = spawn_server(&[
        "--listen",
        "127.0.0.1:0",
        "--journal",
        journal_path.to_str().unwrap(),
        &artifact_arg,
        &artifact_arg,
    ]);
    let mut client = connect(&addr);
    let selector = ModelSelector::latest(fingerprint, "m");
    let reply = client.estimate(&selector, &queries[0]).unwrap();
    assert_eq!(reply.key.version, 2, "second publish hot-swapped to v2");
    let v2_key = reply.key.clone();
    for (q, want) in queries.iter().zip(&sequential) {
        let got = client.estimate(&selector, q).unwrap().estimate;
        assert_eq!(got.to_bits(), want.to_bits(), "pre-crash estimate diverged");
    }

    // The crash: SIGKILL, no shutdown hooks, nothing flushed by the process itself.
    child.kill().unwrap();
    child.wait().unwrap();

    // Second life: NO artifacts on the command line — the journal alone must restore
    // the model, at version 2, serving bit-identical estimates.
    let (mut child, addr) = spawn_server(&[
        "--listen",
        "127.0.0.1:0",
        "--journal",
        journal_path.to_str().unwrap(),
    ]);
    let mut client = connect(&addr);
    let reply = client.estimate(&selector, &queries[0]).unwrap();
    assert_eq!(reply.key, v2_key, "restart must restore the exact version");
    for (q, want) in queries.iter().zip(&sequential) {
        let got = client.estimate(&selector, q).unwrap().estimate;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "post-crash estimate diverged"
        );
    }
    // A client pinning the exact pre-crash key keeps working after the restart.
    let pinned = client
        .estimate(&ModelSelector::Exact(v2_key.clone()), &queries[1])
        .unwrap();
    assert_eq!(pinned.estimate.to_bits(), sequential[1].to_bits());

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `kill -9` the server the instant a promotion hits the journal — *before* the swap
/// is known to have completed — then restart from the journal alone.  The write-ahead
/// ordering (artifact fsynced → promotion journaled → registry swap) must restore the
/// *promoted* version, serving estimates bit-identical to the promoted artifact's
/// direct core, with the promotion decision stamped in its manifest.
#[test]
fn kill_dash_nine_mid_promotion_restores_the_promoted_version() {
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("nc-promotion-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    };
    let journal_path = dir.join("registry.jsonl");
    let artifact_dir = dir.join("pipeline");
    let seed = 4242u64;

    // First life: the pipeline loop runs at full speed; we race it to the first
    // "journaled promotion" marker (printed between the journal append and the swap)
    // and SIGKILL right there.
    let mut child = Command::new(env!("CARGO_BIN_EXE_neurocard-serve"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--journal",
            journal_path.to_str().unwrap(),
            "--pipeline",
            artifact_dir.to_str().unwrap(),
            "--pipeline-seed",
            &seed.to_string(),
            "--pipeline-pause-ms",
            "0",
            "--pipeline-steps",
            "12",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning neurocard-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut journaled_version = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("server stdout");
        if let Some(key) = line.strip_prefix("pipeline: journaled promotion of ") {
            let version = key
                .rsplit_once("@v")
                .and_then(|(_, v)| v.trim().parse::<u64>().ok())
                .unwrap_or_else(|| panic!("unparsable promotion marker: {line}"));
            journaled_version = Some(version);
            break;
        }
        assert!(
            !line.starts_with("pipeline: done"),
            "the pipeline finished without ever journaling a promotion"
        );
    }
    let journaled_version = journaled_version.expect("a journaled promotion before EOF");
    child.kill().unwrap();
    child.wait().unwrap();

    // Second life: NO --pipeline, NO artifacts — the journal alone.  The promotion
    // was journaled (and its artifact fsynced) before the marker, so the restored
    // `demo` must be at least that version no matter where exactly the kill landed.
    let (mut child, addr) = spawn_server(&[
        "--listen",
        "127.0.0.1:0",
        "--journal",
        journal_path.to_str().unwrap(),
    ]);
    let mut client = connect(&addr);
    let env = nc_pipeline::demo_env(seed);
    let fingerprint = schema_fingerprint(&env.schema);
    let selector = ModelSelector::latest(fingerprint, "demo");
    let queries = vec![
        Query::join(&["orders", "users"]),
        Query::join(&["orders"]),
        Query::join(&["orders", "users"]).filter("orders", "cat", Predicate::eq(2)),
        Query::join(&["orders", "users"]).filter("users", "tier", Predicate::eq(1)),
    ];
    let reply = client.estimate(&selector, &queries[0]).unwrap();
    assert!(
        reply.key.version >= journaled_version,
        "restart restored v{} but v{journaled_version} was already journaled",
        reply.key.version
    );

    // The served model IS the promoted artifact: bit-identical estimates, and the
    // manifest carries the promotion decision.
    let promoted_path = artifact_dir.join(format!("demo-v{}.ncar", reply.key.version));
    let promoted = ModelArtifact::from_bytes(&std::fs::read(&promoted_path).unwrap()).unwrap();
    let record = promoted
        .manifest()
        .promotion
        .as_ref()
        .expect("the promoted artifact carries its promotion record");
    assert_eq!(record.verdict, "promoted");
    assert_eq!(record.pipeline_seed, format!("{seed:016x}"));
    assert_eq!(record.incumbent_version, reply.key.version - 1);
    let core = promoted.to_core().unwrap();
    for q in &queries {
        let got = client.estimate(&selector, q).unwrap().estimate;
        assert_eq!(
            got.to_bits(),
            core.estimate(q).to_bits(),
            "post-crash estimate diverged from the promoted artifact on {q}"
        );
    }

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
