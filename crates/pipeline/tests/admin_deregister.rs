//! Crash-restart durability of wire deregisters against the `neurocard-serve` binary.
//!
//! The write-ahead contract for admin mutations: a deregister acknowledged over the
//! wire is journalled *before* the routing table changes, so a `kill -9` immediately
//! after the acknowledgement can never resurrect the model on restart.  The
//! surviving model must come back serving bit-identical estimates.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use nc_schema::{JoinEdge, JoinSchema, Query};
use nc_serve::{ModelSelector, ServeClient, ServeError};
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
fn a_wire_deregister_survives_kill_dash_nine() {
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("nc-admin-dereg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    };
    let artifact_path: PathBuf = dir.join("model.ncar");
    let journal_path: PathBuf = dir.join("registry.jsonl");
    let bytes = trained_artifact_bytes();
    std::fs::write(&artifact_path, &bytes).unwrap();

    let core = ModelArtifact::from_bytes(&bytes)
        .unwrap()
        .to_core()
        .unwrap();
    let fingerprint = schema_fingerprint(core.schema());
    let probe = Query::join(&["A", "B"]);
    let want = core.estimate(&probe);

    // First life: two models over the same artifact, both journalled at publish.
    let keep_arg = format!("keep={}", artifact_path.display());
    let drop_arg = format!("drop={}", artifact_path.display());
    let (mut child, addr) = spawn_server(&[
        "--listen",
        "127.0.0.1:0",
        "--journal",
        journal_path.to_str().unwrap(),
        &keep_arg,
        &drop_arg,
    ]);
    let mut client = connect(&addr);
    let keep = ModelSelector::latest(fingerprint, "keep");
    let drop_sel = ModelSelector::latest(fingerprint, "drop");
    assert_eq!(client.estimate(&keep, &probe).unwrap().key.version, 1);
    assert_eq!(client.estimate(&drop_sel, &probe).unwrap().key.version, 1);

    // The admin mutation over the wire: acknowledged, then immediately SIGKILLed.
    let gone = client.deregister(fingerprint, "drop").unwrap();
    assert_eq!(gone.name, "drop");
    assert_eq!(gone.version, 1);
    assert!(matches!(
        client.estimate(&drop_sel, &probe),
        Err(ServeError::UnknownModel(_))
    ));
    child.kill().unwrap();
    child.wait().unwrap();

    // Second life, journal only: the deregister must have been durable *before* the
    // acknowledgement — "drop" stays gone, "keep" serves bit-identically.
    let (mut child, addr) = spawn_server(&[
        "--listen",
        "127.0.0.1:0",
        "--journal",
        journal_path.to_str().unwrap(),
    ]);
    let mut client = connect(&addr);
    assert!(
        matches!(
            client.estimate(&drop_sel, &probe),
            Err(ServeError::UnknownModel(_))
        ),
        "SIGKILL after an acknowledged deregister resurrected the model"
    );
    let reply = client.estimate(&keep, &probe).unwrap();
    assert_eq!(reply.key.name, "keep");
    assert_eq!(reply.estimate.to_bits(), want.to_bits());
    // Deregistering a model that is already gone reports the typed error.
    assert!(matches!(
        client.deregister(fingerprint, "drop"),
        Err(ServeError::UnknownModel(_))
    ));

    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
