//! Losslessness contract of the model artifact (PR 4): for **random** tiny
//! configurations, training an estimator, exporting it with `to_artifact().to_bytes()`,
//! and reloading it with `ModelArtifact::from_bytes(..)?.to_core()?` yields a core whose
//! estimates are **bit-identical** to the original, for every query and sample budget
//! tried — i.e. persistence is invisible to estimation.

use std::sync::Arc;

use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
use nc_schema::{Predicate, Query};
use nc_storage::{Database, TableBuilder, Value};
use nc_workloads::job_light_queries;
use neurocard::{ModelArtifact, NeuroCard, NeuroCardConfig, SamplerScratch};
use proptest::prelude::*;

/// Random-but-tiny estimator configurations: vary every architectural knob the artifact
/// must persist (embedding width, depth, factorization bits, join-key modelling, seed).
fn arb_config() -> impl Strategy<Value = NeuroCardConfig> {
    (
        2usize..7,   // d_emb
        8usize..25,  // d_hidden
        1usize..3,   // num_blocks
        0u32..9,     // fact bits; 0 = disabled
        1u64..1_000, // seed
        400usize..900,
    )
        .prop_map(|(d_emb, d_hidden, num_blocks, bits, seed, tuples)| {
            let mut config = NeuroCardConfig::tiny();
            config.d_emb = d_emb;
            config.d_hidden = d_hidden;
            config.num_blocks = num_blocks;
            config.fact_bits = if bits < 2 { None } else { Some(bits) };
            config.seed = seed;
            config.training_tuples = tuples;
            config.progressive_samples = 24;
            config.model_join_keys = seed % 3 == 0;
            config
        })
}

fn tiny_db(seed: u64) -> (Arc<Database>, Arc<nc_schema::JoinSchema>) {
    let mut db = Database::new();
    let mut a = TableBuilder::new("A", &["x", "c", "s"]);
    for i in 0..40i64 {
        let i = i + (seed % 7) as i64;
        a.push_row(vec![
            Value::Int(i % 5),
            Value::Int(i % 3),
            Value::from(format!("v{}", i % 4)),
        ]);
    }
    db.add_table(a.finish());
    let mut b = TableBuilder::new("B", &["x", "d"]);
    for i in 0..55i64 {
        b.push_row(vec![Value::Int(i % 5), Value::Int(i % 6)]);
    }
    db.add_table(b.finish());
    let schema = nc_schema::JoinSchema::new(
        vec!["A".into(), "B".into()],
        vec![nc_schema::JoinEdge::parse("A.x", "B.x")],
        "A",
    )
    .unwrap();
    (Arc::new(db), Arc::new(schema))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random config → train → bytes → load: estimates are bit-identical.
    #[test]
    fn random_configs_round_trip_losslessly(config in arb_config()) {
        let (db, schema) = tiny_db(config.seed);
        let trained = NeuroCard::build(db, schema, &config);
        let bytes = trained.to_artifact().to_bytes();
        let snapshot = trained.core();
        let parsed = ModelArtifact::from_bytes(&bytes).expect("parse just-written artifact");
        let loaded = parsed.to_core().expect("load just-written artifact");

        let queries = [
            Query::join(&["A", "B"]),
            Query::join(&["A"]),
            Query::join(&["B"]).filter("B", "d", Predicate::le(3i64)),
            Query::join(&["A", "B"]).filter("A", "c", Predicate::eq(1i64)),
            Query::join(&["A"]).filter("A", "s", Predicate::eq("v2")),
        ];
        let mut scratch = SamplerScratch::new();
        for q in &queries {
            for samples in [1usize, 7, config.progressive_samples] {
                prop_assert_eq!(
                    snapshot.try_estimate(q, samples, &mut scratch).unwrap().to_bits(),
                    loaded.try_estimate(q, samples, &mut scratch).unwrap().to_bits()
                );
            }
        }
        // Serialisation itself is deterministic: re-exporting the parsed artifact gives the
        // same bytes.
        prop_assert_eq!(&parsed.to_bytes(), &bytes);
    }
}

/// The same contract end-to-end on the JOB-light environment the benchmarks use,
/// through a real file on disk.
#[test]
fn job_light_artifact_file_round_trip() {
    let datagen = DataGenConfig {
        title_rows: 100,
        ..DataGenConfig::tiny()
    };
    let db = Arc::new(job_light_database(&datagen));
    let schema = Arc::new(job_light_schema());
    let mut config = NeuroCardConfig::tiny();
    config.training_tuples = 1_500;

    let artifact = NeuroCard::train(db.clone(), schema.clone(), &config);
    let path = std::env::temp_dir().join("nc_integration_artifact.ncar");
    std::fs::write(&path, artifact.to_bytes()).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let parsed = ModelArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.manifest().tuples_trained, 1_500);
    let loaded = parsed.to_core().unwrap();
    // Reference estimator trained identically (training is deterministic).
    let trained = NeuroCard::build(db.clone(), schema.clone(), &config).core();

    // The trainer's snapshot and the loaded core answer every query with the same bits.
    for q in &job_light_queries(&db, &schema, 10, 7) {
        assert_eq!(
            trained.estimate(q).to_bits(),
            loaded.estimate(q).to_bits(),
            "query {q} diverged after the file round trip"
        );
    }
    let _ = std::fs::remove_file(&path);
}
