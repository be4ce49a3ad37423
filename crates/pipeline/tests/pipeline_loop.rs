//! End-to-end acceptance of the retraining pipeline (PR 10).
//!
//! The full loop at a pinned seed: the seeded update stream degrades the incumbent →
//! drift fires → a candidate retrains in the background → it shadow-serves mirrored
//! traffic → the controller auto-promotes via atomic swap — with the promotion
//! write-ahead journaled, recorded in the new artifact's manifest, and the whole run
//! bit-identically replayable.  The losing-candidate path is pinned too: the shadow
//! rejects, the incumbent keeps serving, the candidate is retired.

use std::path::PathBuf;
use std::sync::Arc;

use nc_pipeline::{demo_env, DriftingSource, Pipeline, PipelineConfig, PipelineReport};
use nc_sampler::seed::derive_stream_seed;
use nc_serve::{
    JournalEvent, ModelKey, ModelRegistry, ModelSelector, RegistryJournal, SharedJournal,
};
use neurocard::infer::SamplerScratch;
use neurocard::{schema_fingerprint, ModelArtifact, NeuroCard, NeuroCardConfig, Precision};

const SEED: u64 = 0x10E0;
const STEPS: u64 = 8;

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nc-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Builds the world the serving binary would: demo env, incumbent trained on the base
/// snapshot, published at v1 with a write-ahead journal entry.
fn launch(
    dir: &PathBuf,
    seed: u64,
    configure: impl FnOnce(PipelineConfig) -> PipelineConfig,
) -> (Pipeline<DriftingSource>, Arc<ModelRegistry>, PathBuf, u64) {
    let env = demo_env(seed);
    let fingerprint = schema_fingerprint(&env.schema);
    let train = NeuroCardConfig::tiny()
        .with_training_tuples(600)
        .with_seed(derive_stream_seed(seed, 0, 2));
    let artifact = NeuroCard::train(env.db.clone(), env.schema.clone(), &train);
    let artifact_path = dir.join("demo-v1.ncar");
    std::fs::write(&artifact_path, artifact.to_bytes()).unwrap();

    let journal_path = dir.join("registry.jsonl");
    let (journal, survivors) = RegistryJournal::open(&journal_path).unwrap();
    assert!(survivors.is_empty(), "fresh journal");
    let journal = SharedJournal::new(journal);
    let key = ModelKey::new(fingerprint, "demo", 1);
    journal
        .append(&JournalEvent::publish(
            &key,
            artifact_path.to_string_lossy().as_ref(),
        ))
        .unwrap();

    let registry = Arc::new(ModelRegistry::new());
    let core = Arc::new(artifact.to_core().unwrap());
    assert_eq!(registry.register_core("demo", core).unwrap(), key);

    let config = configure(PipelineConfig::new(seed, dir));
    let pipeline = Pipeline::new(
        config,
        registry.clone(),
        Some(journal),
        env.schema.clone(),
        env.db.clone(),
        DriftingSource::new(seed, 3),
    )
    .unwrap();
    (pipeline, registry, journal_path, fingerprint)
}

fn run(dir: &PathBuf, seed: u64) -> (PipelineReport, Arc<ModelRegistry>, PathBuf, u64) {
    let (mut pipeline, registry, journal_path, fingerprint) = launch(dir, seed, |c| c);
    let report = pipeline.run(STEPS).unwrap();
    (report, registry, journal_path, fingerprint)
}

#[test]
fn stream_degrades_incumbent_then_drift_retrain_shadow_promote() {
    let dir = temp_dir("e2e");
    let (report, registry, journal_path, fingerprint) = run(&dir, SEED);

    // The control flow happened: drift fired after the stream turned, a candidate
    // trained, shadow-served mirrored traffic, and won promotion.
    let c = &report.counters;
    assert!(c.drift_detections >= 1, "drift never fired: {c:?}");
    assert!(c.retrains >= 1, "no candidate trained: {c:?}");
    assert!(c.shadow_comparisons >= 8, "too few mirrored samples: {c:?}");
    assert!(c.promotions >= 1, "no candidate promoted: {c:?}");
    assert_eq!(c.wrong_estimates, 0, "a wrong estimate slipped through");
    assert_eq!(c.retrain_aborts, 0, "no faults armed, nothing may abort");

    // Pre-drift steps are quiet; the promotion lands after the stream drifts (step 3).
    assert!(!report.steps[0].drift_fired, "step 1 is pre-drift");
    // (The run may promote more than once; the manifest checks below are against the
    // LAST promotion, the one that produced the latest version.)
    let promoted_step = report
        .steps
        .iter()
        .rev()
        .find(|s| s.promoted.is_some())
        .expect("a promoting step");
    assert!(promoted_step.step >= 3);
    assert!(promoted_step.drift_fired);
    let shadow = promoted_step.shadow.as_ref().unwrap();
    assert!(
        shadow.incumbent_median_qerr >= shadow.candidate_median_qerr,
        "promotion requires the candidate to win: {shadow:?}"
    );

    // The registry swapped atomically: `demo` is past v1, the shadow is retired.
    let latest = registry.latest(fingerprint, "demo").unwrap();
    assert!(latest.version >= 2, "promotion must bump the version");
    assert!(
        !registry.keys().iter().any(|k| k.name == "demo.shadow"),
        "the shadow registration must be retired"
    );
    // The incumbent keeps serving after the whole run.
    let lease = registry
        .acquire(&ModelSelector::latest(fingerprint, "demo"))
        .unwrap();
    let estimate = lease
        .estimate(
            &nc_schema::Query::join(&["orders", "users"]),
            None,
            &mut SamplerScratch::new(),
            Precision::Exact,
        )
        .unwrap();
    assert!(estimate.is_finite() && estimate >= 0.0);

    // The promoted artifact carries the decision in its manifest.
    let promoted_path = dir.join(format!("demo-v{}.ncar", latest.version));
    let promoted = ModelArtifact::from_bytes(&std::fs::read(&promoted_path).unwrap()).unwrap();
    let record = promoted
        .manifest()
        .promotion
        .as_ref()
        .expect("promotion record stamped into the manifest");
    assert_eq!(record.verdict, "promoted");
    assert_eq!(record.pipeline_seed, format!("{SEED:016x}"));
    assert_eq!(record.step, promoted_step.step);
    assert_eq!(record.incumbent_version, latest.version - 1);
    assert!(record.shadow_samples >= 8);
    assert!(record.incumbent_median_qerr >= record.candidate_median_qerr);

    // The journal recorded it write-ahead and folds to the promoted state.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    assert!(
        text.contains("\"op\":\"promote\""),
        "the promotion must be a distinct journal event"
    );
    let (_, survivors) = RegistryJournal::open_compacted(&journal_path).unwrap();
    let demo = survivors
        .iter()
        .find(|(k, _)| k.name == "demo")
        .expect("demo survives the fold");
    assert_eq!(demo.0, latest, "journal fold agrees with the live registry");
    assert!(
        !survivors.iter().any(|(k, _)| k.name == "demo.shadow"),
        "the shadow's journaled deregister folds it away"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_at_the_same_seed_is_bit_identical() {
    let dir_a = temp_dir("replay-a");
    let dir_b = temp_dir("replay-b");
    let (a, _, _, _) = run(&dir_a, SEED);
    let (b, _, _, _) = run(&dir_b, SEED);
    assert_eq!(
        a.digest(),
        b.digest(),
        "same seed must replay every decision bit-identically"
    );
    assert_eq!(a.counters, b.counters);
    // And the promoted artifacts themselves are byte-identical.
    for entry in std::fs::read_dir(&dir_a).unwrap() {
        let name = entry.unwrap().file_name();
        if name.to_string_lossy().ends_with(".ncar") {
            let bytes_a = std::fs::read(dir_a.join(&name)).unwrap();
            let bytes_b = std::fs::read(dir_b.join(&name)).unwrap();
            assert_eq!(bytes_a, bytes_b, "{name:?} differs between replays");
        }
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn losing_candidate_is_retired_and_the_incumbent_keeps_serving() {
    let dir = temp_dir("loser");
    // An unmeetable margin: no candidate can ever win the shadow comparison.
    let (mut pipeline, registry, _journal, fingerprint) =
        launch(&dir, SEED, |c| c.with_promote_margin(1e18));
    let report = pipeline.run(STEPS).unwrap();

    let c = &report.counters;
    assert_eq!(c.promotions, 0, "nothing may promote under the margin");
    assert!(c.retirements >= 1, "losing candidates must be retired");
    assert!(c.drift_detections >= 1);
    assert_eq!(c.wrong_estimates, 0);
    let retired_step = report.steps.iter().find(|s| s.retired.is_some()).unwrap();
    assert!(retired_step.promoted.is_none());

    // The incumbent never moved and still serves.
    let latest = registry.latest(fingerprint, "demo").unwrap();
    assert_eq!(latest.version, 1, "the incumbent must keep its version");
    assert!(
        !registry.keys().iter().any(|k| k.name == "demo.shadow"),
        "retired candidates leave no registration behind"
    );
    let lease = registry
        .acquire(&ModelSelector::latest(fingerprint, "demo"))
        .unwrap();
    let estimate = lease
        .estimate(
            &nc_schema::Query::join(&["orders"]),
            None,
            &mut SamplerScratch::new(),
            Precision::Exact,
        )
        .unwrap();
    assert!(estimate.is_finite() && estimate >= 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_compaction_runs_inline_while_the_pipeline_churns() {
    let dir = temp_dir("compact");
    // A tiny threshold: every few appends trip `maybe_compact`, folding the journal
    // back to one line per live model while promotions keep flowing through it.
    let (mut pipeline, _registry, journal_path, _fp) = launch(&dir, SEED, |mut c| {
        c.journal_compact_bytes = Some(512);
        c
    });
    let report = pipeline.run(STEPS).unwrap();
    assert!(report.counters.promotions >= 1);
    let size = std::fs::metadata(&journal_path).unwrap().len();
    assert!(
        size <= 512 + 256,
        "the journal must stay near the compaction threshold, got {size} bytes"
    );
    // The folded journal still restores the promoted state.
    let (_, survivors) = RegistryJournal::open_compacted(&journal_path).unwrap();
    assert!(survivors
        .iter()
        .any(|(k, _)| k.name == "demo" && k.version >= 2));
    let _ = std::fs::remove_dir_all(&dir);
}
