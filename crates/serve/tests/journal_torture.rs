//! Crash-consistency torture for the registry journal under injected write faults.
//!
//! For each seed, a scripted publish/deregister history is appended through a
//! journal whose `journal.*` fault points are armed.  Every failed append is
//! treated exactly as production must treat it: the handle is a write to a
//! crashed process — discard it, reopen (which truncates any torn tail), and
//! retry the event.  After every crash and at the end, the invariant checked is
//! **prefix consistency**:
//!
//! * the journal never *invents* an event (everything replayed was attempted),
//! * it never *loses* a durably acknowledged event, and
//! * a failed append leaves either nothing (write error, torn write — the torn
//!   tail is trimmed on reopen) or the complete line (fsync error: written but
//!   unacknowledged — legal for replay, and the retry folds to a no-op).
//!
//! Each seed runs twice and must reproduce bit-identical fault-point hit counts
//! and bit-identical final journal bytes — the replayability contract of
//! `nc_serve::fault`.
//!
//! Fault hooks are compiled away in release builds, so this torture only means
//! something under `debug_assertions` (the workspace test profile keeps them on).
#![cfg(debug_assertions)]

use std::path::PathBuf;

use nc_serve::journal::fold_events;
use nc_serve::{FaultCount, FaultPlan, JournalEvent, ModelKey, RegistryJournal};

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "nc-journal-torture-{tag}-{}.jsonl",
        std::process::id()
    ));
    p
}

/// The scripted history: publishes, swaps, deregisters, and a re-registration
/// under a previously deregistered key.
fn script() -> Vec<JournalEvent> {
    let fp1 = 0x1111_2222_3333_4444u64;
    let fp2 = 0xaaaa_bbbb_cccc_ddddu64;
    vec![
        JournalEvent::publish(&ModelKey::new(fp1, "m", 1), "a1.ncar"),
        JournalEvent::publish(&ModelKey::new(fp2, "n", 1), "b1.ncar"),
        JournalEvent::publish(&ModelKey::new(fp1, "m", 2), "a2.ncar"),
        JournalEvent::deregister(fp1, "m"),
        JournalEvent::publish(&ModelKey::new(fp1, "m", 1), "a3.ncar"),
        JournalEvent::publish(&ModelKey::new(fp2, "n", 2), "b2.ncar"),
        JournalEvent::deregister(fp2, "n"),
        JournalEvent::publish(&ModelKey::new(fp1, "q", 1), "c1.ncar"),
        JournalEvent::publish(&ModelKey::new(fp2, "n", 1), "b3.ncar"),
        JournalEvent::deregister(fp1, "q"),
    ]
}

fn render(events: &[JournalEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect()
}

/// Replay must be exactly the known file contents, or those contents plus the
/// one event whose append just failed (fsync-error: written, unacknowledged).
fn assert_prefix_consistent(
    replayed: &[JournalEvent],
    durable: &[JournalEvent],
    attempted: &JournalEvent,
) {
    let got = render(replayed);
    let known = render(durable);
    let mut with_attempt = known.clone();
    with_attempt.push(serde_json::to_string(attempted).unwrap());
    assert!(
        got == known || got == with_attempt,
        "replay diverged from the acknowledged prefix:\n got: {got:#?}\nknown: {known:#?}\nattempted: {attempted:?}"
    );
}

/// One full torture run at `seed`; returns the fault counters, the final journal
/// bytes, and the folded survivor state.
fn torture(seed: u64, tag: &str) -> (Vec<FaultCount>, Vec<u8>, Vec<(ModelKey, String)>) {
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let plan = FaultPlan::new(seed)
        .point("journal.torn-write", 250)
        .point("journal.write-error", 200)
        .point("journal.fsync-error", 200);
    let injector = plan.injector();

    let (mut journal, replayed) = RegistryJournal::open(&path).unwrap();
    assert!(replayed.is_empty());
    journal.set_faults(injector.clone());

    let script = script();
    // `durable` mirrors the journal file's exact contents at all times.
    let mut durable: Vec<JournalEvent> = Vec::new();
    let mut crashes = 0u32;
    let mut compacted = false;
    let mut i = 0;
    while i < script.len() {
        match journal.append(&script[i]) {
            Ok(()) => {
                durable.push(script[i].clone());
                i += 1;
            }
            Err(_) => {
                // Crash: the handle is dead.  Reopen trims any torn tail; the
                // replay must be the acknowledged prefix, at most extended by the
                // fully-written-but-unsynced line.  Then retry the same event —
                // folding is idempotent, so an fsync-error duplicate is harmless.
                crashes += 1;
                assert!(
                    crashes < 10_000,
                    "fault schedule never lets the script finish"
                );
                drop(journal);
                let (fresh, replayed) = RegistryJournal::open(&path).unwrap();
                assert_prefix_consistent(&replayed, &durable, &script[i]);
                durable = replayed;
                journal = fresh;
                journal.set_faults(injector.clone());
            }
        }
        // One mid-script compacted restart on a third of the seeds: the folded
        // rewrite must preserve exactly the folded state of what was durable.
        if !compacted && i == script.len() / 2 && seed.is_multiple_of(3) {
            compacted = true;
            let folded_before = fold_events(&durable).unwrap();
            drop(journal);
            let (fresh, survivors) = RegistryJournal::open_compacted(&path).unwrap();
            assert_eq!(survivors, folded_before, "compaction changed the state");
            // The compacted file holds one publish per survivor, in fold order.
            durable = survivors
                .iter()
                .map(|(key, artifact)| JournalEvent::publish(key, artifact.as_str()))
                .collect();
            journal = fresh;
            journal.set_faults(injector.clone());
        }
    }

    // Final restart: everything scripted must have survived, exactly once each in
    // fold space.
    drop(journal);
    let (_, replayed) = RegistryJournal::open(&path).unwrap();
    assert_eq!(render(&replayed), render(&durable));
    let folded = fold_events(&replayed).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (injector.counts(), bytes, folded)
}

#[test]
fn crash_replay_is_prefix_consistent_across_fault_schedules() {
    let fp1 = 0x1111_2222_3333_4444u64;
    let fp2 = 0xaaaa_bbbb_cccc_ddddu64;
    // The script's net effect, independent of any fault schedule.
    let want = vec![
        (ModelKey::new(fp1, "m", 1), "a3.ncar".to_string()),
        (ModelKey::new(fp2, "n", 1), "b3.ncar".to_string()),
    ];
    let mut total_fired = 0u64;
    for seed in 0..24u64 {
        let (counts, _, folded) = torture(seed, &format!("seed{seed}"));
        assert_eq!(folded, want, "seed {seed} lost or invented state");
        total_fired += counts.iter().map(|c| c.fired).sum::<u64>();
    }
    // The battery must actually have injected faults, or it proved nothing.
    assert!(total_fired > 0, "no fault ever fired across 24 seeds");
}

#[test]
fn the_same_seed_replays_the_same_torture_bit_identically() {
    for seed in [3u64, 7, 12] {
        let (counts_a, bytes_a, folded_a) = torture(seed, &format!("replay-a{seed}"));
        let (counts_b, bytes_b, folded_b) = torture(seed, &format!("replay-b{seed}"));
        assert_eq!(counts_a, counts_b, "seed {seed}: fault hit counts diverged");
        assert_eq!(
            bytes_a, bytes_b,
            "seed {seed}: final journal bytes diverged"
        );
        assert_eq!(folded_a, folded_b);
        assert!(
            counts_a.iter().any(|c| c.fired > 0),
            "seed {seed} fired nothing"
        );
    }
}
