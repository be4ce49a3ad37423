//! Registry persistence: an append-only journal of publish/deregister events.
//!
//! `neurocard-serve` survives a `kill -9`: every [`ModelRegistry`] mutation it performs
//! is journalled to a JSON-lines manifest **before** it takes effect, and a restarted
//! server folds the journal back into the exact pre-crash registry — same names, same
//! *versions* (via [`ModelRegistry::restore`]), so clients pinning an exact
//! [`ModelKey`] resume without renegotiation.
//!
//! Format: one [`JournalEvent`] per line, serialised by the workspace's offline serde
//! shim.  Fingerprints are 16-digit hex strings (JSON numbers are not trusted with
//! 64-bit identifiers).  Each append is flushed and `fdatasync`ed before the registry
//! mutation happens, so the journal can only ever be *ahead* of the served state, never
//! behind it.  A crash mid-append leaves a torn final line; [`read_events`] tolerates a
//! corrupt **last** line (and only the last) for exactly that reason.
//!
//! [`ModelRegistry`]: crate::ModelRegistry
//! [`ModelRegistry::restore`]: crate::ModelRegistry::restore

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::fault::FaultInjector;
use crate::lockcheck;
use crate::registry::ModelKey;

/// Why a journal operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying file I/O failed (message attached).
    Io(String),
    /// A journal line other than the (possibly torn) final one failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Parse error message.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// One registry mutation, as journalled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// `"publish"` (register or swap — both install a current version),
    /// `"promote"` (a pipeline-validated swap: folds like a publish, but marks
    /// the installed version as having won a shadow comparison), or
    /// `"deregister"`.
    pub op: String,
    /// Schema fingerprint as a 16-digit hex string.
    pub schema_fingerprint: String,
    /// Model name within the schema.
    pub name: String,
    /// Version installed by a publish (`0` for deregister).
    pub version: u64,
    /// Artifact container the model loads from (empty for deregister).
    pub artifact_path: String,
}

impl JournalEvent {
    /// A publish event: `key` became the current version, loadable from
    /// `artifact_path`.
    pub fn publish(key: &ModelKey, artifact_path: impl Into<String>) -> Self {
        JournalEvent {
            op: "publish".into(),
            schema_fingerprint: format!("{:016x}", key.schema_fingerprint),
            name: key.name.clone(),
            version: key.version,
            artifact_path: artifact_path.into(),
        }
    }

    /// A promotion event: `key` became the current version after winning a shadow
    /// comparison.  Folds exactly like [`publish`](Self::publish) — the distinct op
    /// string is the durable record that the swap was pipeline-validated, so an
    /// auditor reading the raw journal can tell validated promotions from manual
    /// publishes.
    pub fn promote(key: &ModelKey, artifact_path: impl Into<String>) -> Self {
        JournalEvent {
            op: "promote".into(),
            schema_fingerprint: format!("{:016x}", key.schema_fingerprint),
            name: key.name.clone(),
            version: key.version,
            artifact_path: artifact_path.into(),
        }
    }

    /// A deregister event: `(schema_fingerprint, name)` left the routing table.
    pub fn deregister(schema_fingerprint: u64, name: impl Into<String>) -> Self {
        JournalEvent {
            op: "deregister".into(),
            schema_fingerprint: format!("{schema_fingerprint:016x}"),
            name: name.into(),
            version: 0,
            artifact_path: String::new(),
        }
    }

    /// The fingerprint parsed back out of its hex form.
    pub fn fingerprint(&self) -> Result<u64, JournalError> {
        u64::from_str_radix(&self.schema_fingerprint, 16).map_err(|e| JournalError::Corrupt {
            line: 0,
            message: format!("bad fingerprint {:?}: {e}", self.schema_fingerprint),
        })
    }

    /// The model key a publish event installs.
    pub fn key(&self) -> Result<ModelKey, JournalError> {
        Ok(ModelKey::new(
            self.fingerprint()?,
            self.name.clone(),
            self.version,
        ))
    }
}

/// Parses journal bytes into events, also returning the byte length of the **valid
/// prefix**: the end (newline included) of the last durable line.  Everything past
/// it is a torn tail.
///
/// Two kinds of tail are torn: a final line that fails to parse, and a final line
/// with no terminating newline — even one that happens to parse.  `append` writes
/// line and newline in one `write_all` and only acknowledges after `fdatasync`, so
/// an unterminated line was necessarily cut mid-write and never acknowledged
/// durable; counting it would let a lost write resurrect, and appending after it
/// would merge two events into one corrupt line.  A bad line anywhere *else* is
/// real corruption and fails with [`JournalError::Corrupt`].
fn parse_events(bytes: &[u8]) -> Result<(Vec<JournalEvent>, usize), JournalError> {
    let mut events = Vec::new();
    let mut valid = 0usize;
    let mut offset = 0usize;
    let mut line_no = 0usize;
    while offset < bytes.len() {
        line_no += 1;
        let (line_end, next, terminated) = match bytes[offset..].iter().position(|&b| b == b'\n') {
            Some(i) => (offset + i, offset + i + 1, true),
            None => (bytes.len(), bytes.len(), false),
        };
        let line_bytes = &bytes[offset..line_end];
        let is_final = next >= bytes.len();
        let parsed = std::str::from_utf8(line_bytes)
            .map_err(|e| e.to_string())
            .and_then(|s| {
                if s.trim().is_empty() {
                    Ok(None)
                } else {
                    serde_json::from_str::<JournalEvent>(s)
                        .map(Some)
                        .map_err(|e| e.to_string())
                }
            });
        match parsed {
            Ok(ev) if terminated => {
                events.extend(ev);
                valid = next;
            }
            Ok(_) => break, // parseable but unterminated: a torn (unacknowledged) tail
            Err(_) if is_final => break, // torn final append
            Err(message) => {
                return Err(JournalError::Corrupt {
                    line: line_no,
                    message,
                })
            }
        }
        offset = next;
    }
    Ok((events, valid))
}

/// Parses a journal file into its event list.
///
/// A missing file is an empty journal.  Torn-tail tolerance is `parse_events`'s:
/// an unparseable or unterminated final line is skipped; a bad line anywhere else
/// fails with [`JournalError::Corrupt`].
pub fn read_events(path: &Path) -> Result<Vec<JournalEvent>, JournalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    parse_events(&bytes).map(|(events, _)| events)
}

/// Reads the journal back and **truncates any torn tail**, so the append handle
/// starts on a clean line boundary.  Without the truncation, the first append
/// after a mid-write crash would glue its line onto the torn fragment, turning a
/// tolerated torn tail into fatal interior corruption on the *next* restart.
fn recover(path: &Path) -> Result<Vec<JournalEvent>, JournalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let (events, valid) = parse_events(&bytes)?;
    if valid < bytes.len() {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid as u64)?;
        file.sync_data()?;
    }
    Ok(events)
}

/// Folds an event sequence into the surviving state: for every still-registered model,
/// the key it must come back as and the artifact to load it from.
pub fn fold_events(events: &[JournalEvent]) -> Result<Vec<(ModelKey, String)>, JournalError> {
    let mut state: BTreeMap<(u64, String), (ModelKey, String)> = BTreeMap::new();
    for ev in events {
        let fp = ev.fingerprint()?;
        match ev.op.as_str() {
            // A promotion installs a current version exactly like a publish; the
            // op difference is provenance, not routing state.
            "publish" | "promote" => {
                state.insert((fp, ev.name.clone()), (ev.key()?, ev.artifact_path.clone()));
            }
            "deregister" => {
                state.remove(&(fp, ev.name.clone()));
            }
            other => {
                return Err(JournalError::Corrupt {
                    line: 0,
                    message: format!("unknown journal op {other:?}"),
                })
            }
        }
    }
    Ok(state.into_values().collect())
}

/// Atomically rewrites the journal at `path` to hold exactly one publish line per
/// entry of `folded`: temp file, `fdatasync`, `rename`, parent-directory fsync.  A
/// crash anywhere in the sequence leaves either the old journal or the fully synced
/// compacted one — never a mix.
fn rewrite_compacted(path: &Path, folded: &[(ModelKey, String)]) -> Result<(), JournalError> {
    let mut text = String::new();
    for (key, artifact_path) in folded {
        let ev = JournalEvent::publish(key, artifact_path.clone());
        text.push_str(&serde_json::to_string(&ev).map_err(|e| JournalError::Io(e.to_string()))?);
        text.push('\n');
    }
    let tmp = path.with_extension("compact");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory fsync makes the rename durable; a filesystem that cannot open
        // directories (exotic, but possible) just loses the guarantee, not the data.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The append handle: write-ahead journalling of registry mutations.
pub struct RegistryJournal {
    path: PathBuf,
    file: File,
    faults: FaultInjector,
    compact_threshold: Option<u64>,
    compactions: u64,
}

impl RegistryJournal {
    /// Opens (creating if absent) the journal at `path` for appending, first reading
    /// back the events already recorded — the caller replays those into its registry.
    /// A torn tail left by a crash is truncated away before the handle opens.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Self, Vec<JournalEvent>), JournalError> {
        let path = path.into();
        let events = recover(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            RegistryJournal {
                path,
                file,
                faults: FaultInjector::disabled(),
                compact_threshold: None,
                compactions: 0,
            },
            events,
        ))
    }

    /// Installs the fault injector consulted by [`append`](Self::append) (fault
    /// points `journal.write-error`, `journal.torn-write`, `journal.fsync-error`).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Opens the journal at `path` **compacted**: the recorded history is folded to
    /// the surviving state, the file is atomically rewritten to hold exactly one
    /// publish line per surviving model, and the folded state is returned for replay.
    ///
    /// A journal only grows in normal operation (every swap appends), so a server
    /// restarted after months of retraining would otherwise replay — and keep —
    /// an unbounded history.  Compaction happens before the append handle opens:
    ///
    /// 1. read + fold (torn-tail tolerance identical to [`read_events`]);
    /// 2. write the folded lines to a `<path>.compact` temp file and `fdatasync` it;
    /// 3. atomically `rename` over the journal, then fsync the parent directory so
    ///    the rename itself survives power loss.
    ///
    /// A crash anywhere in that sequence leaves either the old journal or the fully
    /// synced compacted one — never a mix.  The rewrite is skipped when it would not
    /// shrink the file (fresh journals, already-compact journals).
    pub fn open_compacted(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<(ModelKey, String)>), JournalError> {
        let path = path.into();
        let events = recover(&path)?;
        let folded = fold_events(&events)?;
        if folded.len() < events.len() {
            rewrite_compacted(&path, &folded)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            RegistryJournal {
                path,
                file,
                faults: FaultInjector::disabled(),
                compact_threshold: None,
                compactions: 0,
            },
            folded,
        ))
    }

    /// Arms running compaction: after any append that leaves the journal file larger
    /// than `bytes`, [`maybe_compact`](Self::maybe_compact) folds the history and
    /// atomically rewrites the file (same temp-file/rename/dir-fsync sequence as
    /// [`open_compacted`](Self::open_compacted)).  `None` disables (the default —
    /// compaction stays startup-only).
    pub fn set_compact_threshold(&mut self, bytes: Option<u64>) {
        self.compact_threshold = bytes;
    }

    /// How many running compactions this handle has performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Compacts the live journal in place if it exceeds the configured size
    /// threshold.  Returns `true` if a rewrite happened.
    ///
    /// The fold reuses [`open_compacted`](Self::open_compacted)'s machinery:
    /// read + fold (tolerating a torn tail left by an earlier failed append),
    /// atomic rewrite, then the append handle is reopened so later appends go to
    /// the new inode — the old handle would otherwise keep writing to the unlinked
    /// pre-compaction file.  A rewrite that would not shrink the file is skipped.
    /// Callers holding [`SharedJournal`]'s `"journal.file"` lock get this for free
    /// after every successful append, preserving the existing lock-order
    /// discipline (no other lock is taken while the file lock is held).
    pub fn maybe_compact(&mut self) -> Result<bool, JournalError> {
        let threshold = match self.compact_threshold {
            Some(t) => t,
            None => return Ok(false),
        };
        let size = std::fs::metadata(&self.path)?.len();
        if size <= threshold {
            return Ok(false);
        }
        let events = recover(&self.path)?;
        let folded = fold_events(&events)?;
        if folded.len() >= events.len() {
            return Ok(false);
        }
        rewrite_compacted(&self.path, &folded)?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.compactions += 1;
        Ok(true)
    }

    /// Appends one event durably: the line is written and `fdatasync`ed before this
    /// returns, so callers may apply the mutation the moment it does.
    ///
    /// On `Err` the caller must treat the append as a crash: the event is **not**
    /// durable (its bytes may or may not have reached the file) and the handle may
    /// sit on a torn tail — discard it and reopen (which truncates the tail), then
    /// re-append; replay folds re-published events idempotently.  [`SharedJournal`]
    /// automates the reopen.
    pub fn append(&mut self, event: &JournalEvent) -> Result<(), JournalError> {
        let mut line = serde_json::to_string(event).map_err(|e| JournalError::Io(e.to_string()))?;
        line.push('\n');
        if let Some(msg) = self.faults.fail("journal.write-error") {
            // ENOSPC-style failure: nothing reached the file.
            return Err(JournalError::Io(msg));
        }
        if let Some(n) = self.faults.torn_len("journal.torn-write", line.len()) {
            // Crash mid-write: a strict prefix lands, the acknowledgement never comes.
            self.file.write_all(&line.as_bytes()[..n])?;
            return Err(JournalError::Io(format!(
                "injected fault: journal.torn-write ({n}/{} bytes)",
                line.len()
            )));
        }
        self.file.write_all(line.as_bytes())?;
        if let Some(msg) = self.faults.fail("journal.fsync-error") {
            // The bytes reached the file but durability was never established; the
            // event may legitimately reappear on replay (fold is idempotent).
            return Err(JournalError::Io(msg));
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// A cloneable, thread-safe journal handle for transports that journal from worker
/// threads (the TCP reactor's admin path).
///
/// Serialises appends under the `"journal.file"` lock and **self-heals** after a
/// failed append: the journal is reopened in place (truncating any torn tail the
/// failure left behind) so subsequent appends start on a clean line boundary.  The
/// failed append itself is still reported — the caller must not apply the mutation.
#[derive(Clone)]
pub struct SharedJournal {
    inner: Arc<lockcheck::Mutex<RegistryJournal>>,
}

impl std::fmt::Debug for SharedJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedJournal").finish_non_exhaustive()
    }
}

impl SharedJournal {
    /// Wraps an opened journal for shared use.
    pub fn new(journal: RegistryJournal) -> Self {
        SharedJournal {
            inner: Arc::new(lockcheck::Mutex::new("journal.file", journal)),
        }
    }

    /// Appends one event durably (see [`RegistryJournal::append`]), recovering the
    /// handle on failure.
    pub fn append(&self, event: &JournalEvent) -> Result<(), JournalError> {
        let mut journal = self.inner.lock();
        match journal.append(event) {
            Ok(()) => {
                // Running compaction rides the same lock hold.  A compaction
                // failure is not an append failure — the event is durable and the
                // mutation must proceed; the journal is merely still long.
                let _ = journal.maybe_compact();
                Ok(())
            }
            Err(e) => {
                // Crash-equivalent recovery: reopen (truncates the torn tail) so the
                // handle stays usable.  Keep the original error either way.
                let faults = journal.faults.clone();
                let threshold = journal.compact_threshold;
                let compactions = journal.compactions;
                if let Ok((mut fresh, _)) = RegistryJournal::open(journal.path.clone()) {
                    fresh.set_faults(faults);
                    fresh.set_compact_threshold(threshold);
                    fresh.compactions = compactions;
                    *journal = fresh;
                }
                Err(e)
            }
        }
    }

    /// Arms (or disarms) running compaction on the shared handle (see
    /// [`RegistryJournal::set_compact_threshold`]).
    pub fn set_compact_threshold(&self, bytes: Option<u64>) {
        self.inner.lock().set_compact_threshold(bytes);
    }

    /// How many running compactions the shared handle has performed.
    pub fn compactions(&self) -> u64 {
        self.inner.lock().compactions()
    }

    /// Arms (or replaces) the fault injector consulted by later appends.
    pub fn set_faults(&self, faults: FaultInjector) {
        self.inner.lock().set_faults(faults);
    }

    /// The journal's path.
    pub fn path(&self) -> PathBuf {
        self.inner.lock().path.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "nc-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn events_round_trip_and_fold() {
        let path = temp_path("roundtrip");
        let (mut journal, existing) = RegistryJournal::open(&path).unwrap();
        assert!(existing.is_empty(), "fresh journal starts empty");

        let k1 = ModelKey::new(0xfeed, "m", 1);
        let k2 = ModelKey::new(0xfeed, "m", 2);
        let kb = ModelKey::new(0xbeef, "other", 1);
        journal
            .append(&JournalEvent::publish(&k1, "/tmp/a.ncm"))
            .unwrap();
        journal
            .append(&JournalEvent::publish(&k2, "/tmp/b.ncm"))
            .unwrap();
        journal
            .append(&JournalEvent::publish(&kb, "/tmp/c.ncm"))
            .unwrap();
        journal
            .append(&JournalEvent::deregister(0xbeef, "other"))
            .unwrap();
        drop(journal);

        // Reopen: all four events come back, and folding yields only the survivor at
        // its *latest* version.
        let (_, events) = RegistryJournal::open(&path).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].key().unwrap(), k1);
        let folded = fold_events(&events).unwrap();
        assert_eq!(folded, vec![(k2, "/tmp/b.ncm".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_tolerated_but_interior_corruption_is_not() {
        let path = temp_path("torn");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal
            .append(&JournalEvent::publish(
                &ModelKey::new(1, "m", 1),
                "/tmp/a.ncm",
            ))
            .unwrap();
        drop(journal);

        // Simulate a crash mid-append: a torn trailing half-line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"op\":\"publish\",\"schema_fing");
        std::fs::write(&path, &text).unwrap();
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 1, "torn last line is skipped");

        // The same garbage *before* a valid line is corruption, not a torn tail.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.rotate_right(1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(
            read_events(&path),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_compacted_folds_history_and_shrinks_the_file() {
        let path = temp_path("compact");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        // Two models, one swapped twice, one deregistered: 5 events, 1 survivor.
        for (key, artifact) in [
            (ModelKey::new(0xfeed, "m", 1), "/tmp/a.ncm"),
            (ModelKey::new(0xfeed, "m", 2), "/tmp/b.ncm"),
            (ModelKey::new(0xfeed, "m", 3), "/tmp/c.ncm"),
            (ModelKey::new(0xbeef, "gone", 1), "/tmp/d.ncm"),
        ] {
            journal
                .append(&JournalEvent::publish(&key, artifact))
                .unwrap();
        }
        journal
            .append(&JournalEvent::deregister(0xbeef, "gone"))
            .unwrap();
        drop(journal);
        assert_eq!(read_events(&path).unwrap().len(), 5);

        let (mut journal, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert_eq!(
            folded,
            vec![(ModelKey::new(0xfeed, "m", 3), "/tmp/c.ncm".to_string())]
        );
        // The on-disk file now holds exactly the folded line...
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key().unwrap(), ModelKey::new(0xfeed, "m", 3));
        // ...and the handle appends after it without clobbering.
        journal
            .append(&JournalEvent::publish(
                &ModelKey::new(0xfeed, "m", 4),
                "/tmp/e.ncm",
            ))
            .unwrap();
        drop(journal);
        assert_eq!(read_events(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_compacted_tolerates_fresh_torn_and_already_compact_journals() {
        // Fresh (missing) journal: empty state, file created for appends.
        let path = temp_path("compact-fresh");
        let (journal, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert!(folded.is_empty());
        drop(journal);

        // Already compact: one live publish per model — no rewrite needed, nothing
        // lost.
        let (mut journal, _) = RegistryJournal::open_compacted(&path).unwrap();
        let key = ModelKey::new(7, "m", 1);
        journal
            .append(&JournalEvent::publish(&key, "/tmp/a.ncm"))
            .unwrap();
        drop(journal);
        let before = std::fs::read_to_string(&path).unwrap();
        let (_, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert_eq!(folded, vec![(key.clone(), "/tmp/a.ncm".to_string())]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);

        // A torn tail is dropped by the compaction rewrite (it follows a swap, so
        // the file shrinks and is rewritten clean).
        let mut text = std::fs::read_to_string(&path).unwrap();
        let k2 = ModelKey::new(7, "m", 2);
        text.push_str(&serde_json::to_string(&JournalEvent::publish(&k2, "/tmp/b.ncm")).unwrap());
        text.push_str("\n{\"op\":\"publish\",\"schema_fing");
        std::fs::write(&path, &text).unwrap();
        let (_, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert_eq!(folded, vec![(k2.clone(), "/tmp/b.ncm".to_string())]);
        let clean = read_events(&path).unwrap();
        assert_eq!(clean.len(), 1);
        assert_eq!(clean[0].key().unwrap(), k2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_non_final_line_is_corruption() {
        // A tear that is *followed* by valid lines cannot be a crash tail — it is
        // interior corruption and must fail loudly, at the right line number.
        let path = temp_path("torn-interior");
        let good = serde_json::to_string(&JournalEvent::publish(
            &ModelKey::new(1, "m", 1),
            "/tmp/a.ncm",
        ))
        .unwrap();
        std::fs::write(&path, format!("{good}\n{{\"op\":\"pub\n{good}\n")).unwrap();
        assert!(matches!(
            read_events(&path),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_event_after_compaction_folds_idempotently() {
        // Crash-retry can legitimately append an event whose bytes already landed
        // (failed fsync); replay and compaction must treat the duplicate as a no-op.
        let path = temp_path("dup-after-compact");
        let key = ModelKey::new(0xfeed, "m", 2);
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal
            .append(&JournalEvent::publish(
                &ModelKey::new(0xfeed, "m", 1),
                "/tmp/a.ncm",
            ))
            .unwrap();
        journal
            .append(&JournalEvent::publish(&key, "/tmp/b.ncm"))
            .unwrap();
        drop(journal);
        let (mut journal, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert_eq!(folded, vec![(key.clone(), "/tmp/b.ncm".to_string())]);
        // The duplicate publish, re-appended after compaction.
        journal
            .append(&JournalEvent::publish(&key, "/tmp/b.ncm"))
            .unwrap();
        drop(journal);
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 2, "compacted line + duplicate");
        assert_eq!(
            fold_events(&events).unwrap(),
            vec![(key, "/tmp/b.ncm".to_string())]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deregister_then_register_same_key_survives_fold() {
        let path = temp_path("dereg-rereg");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal
            .append(&JournalEvent::publish(
                &ModelKey::new(5, "m", 3),
                "/tmp/a.ncm",
            ))
            .unwrap();
        journal.append(&JournalEvent::deregister(5, "m")).unwrap();
        let back = ModelKey::new(5, "m", 1);
        journal
            .append(&JournalEvent::publish(&back, "/tmp/b.ncm"))
            .unwrap();
        drop(journal);
        // The re-registration wins — at *its* version (registration restarts the
        // version counter; replay must not resurrect version 3).
        let folded = fold_events(&read_events(&path).unwrap()).unwrap();
        assert_eq!(folded, vec![(back.clone(), "/tmp/b.ncm".to_string())]);
        // And compaction preserves exactly that.
        let (_, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert_eq!(folded, vec![(back, "/tmp/b.ncm".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_truncates_torn_tail_so_later_appends_stay_clean() {
        // The crash-consistency gap recover() closes: append-after-torn-tail must
        // not merge two events into one corrupt interior line.
        let path = temp_path("trim");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal
            .append(&JournalEvent::publish(
                &ModelKey::new(1, "m", 1),
                "/tmp/a.ncm",
            ))
            .unwrap();
        drop(journal);
        let clean_len = std::fs::metadata(&path).unwrap().len();

        // Torn tail variant 1: unparseable fragment.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"op\":\"publish\",\"schema_fing");
        std::fs::write(&path, &bytes).unwrap();
        let (mut journal, events) = RegistryJournal::open(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        let k2 = ModelKey::new(1, "m", 2);
        journal
            .append(&JournalEvent::publish(&k2, "/tmp/b.ncm"))
            .unwrap();
        drop(journal);
        assert_eq!(read_events(&path).unwrap().len(), 2);

        // Torn tail variant 2: a line that parses but lost its newline — written,
        // never fsync-acknowledged.  It must be trimmed, not replayed.
        let mut bytes = std::fs::read(&path).unwrap();
        let unterminated = serde_json::to_string(&JournalEvent::publish(
            &ModelKey::new(1, "m", 9),
            "/tmp/x.ncm",
        ))
        .unwrap();
        bytes.extend_from_slice(unterminated.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (_, events) = RegistryJournal::open(&path).unwrap();
        assert_eq!(events.len(), 2, "unterminated tail is not replayed");
        assert_eq!(
            events.last().unwrap().key().unwrap(),
            k2,
            "trim stops at the last durable line"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn injected_append_faults_crash_consistently() {
        use crate::fault::FaultPlan;

        let path = temp_path("faults");
        let key = ModelKey::new(0xabc, "m", 1);

        // write-error: nothing reaches the file.
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal.set_faults(
            FaultPlan::new(3)
                .point("journal.write-error", 1000)
                .injector(),
        );
        assert!(journal
            .append(&JournalEvent::publish(&key, "/tmp/a.ncm"))
            .is_err());
        drop(journal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);

        // torn-write: a strict prefix lands; reopen trims it and the retry succeeds.
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal.set_faults(
            FaultPlan::new(3)
                .point("journal.torn-write", 1000)
                .injector(),
        );
        assert!(journal
            .append(&JournalEvent::publish(&key, "/tmp/a.ncm"))
            .is_err());
        drop(journal);
        let (mut journal, events) = RegistryJournal::open(&path).unwrap();
        assert!(events.is_empty(), "torn prefix must not replay");
        journal
            .append(&JournalEvent::publish(&key, "/tmp/a.ncm"))
            .unwrap();
        drop(journal);
        assert_eq!(read_events(&path).unwrap().len(), 1);

        // fsync-error: the full line may land; replay may include it (idempotent),
        // and the crash-retry re-append folds to the same state.
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal.set_faults(
            FaultPlan::new(3)
                .point("journal.fsync-error", 1000)
                .injector(),
        );
        let k2 = ModelKey::new(0xabc, "m", 2);
        assert!(journal
            .append(&JournalEvent::publish(&k2, "/tmp/b.ncm"))
            .is_err());
        drop(journal);
        let (mut journal, events) = RegistryJournal::open(&path).unwrap();
        assert_eq!(events.len(), 2, "fsync-failed line landed in full");
        journal
            .append(&JournalEvent::publish(&k2, "/tmp/b.ncm"))
            .unwrap();
        drop(journal);
        let folded = fold_events(&read_events(&path).unwrap()).unwrap();
        assert_eq!(folded, vec![(k2, "/tmp/b.ncm".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn shared_journal_self_heals_after_failed_append() {
        use crate::fault::FaultPlan;

        let path = temp_path("shared-heal");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal.set_faults(
            FaultPlan::new(1)
                .point("journal.torn-write", 1000)
                .injector(),
        );
        let shared = SharedJournal::new(journal);
        let key = ModelKey::new(9, "m", 1);
        assert!(shared
            .append(&JournalEvent::publish(&key, "/tmp/a.ncm"))
            .is_err());
        // The handle healed: the torn tail was trimmed, but the injector still
        // fires — swap in a quiet one to prove the *file* recovered.
        {
            let mut inner = shared.inner.lock();
            inner.set_faults(FaultInjector::disabled());
        }
        shared
            .append(&JournalEvent::publish(&key, "/tmp/a.ncm"))
            .unwrap();
        assert_eq!(read_events(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_empty_and_fingerprints_are_hex_exact() {
        assert_eq!(
            read_events(Path::new("/nonexistent/nc-journal.jsonl")).unwrap(),
            Vec::new()
        );
        // The full 64-bit range survives the hex round trip (JSON numbers would not be
        // trusted with this).
        let key = ModelKey::new(u64::MAX, "m", 3);
        let ev = JournalEvent::publish(&key, "p");
        assert_eq!(ev.schema_fingerprint, "ffffffffffffffff");
        assert_eq!(ev.key().unwrap(), key);
        let reparsed: JournalEvent =
            serde_json::from_str(&serde_json::to_string(&ev).unwrap()).unwrap();
        assert_eq!(reparsed, ev);
        // Unknown ops fail the fold loudly.
        let bad = JournalEvent {
            op: "vanish".into(),
            ..ev
        };
        assert!(fold_events(&[bad]).is_err());
    }

    #[test]
    fn promote_folds_like_publish_and_survives_compaction() {
        let path = temp_path("promote");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        let v1 = ModelKey::new(0xfeed, "m", 1);
        let v2 = ModelKey::new(0xfeed, "m", 2);
        journal
            .append(&JournalEvent::publish(&v1, "/tmp/a.ncm"))
            .unwrap();
        journal
            .append(&JournalEvent::promote(&v2, "/tmp/b.ncm"))
            .unwrap();
        drop(journal);

        // Raw replay keeps the provenance; the fold routes to the promoted version.
        let events = read_events(&path).unwrap();
        assert_eq!(events[1].op, "promote");
        assert_eq!(
            fold_events(&events).unwrap(),
            vec![(v2.clone(), "/tmp/b.ncm".to_string())]
        );
        // Compaction folds the promotion into the surviving publish line.
        let (_, folded) = RegistryJournal::open_compacted(&path).unwrap();
        assert_eq!(folded, vec![(v2, "/tmp/b.ncm".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn running_compaction_fires_past_the_size_threshold() {
        let path = temp_path("running-compact");
        let (mut journal, _) = RegistryJournal::open(&path).unwrap();
        journal.set_compact_threshold(Some(256));
        // Swap the same model repeatedly: history grows, survivors stay at one.
        let mut fired = 0u64;
        for v in 1..=40u64 {
            let key = ModelKey::new(0xfeed, "m", v);
            journal
                .append(&JournalEvent::publish(&key, "/tmp/m.ncm"))
                .unwrap();
            if journal.maybe_compact().unwrap() {
                fired += 1;
                // Post-compaction the file holds exactly the one survivor...
                let events = read_events(&path).unwrap();
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].key().unwrap(), key);
                assert!(std::fs::metadata(&path).unwrap().len() <= 256);
            }
        }
        assert!(
            fired >= 2,
            "40 swaps over a 256-byte cap must compact repeatedly"
        );
        assert_eq!(journal.compactions(), fired);
        // ...and the reopened append handle writes to the new inode: the next
        // append lands in the compacted file, not the unlinked one.
        let last = ModelKey::new(0xfeed, "m", 41);
        journal
            .append(&JournalEvent::publish(&last, "/tmp/m.ncm"))
            .unwrap();
        drop(journal);
        let folded = fold_events(&read_events(&path).unwrap()).unwrap();
        assert_eq!(folded, vec![(last, "/tmp/m.ncm".to_string())]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_journal_compacts_inline_and_reports_the_count() {
        let path = temp_path("shared-compact");
        let (journal, _) = RegistryJournal::open(&path).unwrap();
        let shared = SharedJournal::new(journal);
        shared.set_compact_threshold(Some(256));
        for v in 1..=40u64 {
            shared
                .append(&JournalEvent::publish(
                    &ModelKey::new(0xbeef, "m", v),
                    "/tmp/m.ncm",
                ))
                .unwrap();
        }
        assert!(shared.compactions() >= 2);
        // The live file never strays far past the cap: at most the threshold plus
        // the appends since the last fold.
        assert!(std::fs::metadata(&path).unwrap().len() < 512);
        let folded = fold_events(&read_events(&path).unwrap()).unwrap();
        assert_eq!(
            folded,
            vec![(ModelKey::new(0xbeef, "m", 40), "/tmp/m.ncm".to_string())]
        );
        let _ = std::fs::remove_file(&path);
    }
}
