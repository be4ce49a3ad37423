//! The versioned model registry: many models, one router, atomic hot swap.
//!
//! A [`ModelRegistry`] maps typed [`ModelKey`]s — `(schema fingerprint, name, version)`
//! — to [`ServingEstimator`]s.  Requests select a model either by exact key or by
//! "latest for this schema" ([`ModelSelector`]); the registry resolves the selector,
//! hands back a [`ModelLease`], and the lease pins that version for the duration of the
//! request.
//!
//! **Hot swap discipline (epoch/refcount drain):** [`ModelRegistry::swap`] atomically
//! publishes a new version under the registry lock — every acquire after the swap sees
//! the new version — while requests already holding a lease keep serving the old one.
//! The superseded version moves to a draining list and is **retired only when its
//! in-flight count reaches zero** (the last lease drop performs the retirement and
//! notifies [`ModelRegistry::wait_drained`] waiters).  A version with no in-flight
//! requests at swap time is retired immediately.  No request is ever dropped or served
//! by a half-installed model.

use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
use std::time::{Duration, Instant};

use nc_schema::Query;
use neurocard::infer::SamplerScratch;
use neurocard::{schema_fingerprint, EstimateError, EstimatorCore};

use crate::lockcheck;
use crate::model::ServingEstimator;
use crate::protocol::{ServeReply, ServeRequest};
use crate::stats::{LatencyLog, MODEL_LATENCY_WINDOW};
use crate::ServeError;

/// Identity of one published model version.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey {
    /// [`neurocard::schema_fingerprint`] of the join schema the model answers queries
    /// for — the routing namespace.
    pub schema_fingerprint: u64,
    /// Model name within the schema (e.g. `"neurocard"`, `"postgres"`).
    pub name: String,
    /// Monotonic version, starting at 1 and bumped by every [`ModelRegistry::swap`].
    pub version: u64,
}

impl ModelKey {
    /// Creates a key.
    pub fn new(schema_fingerprint: u64, name: impl Into<String>, version: u64) -> Self {
        ModelKey {
            schema_fingerprint,
            name: name.into(),
            version,
        }
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x}/{}@v{}",
            self.schema_fingerprint, self.name, self.version
        )
    }
}

/// How a request selects its model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSelector {
    /// Exactly this version.  Requests for a superseded (or not-yet-published) version
    /// fail with [`ServeError::StaleVersion`] — a client pinning a version learns about
    /// the swap instead of silently being rerouted.
    Exact(ModelKey),
    /// The current version for a schema: of the named model, or — with `name: None` —
    /// of whichever model for that schema was published most recently.
    Latest {
        /// Schema fingerprint to route within.
        schema_fingerprint: u64,
        /// Model name, or `None` for the schema's most recently published model.
        name: Option<String>,
    },
}

impl ModelSelector {
    /// Selects the latest version of `name` under `schema_fingerprint`.
    pub fn latest(schema_fingerprint: u64, name: impl Into<String>) -> Self {
        ModelSelector::Latest {
            schema_fingerprint,
            name: Some(name.into()),
        }
    }

    /// Selects the most recently published model for a schema, whatever its name.
    pub fn latest_for_schema(schema_fingerprint: u64) -> Self {
        ModelSelector::Latest {
            schema_fingerprint,
            name: None,
        }
    }
}

impl std::fmt::Display for ModelSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelSelector::Exact(key) => write!(f, "{key}"),
            ModelSelector::Latest {
                schema_fingerprint,
                name: Some(name),
            } => write!(f, "{schema_fingerprint:016x}/{name}@latest"),
            ModelSelector::Latest {
                schema_fingerprint,
                name: None,
            } => write!(f, "{schema_fingerprint:016x}/*@latest"),
        }
    }
}

/// One published version: the model plus its drain bookkeeping.
struct VersionSlot {
    key: ModelKey,
    model: Arc<dyn ServingEstimator>,
    /// Leases currently pinning this version.
    inflight: AtomicU64,
    /// Set (under the registry lock) when a newer version replaced this one.
    superseded: AtomicBool,
    /// Registry-wide publish sequence number (resolves `Latest { name: None }`).
    publish_seq: u64,
}

/// A fresh, unpinned slot stamped with the registry's next publish sequence number.
fn new_slot(
    publish_seq: &mut u64,
    key: ModelKey,
    model: Arc<dyn ServingEstimator>,
) -> Arc<VersionSlot> {
    *publish_seq += 1;
    Arc::new(VersionSlot {
        key,
        model,
        inflight: AtomicU64::new(0),
        superseded: AtomicBool::new(false),
        publish_seq: *publish_seq,
    })
}

struct Entry {
    current: Arc<VersionSlot>,
    next_version: u64,
}

struct RegistryState {
    entries: BTreeMap<(u64, String), Entry>,
    /// Superseded versions still pinned by in-flight leases.
    draining: Vec<Arc<VersionSlot>>,
    publish_seq: u64,
}

impl RegistryState {
    /// Publishes `model` as `key` under a vacant name; the name's next swap continues
    /// from `key.version + 1`.
    fn insert(&mut self, key: ModelKey, model: Arc<dyn ServingEstimator>) -> ModelKey {
        let entry = Entry {
            current: new_slot(&mut self.publish_seq, key.clone(), model),
            next_version: key.version + 1,
        };
        self.entries
            .insert((key.schema_fingerprint, key.name.clone()), entry);
        key
    }

    /// Makes `model` the next version of a taken name and returns the new key with the
    /// superseded slot; `None` on a vacant name, with nothing changed.
    fn bump(
        &mut self,
        schema_fingerprint: u64,
        name: &str,
        model: Arc<dyn ServingEstimator>,
    ) -> Option<(ModelKey, Arc<VersionSlot>)> {
        let entry = self
            .entries
            .get_mut(&(schema_fingerprint, name.to_string()))?;
        let new = ModelKey::new(schema_fingerprint, name, entry.next_version);
        entry.next_version += 1;
        let slot = new_slot(&mut self.publish_seq, new.clone(), model);
        Some((new, std::mem::replace(&mut entry.current, slot)))
    }
}

struct RegistryInner {
    #[expect(
        clippy::disallowed_types,
        reason = "the drain Condvar waits on a std guard; every acquisition goes through \
                  `state_lock`, which recovers from poison"
    )]
    state: std::sync::Mutex<RegistryState>,
    /// Notified whenever a draining version retires.
    drained: Condvar,
    acquires: AtomicU64,
    swaps: AtomicU64,
    retired: AtomicU64,
    /// Per-model latency split, fed by [`ModelRegistry::handle`] (the entry point every
    /// transport routes through).  A poison-free lock: one panicking request must not
    /// take the whole stats surface down with it.
    model_stats: lockcheck::Mutex<HashMap<ModelKey, ModelLatency>>,
}

/// Per-model serving log: bounded latency ring plus the wall-clock span it covers.
struct ModelLatency {
    log: LatencyLog,
    first_serve: Instant,
    last_serve: Instant,
}

/// Per-model latency/throughput split (see [`ModelRegistry::model_stats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// The exact version the stats belong to.
    pub key: ModelKey,
    /// Requests this version served through [`ModelRegistry::handle`].
    pub served: u64,
    /// Median serve latency (µs, nearest-rank over the retained window).
    pub p50_us: f64,
    /// 99th-percentile serve latency (µs; the max below 100 samples).
    pub p99_us: f64,
    /// Served requests divided by the first-to-last serve wall-clock span.
    pub queries_per_sec: f64,
}

/// Guard over the registry state: the raw std guard (it must stay `std::sync` — the
/// drain [`Condvar`] needs it) plus the debug-build lock-order tracking token.
struct StateGuard<'a> {
    guard: MutexGuard<'a, RegistryState>,
    _held: lockcheck::Held,
}

impl Deref for StateGuard<'_> {
    type Target = RegistryState;
    fn deref(&self) -> &RegistryState {
        &self.guard
    }
}

impl DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut RegistryState {
        &mut self.guard
    }
}

/// Recovers the registry state even if a past holder panicked: the state is a routing
/// table whose invariants hold between statements, so the std poison bit is noise here —
/// propagating it would turn one panicked request into a server-wide denial of service.
#[track_caller]
fn state_lock(inner: &RegistryInner) -> StateGuard<'_> {
    // The token is taken before blocking on the lock, so an inversion panics instead
    // of deadlocking (debug builds).
    let held = lockcheck::acquire("registry.state");
    StateGuard {
        guard: inner.state.lock().unwrap_or_else(|p| p.into_inner()),
        _held: held,
    }
}

/// The typed error for a `(schema_fingerprint, name)` nothing is registered under.
fn unknown_model(schema_fingerprint: u64, name: &str) -> ServeError {
    ServeError::UnknownModel(ModelSelector::latest(schema_fingerprint, name).to_string())
}

/// Counters and gauges of a registry (see [`ModelRegistry::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryStats {
    /// Currently published models (one current version each).
    pub models: usize,
    /// Superseded versions still draining in-flight requests.
    pub draining: usize,
    /// Total successful lease acquisitions.
    pub acquires: u64,
    /// Total completed swaps.
    pub swaps: u64,
    /// Total versions retired (dropped after their last in-flight request finished).
    pub retired: u64,
}

/// Receipt of a completed [`ModelRegistry::swap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReceipt {
    /// The newly published version (now the entry's current).
    pub new: ModelKey,
    /// The superseded version.
    pub old: ModelKey,
    /// Whether the old version had zero in-flight requests and was retired on the spot
    /// (`false` means it is draining and will retire at its last lease drop).
    pub old_retired_immediately: bool,
}

/// A lease pinning one model version for the duration of a request.
///
/// Dropping the lease decrements the version's in-flight count; if the version was
/// superseded meanwhile and this was its last lease, the drop retires it and wakes
/// [`ModelRegistry::wait_drained`] waiters.
pub struct ModelLease {
    slot: Arc<VersionSlot>,
    inner: Arc<RegistryInner>,
}

impl ModelLease {
    /// The key of the pinned version.
    pub fn key(&self) -> &ModelKey {
        &self.slot.key
    }

    /// The pinned model.
    pub fn model(&self) -> &dyn ServingEstimator {
        &*self.slot.model
    }

    /// Serves one query on the pinned model (`samples: None` uses the model's default).
    pub fn estimate(
        &self,
        query: &Query,
        samples: Option<usize>,
        scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        let samples = samples.unwrap_or_else(|| self.slot.model.default_samples());
        self.slot.model.serve(query, samples, scratch)
    }
}

impl Drop for ModelLease {
    fn drop(&mut self) {
        // The last lease of a superseded version performs the retirement: remove it
        // from the draining list (dropping the model) and wake drain waiters.  A
        // superseded slot can gain no new leases (it is unreachable from `entries`),
        // so observing 0 here is final.
        if self.slot.inflight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.slot.superseded.load(Ordering::SeqCst)
        {
            let mut state = state_lock(&self.inner);
            let before = state.draining.len();
            state.draining.retain(|s| !Arc::ptr_eq(s, &self.slot));
            if state.draining.len() < before {
                self.inner.retired.fetch_add(1, Ordering::Relaxed);
            }
            drop(state);
            self.inner.drained.notify_all();
        }
    }
}

/// The versioned, hot-swappable model registry.
///
/// Cheap to clone (`Arc` inside); every transport — the in-process
/// [`crate::RegistryService`], the TCP front-end, the benches — routes through the same
/// instance via [`ModelRegistry::handle`].
#[derive(Clone)]
pub struct ModelRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            inner: Arc::new(RegistryInner {
                #[expect(clippy::disallowed_types, reason = "see `RegistryInner::state`")]
                state: std::sync::Mutex::new(RegistryState {
                    entries: BTreeMap::new(),
                    draining: Vec::new(),
                    publish_seq: 0,
                }),
                drained: Condvar::new(),
                acquires: AtomicU64::new(0),
                swaps: AtomicU64::new(0),
                retired: AtomicU64::new(0),
                model_stats: lockcheck::Mutex::new("registry.model_stats", HashMap::new()),
            }),
        }
    }

    /// Registers a new model under `(schema_fingerprint, name)` as version 1.
    ///
    /// Fails with [`ServeError::AlreadyRegistered`] if the name is taken — updating an
    /// existing model is a [`ModelRegistry::swap`], not a re-register.
    pub fn register(
        &self,
        schema_fingerprint: u64,
        name: impl Into<String>,
        model: Arc<dyn ServingEstimator>,
    ) -> Result<ModelKey, ServeError> {
        self.restore(ModelKey::new(schema_fingerprint, name, 1), model)
    }

    /// Registers a NeuroCard core under its own schema's fingerprint (computed from the
    /// core, so caller and artifact cannot disagree).
    pub fn register_core(
        &self,
        name: impl Into<String>,
        core: Arc<EstimatorCore>,
    ) -> Result<ModelKey, ServeError> {
        let fingerprint = schema_fingerprint(core.schema());
        self.register(fingerprint, name, core)
    }

    /// Atomically publishes a new version of an existing model.
    ///
    /// Acquires issued after this call resolve to the new version; leases already held
    /// keep serving the old one, which retires when the last of them drops (immediately
    /// if none are in flight).  Fails with [`ServeError::UnknownModel`] if nothing is
    /// registered under `(schema_fingerprint, name)`.
    pub fn swap(
        &self,
        schema_fingerprint: u64,
        name: &str,
        model: Arc<dyn ServingEstimator>,
    ) -> Result<SwapReceipt, ServeError> {
        let mut state = state_lock(&self.inner);
        let (new, old) = state
            .bump(schema_fingerprint, name, model)
            .ok_or_else(|| unknown_model(schema_fingerprint, name))?;
        Ok(self.swapped(state, new, old))
    }

    /// Register-or-swap in one critical section: version 1 on a vacant name, the next
    /// version on a taken one.  The convenience used by loaders that do not care whether
    /// the name already exists.  Returns the published key.
    pub fn publish(
        &self,
        schema_fingerprint: u64,
        name: &str,
        model: Arc<dyn ServingEstimator>,
    ) -> ModelKey {
        let mut state = state_lock(&self.inner);
        match state.bump(schema_fingerprint, name, model.clone()) {
            Some((new, old)) => self.swapped(state, new, old).new,
            None => state.insert(ModelKey::new(schema_fingerprint, name, 1), model),
        }
    }

    /// Removes a model from routing entirely.
    ///
    /// Acquires issued after this call fail with [`ServeError::UnknownModel`]; requests
    /// already holding a lease drain the removed version exactly like a swapped-out one
    /// (retired at the last lease drop, [`ModelRegistry::wait_drained`]-visible).
    /// Returns the key that was current at removal, or [`ServeError::UnknownModel`].
    pub fn deregister(&self, schema_fingerprint: u64, name: &str) -> Result<ModelKey, ServeError> {
        let mut state = state_lock(&self.inner);
        let entry = state
            .entries
            .remove(&(schema_fingerprint, name.to_string()))
            .ok_or_else(|| unknown_model(schema_fingerprint, name))?;
        let key = entry.current.key.clone();
        self.supersede(state, entry.current);
        Ok(key)
    }

    /// Takes `old` — already unreachable from `entries` — out of service and releases the
    /// lock: marked superseded, then retire-at-zero (with no lease pinning it, it is gone
    /// right now; otherwise it drains and its last lease drop removes it), then drain
    /// waiters are woken.  Returns whether it retired on the spot.
    fn supersede(&self, mut state: StateGuard<'_>, old: Arc<VersionSlot>) -> bool {
        old.superseded.store(true, Ordering::SeqCst);
        let retired_immediately = old.inflight.load(Ordering::SeqCst) == 0;
        if retired_immediately {
            self.inner.retired.fetch_add(1, Ordering::Relaxed);
        } else {
            state.draining.push(old);
        }
        drop(state);
        self.inner.drained.notify_all();
        retired_immediately
    }

    /// The tail of a swap: supersedes `old`, counts the swap, writes the receipt.
    fn swapped(&self, state: StateGuard<'_>, new: ModelKey, old: Arc<VersionSlot>) -> SwapReceipt {
        let old_key = old.key.clone();
        let old_retired_immediately = self.supersede(state, old);
        self.inner.swaps.fetch_add(1, Ordering::Relaxed);
        SwapReceipt {
            new,
            old: old_key,
            old_retired_immediately,
        }
    }

    /// Re-publishes a model at an **explicit** version — the journal-replay path, where
    /// a restarted server must come back with the exact versions clients had pinned.
    ///
    /// The entry's next swap continues from `key.version + 1`.  Fails with
    /// [`ServeError::AlreadyRegistered`] if the name is already present.
    pub fn restore(
        &self,
        key: ModelKey,
        model: Arc<dyn ServingEstimator>,
    ) -> Result<ModelKey, ServeError> {
        let mut state = state_lock(&self.inner);
        if let Some(entry) = state
            .entries
            .get(&(key.schema_fingerprint, key.name.clone()))
        {
            return Err(ServeError::AlreadyRegistered(entry.current.key.clone()));
        }
        Ok(state.insert(key, model))
    }

    /// Resolves a selector and pins the resulting version.
    pub fn acquire(&self, selector: &ModelSelector) -> Result<ModelLease, ServeError> {
        let state = state_lock(&self.inner);
        let slot = match selector {
            ModelSelector::Exact(key) => {
                let entry = state
                    .entries
                    .get(&(key.schema_fingerprint, key.name.clone()))
                    .ok_or_else(|| ServeError::UnknownModel(selector.to_string()))?;
                if entry.current.key.version != key.version {
                    return Err(ServeError::StaleVersion {
                        requested: key.clone(),
                        current: entry.current.key.clone(),
                    });
                }
                entry.current.clone()
            }
            ModelSelector::Latest {
                schema_fingerprint,
                name: Some(name),
            } => state
                .entries
                .get(&(*schema_fingerprint, name.clone()))
                .map(|e| e.current.clone())
                .ok_or_else(|| ServeError::UnknownModel(selector.to_string()))?,
            ModelSelector::Latest {
                schema_fingerprint,
                name: None,
            } => state
                .entries
                .range((*schema_fingerprint, String::new())..)
                .take_while(|((fp, _), _)| fp == schema_fingerprint)
                .map(|(_, e)| &e.current)
                .max_by_key(|slot| slot.publish_seq)
                .cloned()
                .ok_or_else(|| ServeError::UnknownModel(selector.to_string()))?,
        };
        // Incremented under the lock, so a concurrent swap either sees this lease (and
        // drains) or completes first (and this acquire resolves the new version).
        slot.inflight.fetch_add(1, Ordering::SeqCst);
        drop(state);
        self.inner.acquires.fetch_add(1, Ordering::Relaxed);
        Ok(ModelLease {
            slot,
            inner: self.inner.clone(),
        })
    }

    /// Routes one transport-independent request: resolve, pin, estimate, release.
    ///
    /// This is the single entry point the in-process service, the TCP front-end and the
    /// benches share — they differ only in how [`ServeRequest`]s reach it.
    pub fn handle(
        &self,
        request: &ServeRequest,
        scratch: &mut SamplerScratch,
    ) -> Result<ServeReply, ServeError> {
        let lease = self.acquire(&request.selector)?;
        let started = Instant::now();
        let estimate = lease
            .estimate(&request.query, request.samples, scratch)
            .map_err(ServeError::Estimate)?;
        self.record_serve(lease.key(), started);
        Ok(ServeReply {
            key: lease.key().clone(),
            estimate,
            degraded: false,
        })
    }

    /// Feeds the per-model latency split for one completed estimate.
    fn record_serve(&self, key: &ModelKey, started: Instant) {
        let now = Instant::now();
        let us = now.duration_since(started).as_secs_f64() * 1e6;
        let mut stats = self.inner.model_stats.lock();
        let entry = stats.entry(key.clone()).or_insert_with(|| ModelLatency {
            log: LatencyLog::new(MODEL_LATENCY_WINDOW),
            first_serve: started,
            last_serve: now,
        });
        entry.log.push(us);
        entry.last_serve = now;
    }

    /// Blocks until no superseded version with this key is draining (true), or the
    /// timeout passes (false).  A key that never drained returns true immediately.
    pub fn wait_drained(&self, key: &ModelKey, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // `Condvar::wait_timeout` consumes the raw std guard, so this path manages
        // its lock-order token by hand instead of going through `state_lock`.  The
        // token stays conservatively "held" across the waits (the real lock is
        // released and reacquired by the Condvar) — this thread holds nothing else,
        // so the over-approximation can record no spurious edge.
        let _held = lockcheck::acquire("registry.state");
        let mut state = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !state.draining.iter().any(|s| &s.key == key) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .inner
                .drained
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = next;
        }
    }

    /// Keys of all currently published (current-version) models.
    pub fn keys(&self) -> Vec<ModelKey> {
        let state = state_lock(&self.inner);
        state
            .entries
            .values()
            .map(|e| e.current.key.clone())
            .collect()
    }

    /// The current version of `(schema_fingerprint, name)`, if registered.
    pub fn latest(&self, schema_fingerprint: u64, name: &str) -> Option<ModelKey> {
        let state = state_lock(&self.inner);
        state
            .entries
            .get(&(schema_fingerprint, name.to_string()))
            .map(|e| e.current.key.clone())
    }

    /// Keys of superseded versions still draining.
    pub fn draining_versions(&self) -> Vec<ModelKey> {
        let state = state_lock(&self.inner);
        state.draining.iter().map(|s| s.key.clone()).collect()
    }

    /// Per-model latency/throughput split over every version that served through
    /// [`ModelRegistry::handle`], sorted by key.  Retired versions keep their stats —
    /// the split is a serving history, not a routing table.
    pub fn model_stats(&self) -> Vec<ModelStats> {
        let stats = self.inner.model_stats.lock();
        let mut out: Vec<ModelStats> = stats
            .iter()
            .map(|(key, lat)| {
                let q = lat.log.quantiles();
                let span = lat.last_serve.duration_since(lat.first_serve).as_secs_f64();
                ModelStats {
                    key: key.clone(),
                    served: lat.log.total(),
                    p50_us: q.p50,
                    p99_us: q.p99,
                    // A single-sample span is ~0: report the inverse of its own latency
                    // rather than an infinite/NaN rate.
                    queries_per_sec: if span > 0.0 {
                        lat.log.total() as f64 / span
                    } else {
                        let q_us = q.p50.max(1e-3);
                        1e6 / q_us
                    },
                }
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Counters and gauges.
    pub fn stats(&self) -> RegistryStats {
        let state = state_lock(&self.inner);
        RegistryStats {
            models: state.entries.len(),
            draining: state.draining.len(),
            acquires: self.inner.acquires.load(Ordering::Relaxed),
            swaps: self.inner.swaps.load(Ordering::Relaxed),
            retired: self.inner.retired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero-cost estimator whose answer encodes (version marker, sample budget) so
    /// tests can see exactly which model version served a request.
    struct Marker(f64);
    impl ServingEstimator for Marker {
        fn default_samples(&self) -> usize {
            1
        }
        fn serve(
            &self,
            _query: &Query,
            _samples: usize,
            _scratch: &mut SamplerScratch,
        ) -> Result<f64, EstimateError> {
            Ok(self.0)
        }
    }

    fn marker(value: f64) -> Arc<dyn ServingEstimator> {
        Arc::new(Marker(value))
    }

    fn q() -> Query {
        Query::join(&["t"])
    }

    #[test]
    fn register_route_and_latest_selectors() {
        let registry = ModelRegistry::new();
        let mut scratch = SamplerScratch::new();
        let k1 = registry.register(7, "a", marker(1.0)).unwrap();
        assert_eq!(k1, ModelKey::new(7, "a", 1));
        let k2 = registry.register(7, "b", marker(2.0)).unwrap();
        let k3 = registry.register(9, "a", marker(3.0)).unwrap();

        // Exact and named-latest routing.
        for (selector, want) in [
            (ModelSelector::Exact(k1.clone()), 1.0),
            (ModelSelector::latest(7, "a"), 1.0),
            (ModelSelector::latest(7, "b"), 2.0),
            (ModelSelector::Exact(k3.clone()), 3.0),
        ] {
            let lease = registry.acquire(&selector).unwrap();
            assert_eq!(lease.estimate(&q(), None, &mut scratch), Ok(want));
        }
        // Anonymous latest picks the most recently *published* model for the schema.
        let lease = registry
            .acquire(&ModelSelector::latest_for_schema(7))
            .unwrap();
        assert_eq!(lease.key(), &k2);
        drop(lease);

        // Unknown routes are typed errors.
        assert!(matches!(
            registry.acquire(&ModelSelector::latest(7, "zzz")),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            registry.acquire(&ModelSelector::latest_for_schema(8)),
            Err(ServeError::UnknownModel(_))
        ));
        // Duplicate registration is rejected with the existing key.
        assert_eq!(
            registry.register(7, "a", marker(9.0)),
            Err(ServeError::AlreadyRegistered(k1))
        );
        let stats = registry.stats();
        assert_eq!(stats.models, 3);
        assert_eq!(stats.acquires, 5);
        assert_eq!(stats.swaps, 0);
    }

    #[test]
    fn swap_publishes_atomically_and_drains_at_zero() {
        let registry = ModelRegistry::new();
        let mut scratch = SamplerScratch::new();
        let k1 = registry.register(1, "m", marker(10.0)).unwrap();

        // Pin v1, then swap to v2 while the lease is held.
        let lease_v1 = registry.acquire(&ModelSelector::latest(1, "m")).unwrap();
        let receipt = registry.swap(1, "m", marker(20.0)).unwrap();
        assert_eq!(receipt.new, ModelKey::new(1, "m", 2));
        assert_eq!(receipt.old, k1);
        assert!(!receipt.old_retired_immediately, "v1 is pinned");
        assert_eq!(registry.draining_versions(), vec![k1.clone()]);

        // New acquires see v2; the held lease still serves v1.
        let lease_v2 = registry.acquire(&ModelSelector::latest(1, "m")).unwrap();
        assert_eq!(lease_v2.key().version, 2);
        assert_eq!(lease_v2.estimate(&q(), None, &mut scratch), Ok(20.0));
        assert_eq!(lease_v1.estimate(&q(), None, &mut scratch), Ok(10.0));

        // Exact requests for the superseded version are told about the swap.
        assert_eq!(
            registry.acquire(&ModelSelector::Exact(k1.clone())).err(),
            Some(ServeError::StaleVersion {
                requested: k1.clone(),
                current: ModelKey::new(1, "m", 2),
            })
        );

        // v1 is not drained while its lease lives...
        assert!(!registry.wait_drained(&k1, Duration::from_millis(10)));
        assert_eq!(registry.stats().retired, 0);
        // ...and retires exactly when the last lease drops.
        drop(lease_v1);
        assert!(registry.wait_drained(&k1, Duration::from_secs(5)));
        assert!(registry.draining_versions().is_empty());
        let stats = registry.stats();
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.swaps, 1);

        // A swap with nothing in flight retires the old version immediately.
        drop(lease_v2);
        let receipt = registry.swap(1, "m", marker(30.0)).unwrap();
        assert!(receipt.old_retired_immediately);
        assert_eq!(receipt.new.version, 3);
        assert_eq!(registry.stats().retired, 2);
        assert!(registry.wait_drained(&receipt.old, Duration::from_millis(1)));

        // Swapping an unregistered name is an error, and publishes nothing.
        let publish_seq = state_lock(&registry.inner).publish_seq;
        assert!(matches!(
            registry.swap(1, "ghost", marker(0.0)),
            Err(ServeError::UnknownModel(_))
        ));
        assert_eq!(state_lock(&registry.inner).publish_seq, publish_seq);
        // publish() is register-or-swap.
        assert_eq!(registry.publish(1, "m", marker(40.0)).version, 4);
        assert_eq!(registry.publish(1, "fresh", marker(1.0)).version, 1);
    }

    #[test]
    fn anonymous_latest_follows_publishes_across_names() {
        let registry = ModelRegistry::new();
        registry.register(5, "a", marker(1.0)).unwrap();
        registry.register(5, "b", marker(2.0)).unwrap();
        // b was published last.
        assert_eq!(
            registry
                .acquire(&ModelSelector::latest_for_schema(5))
                .unwrap()
                .key()
                .name,
            "b"
        );
        // Swapping a re-publishes it: it becomes the schema's most recent model.
        registry.swap(5, "a", marker(3.0)).unwrap();
        let lease = registry
            .acquire(&ModelSelector::latest_for_schema(5))
            .unwrap();
        assert_eq!((lease.key().name.as_str(), lease.key().version), ("a", 2));
    }

    #[test]
    fn deregister_removes_routing_and_drains_in_flight() {
        let registry = ModelRegistry::new();
        let k1 = registry.register(3, "m", marker(1.0)).unwrap();

        // Deregistering while a lease is held drains like a swap would.
        let lease = registry.acquire(&ModelSelector::latest(3, "m")).unwrap();
        assert_eq!(registry.deregister(3, "m"), Ok(k1.clone()));
        assert!(matches!(
            registry.acquire(&ModelSelector::latest(3, "m")),
            Err(ServeError::UnknownModel(_))
        ));
        assert_eq!(registry.draining_versions(), vec![k1.clone()]);
        assert!(!registry.wait_drained(&k1, Duration::from_millis(10)));
        drop(lease);
        assert!(registry.wait_drained(&k1, Duration::from_secs(5)));
        assert_eq!(registry.stats().retired, 1);
        assert_eq!(registry.stats().models, 0);

        // Deregistering an unknown name is a typed error.
        assert!(matches!(
            registry.deregister(3, "m"),
            Err(ServeError::UnknownModel(_))
        ));

        // The name is free again: a fresh register starts at v1.
        assert_eq!(
            registry.register(3, "m", marker(2.0)).unwrap(),
            ModelKey::new(3, "m", 1)
        );
        // With no lease in flight, deregister retires immediately.
        assert_eq!(registry.deregister(3, "m").unwrap().version, 1);
        assert!(registry.draining_versions().is_empty());
        assert_eq!(registry.stats().retired, 2);
    }

    #[test]
    fn restore_preserves_versions_across_restart() {
        let registry = ModelRegistry::new();
        registry.register(4, "m", marker(1.0)).unwrap();
        let live = registry.swap(4, "m", marker(2.0)).unwrap().new;
        assert_eq!(live.version, 2);

        // "Restart": a fresh registry restored from the journal keeps v2 current...
        let restarted = ModelRegistry::new();
        assert_eq!(
            restarted.restore(live.clone(), marker(2.0)),
            Ok(live.clone())
        );
        assert_eq!(restarted.latest(4, "m"), Some(live.clone()));
        let mut scratch = SamplerScratch::new();
        let lease = restarted
            .acquire(&ModelSelector::Exact(live.clone()))
            .unwrap();
        assert_eq!(lease.estimate(&q(), None, &mut scratch), Ok(2.0));
        drop(lease);

        // ...double restore is rejected, and the next swap continues the sequence.
        assert_eq!(
            restarted.restore(live, marker(9.0)),
            Err(ServeError::AlreadyRegistered(ModelKey::new(4, "m", 2)))
        );
        assert_eq!(restarted.swap(4, "m", marker(3.0)).unwrap().new.version, 3);
    }

    #[test]
    fn model_stats_split_by_version() {
        let registry = ModelRegistry::new();
        let mut scratch = SamplerScratch::new();
        registry.register(6, "m", marker(1.0)).unwrap();
        let request = ServeRequest::new(ModelSelector::latest(6, "m"), q());
        for _ in 0..3 {
            registry.handle(&request, &mut scratch).unwrap();
        }
        registry.swap(6, "m", marker(2.0)).unwrap();
        registry.handle(&request, &mut scratch).unwrap();

        let stats = registry.model_stats();
        assert_eq!(stats.len(), 2, "retired versions keep their history");
        assert_eq!(stats[0].key, ModelKey::new(6, "m", 1));
        assert_eq!(stats[0].served, 3);
        assert_eq!(stats[1].key, ModelKey::new(6, "m", 2));
        assert_eq!(stats[1].served, 1);
        for s in &stats {
            assert!(s.p50_us >= 0.0 && s.p99_us >= s.p50_us);
            assert!(s.queries_per_sec.is_finite() && s.queries_per_sec > 0.0);
        }
        // Acquire-only paths (no handle) record nothing.
        drop(registry.acquire(&ModelSelector::latest(6, "m")).unwrap());
        assert_eq!(registry.model_stats()[1].served, 1);
    }

    #[test]
    fn keys_and_display_render() {
        let registry = ModelRegistry::new();
        let key = registry.register(0xabcd, "m", marker(1.0)).unwrap();
        assert_eq!(key.to_string(), "000000000000abcd/m@v1");
        assert_eq!(
            ModelSelector::latest(0xabcd, "m").to_string(),
            "000000000000abcd/m@latest"
        );
        assert_eq!(
            ModelSelector::latest_for_schema(0xabcd).to_string(),
            "000000000000abcd/*@latest"
        );
        assert_eq!(registry.keys(), vec![key.clone()]);
        assert_eq!(registry.latest(0xabcd, "m"), Some(key));
        assert_eq!(registry.latest(0xabcd, "nope"), None);
    }
}
