//! Runtime lock-order checking: the workspace's only guard against lock-order
//! inversions (there is no static lock graph; see `docs/lints.md`).
//!
//! Debug builds (which includes every `cargo test` run — the workspace test profile
//! keeps `debug_assertions` on) record, per thread, the stack of named locks
//! currently held.  Every acquisition of lock `B` while `A` is held registers the
//! edge `A → B` in a process-global order graph, tagged with both acquisition sites.
//! If the *reverse* edge is already on record — some thread somewhere acquired `A`
//! while holding `B` — the acquire panics immediately, before blocking on the real
//! lock, printing all four sites.  Like kernel lockdep, this flags an inversion the
//! first time both orders are *observed*, not only on the unlucky interleaving that
//! actually deadlocks.
//!
//! Release builds compile all of it to nothing: [`Held`] is a ZST, [`acquire`]
//! returns it without a single instruction of bookkeeping, and [`Mutex`] is a
//! transparent wrapper over the `parking_lot` shim.
//!
//! Two entry points:
//! - [`Mutex`] — a *named* mutex; use it wherever the serving tier would use the
//!   `parking_lot` shim directly.
//! - [`acquire`] — a bare tracking token for locks that cannot be wrapped (the
//!   registry's state mutex must stay `std::sync::Mutex` because a `Condvar` needs
//!   the raw guard).  Acquire the token immediately *before* taking the real lock
//!   and keep it alive exactly as long as the guard.
//!
//! Naming convention: `"<area>.<field>"`, e.g. `"registry.state"`,
//! `"service.latencies"`.  Names are the lock's identity — two `Mutex`es sharing a
//! name are one node in the order graph.

use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
mod imp {
    use std::collections::HashMap;
    use std::panic::Location;
    #[expect(
        clippy::disallowed_types,
        reason = "the order graph's own lock, taken at one site that recovers from poison"
    )]
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// (held, acquired) → (site holding, site acquiring).
    type Edges = HashMap<(&'static str, &'static str), (String, String)>;

    /// Both directions of every observed edge.
    #[expect(clippy::disallowed_types, reason = "see the `StdMutex` import")]
    fn edges() -> &'static StdMutex<Edges> {
        static EDGES: OnceLock<StdMutex<Edges>> = OnceLock::new();
        EDGES.get_or_init(|| StdMutex::new(HashMap::new()))
    }

    std::thread_local! {
        /// Locks this thread currently holds, in acquisition order, with sites.
        static HELD: std::cell::RefCell<Vec<(&'static str, String)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Records an acquisition about to happen; panics on a known-inverted order.
    pub fn note_acquire(name: &'static str, site: &Location<'_>) {
        let site = format!("{}:{}", site.file(), site.line());
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for (h, h_site) in held.iter() {
                if *h == name {
                    // Same name twice on one thread: either a reentrant bug the real
                    // lock will expose, or two instances of one shape — not ordering.
                    continue;
                }
                let mut edges = edges().lock().unwrap_or_else(|p| p.into_inner());
                #[expect(
                    clippy::panic,
                    reason = "debug-assertions-only deadlock detector; aborting the test run \
                              loudly IS the feature, and release builds compile this module \
                              away"
                )]
                if let Some((rev_held, rev_acq)) = edges.get(&(name, *h)) {
                    let msg = format!(
                        "lock-order inversion: acquiring \"{name}\" (at {site}) while \
                         holding \"{h}\" (at {h_site}), but the opposite order is on \
                         record: \"{h}\" (at {rev_acq}) was acquired while holding \
                         \"{name}\" (at {rev_held}). Two threads running these paths \
                         concurrently deadlock."
                    );
                    drop(edges);
                    panic!("{msg}");
                }
                edges
                    .entry((*h, name))
                    .or_insert_with(|| (h_site.clone(), site.clone()));
            }
            held.push((name, site));
        });
    }

    /// Records the matching release (guards drop in any order; remove the newest
    /// entry for `name`).
    pub fn note_release(name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|(h, _)| *h == name) {
                held.remove(i);
            }
        });
    }
}

/// A token proving a named acquisition is being tracked.  Hold it exactly as long
/// as the real guard; dropping it records the release.
#[must_use = "dropping the token immediately unregisters the acquisition"]
pub struct Held {
    #[cfg(debug_assertions)]
    name: &'static str,
}

/// Registers an acquisition of the lock named `name` and returns its tracking
/// token.  Call immediately before taking the real lock.  Panics (debug builds
/// only) when the acquisition inverts a previously observed order.
#[track_caller]
pub fn acquire(name: &'static str) -> Held {
    #[cfg(debug_assertions)]
    {
        imp::note_acquire(name, std::panic::Location::caller());
        Held { name }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = name;
        Held {}
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::note_release(self.name);
    }
}

/// A named mutex: the `parking_lot` shim plus debug-build lock-order tracking.
pub struct Mutex<T> {
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex.  `name` is its identity in the order graph — reuse a name
    /// only for locks that are genuinely interchangeable instances of one shape.
    pub const fn new(name: &'static str, value: T) -> Self {
        Mutex {
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquires the lock, recording the acquisition first (so an inversion panics
    /// before it can deadlock).
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = acquire(self.name);
        MutexGuard {
            guard: self.inner.lock(),
            _held: held,
        }
    }

    /// Mutable access without locking (callers with `&mut` hold exclusivity
    /// statically — no ordering to track).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// Guard for [`Mutex`]; releases the order-graph entry together with the lock.
pub struct MutexGuard<'a, T> {
    guard: parking_lot::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_protects_and_releases() {
        let m = Mutex::new("lockcheck-test.basic", 1u32);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn consistent_nesting_is_fine() {
        let a = Mutex::new("lockcheck-test.outer", ());
        let b = Mutex::new("lockcheck-test.inner", ());
        for _ in 0..2 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panics_with_both_sites() {
        let a = Mutex::new("lockcheck-test.a", ());
        let b = Mutex::new("lockcheck-test.b", ());
        {
            // Establish a → b.
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // Now the reverse order must be caught even single-threaded.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        }))
        .expect_err("inverted acquisition order must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| String::from("<non-string panic>"));
        assert!(msg.contains("lock-order inversion"), "got: {msg}");
        assert!(msg.contains("lockcheck-test.a"), "got: {msg}");
        assert!(msg.contains("lockcheck-test.b"), "got: {msg}");
        // Both acquisition sites are in this file.
        assert!(msg.contains("lockcheck.rs"), "got: {msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn raw_tokens_track_unwrappable_locks() {
        #[expect(
            clippy::disallowed_types,
            reason = "the token path exists for std locks"
        )]
        let std_lock = std::sync::Mutex::new(());
        {
            let _t1 = acquire("lockcheck-test.raw1");
            let _g = std_lock.lock().unwrap_or_else(|p| p.into_inner());
            let _t2 = acquire("lockcheck-test.raw2");
        }
        let err = std::panic::catch_unwind(|| {
            let _t2 = acquire("lockcheck-test.raw2");
            let _t1 = acquire("lockcheck-test.raw1");
        })
        .expect_err("inverted token order must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| String::from("<non-string panic>"));
        assert!(msg.contains("lockcheck-test.raw1"), "got: {msg}");
    }

    #[test]
    fn release_order_need_not_mirror_acquisition() {
        let a = Mutex::new("lockcheck-test.rel-a", ());
        let b = Mutex::new("lockcheck-test.rel-b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        drop(gb);
        // And the consistent order still works afterwards.
        let _ga = a.lock();
        let _gb = b.lock();
    }
}
