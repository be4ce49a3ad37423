//! Offline, API-compatible subset of `parking_lot`, backed by `std::sync`.
//!
//! The parking_lot API differs from std in two ways this shim preserves: `lock()` /
//! `read()` / `write()` return guards directly rather than `Result`s, and **locks are
//! never poisoned** — a panic while holding the lock releases it, and the next holder
//! simply sees the data as the panicking thread left it.  That second property is what
//! serving code relies on: one panicking connection or worker must not wedge every
//! other thread that shares a stats map or connection table (std's poisoning would turn
//! the first panic into a cascade of `lock()` panics server-wide).

#![allow(
    clippy::disallowed_types,
    reason = "the poison-free wrapper over std's locks that the lock-poison rule points everyone else to"
)]

use std::sync;

/// Mutual exclusion lock with parking_lot's direct-guard, no-poisoning `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII mutex guard.
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

/// Reader-writer lock with parking_lot's direct-guard, no-poisoning signatures.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Mutex::new(0u32);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
        assert_eq!(m.into_inner(), 5);
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn panic_while_locked_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(7u64));
        let victim = m.clone();
        let t = std::thread::spawn(move || {
            let _guard = victim.lock();
            panic!("holder dies mid-critical-section");
        });
        assert!(t.join().is_err());
        // parking_lot semantics: later lockers proceed and see the last written state.
        assert_eq!(*m.lock(), 7);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);

        let l = std::sync::Arc::new(RwLock::new(1u64));
        let victim = l.clone();
        let t = std::thread::spawn(move || {
            let _guard = victim.write();
            panic!("writer dies");
        });
        assert!(t.join().is_err());
        assert_eq!(*l.read(), 1);
        assert!(m.try_lock().is_some());
    }
}
