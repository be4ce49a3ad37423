//! A pool of reusable [`SamplerScratch`] workspaces shared by serving threads.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::lockcheck;
use neurocard::infer::SamplerScratch;

/// A pool of reusable [`SamplerScratch`] workspaces shared by the worker threads.
///
/// Pre-grown to the worker count, so steady-state checkouts never allocate; if more
/// checkouts than pooled scratches ever race (not possible with one checkout per worker,
/// but harmless), a fresh scratch is grown and joins the pool on check-in.
///
/// The free list is a [`lockcheck::Mutex`]: no poisoning (the pool is touched inside
/// `catch_unwind` on the request path, where a poisoned std mutex would turn one
/// estimator panic into a permanent pool outage) and debug-build lock-order tracking.
pub struct ScratchPool {
    #[expect(
        clippy::vec_box,
        reason = "checkout and check-in move a pointer under the pool lock, not the \
                  workspace's several hundred bytes of buffer headers"
    )]
    free: lockcheck::Mutex<Vec<Box<SamplerScratch>>>,
    grown: AtomicU64,
}

impl ScratchPool {
    /// A pool pre-populated with `capacity` workspaces.
    pub fn new(capacity: usize) -> Self {
        ScratchPool {
            free: lockcheck::Mutex::new(
                "serve.scratch_pool",
                (0..capacity)
                    .map(|_| Box::new(SamplerScratch::new()))
                    .collect(),
            ),
            grown: AtomicU64::new(capacity as u64),
        }
    }

    /// Checks a workspace out (grows only if the pool is empty).
    pub fn checkout(&self) -> Box<SamplerScratch> {
        if let Some(s) = self.free.lock().pop() {
            return s;
        }
        self.grown.fetch_add(1, Ordering::Relaxed);
        Box::new(SamplerScratch::new())
    }

    /// Returns a workspace to the pool.
    pub fn checkin(&self, scratch: Box<SamplerScratch>) {
        self.free.lock().push(scratch);
    }

    /// Total workspaces ever created (capacity + emergency growths).
    pub fn total_created(&self) -> u64 {
        self.grown.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_pool_reuses_workspaces() {
        let pool = ScratchPool::new(2);
        let a = pool.checkout();
        let b = pool.checkout();
        // Pool empty: an emergency growth is counted.
        let c = pool.checkout();
        assert_eq!(pool.total_created(), 3);
        pool.checkin(a);
        pool.checkin(b);
        pool.checkin(c);
        // Subsequent checkouts reuse, never grow.
        for _ in 0..10 {
            let s = pool.checkout();
            pool.checkin(s);
        }
        assert_eq!(pool.total_created(), 3);
    }
}
