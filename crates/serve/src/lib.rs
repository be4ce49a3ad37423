//! # nc-serve
//!
//! The multi-model serving layer: a versioned [`ModelRegistry`] with atomic hot swap, a
//! transport-independent request protocol, and two transports over it — the in-process
//! [`RegistryService`] and the [`TcpServer`] wire front-end — which feed the same
//! private dispatch core (one bounded queue, one worker loop, one panic fence, one shed
//! policy; `docs/serving.md`).  This is the "many schemas, continuous retraining"
//! deployment shape (compare Scardina's multi-estimator routing and ByteCard's
//! serving-lifecycle focus in PAPERS.md).
//!
//! Architecture:
//!
//! * **Registry** ([`registry`]): models register under a typed [`ModelKey`] — schema
//!   fingerprint (computed by [`neurocard::schema_fingerprint`] and stamped into every
//!   artifact manifest) + name + monotonic version.  Requests carry a [`ModelSelector`]
//!   (exact key, or "latest for this schema") and are routed per request, so a running
//!   service follows swaps without restarting.
//! * **Hot swap**: [`ModelRegistry::swap`] atomically publishes a new version; requests
//!   already in flight drain the superseded version, which is retired only when its
//!   lease count reaches zero (epoch/refcount drain — no request is ever dropped or
//!   served by a half-installed model).
//! * **One estimator interface** ([`model`]): anything implementing the object-safe
//!   [`ServingEstimator`] trait can be registered — an artifact-loaded
//!   [`neurocard::EstimatorCore`] keeps its zero-allocation [`ScratchPool`] fast path,
//!   and every [`nc_baselines::CardinalityEstimator`] rides along via [`BaselineModel`].
//! * **One protocol** ([`protocol`]): [`ServeRequest`] / [`ServeReply`] are the only
//!   request/response types; the in-process API, the wire API and the benches all speak
//!   them.  The wire form is a length-prefixed binary codec over the checked
//!   [`nc_storage::binio`] primitives, with estimates crossing as raw `f64` bits.
//! * **Determinism:** every request's RNG stream is derived purely from
//!   `(config.seed, query)` ([`neurocard::EstimatorCore::query_seed`]), so
//!   registry-routed estimates — in process or over TCP — are **bit-identical** to
//!   sequential [`neurocard::EstimatorCore::estimate`] calls regardless of worker
//!   count, transport, queueing order or concurrent swaps.  Pinned by this crate's
//!   tests and the `registry_swap` / `wire_protocol` integration tests.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod dispatch;
pub mod fallback;
pub mod fault;
pub mod journal;
pub mod lockcheck;
pub mod model;
pub mod pool;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod service;
pub mod stats;
pub mod tcp;

pub use fallback::StatsFallback;
pub use fault::{FaultCount, FaultInjector, FaultPlan, FaultPoint};
pub use journal::{JournalError, JournalEvent, RegistryJournal, SharedJournal};
pub use model::{BaselineModel, ServingEstimator};
pub use pool::ScratchPool;
pub use protocol::{
    decode_request, decode_result, decode_stats_result, encode_request, encode_result,
    encode_stats_request, read_frame, write_frame, ServeReply, ServeRequest, MAX_FRAME_LEN,
};
pub use reactor::{Reactor as TcpServer, ReactorConfig, ReactorStats};
pub use registry::{
    ModelKey, ModelLease, ModelRegistry, ModelSelector, ModelStats, RegistryStats, SwapReceipt,
};
pub use service::{RegistryHandle, RegistryService, ServiceConfig, ServiceStats};
pub use stats::{nearest_rank, Quantiles, LATENCY_WINDOW};
pub use tcp::{ClientConfig, ServeClient};

use neurocard::EstimateError;

/// Why a serving request failed — shared by every transport (the variants carrying
/// remote context round-trip losslessly through the wire codec).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The estimator rejected the request (invalid query, unknown column, zero sample
    /// budget, ...).
    Estimate(EstimateError),
    /// No model is registered for the selector (rendered form attached).
    UnknownModel(String),
    /// An exact-version request named a version that is no longer (or not yet) current.
    StaleVersion {
        /// The version the request pinned.
        requested: ModelKey,
        /// The version currently published under that name.
        current: ModelKey,
    },
    /// `register` found the name taken (the existing current version is attached);
    /// updating an existing model is a [`ModelRegistry::swap`].
    AlreadyRegistered(ModelKey),
    /// The service is shutting down (workers gone before the reply was produced).
    ShuttingDown,
    /// Admission control: the request queue is full.  The request was **not** queued —
    /// the client should back off and retry; the connection stays healthy.
    Overloaded,
    /// The estimator panicked while serving (caught; the worker and the connection
    /// survive, the panic message is attached).
    Internal(String),
    /// The transport failed (connection closed, read/write error).
    Transport(String),
    /// A wire payload failed to decode (corrupt, truncated, or hostile).
    Protocol(String),
    /// The request did not complete within its deadline (socket timeout or the
    /// client-side per-request deadline expiring).
    Timeout,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Estimate(e) => write!(f, "{e}"),
            ServeError::UnknownModel(selector) => {
                write!(f, "no model registered for {selector}")
            }
            ServeError::StaleVersion { requested, current } => write!(
                f,
                "model version {requested} was superseded (current is {current})"
            ),
            ServeError::AlreadyRegistered(key) => {
                write!(f, "model {key} is already registered (use swap to update)")
            }
            ServeError::ShuttingDown => write!(f, "estimator service is shutting down"),
            ServeError::Overloaded => {
                write!(f, "server overloaded: request queue is full, retry later")
            }
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
            ServeError::Transport(msg) => write!(f, "transport error: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Timeout => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
/// Estimator fixtures shared by this crate's unit tests.
mod testing {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar};

    use nc_baselines::CardinalityEstimator;
    use nc_schema::{JoinSchema, Query};
    use nc_storage::{Database, TableBuilder, Value};

    use crate::fallback::StatsFallback;

    /// Answers every query with one value.
    pub(crate) struct Fixed(pub(crate) f64);

    impl CardinalityEstimator for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn estimate(&self, _query: &Query) -> f64 {
            self.0
        }
        fn size_bytes(&self) -> usize {
            16
        }
    }

    /// Panics (with "kaboom") on every query.
    pub(crate) struct Bomb;

    impl CardinalityEstimator for Bomb {
        fn name(&self) -> &str {
            "bomb"
        }
        fn estimate(&self, _query: &Query) -> f64 {
            panic!("kaboom")
        }
    }

    /// Holds every estimate until [`Gate::open`], then answers `7.0`; clones share the
    /// gate, so a test registers one clone and drives the other.
    #[derive(Clone, Default)]
    pub(crate) struct Gate {
        #[expect(
            clippy::disallowed_types,
            reason = "a Condvar waits on a std guard; both waits recover from poison"
        )]
        state: Arc<(std::sync::Mutex<bool>, Condvar)>,
        entered: Arc<AtomicUsize>,
    }

    impl Gate {
        /// Estimates that have reached the gate so far (held or released).
        pub(crate) fn entered(&self) -> usize {
            self.entered.load(Ordering::SeqCst)
        }

        /// Releases every held estimate and lets later ones straight through.
        pub(crate) fn open(&self) {
            *self.state.0.lock().unwrap_or_else(|p| p.into_inner()) = true;
            self.state.1.notify_all();
        }
    }

    impl CardinalityEstimator for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn estimate(&self, _query: &Query) -> f64 {
            let (lock, cv) = &*self.state;
            let mut open = lock.lock().unwrap_or_else(|p| p.into_inner());
            self.entered.fetch_add(1, Ordering::SeqCst);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|p| p.into_inner());
            }
            7.0
        }
    }

    /// A stats fallback over a one-table database: 40 rows in `t`, so it answers
    /// `Query::join(&["t"])` with `40.0`.
    pub(crate) fn stats_fallback() -> Arc<StatsFallback> {
        let mut db = Database::new();
        let mut t = TableBuilder::new("t", &["v"]);
        for i in 0..40i64 {
            t.push_row(vec![Value::Int(i % 8)]);
        }
        db.add_table(t.finish());
        let schema = JoinSchema::new(vec!["t".into()], vec![], "t").unwrap();
        Arc::new(StatsFallback::from_database(&db, Arc::new(schema)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_messages() {
        let key = ModelKey::new(1, "m", 1);
        for e in [
            ServeError::Estimate(EstimateError::InvalidSampleCount),
            ServeError::UnknownModel("x".into()),
            ServeError::StaleVersion {
                requested: key.clone(),
                current: ModelKey::new(1, "m", 2),
            },
            ServeError::AlreadyRegistered(key),
            ServeError::ShuttingDown,
            ServeError::Overloaded,
            ServeError::Internal("panic".into()),
            ServeError::Transport("t".into()),
            ServeError::Protocol("p".into()),
            ServeError::Timeout,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
