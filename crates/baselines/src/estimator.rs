//! The common estimator interface shared by NeuroCard and every baseline.
//!
//! The trait is deliberately **object-safe** — the benchmark harness evaluates
//! `&dyn CardinalityEstimator`, and the serving layer registers heterogeneous models as
//! `Arc<dyn CardinalityEstimator + Send + Sync>` — and the forwarding impls below make
//! references and smart pointers (`&T`, `Box<T>`, `Arc<T>`, including their `dyn` forms)
//! usable wherever a concrete estimator is.

use nc_schema::Query;

/// A cardinality estimator: given a validated query over the schema it was built for,
/// return an estimated row count (≥ 1, following the paper's Q-error convention).
pub trait CardinalityEstimator {
    /// Short display name used in result tables (e.g. `"Postgres-like"`).
    fn name(&self) -> &str;

    /// Estimated number of rows of `query`.
    fn estimate(&self, query: &Query) -> f64;

    /// Approximate size of the estimator's state in bytes (the "Size" column of the
    /// paper's tables); `0` for estimators with no materialised state.
    fn size_bytes(&self) -> usize {
        0
    }
}

// The compile-time guarantee the serving layer's registry relies on.
const _: Option<&dyn CardinalityEstimator> = None;

macro_rules! impl_forwarding {
    ($($ty:ty),*) => {$(
        impl<T: CardinalityEstimator + ?Sized> CardinalityEstimator for $ty {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn estimate(&self, query: &Query) -> f64 {
                (**self).estimate(query)
            }
            fn size_bytes(&self) -> usize {
                (**self).size_bytes()
            }
        }
    )*};
}
impl_forwarding!(&T, Box<T>, std::sync::Arc<T>);

/// NeuroCard estimates through its [`neurocard::EstimatorCore`] — a `NeuroCard::core()`
/// snapshot or an artifact-loaded core — so the core is what stands beside the baselines
/// (the serving registry keeps a scratch-pool fast path for cores on top of this).
impl CardinalityEstimator for neurocard::EstimatorCore {
    fn name(&self) -> &str {
        "NeuroCard"
    }

    fn estimate(&self, query: &Query) -> f64 {
        neurocard::EstimatorCore::estimate(self, query)
    }

    fn size_bytes(&self) -> usize {
        neurocard::EstimatorCore::size_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);
    impl CardinalityEstimator for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn estimate(&self, _query: &Query) -> f64 {
            self.0
        }
    }

    #[test]
    fn trait_object_usage() {
        let est: Box<dyn CardinalityEstimator> = Box::new(Fixed(42.0));
        assert_eq!(est.name(), "fixed");
        assert_eq!(est.estimate(&Query::join(&["t"])), 42.0);
        assert_eq!(est.size_bytes(), 0);
    }

    #[test]
    fn forwarding_impls_behave_like_the_inner_estimator() {
        let q = Query::join(&["t"]);
        let inner = Fixed(7.0);
        assert_eq!(inner.estimate(&q), 7.0);
        assert_eq!(inner.name(), "fixed");

        let boxed: Box<dyn CardinalityEstimator> = Box::new(Fixed(8.0));
        // A Box<dyn ...> is itself an estimator (double indirection still forwards).
        assert_eq!(CardinalityEstimator::estimate(&boxed, &q), 8.0);

        let shared: std::sync::Arc<dyn CardinalityEstimator + Send + Sync> =
            std::sync::Arc::new(Fixed(9.0));
        assert_eq!(CardinalityEstimator::estimate(&shared, &q), 9.0);
        assert_eq!(shared.name(), "fixed");
        assert_eq!(shared.size_bytes(), 0);
    }
}
