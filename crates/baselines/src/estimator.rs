//! The common estimator interface shared by NeuroCard and every baseline.
//!
//! The trait is deliberately **object-safe**: the experiment harness (`nc-bench`) and the
//! `workload_pipeline` integration test evaluate every estimator as a
//! `&dyn CardinalityEstimator`.  A NeuroCard core held in an `Arc` is passed as `&*core`.

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

// The compile-time guarantee the harness's `&dyn CardinalityEstimator` relies on.
const _: Option<&dyn CardinalityEstimator> = None;

/// NeuroCard estimates through its [`neurocard::EstimatorCore`] — a `NeuroCard::core()`
/// snapshot or an artifact-loaded core — so the core is what stands beside the baselines.
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
}
