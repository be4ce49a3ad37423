//! The object-safe serving trait that unifies every estimator behind one interface.
//!
//! The registry stores models as `Arc<dyn ServingEstimator>`: a NeuroCard
//! [`EstimatorCore`] serves through its zero-allocation scratch fast path, while any
//! [`CardinalityEstimator`] baseline rides along through the [`BaselineModel`] adapter
//! (which simply ignores the scratch workspace it is offered).  Routing, hot swap, the
//! wire protocol and the benches all speak this trait, so registering a new estimator
//! kind touches nothing but an adapter.

use std::sync::Arc;

use nc_baselines::CardinalityEstimator;
use nc_schema::{JoinSchema, Query};
use neurocard::infer::SamplerScratch;
use neurocard::{EstimateError, EstimatorCore, Precision};

/// An estimator the registry can serve: object-safe, shareable across threads.
pub trait ServingEstimator: Send + Sync {
    /// Short display name (e.g. `"NeuroCard"`, `"Postgres-like"`).
    fn name(&self) -> &str;

    /// Sample budget used when a request does not carry one.  Estimators without a
    /// per-request budget (histogram baselines, ...) return `1`.
    fn default_samples(&self) -> usize;

    /// Answers one request.  `scratch` is a reusable workspace the caller checked out of
    /// a [`crate::ScratchPool`]; estimators with a zero-allocation fast path use it,
    /// everyone else ignores it.  Estimators without a fast tier (the baselines, the
    /// stats fallback) likewise ignore `precision` and serve exactly, so the knob
    /// degrades gracefully across the whole model zoo.
    fn serve(
        &self,
        query: &Query,
        samples: usize,
        scratch: &mut SamplerScratch,
        precision: Precision,
    ) -> Result<f64, EstimateError>;

    /// Approximate size of the model state in bytes (`0` if not materialised).
    fn size_bytes(&self) -> usize {
        0
    }
}

// The registry stores `Arc<dyn ServingEstimator>`; keep the trait object-safe.
const _: Option<&dyn ServingEstimator> = None;

/// The scratch-pool fast path: an artifact-loaded NeuroCard core serves through
/// [`EstimatorCore::try_estimate_with_samples_scratch_precision`], which performs no
/// steady-state allocation and, on the exact tier, is bit-identical to sequential
/// [`EstimatorCore::estimate`] calls.
impl ServingEstimator for EstimatorCore {
    fn name(&self) -> &str {
        "NeuroCard"
    }

    fn default_samples(&self) -> usize {
        self.config().progressive_samples
    }

    fn serve(
        &self,
        query: &Query,
        samples: usize,
        scratch: &mut SamplerScratch,
        precision: Precision,
    ) -> Result<f64, EstimateError> {
        self.try_estimate_with_samples_scratch_precision(query, samples, scratch, precision)
    }

    fn size_bytes(&self) -> usize {
        EstimatorCore::size_bytes(self)
    }
}

/// Adapter that serves any [`CardinalityEstimator`] (the baselines of the paper's
/// evaluation, or a `Box<dyn CardinalityEstimator + Send + Sync>`) through the registry.
///
/// Baselines have no per-request sample budget, no scratch fast path and no fast tier —
/// the `samples`, `scratch` and `precision` arguments are ignored.  When built [`BaselineModel::with_schema`], queries are
/// validated first so malformed requests surface as typed
/// [`EstimateError::InvalidQuery`] errors instead of whatever the estimator does with
/// garbage (several baselines panic).
pub struct BaselineModel<E> {
    estimator: E,
    schema: Option<Arc<JoinSchema>>,
}

impl<E: CardinalityEstimator + Send + Sync> BaselineModel<E> {
    /// Wraps an estimator without query validation.
    pub fn new(estimator: E) -> Self {
        BaselineModel {
            estimator,
            schema: None,
        }
    }

    /// Wraps an estimator and validates every query against `schema` before serving.
    pub fn with_schema(estimator: E, schema: Arc<JoinSchema>) -> Self {
        BaselineModel {
            estimator,
            schema: Some(schema),
        }
    }
}

impl<E: CardinalityEstimator + Send + Sync> ServingEstimator for BaselineModel<E> {
    fn name(&self) -> &str {
        self.estimator.name()
    }

    fn default_samples(&self) -> usize {
        1
    }

    fn serve(
        &self,
        query: &Query,
        _samples: usize,
        _scratch: &mut SamplerScratch,
        _precision: Precision,
    ) -> Result<f64, EstimateError> {
        if let Some(schema) = &self.schema {
            query
                .validate(schema)
                .map_err(|e| EstimateError::InvalidQuery(e.to_string()))?;
        }
        Ok(self.estimator.estimate(query))
    }

    fn size_bytes(&self) -> usize {
        self.estimator.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Fixed;
    use nc_schema::JoinEdge;

    #[test]
    fn baseline_adapter_forwards_and_validates() {
        let schema = Arc::new(
            JoinSchema::new(
                vec!["A".into(), "B".into()],
                vec![JoinEdge::parse("A.x", "B.x")],
                "A",
            )
            .unwrap(),
        );
        let mut scratch = SamplerScratch::new();

        let unchecked = BaselineModel::new(Fixed(42.0));
        assert_eq!(unchecked.name(), "fixed");
        assert_eq!(unchecked.default_samples(), 1);
        assert_eq!(unchecked.size_bytes(), 16);
        let checked = BaselineModel::with_schema(Fixed(7.0), schema);
        // The baselines have no fast tier: both precisions give the same answers.
        for precision in [Precision::Exact, Precision::Fast] {
            assert_eq!(
                unchecked.serve(&Query::join(&["A"]), 99, &mut scratch, precision),
                Ok(42.0)
            );
            assert_eq!(
                checked.serve(&Query::join(&["A", "B"]), 1, &mut scratch, precision),
                Ok(7.0)
            );
            // Unknown table → typed error instead of a downstream panic.
            assert!(matches!(
                checked.serve(&Query::join(&["nope"]), 1, &mut scratch, precision),
                Err(EstimateError::InvalidQuery(_))
            ));
        }
        // The adapter is registrable as a trait object.
        let _obj: Arc<dyn ServingEstimator> = Arc::new(BaselineModel::new(Fixed(1.0)));
    }
}
