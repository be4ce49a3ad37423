//! The object-safe serving trait the registry stores models behind.
//!
//! The registry stores models as `Arc<dyn ServingEstimator>`.  Its one implementation
//! is a NeuroCard [`EstimatorCore`], served through its zero-allocation scratch fast
//! path; the serving tier's tests register small fakes.  There is no second estimator
//! behind the registry: a selector that matches no registered model is a
//! [`crate::ServeError::UnknownModel`].  Routing, hot swap, the wire protocol and the
//! benchmark all speak this trait, so a new estimator kind implements it and touches
//! nothing else.

use nc_schema::Query;
use neurocard::infer::SamplerScratch;
use neurocard::{EstimateError, EstimatorCore};

/// An estimator the registry can serve: object-safe, shareable across threads.
pub trait ServingEstimator: Send + Sync {
    /// Sample budget used when a request does not carry one.  Estimators without a
    /// per-request budget return `1`.
    fn default_samples(&self) -> usize;

    /// Answers one request.  `scratch` is a reusable workspace the caller checked out of
    /// a [`crate::ScratchPool`]; estimators with a zero-allocation fast path use it,
    /// everyone else ignores it.
    fn serve(
        &self,
        query: &Query,
        samples: usize,
        scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError>;
}

// The registry stores `Arc<dyn ServingEstimator>`; keep the trait object-safe.
const _: Option<&dyn ServingEstimator> = None;

/// The scratch-pool fast path: an artifact-loaded NeuroCard core serves through
/// [`EstimatorCore::try_estimate`], which performs no steady-state allocation and is
/// bit-identical to sequential [`EstimatorCore::estimate`] calls.
impl ServingEstimator for EstimatorCore {
    fn default_samples(&self) -> usize {
        self.config().progressive_samples
    }

    fn serve(
        &self,
        query: &Query,
        samples: usize,
        scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        self.try_estimate(query, samples, scratch)
    }
}
