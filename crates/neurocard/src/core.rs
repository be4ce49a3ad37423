//! The estimation core: a trained model plus everything inference needs — and nothing
//! training needs.
//!
//! [`EstimatorCore`] is the database-free half of the PR-4 split of `NeuroCard::build`:
//! it owns the trained [`ResMade`], the [`EncodedLayout`] (dictionaries +
//! factorizations), the [`JoinSchema`] and `|J|`.  Unlike the full
//! [`crate::NeuroCard`] — whose trainer holds a sampler worker pool and is
//! therefore not shareable across threads — the core is plain data: `Send + Sync`, so a
//! serving layer can put one behind an `Arc` and estimate from any number of worker
//! threads (see the `nc-serve` crate).
//!
//! **Determinism contract:** an estimate is a pure function of `(model, query, seed)`:
//! [`EstimatorCore::try_estimate`] runs the [`ProgressiveSampler`] over a per-query
//! SplitMix64-derived RNG stream (`derive_query_seed`).  So a [`crate::NeuroCard::core`]
//! snapshot and a core loaded from that model's artifact answer bit-identically.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nc_nn::ResMade;
use nc_sampler::derive_stream_seed;
use nc_schema::{JoinSchema, Query};

use crate::config::NeuroCardConfig;
use crate::encoding::EncodedLayout;
use crate::infer::{EstimateError, ProgressiveSampler, SamplerScratch};

/// The tier argument of [`EstimatorCore::try_estimate_with_samples_scratch_precision`],
/// ignored: inference has one kernel set, and both variants get its bits.
///
/// Kept for the benchmark's frozen calls; goes when the benchmark moves to `try_estimate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// The one kernel set.
    Exact,
    /// The same as [`Precision::Exact`].
    Fast,
}

/// Seed of the per-query RNG stream: a pure function of `(config.seed, query)`, mixed
/// through the same SplitMix64 finalizer discipline as the sampler pool's worker streams
/// ([`nc_sampler::derive_stream_seed`]), so per-query streams are decorrelated and
/// identical wherever the query runs — in a test, a benchmark or on a serving thread.
pub(crate) fn derive_query_seed(seed: u64, query: &Query) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    query.render().hash(&mut hasher);
    derive_stream_seed(seed, hasher.finish(), 0)
}

/// The estimation-only engine over a trained model (no training database, no sampler
/// pool; `Send + Sync`).
pub struct EstimatorCore {
    model: ResMade,
    encoded: Arc<EncodedLayout>,
    schema: Arc<JoinSchema>,
    config: NeuroCardConfig,
    full_join_rows: u128,
}

impl EstimatorCore {
    /// Assembles a core from its parts, validating that the model's column space matches
    /// the encoded layout (the invariant every inference loop assumes) and that its masked
    /// weights are zero and every weight finite ([`ResMade::check_masked_weights`], which
    /// the inference step's bit-identity rests on).  A core only ever estimates, so it
    /// keeps no gradient buffers.
    pub fn new(
        mut model: ResMade,
        encoded: Arc<EncodedLayout>,
        schema: Arc<JoinSchema>,
        config: NeuroCardConfig,
        full_join_rows: u128,
    ) -> Result<Self, String> {
        model.release_gradients();
        model.check_masked_weights()?;
        let domains = encoded.model_domains();
        if model.num_columns() != domains.len() {
            return Err(format!(
                "model has {} columns but the encoded layout has {}",
                model.num_columns(),
                domains.len()
            ));
        }
        for (i, &d) in domains.iter().enumerate() {
            if model.domain(i) != d {
                return Err(format!(
                    "model column {i} has domain {} but the encoded layout says {d}",
                    model.domain(i)
                ));
            }
        }
        Ok(EstimatorCore {
            model,
            encoded,
            schema,
            config,
            full_join_rows,
        })
    }

    /// The one fallible estimate entry point: explicit progressive-sample budget (zero is
    /// [`EstimateError::InvalidSampleCount`]) and caller-owned scratch (no buffer allocated
    /// in steady state — the serving hot path).
    pub fn try_estimate(
        &self,
        query: &Query,
        num_samples: usize,
        scratch: &mut SamplerScratch,
    ) -> Result<f64, EstimateError> {
        let mut rng = StdRng::seed_from_u64(self.query_seed(query));
        ProgressiveSampler::new(
            &self.model,
            &self.encoded,
            &self.schema,
            self.full_join_rows,
        )
        .try_estimate_with_scratch(query, num_samples, &mut rng, scratch)
    }

    /// [`EstimatorCore::try_estimate`]; `precision` is ignored.
    ///
    /// Kept for the benchmark's frozen calls; goes when the benchmark moves to `try_estimate`.
    pub fn try_estimate_with_samples_scratch_precision(
        &self,
        query: &Query,
        num_samples: usize,
        scratch: &mut SamplerScratch,
        _precision: Precision,
    ) -> Result<f64, EstimateError> {
        self.try_estimate(query, num_samples, scratch)
    }

    /// Infallible convenience over [`EstimatorCore::try_estimate`]: the configured sample
    /// budget (0 clamps to 1) and a fresh scratch; panics with the [`EstimateError`] text
    /// on a query that cannot be estimated.
    pub fn estimate(&self, query: &Query) -> f64 {
        self.try_estimate(
            query,
            self.config.progressive_samples.max(1),
            &mut SamplerScratch::new(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The deterministic per-query RNG seed (`derive_query_seed` of the configured seed).
    pub fn query_seed(&self, query: &Query) -> u64 {
        derive_query_seed(self.config.seed, query)
    }

    /// The trained model.
    pub fn model(&self) -> &ResMade {
        &self.model
    }

    /// The encoded layout (dictionaries, factorizations, sub-column space).
    pub fn encoded(&self) -> &Arc<EncodedLayout> {
        &self.encoded
    }

    /// The join schema this core serves.
    pub fn schema(&self) -> &Arc<JoinSchema> {
        &self.schema
    }

    /// The estimator configuration the model was trained with.
    pub fn config(&self) -> &NeuroCardConfig {
        &self.config
    }

    /// `|J|`, the size of the augmented full outer join.
    pub fn full_join_rows(&self) -> u128 {
        self.full_join_rows
    }

    /// Model size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.model.size_bytes()
    }
}

// The compile-time guarantee the serving layer relies on.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EstimatorCore>()
};

#[cfg(test)]
mod tests {
    use super::*;

    /// `derive_query_seed` hashes with std's `DefaultHasher`, whose algorithm is not
    /// promised across Rust releases, and every seeded estimate — so every `qerror_*` cell
    /// of the benchmark ledger — hangs off it.  A toolchain that changes the hash must
    /// fail here by name, not silently move the baseline.
    #[test]
    fn query_seed_derivation_is_pinned() {
        use nc_schema::Predicate;
        let join = Query::join(&["title", "cast_info"]);
        let filtered = Query::join(&["title", "movie_companies"])
            .filter("title", "production_year", Predicate::ge(2000i64))
            .filter("movie_companies", "company_type_id", Predicate::eq(2i64));
        assert_eq!(derive_query_seed(42, &join), 7_817_710_811_883_765_274);
        assert_eq!(derive_query_seed(42, &filtered), 12_914_378_399_692_961_198);
    }
}
