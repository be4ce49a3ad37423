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
//! **Determinism contract:** for a fixed `(core, query, seed)` every estimate produced
//! here is bit-identical to the corresponding `NeuroCard` method — both run the same
//! [`ProgressiveSampler`] through `estimate_seeded`, i.e. over the same per-query
//! SplitMix64-derived RNG stream (`derive_query_seed`).

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

/// Which inference tier answers an estimate — the two-tier determinism contract's knob.
///
/// Both tiers read the **same** f32 model; the tier only picks the kernel set.
///
/// * [`Precision::Exact`] (the default) runs the scalar kernels.  Estimates are
///   **bit-identical** to `estimate_reference` for a fixed `(model, query, seed)` — the
///   pin every artifact/serving round-trip test relies on.
/// * [`Precision::Fast`] runs the architecture-dispatched SIMD kernels
///   ([`nc_nn::kernel`]).  Bit-identity is deliberately relaxed (the SIMD kernels
///   reassociate sums); accuracy is instead gated by [`QERROR_DELTA_BOUND`].  The
///   per-query RNG stream is shared with the exact tier, so the two tiers are comparable
///   sample-for-sample — and where the dispatcher resolves to the portable scalar kernels
///   (`simd` feature off, or no AVX2/NEON) Fast *is* Exact, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Bit-reproducible scalar kernels.
    #[default]
    Exact,
    /// SIMD-dispatched kernels over the same weights, gated by the q-error-delta bound.
    Fast,
}

/// The two-tier determinism contract's accuracy gate: a [`Precision::Fast`] estimate may
/// not differ from the [`Precision::Exact`] estimate of the same `(query, seed)` by more
/// than this factor in either direction (`max(fast/exact, exact/fast)`), and both must be
/// finite.  The tiers share the weights and the per-query RNG stream, so only SIMD
/// reassociation separates them and the observed delta is small; the bound leaves room
/// for an occasional flipped progressive sample without ever letting the tiers drift
/// apart silently.  Asserted by this crate's
/// `fast_tier_stays_within_the_qerror_delta_bound` on both legs of the `simd` feature.
pub const QERROR_DELTA_BOUND: f64 = 4.0;

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Exact => write!(f, "exact"),
            Precision::Fast => write!(f, "fast"),
        }
    }
}

/// Seed of the per-query RNG stream: a pure function of `(config.seed, query)`, mixed
/// through the same SplitMix64 finalizer discipline as the sampler pool's worker streams
/// ([`nc_sampler::derive_stream_seed`]), so per-query streams are decorrelated and
/// identical wherever the query runs — sequentially, inside `estimate_batch`, or on a
/// serving thread.
pub(crate) fn derive_query_seed(seed: u64, query: &Query) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    query.render().hash(&mut hasher);
    derive_stream_seed(seed, hasher.finish(), 0)
}

/// Runs `sampler` over the per-query RNG stream derived from `(seed, query)` — the one
/// helper [`EstimatorCore`] and [`crate::NeuroCard`] both estimate through, which is what
/// makes their answers bit-identical for a fixed `(model, query, seed)`.
pub(crate) fn estimate_seeded(
    sampler: &ProgressiveSampler<'_>,
    seed: u64,
    query: &Query,
    num_samples: usize,
    scratch: &mut SamplerScratch,
) -> Result<f64, EstimateError> {
    let mut rng = StdRng::seed_from_u64(derive_query_seed(seed, query));
    sampler.try_estimate_with_scratch(query, num_samples, &mut rng, scratch)
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
    /// the encoded layout (the invariant every inference loop assumes).  A core only ever
    /// estimates, so it keeps no gradient buffers.
    pub fn new(
        mut model: ResMade,
        encoded: Arc<EncodedLayout>,
        schema: Arc<JoinSchema>,
        config: NeuroCardConfig,
        full_join_rows: u128,
    ) -> Result<Self, String> {
        model.release_gradients();
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
    /// [`EstimateError::InvalidSampleCount`]), caller-owned scratch (zero allocations in
    /// steady state — the serving hot path) and the inference tier chosen per request.
    ///
    /// Both tiers derive the **same** per-query RNG stream, so an exact and a fast
    /// estimate of one `(query, seed)` walk the same progressive samples and differ only
    /// through kernel reassociation.
    pub fn try_estimate_with_samples_scratch_precision(
        &self,
        query: &Query,
        num_samples: usize,
        scratch: &mut SamplerScratch,
        precision: Precision,
    ) -> Result<f64, EstimateError> {
        estimate_seeded(
            &self.sampler(precision),
            self.config.seed,
            query,
            num_samples,
            scratch,
        )
    }

    /// Infallible convenience over the entry point above: the configured sample budget
    /// (0 clamps to 1), a fresh scratch, [`Precision::Exact`]; panics with the
    /// [`EstimateError`] text on a query that cannot be estimated.
    pub fn estimate(&self, query: &Query) -> f64 {
        self.try_estimate_with_samples_scratch_precision(
            query,
            self.config.progressive_samples.max(1),
            &mut SamplerScratch::new(),
            Precision::Exact,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The deterministic per-query RNG seed (`derive_query_seed` of the configured seed).
    pub fn query_seed(&self, query: &Query) -> u64 {
        derive_query_seed(self.config.seed, query)
    }

    /// The progressive-sampling engine of one tier — the only place [`Precision`] is
    /// read: the scalar kernels or the SIMD-dispatched ones, over the one model.
    fn sampler(&self, precision: Precision) -> ProgressiveSampler<'_> {
        ProgressiveSampler::new(
            &self.model,
            &self.encoded,
            &self.schema,
            self.full_join_rows,
            precision == Precision::Fast,
        )
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
    use crate::NeuroCard;
    use nc_datagen::{job_light_database, job_light_schema, DataGenConfig};
    use nc_workloads::job_light_ranges_queries;

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

    #[test]
    fn fast_tier_stays_within_the_qerror_delta_bound() {
        let datagen = DataGenConfig {
            title_rows: 120,
            ..DataGenConfig::tiny()
        };
        let db = Arc::new(job_light_database(&datagen));
        let schema = Arc::new(job_light_schema());
        let config = NeuroCardConfig::tiny().with_training_tuples(2_000);
        let core = NeuroCard::build(db.clone(), schema.clone(), &config).core();

        let mut queries = job_light_ranges_queries(&db, &schema, 24, 42);
        // All-fanout downscaling and an indicators-only join: no filter to sample through.
        queries.push(Query::join(&["title"]));
        queries.push(Query::join(&["title", "cast_info", "movie_companies"]));

        let mut scratch = SamplerScratch::new();
        for query in &queries {
            for samples in [32usize, 64] {
                let [exact, fast] = [Precision::Exact, Precision::Fast].map(|tier| {
                    core.try_estimate_with_samples_scratch_precision(
                        query,
                        samples,
                        &mut scratch,
                        tier,
                    )
                    .unwrap()
                });
                let delta = (fast / exact).max(exact / fast);
                assert!(
                    delta.is_finite() && delta <= QERROR_DELTA_BOUND,
                    "{query} at {samples} samples: exact {exact}, fast {fast} \
                     (delta {delta:.3} > {QERROR_DELTA_BOUND})"
                );
            }
        }
    }

    /// `Precision` picks kernels, not a model: where the dispatcher resolves to the
    /// portable kernels nothing separates the tiers.  Gated on the runtime ISA rather than
    /// `cfg(feature = "simd")`, so feature unification cannot make the test lie; on a SIMD
    /// ISA the delta is `fast_tier_stays_within_the_qerror_delta_bound`'s to bound.
    #[test]
    fn fast_tier_is_exact_bit_for_bit_on_portable_kernels() {
        let datagen = DataGenConfig {
            title_rows: 120,
            ..DataGenConfig::tiny()
        };
        let db = Arc::new(job_light_database(&datagen));
        let schema = Arc::new(job_light_schema());
        let config = NeuroCardConfig::tiny().with_training_tuples(2_000);
        let core = NeuroCard::build(db.clone(), schema.clone(), &config).core();

        let mut queries = job_light_ranges_queries(&db, &schema, 24, 42);
        queries.push(Query::join(&["title"]));
        queries.push(Query::join(&["title", "cast_info", "movie_companies"]));

        let portable = nc_nn::kernel::isa_name() == "portable";
        let mut scratch = SamplerScratch::new();
        for query in &queries {
            let [exact, fast] = [Precision::Exact, Precision::Fast].map(|tier| {
                core.try_estimate_with_samples_scratch_precision(query, 64, &mut scratch, tier)
                    .unwrap()
            });
            assert!(fast.is_finite(), "{query}: fast {fast}");
            if portable {
                assert_eq!(exact.to_bits(), fast.to_bits(), "{query}");
            }
        }
    }
}
