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
use nc_storage::binio::{bf16_to_f32, f32_to_bf16};

use crate::config::NeuroCardConfig;
use crate::encoding::EncodedLayout;
use crate::infer::{EstimateError, ProgressiveSampler, SamplerScratch};

/// Which inference tier answers an estimate — the two-tier determinism contract's knob.
///
/// * [`Precision::Exact`] (the default) runs the scalar kernels over full-f32 weights.
///   Estimates are **bit-identical** to `estimate_reference` for a fixed `(model, query,
///   seed)` — the pin every artifact/serving round-trip test relies on.
/// * [`Precision::Fast`] runs the architecture-dispatched SIMD kernels
///   ([`nc_nn::kernel`]) over bf16-quantised weights.  Bit-identity is deliberately
///   relaxed; accuracy is instead gated by [`QERROR_DELTA_BOUND`].  The per-query RNG
///   stream is shared with the exact tier, so the two tiers are comparable
///   sample-for-sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Bit-reproducible scalar path over exact f32 weights.
    #[default]
    Exact,
    /// SIMD kernels over bf16 weights, gated by the q-error-delta bound.
    Fast,
}

/// The two-tier determinism contract's accuracy gate: a [`Precision::Fast`] estimate may
/// not differ from the [`Precision::Exact`] estimate of the same `(query, seed)` by more
/// than this factor in either direction (`max(fast/exact, exact/fast)`), and both must be
/// finite.  bf16 keeps every weight within 2⁻⁸ relative and the tiers share the per-query
/// RNG stream, so the observed delta is small (≤ 1.03 on the benchmark's workloads); the
/// bound leaves room for an occasional flipped progressive sample without ever letting
/// the tiers drift apart silently.  Asserted by this crate's
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

/// Rounds every parameter of `model` through bf16 (round-to-nearest-even), producing the
/// fast-tier model.
///
/// The round trip is **idempotent** — `quantize(quantize(m)) == quantize(m)` byte-for-byte
/// — so a fast model built on the fly from exact weights is identical to one decoded from
/// an artifact's `weights_bf16` section, and artifacts written before that section existed
/// lose nothing.
pub(crate) fn quantize_model_bf16(model: &ResMade) -> ResMade {
    let mut fast = model.clone();
    for p in fast.params_mut() {
        for v in p.value.data_mut() {
            *v = bf16_to_f32(f32_to_bf16(*v));
        }
    }
    fast
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
    /// bf16-quantised twin of `model`, served by the [`Precision::Fast`] tier.  Built
    /// eagerly (quantisation is one pass over the parameters) so fast-tier requests never
    /// pay a lazy-init synchronisation cost on the hot path.
    fast_model: ResMade,
    encoded: Arc<EncodedLayout>,
    schema: Arc<JoinSchema>,
    config: NeuroCardConfig,
    full_join_rows: u128,
}

impl EstimatorCore {
    /// Assembles a core from its parts, validating that the model's column space matches
    /// the encoded layout (the invariant every inference loop assumes).  The fast-tier
    /// model is derived by quantising `model` through bf16; a core only ever estimates, so
    /// neither keeps gradient buffers.
    pub fn new(
        mut model: ResMade,
        encoded: Arc<EncodedLayout>,
        schema: Arc<JoinSchema>,
        config: NeuroCardConfig,
        full_join_rows: u128,
    ) -> Result<Self, String> {
        model.release_gradients();
        let fast_model = quantize_model_bf16(&model);
        Self::with_fast_model(model, fast_model, encoded, schema, config, full_join_rows)
    }

    /// [`EstimatorCore::new`] with an explicitly supplied fast-tier model (the artifact
    /// loader passes the decoded `weights_bf16` section here; thanks to bf16 round-trip
    /// idempotence the result is byte-identical to on-the-fly quantisation).
    pub(crate) fn with_fast_model(
        model: ResMade,
        fast_model: ResMade,
        encoded: Arc<EncodedLayout>,
        schema: Arc<JoinSchema>,
        config: NeuroCardConfig,
        full_join_rows: u128,
    ) -> Result<Self, String> {
        let domains = encoded.model_domains();
        for (what, m) in [("model", &model), ("fast model", &fast_model)] {
            if m.num_columns() != domains.len() {
                return Err(format!(
                    "{what} has {} columns but the encoded layout has {}",
                    m.num_columns(),
                    domains.len()
                ));
            }
            for (i, &d) in domains.iter().enumerate() {
                if m.domain(i) != d {
                    return Err(format!(
                        "{what} column {i} has domain {} but the encoded layout says {d}",
                        m.domain(i)
                    ));
                }
            }
        }
        Ok(EstimatorCore {
            model,
            fast_model,
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
    /// through kernel reassociation and bf16 weight rounding.
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
    /// matched: exact f32 weights with the scalar kernels, or the bf16-quantised twin with
    /// the SIMD-dispatched ones.
    fn sampler(&self, precision: Precision) -> ProgressiveSampler<'_> {
        let (model, fast_kernels) = match precision {
            Precision::Exact => (&self.model, false),
            Precision::Fast => (&self.fast_model, true),
        };
        ProgressiveSampler::new(
            model,
            &self.encoded,
            &self.schema,
            self.full_join_rows,
            fast_kernels,
        )
    }

    /// The trained model.
    pub fn model(&self) -> &ResMade {
        &self.model
    }

    /// The bf16-quantised fast-tier model.
    pub fn fast_model(&self) -> &ResMade {
        &self.fast_model
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
}
