//! Shadow comparison: mirroring traffic to an unrouted candidate.
//!
//! The candidate registers under the shadow name (`"{name}.shadow"`), which no
//! `Latest` selector for the served name ever resolves to — production routing is
//! untouched while the comparison runs.  A configurable per-mille of traffic is
//! mirrored: the incumbent serves every query (it *is* production), and mirrored
//! queries are additionally answered by the candidate through a second lease, with
//! per-query q-error (decision input) and latency (report-only) recorded for both.
//!
//! Mirror draws derive from the pipeline seed and the query index — not from time,
//! not from load — so the exact mirrored subset replays.  The `pipeline.shadow-drop`
//! fault point models a lost mirror sample: the query still serves, the comparison
//! just loses that data point (and the promotion gate's `min_shadow_samples` guards
//! against deciding on too few survivors).

use std::time::Instant;

use nc_sampler::seed::{splitmix64_mix, GOLDEN_GAMMA};
use nc_serve::{FaultInjector, ModelLease};
use nc_workloads::qerror::{q_error, ErrorSummary};
use neurocard::infer::SamplerScratch;
use neurocard::Precision;
use serde::Serialize;

use crate::drift::OracleCase;

/// The outcome of one shadow comparison window.
#[derive(Debug, Clone, Serialize)]
pub struct ShadowReport {
    /// Queries the mirror draw selected.
    pub mirrored: u64,
    /// Mirrored queries lost to the `pipeline.shadow-drop` fault.
    pub dropped: u64,
    /// Samples actually compared (both sides answered).
    pub compared: u64,
    /// Incumbent median q-error over the compared samples.
    pub incumbent_median_qerr: f64,
    /// Candidate median q-error over the compared samples.
    pub candidate_median_qerr: f64,
    /// Estimates that came back non-finite or negative from either side (must stay 0;
    /// surfaced so benches can assert it).
    pub wrong_estimates: u64,
    /// Incumbent p99 latency in microseconds (report-only).
    pub incumbent_p99_us: u64,
    /// Candidate p99 latency in microseconds (report-only).
    pub candidate_p99_us: u64,
}

fn p99_us(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Serves `cases` on the incumbent and mirrors a seeded subset to the candidate.
///
/// `mirror_seed` should derive from `(config.seed, step)`; the i-th case mirrors when
/// `splitmix64_mix(mirror_seed ^ (i + GOLDEN_GAMMA)) % 1000 < mirror_per_mille`.
pub fn shadow_compare(
    incumbent: &ModelLease,
    candidate: &ModelLease,
    cases: &[OracleCase],
    mirror_seed: u64,
    mirror_per_mille: u32,
    faults: &FaultInjector,
    scratch: &mut SamplerScratch,
) -> ShadowReport {
    let mut mirrored = 0u64;
    let mut dropped = 0u64;
    let mut wrong = 0u64;
    let mut incumbent_errs = Vec::new();
    let mut candidate_errs = Vec::new();
    let mut incumbent_lat = Vec::new();
    let mut candidate_lat = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        // Production serve: the incumbent answers every query regardless of the
        // mirror draw (latency is measured around the estimate only).
        let started = Instant::now();
        let incumbent_est = incumbent
            .estimate(&case.query, None, scratch, Precision::Exact)
            .ok();
        incumbent_lat.push(started.elapsed().as_micros() as u64);
        let draw = splitmix64_mix(mirror_seed ^ (i as u64).wrapping_add(GOLDEN_GAMMA));
        if draw % 1000 >= u64::from(mirror_per_mille) {
            continue;
        }
        mirrored += 1;
        if faults.fires("pipeline.shadow-drop") {
            dropped += 1;
            continue;
        }
        let started = Instant::now();
        let candidate_est = candidate
            .estimate(&case.query, None, scratch, Precision::Exact)
            .ok();
        candidate_lat.push(started.elapsed().as_micros() as u64);
        // A side that errors loses the sample: the comparison only scores queries both
        // models answered (an incumbent that *cannot* answer already fired the drift
        // detector's error counter upstream).
        if let (Some(inc), Some(cand)) = (incumbent_est, candidate_est) {
            if !inc.is_finite() || inc < 0.0 || !cand.is_finite() || cand < 0.0 {
                wrong += 1;
                continue;
            }
            incumbent_errs.push(q_error(inc, case.truth));
            candidate_errs.push(q_error(cand, case.truth));
        }
    }
    let median = |errs: &[f64]| {
        if errs.is_empty() {
            f64::INFINITY
        } else {
            ErrorSummary::from_errors(errs).median
        }
    };
    ShadowReport {
        mirrored,
        dropped,
        compared: incumbent_errs.len() as u64,
        incumbent_median_qerr: median(&incumbent_errs),
        candidate_median_qerr: median(&candidate_errs),
        wrong_estimates: wrong,
        incumbent_p99_us: p99_us(incumbent_lat),
        candidate_p99_us: p99_us(candidate_lat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_env;
    use crate::drift::oracle_workload;
    use nc_serve::{ModelRegistry, ModelSelector};
    use neurocard::{NeuroCard, NeuroCardConfig};
    use std::sync::Arc;

    fn leased_pair() -> (Arc<ModelRegistry>, ModelLease, ModelLease, Vec<OracleCase>) {
        let env = demo_env(5);
        let config = NeuroCardConfig::tiny().with_training_tuples(300);
        let artifact = NeuroCard::train(env.db.clone(), env.schema.clone(), &config);
        let core = Arc::new(artifact.to_core().expect("loads"));
        let registry = Arc::new(ModelRegistry::new());
        let inc_key = registry.register_core("m", core.clone()).unwrap();
        let cand_key = registry.register_core("m.shadow", core).unwrap();
        let incumbent = registry
            .acquire(&ModelSelector::Exact(inc_key))
            .expect("incumbent lease");
        let candidate = registry
            .acquire(&ModelSelector::Exact(cand_key))
            .expect("candidate lease");
        let cases = oracle_workload(&env.db, &env.schema, 77, 40);
        (registry, incumbent, candidate, cases)
    }

    #[test]
    fn mirror_subset_is_seeded_and_identical_models_tie() {
        let (_registry, incumbent, candidate, cases) = leased_pair();
        let mut scratch = SamplerScratch::new();
        let faults = FaultInjector::disabled();
        let a = shadow_compare(
            &incumbent,
            &candidate,
            &cases,
            123,
            500,
            &faults,
            &mut scratch,
        );
        let b = shadow_compare(
            &incumbent,
            &candidate,
            &cases,
            123,
            500,
            &faults,
            &mut scratch,
        );
        assert_eq!(a.mirrored, b.mirrored, "mirror draws replay");
        assert_eq!(a.compared, b.compared);
        assert!(a.mirrored > 0 && a.mirrored < cases.len() as u64);
        assert_eq!(a.dropped, 0);
        assert_eq!(a.wrong_estimates, 0);
        // Same model on both sides: identical medians, bit for bit.
        assert_eq!(
            a.incumbent_median_qerr.to_bits(),
            a.candidate_median_qerr.to_bits()
        );
    }

    #[test]
    fn per_mille_bounds_are_all_or_nothing() {
        let (_registry, incumbent, candidate, cases) = leased_pair();
        let mut scratch = SamplerScratch::new();
        let faults = FaultInjector::disabled();
        let none = shadow_compare(&incumbent, &candidate, &cases, 9, 0, &faults, &mut scratch);
        assert_eq!(none.mirrored, 0);
        assert_eq!(none.compared, 0);
        assert!(none.candidate_median_qerr.is_infinite());
        let all = shadow_compare(
            &incumbent,
            &candidate,
            &cases,
            9,
            1000,
            &faults,
            &mut scratch,
        );
        assert_eq!(all.mirrored, cases.len() as u64);
    }
}
