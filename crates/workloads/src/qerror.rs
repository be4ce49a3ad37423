//! The Q-error metric (§7.1) and its quantile summaries.

use serde::{Deserialize, Serialize};

/// Multiplicative error between an estimate and the truth; both are lower-bounded by 1, so
/// the minimum attainable Q-error is 1.
///
/// A non-finite estimate or truth (NaN or ±∞) scores `f64::INFINITY`: `f64::max` returns
/// its non-NaN operand, so the old `estimate.max(1.0)` clamp silently mapped a NaN
/// estimate to 1.0 and let a broken estimator report a *perfect* Q-error.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    if !estimate.is_finite() || !truth.is_finite() {
        return f64::INFINITY;
    }
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// Quantile summary of a set of Q-errors (the columns of the paper's result tables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Number of queries.
    pub count: usize,
    /// Median (p50).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum (p100).
    pub max: f64,
    /// Geometric mean (not reported by the paper, useful for quick comparisons).
    pub geometric_mean: f64,
}

impl ErrorSummary {
    /// Summarises a set of Q-errors.  Panics on an empty slice.
    pub fn from_errors(errors: &[f64]) -> Self {
        assert!(!errors.is_empty(), "cannot summarise zero errors");
        let mut sorted = errors.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("Q-errors are never NaN"));
        let geometric_mean =
            (sorted.iter().map(|e| e.max(1.0).ln()).sum::<f64>() / sorted.len() as f64).exp();
        ErrorSummary {
            count: sorted.len(),
            median: quantile(&sorted, 0.50),
            p95: quantile(&sorted, 0.95),
            p99: quantile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
            geometric_mean,
        }
    }

    /// Convenience: compute the Q-errors of paired (estimate, truth) values and summarise.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> Self {
        let errors: Vec<f64> = pairs.iter().map(|(e, t)| q_error(*e, *t)).collect();
        Self::from_errors(&errors)
    }
}

impl std::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.2}  p95 {:.1}  p99 {:.1}  max {:.1}  (n={})",
            self.median, self.p95, self.p99, self.max, self.count
        )
    }
}

/// Quantile of an ascending-sorted slice, linearly interpolated between the two ranks
/// around position `q · (len − 1)`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(1.0, 10.0), 10.0);
        // Both sides lower-bounded by 1.
        assert_eq!(q_error(0.001, 0.5), 1.0);
        assert_eq!(q_error(0.0, 7.0), 7.0);
        assert!(q_error(3.0, 7.0) >= 1.0);
    }

    #[test]
    fn summary_quantiles() {
        let errors: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = ErrorSummary::from_errors(&errors);
        assert_eq!(s.count, 100);
        assert!((s.median - 50.5).abs() < 1.0);
        assert!((s.p95 - 95.0).abs() < 1.5);
        assert!((s.p99 - 99.0).abs() < 1.5);
        assert_eq!(s.max, 100.0);
        assert!(s.geometric_mean > 1.0 && s.geometric_mean < 100.0);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn from_pairs_matches_manual() {
        let pairs = vec![(10.0, 100.0), (100.0, 100.0), (1000.0, 100.0)];
        let s = ErrorSummary::from_pairs(&pairs);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn quantile_edge_cases() {
        let v = vec![5.0];
        assert_eq!(quantile(&v, 0.0), 5.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        let v = vec![1.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 1.5);
    }

    #[test]
    #[should_panic(expected = "zero errors")]
    fn empty_errors_panic() {
        ErrorSummary::from_errors(&[]);
    }

    #[test]
    fn q_error_is_symmetric() {
        // Swapping estimate and truth never changes the Q-error, including when one or
        // both sides are clamped up to 1.
        let values = [0.0, 0.3, 1.0, 2.5, 10.0, 1e6];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    q_error(a, b),
                    q_error(b, a),
                    "q_error not symmetric for ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn zero_cardinality_is_clamped() {
        // An empty result (truth = 0) with an empty estimate is a perfect answer.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        // Estimating zero for a non-empty result scores as if the estimate were 1.
        assert_eq!(q_error(0.0, 50.0), 50.0);
        assert_eq!(q_error(50.0, 0.0), 50.0);
        // Sub-1 fractional estimates are clamped the same way.
        assert_eq!(q_error(0.25, 4.0), 4.0);
        assert_eq!(q_error(0.25, 0.75), 1.0);
    }

    #[test]
    fn non_finite_estimates_score_infinity() {
        // Regression: `f64::max` returns the non-NaN operand, so `NaN.max(1.0) == 1.0`
        // used to make a NaN-emitting estimator look perfect.
        assert_eq!(q_error(f64::NAN, 100.0), f64::INFINITY);
        assert_eq!(q_error(f64::INFINITY, 100.0), f64::INFINITY);
        assert_eq!(q_error(f64::NEG_INFINITY, 100.0), f64::INFINITY);
        // Broken truths are just as suspect.
        assert_eq!(q_error(100.0, f64::NAN), f64::INFINITY);
        assert_eq!(q_error(100.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(q_error(f64::NAN, f64::NAN), f64::INFINITY);
        // Still symmetric, and never NaN.
        for (e, t) in [
            (f64::NAN, 3.0),
            (f64::INFINITY, 0.0),
            (f64::NAN, f64::INFINITY),
        ] {
            assert_eq!(q_error(e, t), q_error(t, e));
            assert!(!q_error(e, t).is_nan());
        }
    }

    #[test]
    fn summaries_propagate_infinite_errors() {
        // An infinite Q-error must surface in the summary (sorting stays well-defined
        // because INFINITY, unlike NaN, is comparable).
        let s = ErrorSummary::from_pairs(&[(10.0, 10.0), (f64::NAN, 10.0)]);
        assert_eq!(s.max, f64::INFINITY);
        assert_eq!(s.geometric_mean, f64::INFINITY);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn q_error_never_below_one() {
        for (e, t) in [(0.0, 0.0), (0.5, 0.6), (1.0, 1.0), (3.0, 2.0), (1e-9, 1e9)] {
            assert!(q_error(e, t) >= 1.0, "q_error({e}, {t}) < 1");
        }
    }

    #[test]
    fn single_error_summary_collapses_to_that_error() {
        let s = ErrorSummary::from_errors(&[7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.max, 7.0);
        assert!((s.geometric_mean - 7.0).abs() < 1e-12);
    }

    #[test]
    fn two_error_percentiles_interpolate() {
        let s = ErrorSummary::from_errors(&[1.0, 3.0]);
        assert_eq!(s.median, 2.0);
        // p95 of two points interpolates 95% of the way between them.
        assert!((s.p95 - 2.9).abs() < 1e-12);
        assert!((s.p99 - 2.98).abs() < 1e-12);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summary_is_order_invariant() {
        let asc: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let mut desc = asc.clone();
        desc.reverse();
        assert_eq!(
            ErrorSummary::from_errors(&asc),
            ErrorSummary::from_errors(&desc)
        );
    }

    #[test]
    fn identical_errors_have_flat_quantiles() {
        let s = ErrorSummary::from_errors(&[4.0; 33]);
        assert_eq!((s.median, s.p95, s.p99, s.max), (4.0, 4.0, 4.0, 4.0));
        assert!((s.geometric_mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_out_of_range_fractions() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(quantile(&v, -0.5), 1.0);
        assert_eq!(quantile(&v, 1.5), 3.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        // pos = 0.95 * 3 = 2.85 → between 30 and 40.
        assert!((quantile(&v, 0.95) - 38.5).abs() < 1e-12);
        assert_eq!(quantile(&v, 0.5), 25.0);
    }
}
