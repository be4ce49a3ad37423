//! Small, dependency-free random distributions used by the generators.
//!
//! Implemented locally (rather than pulling in a distributions crate) so the exact sampling
//! behaviour is pinned by this repository and reproducible across dependency upgrades.

use rand::Rng;

/// A discrete Zipf-like sampler over `{0, 1, ..., n-1}` where element `i` has weight
/// `1 / (i + 1)^s`.
///
/// Sampling is `O(log n)` via binary search over the precomputed cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` elements with skew exponent `s`.
    ///
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one element");
        assert!(
            s.is_finite() && s >= 0.0,
            "skew must be a finite non-negative number"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution is empty (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws an index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.len() - 1)
    }
}

/// A categorical sampler over `{0, .., n-1}` with explicit weights.
#[derive(Debug, Clone)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights (at least one must be
    /// positive).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(weights.iter().all(|w| *w >= 0.0 && w.is_finite()));
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for w in weights {
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "at least one weight must be positive");
        Categorical { cumulative }
    }

    /// Draws an index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// Draws a child-count ("fanout") with the given mean and Zipf-like upper tail.
///
/// A fraction of draws are 0 (childless parents); the rest follow `1 + Zipf` truncated at
/// `max`, rescaled so the mean is approximately `mean`.
pub fn sample_fanout<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    skew: f64,
    childless_fraction: f64,
    max: usize,
) -> usize {
    if rng.random::<f64>() < childless_fraction {
        return 0;
    }
    // Geometric-ish body with a heavy tail: mix of a rounded exponential and a Zipf spike.
    let body = -(1.0 - rng.random::<f64>()).ln() * mean;
    let spike = if rng.random::<f64>() < 0.05 {
        let z = Zipf::new(max.max(1), skew.max(0.1));
        z.sample(rng) as f64
    } else {
        0.0
    };
    ((body + spike).round() as usize).clamp(1, max)
}

/// Draws a child category correlated with a parent category.
///
/// With probability `correlation` the child category is a deterministic function of the
/// parent (`(parent * 7 + offset) % n_child`); otherwise it is a skewed draw over the whole
/// child domain.  This creates exactly the kind of cross-table dependence that breaks
/// independence-assuming estimators while remaining cheap to generate.
pub fn correlated_category<R: Rng + ?Sized>(
    rng: &mut R,
    parent_code: usize,
    n_child: usize,
    correlation: f64,
    offset: usize,
    zipf: &Zipf,
) -> usize {
    assert!(n_child > 0);
    if rng.random::<f64>() < correlation {
        (parent_code.wrapping_mul(7).wrapping_add(offset)) % n_child
    } else {
        zipf.sample(rng) % n_child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10, 1.2);
        assert_eq!(z.len(), 10);
        assert!(!z.is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 10];
        for _ in 0..20_000 {
            let i = z.sample(&mut rng);
            assert!(i < 10);
            counts[i] += 1;
        }
        // Head element must dominate the tail element by a wide margin.
        assert!(counts[0] > counts[9] * 3, "counts: {counts:?}");
    }

    #[test]
    fn categorical_respects_weights() {
        let c = Categorical::new(&[0.0, 1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[c.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 2);
    }

    #[test]
    fn fanout_bounds_and_childlessness() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut zero = 0;
        let mut total = 0usize;
        for _ in 0..5_000 {
            let f = sample_fanout(&mut rng, 3.0, 1.1, 0.2, 50);
            assert!(f <= 50);
            if f == 0 {
                zero += 1;
            }
            total += f;
        }
        let zero_frac = zero as f64 / 5_000.0;
        assert!(
            (0.15..0.25).contains(&zero_frac),
            "zero fraction {zero_frac}"
        );
        assert!(total > 5_000, "mean fanout should exceed 1");
    }

    #[test]
    fn correlated_category_tracks_parent() {
        let mut rng = StdRng::seed_from_u64(4);
        let zipf = Zipf::new(20, 1.0);
        let mut agree = 0;
        let n = 5_000;
        for i in 0..n {
            let parent = i % 10;
            let child = correlated_category(&mut rng, parent, 20, 0.9, 3, &zipf);
            if child == (parent * 7 + 3) % 20 {
                agree += 1;
            }
        }
        assert!(agree as f64 / n as f64 > 0.85);
        // And with zero correlation it should rarely agree.
        let mut agree = 0;
        for i in 0..n {
            let parent = i % 10;
            let child = correlated_category(&mut rng, parent, 20, 0.0, 3, &zipf);
            if child == (parent * 7 + 3) % 20 {
                agree += 1;
            }
        }
        assert!((agree as f64 / n as f64) < 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zipf_zero_elements_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn categorical_all_zero_panics() {
        Categorical::new(&[0.0, 0.0]);
    }
}
