//! Latency accounting shared by every serving surface: a bounded ring of recent
//! request latencies plus **nearest-rank** quantile estimation.
//!
//! One implementation, used by the service-wide stats, the per-model registry stats and
//! the experiment binaries' latency tables — so the small-window quantile semantics are
//! fixed in exactly one place: the nearest-rank p99 over fewer than 100 samples is the
//! **maximum** (there is no 99th distinct rank yet), and a single sample is every
//! quantile of itself.

/// How many of the most recent request latencies back the service-wide p50/p99
/// estimates.
pub const LATENCY_WINDOW: usize = 1 << 16;

/// How many of the most recent request latencies back each per-model quantile split
/// (smaller than [`LATENCY_WINDOW`]: a registry may serve many models).
pub const MODEL_LATENCY_WINDOW: usize = 1 << 12;

/// Nearest-rank quantile of an ascending-sorted, non-empty sample: the smallest value
/// whose rank is at least `q * n`.
///
/// This is the textbook definition (rank `ceil(q * n)`, 1-based), which a previous
/// round-to-nearest-index implementation got wrong at small windows: p99 over 99
/// samples picked the third-largest value instead of the max, and p50 over 2 samples
/// picked the larger instead of the smaller.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary quantiles of one latency sample (microseconds in this crate's usage, but
/// unit-agnostic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// Nearest-rank p99 (the max when fewer than 100 samples exist).
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Quantiles {
    /// All-zero quantiles (the empty-sample summary).
    pub const ZERO: Quantiles = Quantiles {
        p50: 0.0,
        p99: 0.0,
        max: 0.0,
        mean: 0.0,
    };

    /// Summarises a sample (order irrelevant; a stray NaN sorts to the end via IEEE
    /// total order instead of panicking the stats path).
    pub fn of(mut samples: Vec<f64>) -> Quantiles {
        if samples.is_empty() {
            return Quantiles::ZERO;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        Quantiles {
            p50: nearest_rank(&samples, 0.50),
            p99: nearest_rank(&samples, 0.99),
            max: samples.last().copied().unwrap_or(0.0),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
        }
    }
}

/// Bounded per-request latency log: an exact served counter plus a ring of the most
/// recent `window` latencies for quantile estimation — a long-lived service must not
/// grow memory per request.
#[derive(Debug)]
pub struct LatencyLog {
    total: u64,
    ring: Vec<f64>,
    next: usize,
    window: usize,
}

impl LatencyLog {
    /// An empty log keeping at most `window` recent samples.
    pub fn new(window: usize) -> Self {
        LatencyLog {
            total: 0,
            ring: Vec::new(),
            next: 0,
            window: window.max(1),
        }
    }

    /// Records one latency.
    pub fn push(&mut self, v: f64) {
        self.total += 1;
        if self.ring.len() < self.window {
            self.ring.push(v);
        } else {
            self.ring[self.next] = v;
            self.next = (self.next + 1) % self.window;
        }
    }

    /// Exact number of samples ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained window, unordered.
    pub fn window_samples(&self) -> Vec<f64> {
        self.ring.clone()
    }

    /// Quantiles over the retained window.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles::of(self.ring.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(n: usize) -> LatencyLog {
        // Values 1..=n in scrambled insert order: quantiles must not depend on it.
        let mut log = LatencyLog::new(LATENCY_WINDOW);
        for i in 0..n {
            log.push(((i * 7) % n + 1) as f64);
        }
        log
    }

    /// The satellite contract: windows of size 1, 2, 99 and `LATENCY_WINDOW`.
    #[test]
    fn nearest_rank_window_1() {
        let q = log_of(1).quantiles();
        // One sample is every quantile of itself — and must not index out of range or
        // collapse to 0.0.
        assert_eq!((q.p50, q.p99, q.max, q.mean), (1.0, 1.0, 1.0, 1.0));
    }

    #[test]
    fn nearest_rank_window_2() {
        let q = log_of(2).quantiles();
        // Nearest rank of p50 over {1, 2} is the *first* value (rank ceil(0.5·2) = 1).
        assert_eq!(q.p50, 1.0);
        // p99 with fewer than 100 samples is the max.
        assert_eq!(q.p99, 2.0);
        assert_eq!(q.max, 2.0);
        assert_eq!(q.mean, 1.5);
    }

    #[test]
    fn nearest_rank_window_99() {
        let q = log_of(99).quantiles();
        assert_eq!(q.p50, 50.0); // rank ceil(0.5·99) = 50
                                 // There is no 99th distinct percentile rank below the max yet: p99 = max.
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 99.0);
    }

    #[test]
    fn nearest_rank_full_window() {
        let q = log_of(LATENCY_WINDOW).quantiles();
        let n = LATENCY_WINDOW as f64;
        assert_eq!(q.p50, (n / 2.0).ceil());
        assert_eq!(q.p99, (0.99 * n).ceil());
        assert_eq!(q.max, n);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_most_recent() {
        let mut log = LatencyLog::new(LATENCY_WINDOW);
        for i in 0..(LATENCY_WINDOW + 500) {
            log.push(i as f64);
        }
        assert_eq!(log.total(), (LATENCY_WINDOW + 500) as u64);
        let window = log.window_samples();
        assert_eq!(window.len(), LATENCY_WINDOW);
        // The oldest 500 samples were overwritten.
        assert!(window.iter().all(|&v| v >= 500.0));
    }

    #[test]
    fn empty_quantiles_are_zero() {
        assert_eq!(LatencyLog::new(16).quantiles(), Quantiles::ZERO);
        assert_eq!(Quantiles::of(Vec::new()), Quantiles::ZERO);
    }
}
