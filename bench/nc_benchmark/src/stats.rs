//! The benchmark's statistics: one nearest-rank percentile, the "at least ten samples
//! beyond" rule, slice medians with quartiles, and span self time.
//!
//! The percentile is `nc_serve::nearest_rank`'s definition (rank `ceil(q·n)`, 1-based),
//! restated here because `figure7d` carries a second one (`round((n-1)·q)`) and the
//! benchmark must not depend on which of the two a later clean-up keeps.

use std::ops::Range;

/// Slices a measured phase is cut into, when it holds enough samples for that many.
pub const MAX_SLICES: usize = 10;

/// Samples that must lie beyond a percentile's rank before the percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending-sorted, non-empty sample: the smallest value
/// whose 1-based rank is at least `q · n`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether a sample of `n` values has at least [`MIN_BEYOND`] of them beyond the
/// nearest-rank position of quantile `q` — the support a reported percentile needs.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Sorts a sample ascending (IEEE total order, so a stray NaN cannot panic the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median and quartiles (all nearest-rank) of a set of per-slice values, with the number
/// of slices and of underlying samples they summarise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over slices — the reported value.
    pub median: f64,
    /// First quartile over slices.
    pub q1: f64,
    /// Third quartile over slices.
    pub q3: f64,
    /// Slices summarised.
    pub slices: usize,
    /// Samples underneath all slices together.
    pub samples: usize,
    /// Whether every slice held enough samples for the percentile taken in it.
    pub supported: bool,
}

impl Summary {
    /// The same summary with every value multiplied by `by`.
    pub fn scaled(&self, by: f64) -> Summary {
        Summary {
            median: self.median * by,
            q1: self.q1 * by,
            q3: self.q3 * by,
            ..*self
        }
    }

    /// Summarises per-slice values.
    pub fn of(per_slice: Vec<f64>, samples: usize, supported: bool) -> Summary {
        let v = sorted(per_slice);
        Summary {
            median: nearest_rank(&v, 0.5),
            q1: nearest_rank(&v, 0.25),
            q3: nearest_rank(&v, 0.75),
            slices: v.len(),
            samples,
            supported,
        }
    }
}

/// Cuts `passes` consecutive passes into `slices` groups of equal length, using the
/// first `slices · (passes / slices)` passes (a trailing remainder is left out so every
/// slice measures the same work).
pub fn slice_bounds(passes: usize, slices: usize) -> Vec<Range<usize>> {
    let per = passes / slices.max(1);
    (0..slices.max(1))
        .map(|s| s * per..(s + 1) * per)
        .filter(|r| !r.is_empty())
        .collect()
}

/// The largest slice count (at most [`MAX_SLICES`]) at which every slice of
/// `passes` passes × `per_pass` samples still supports quantile `q`; 1 when even the
/// whole phase does not.
pub fn slices_for(passes: usize, per_pass: usize, q: f64) -> usize {
    (1..=MAX_SLICES.min(passes.max(1)))
        .rev()
        .find(|&k| supports((passes / k) * per_pass, q))
        .unwrap_or(1)
}

/// A latency percentile over a measured phase made of equal passes: the phase is cut
/// into as many slices as still support `q`, the nearest-rank `q` is taken inside each
/// slice, and the slices are summarised by median and quartiles.
pub fn sliced_quantile(passes: &[Vec<f64>], q: f64) -> Summary {
    assert!(!passes.is_empty(), "a measured phase has at least one pass");
    let per_pass = passes.iter().map(Vec::len).min().unwrap_or(0);
    let k = slices_for(passes.len(), per_pass, q);
    let mut samples = 0;
    let mut supported = true;
    let per_slice = slice_bounds(passes.len(), k)
        .into_iter()
        .map(|r| {
            let pool = sorted(passes[r].iter().flatten().copied().collect());
            samples += pool.len();
            supported &= supports(pool.len(), q);
            nearest_rank(&pool, q)
        })
        .collect();
    Summary::of(per_slice, samples, supported)
}

/// A rate over a measured phase made of equal passes, each `(operations, seconds)`:
/// operations ÷ seconds per slice, summarised over [`MAX_SLICES`] slices (or one per
/// pass when there are fewer passes).
pub fn sliced_rate(passes: &[(f64, f64)]) -> Summary {
    assert!(!passes.is_empty(), "a measured phase has at least one pass");
    let k = MAX_SLICES.min(passes.len());
    let mut samples = 0.0;
    let per_slice = slice_bounds(passes.len(), k)
        .into_iter()
        .map(|r| {
            let (ops, secs) = passes[r]
                .iter()
                .fold((0.0, 0.0), |(o, s), (po, ps)| (o + po, s + ps));
            samples += ops;
            ops / secs.max(1e-12)
        })
        .collect();
    Summary::of(per_slice, samples as usize, true)
}

/// One closed interval of a trace, as self-time accounting sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Unique id (non-zero).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
}

/// Self time of every span, in input order: its duration minus the part of its interval
/// that its direct children cover (overlapping siblings are counted once, and a child
/// is clipped to its parent).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u64, (u64, u64)> = spans.iter().map(|s| (s.id, (s.start, s.end))).collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (lo, hi) = (s.start.max(ps), s.end.min(pe));
            if lo < hi {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_on_small_and_large_windows() {
        // 1 sample: every quantile of itself.
        assert_eq!(nearest_rank(&ramp(1), 0.5), 1.0);
        assert_eq!(nearest_rank(&ramp(1), 0.95), 1.0);
        // 2 samples: p50 is the smaller (rank ceil(1.0) = 1), p95 the larger.
        assert_eq!(nearest_rank(&ramp(2), 0.5), 1.0);
        assert_eq!(nearest_rank(&ramp(2), 0.95), 2.0);
        // 19 / 20 samples: p95 rank is ceil(18.05) = 19 and ceil(19.0) = 19.
        assert_eq!(nearest_rank(&ramp(19), 0.5), 10.0);
        assert_eq!(nearest_rank(&ramp(19), 0.95), 19.0);
        assert_eq!(nearest_rank(&ramp(20), 0.5), 10.0);
        assert_eq!(nearest_rank(&ramp(20), 0.95), 19.0);
        // 200 samples: rank 100 and rank 190.
        assert_eq!(nearest_rank(&ramp(200), 0.5), 100.0);
        assert_eq!(nearest_rank(&ramp(200), 0.95), 190.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p50 needs 20 samples (rank 10, 10 beyond); 19 leave only 9 beyond.
        for (n, p50, p95) in [
            (1, false, false),
            (2, false, false),
            (19, false, false),
            (20, true, false),
            (199, true, false),
            (200, true, true),
        ] {
            assert_eq!(supports(n, 0.5), p50, "p50 over {n}");
            assert_eq!(supports(n, 0.95), p95, "p95 over {n}");
        }
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn slice_count_follows_support() {
        // 40 passes × 50 samples: ten slices of 200 support p95.
        assert_eq!(slices_for(40, 50, 0.95), 10);
        // 6 passes × 40 samples = 240: only the whole phase supports p95.
        assert_eq!(slices_for(6, 40, 0.95), 1);
        // ... while p50 is supported by each single pass.
        assert_eq!(slices_for(6, 40, 0.5), 6);
        // Too few samples altogether still yields one (unsupported) slice.
        assert_eq!(slices_for(3, 2, 0.95), 1);
        assert_eq!(
            slice_bounds(23, 10),
            (0..10).map(|s| s * 2..s * 2 + 2).collect::<Vec<_>>()
        );
        assert_eq!(slice_bounds(3, 10).len(), 0);
    }

    #[test]
    fn sliced_quantile_takes_the_median_over_slices() {
        // 20 passes of 100 samples; pass p holds the values p·1000 + 1..=100.
        let passes: Vec<Vec<f64>> = (0..20)
            .map(|p| ramp(100).iter().map(|v| v + 1000.0 * p as f64).collect())
            .collect();
        let s = sliced_quantile(&passes, 0.5);
        assert_eq!((s.slices, s.samples, s.supported), (10, 2000, true));
        // Slice k pools passes 2k and 2k+1: its p50 is the 100th of 200 = 2k·1000+100.
        assert_eq!(s.median, 8100.0);
        assert_eq!((s.q1, s.q3), (4100.0, 14100.0));
        // One noisy slice does not move the median.
        let mut noisy = passes.clone();
        for v in noisy[18..].iter_mut().flatten() {
            *v *= 50.0;
        }
        assert_eq!(sliced_quantile(&noisy, 0.5).median, 8100.0);
        // A phase too short for the percentile is summarised as one unsupported slice.
        let short = sliced_quantile(&passes[..1], 0.95);
        assert_eq!((short.slices, short.supported), (1, false));
    }

    #[test]
    fn sliced_rate_is_operations_over_seconds_per_slice() {
        let passes: Vec<(f64, f64)> = (0..20)
            .map(|p| (100.0, if p < 10 { 1.0 } else { 2.0 }))
            .collect();
        let s = sliced_rate(&passes);
        assert_eq!((s.slices, s.samples), (10, 2000));
        assert_eq!((s.q1, s.median, s.q3), (50.0, 50.0, 100.0));
        assert_eq!(sliced_rate(&passes[..3]).slices, 3);
    }

    #[test]
    fn self_time_of_nested_and_sibling_spans() {
        let iv = |id, parent, start, end| Interval {
            id,
            parent,
            start,
            end,
        };
        let spans = [
            iv(1, 0, 0, 100),  // root
            iv(2, 1, 10, 40),  // child
            iv(3, 2, 20, 30),  // grandchild: charged to 2, not to 1
            iv(4, 1, 50, 70),  // sibling
            iv(5, 1, 60, 90),  // overlapping sibling: 60..70 counted once
            iv(6, 1, 95, 120), // runs past its parent: clipped to 95..100
            iv(7, 99, 0, 5),   // parent not in the trace: a root of its own
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 10, 20, 30, 25, 5]);
    }
}
