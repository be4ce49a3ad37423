//! The reference clock: how fast this machine is running *right now*.
//!
//! The sandbox this benchmark runs in executes one and the same instruction stream at
//! speeds that differ by ±25 % over seconds to minutes (a busy host, not the program).
//! No statistic inside a 20 s run repairs that: whole runs land in a slow or a fast
//! stretch.  So the measuring threads also time a small fixed loop that belongs to the
//! benchmark — never to the system under test — interleaved with the measured work, and
//! every end-to-end timing is reported *at reference speed*: scaled by how much slower
//! or faster than [`NOMINAL_NS`] that loop ran during the interval being timed.  A change
//! to the system cannot move the loop, so it cannot move the scale; a slow stretch of
//! the host moves both and cancels.  Raw values and factors are kept in the run record.

use std::cell::Cell;
use std::sync::Mutex;

use crate::{stats, trace};

/// Time the reference loop takes on this class of machine when nothing disturbs it much
/// (the median of several minutes of samples on the 2-vCPU Xeon @ 2.10 GHz sandbox the
/// baseline was recorded on).  It only fixes the scale the normalised timings are read
/// in; every comparison between two runs is independent of it.
pub const NOMINAL_NS: f64 = 450_000.0;

/// A thread runs the loop at most this often, which bounds its cost at ~5 % of a core.
const MIN_GAP_NS: u64 = 10_000_000;

const ROUNDS: usize = 1_000;
const LANES: usize = 4_096;

/// `(finished at, took)` of every run of the loop, both in nanoseconds (trace clock).
static TICKS: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());

thread_local! {
    static LAST: Cell<u64> = const { Cell::new(0) };
}

/// The fixed loop: a multiply-add sweep over 16 KiB of `f32`, the instruction mix the
/// system's own kernels are made of, small enough to stay in the first-level cache.
fn reference_loop() -> f32 {
    let mut lanes = [1.0f32; LANES];
    let mut acc = 0.0f32;
    for round in 0..ROUNDS {
        let k = 1.0 + round as f32 * 1e-7;
        for v in lanes.iter_mut() {
            *v = *v * k + 0.5;
        }
        acc += lanes[round % LANES];
    }
    acc
}

/// Runs the reference loop once and logs how long it took; returns that time in seconds
/// (the caller subtracts it from whatever wall time it is accumulating).
pub fn tick() -> f64 {
    let from = trace::now();
    std::hint::black_box(reference_loop());
    let at = trace::now();
    LAST.with(|last| last.set(at));
    TICKS
        .lock()
        .expect("the tick log is only pushed to")
        .push((at, at - from));
    (at - from) as f64 / 1e9
}

/// [`tick`], unless this thread ticked within the last [`MIN_GAP_NS`]; returns the
/// seconds spent (0 when it did not run).
pub fn tick_if_due() -> f64 {
    if trace::now().saturating_sub(LAST.with(Cell::get)) < MIN_GAP_NS {
        return 0.0;
    }
    tick()
}

/// What the reference clock read over one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Median time of the loop in the interval ÷ [`NOMINAL_NS`]: above 1 the machine ran
    /// slow.  1 when the interval holds no tick.
    pub factor: f64,
    /// Ticks in the interval.
    pub ticks: usize,
    /// Seconds the ticks themselves took.
    pub spent_s: f64,
}

fn reading_of(ticks: &[(u64, u64)], from: u64, to: u64) -> Reading {
    let took: Vec<f64> = ticks
        .iter()
        .filter(|(at, _)| from <= *at && *at <= to)
        .map(|(_, took)| *took as f64)
        .collect();
    Reading {
        ticks: took.len(),
        spent_s: took.iter().sum::<f64>() / 1e9,
        factor: if took.is_empty() {
            1.0
        } else {
            stats::nearest_rank(&stats::sorted(took), 0.5) / NOMINAL_NS
        },
    }
}

/// The reading over `[from, to]` (trace clock, nanoseconds).
pub fn reading(from: u64, to: u64) -> Reading {
    reading_of(
        &TICKS.lock().expect("the tick log is only pushed to"),
        from,
        to,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_is_the_median_tick_over_the_interval() {
        let nominal = NOMINAL_NS as u64;
        let ticks = [
            (10, nominal),
            (20, 2 * nominal),
            (30, 3 * nominal),
            (99, 50 * nominal),
        ];
        let r = reading_of(&ticks, 10, 30);
        assert_eq!((r.ticks, r.factor), (3, 2.0));
        assert!((r.spent_s - 6.0 * NOMINAL_NS / 1e9).abs() < 1e-12);
        // No tick in the interval: the timing is left as measured.
        assert_eq!(
            reading_of(&ticks, 40, 50),
            Reading {
                factor: 1.0,
                ticks: 0,
                spent_s: 0.0
            }
        );
    }

    #[test]
    fn a_tick_is_logged_and_rate_limited() {
        let before = trace::now();
        let spent = tick();
        assert!(spent > 0.0);
        assert_eq!(tick_if_due(), 0.0, "this thread ticked a moment ago");
        let r = reading(before, trace::now());
        assert!(r.ticks >= 1 && r.factor > 0.0);
    }
}
