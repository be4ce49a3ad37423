//! Benchmark-side tracing: a span around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's own files only (spans inside the program are
//! ROADMAP open item 3): name, start, end, the span that caused it, and the request or
//! plan id they share.  They are kept in memory and written out as JSON lines when the
//! workload ends.  With tracing off a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::{self, Interval};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (non-zero).
    pub id: u64,
    /// The span that was open on this thread when this one started; 0 for a root.
    pub parent: u64,
    /// `layer.module.call`, or a benchmark-side grouping such as `plan`.
    pub name: &'static str,
    /// Request / plan / step id shared by the spans of one operation (0 = none).
    pub op: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start: u64,
    /// End, nanoseconds since the trace epoch.
    pub end: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the trace epoch (the first call).
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off (off at start).
pub fn enable(on: bool) {
    now();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct SpanGuard(Option<(u64, u64, &'static str, u64, u64)>);

/// Opens a span named `name` for operation `op`; its parent is the span currently open
/// on this thread.  A no-op while tracing is off.
pub fn span(name: &'static str, op: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    SpanGuard(Some((id, parent, name, op, now())))
}

impl SpanGuard {
    /// The span's id (0 while tracing is off), for naming it as a parent of spans
    /// recorded from timestamps.
    pub fn id(&self) -> u64 {
        self.0.map_or(0, |(id, ..)| id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((id, parent, name, op, start)) = self.0.take() {
            let end = now();
            OPEN.with(|open| open.borrow_mut().retain(|&o| o != id));
            push(Span {
                id,
                parent,
                name,
                op,
                start,
                end,
            });
        }
    }
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("no span is recorded while another record panics")
        .push(span);
}

/// Records a span from timestamps taken elsewhere (the pipeline's stage boundaries are
/// event callbacks, not calls the benchmark brackets).  Returns its id, so children can
/// name it as their parent.
pub fn record(name: &'static str, op: u64, parent: u64, start: u64, end: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent,
        name,
        op,
        start,
        end: end.max(start),
    });
    id
}

/// Takes every span recorded so far, ordered by start.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .expect("no span is recorded while another record panics"),
    );
    spans.sort_by_key(|s| (s.start, s.id));
    spans
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect()
}

/// Self times (µs) of every span called `name`: duration minus what its children cover.
pub fn self_us(spans: &[Span], name: &str) -> Vec<f64> {
    let intervals: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            id: s.id,
            parent: s.parent,
            start: s.start,
            end: s.end,
        })
        .collect();
    stats::self_times(&intervals)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(ns, _)| ns as f64 / 1e3)
        .collect()
}

/// Nearest-rank median of a sample, or `None` when it is empty.
pub fn median(values: Vec<f64>) -> Option<f64> {
    (!values.is_empty()).then(|| stats::nearest_rank(&stats::sorted(values), 0.5))
}

/// Writes spans as JSON lines: one object per span, times in nanoseconds.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.op, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_thread_and_self_time_excludes_children() {
        // Tracing state is process-wide; this is the only test that turns it on.
        enable(true);
        {
            let _outer = span("test.outer", 7);
            let _inner = span("test.inner", 7);
        }
        let child = std::thread::spawn(|| drop(span("test.other-thread", 8)));
        child.join().expect("span thread");
        enable(false);
        drop(span("test.off", 9));
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(
            spans.len(),
            3,
            "the span opened with tracing off is not recorded"
        );
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let (outer, inner, other) = (by("test.outer"), by("test.inner"), by("test.other-thread"));
        assert_eq!((outer.parent, inner.parent, other.parent), (0, outer.id, 0));
        assert_eq!((outer.op, other.op), (7, 8));
        let total = durations_us(&spans, "test.outer")[0];
        let own = self_us(&spans, "test.outer")[0];
        let inner_us = durations_us(&spans, "test.inner")[0];
        assert!((total - own - inner_us).abs() < 1e-6);
        assert_eq!(
            record("test.synth", 1, 0, 5, 3),
            0,
            "recording is off again"
        );
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![]), None);
    }
}
