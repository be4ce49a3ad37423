//! The measured phase shared by the serving workloads: closed-loop clients, each running
//! its plans pass after pass until told to stop, and the per-pass logs the end-to-end
//! timings are taken from.
//!
//! A *plan* is the group of estimate requests an optimizer issues for one query and
//! waits on: all connected sub-joins in `plan_burst`, the query alone where a workload
//! asks for one estimate at a time.  A *pass* is one run over a client's whole plan
//! list, so every pass measures the same work and passes can be grouped into slices.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use nc_schema::Query;
use nc_serve::{ModelSelector, ServeClient, ServeRequest};
use neurocard::{EstimatorCore, Precision, SamplerScratch};

use crate::refclock::{self, Reading};
use crate::stats::{self, Summary};
use crate::{layers, measure, trace};

/// One reply as the checker needs it: which request, what came back, from which version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Index of the request in the workload's flat request list.
    pub request: usize,
    /// The estimate's raw bits (NaN-safe comparison).
    pub bits: u64,
    /// The model version that answered (1 for direct calls).
    pub version: u64,
    /// Completion time on the trace clock, nanoseconds.
    pub at: u64,
}

/// What one client saw during one pass over its plans.
#[derive(Debug, Default, Clone)]
pub struct PassLog {
    /// First send → last reply of each plan, milliseconds.
    pub plan_ms: Vec<f64>,
    /// Send → reply of each estimate, milliseconds.
    pub estimate_ms: Vec<f64>,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Every reply, for the correctness check.
    pub answers: Vec<Answer>,
    /// Requests that came back as errors or refusals.
    pub errors: u64,
    /// Seconds of the pass this client spent running the reference clock.
    pub ref_s: f64,
    /// How much slower than nominal the reference clock ran during the pass.
    pub factor: f64,
}

/// One plan as a client executes it: flat request indices and the requests themselves.
#[derive(Debug, Clone)]
pub struct PlanRequests {
    /// Plan id (spans of one plan share it).
    pub id: u64,
    /// `(index into the flat request list, query)` per sub-plan.
    pub requests: Vec<(usize, Query)>,
}

/// Something that can run one plan and log what it saw.
pub trait Executor: Send {
    /// Issues every request of `plan`, waits for every reply, logs latencies and answers.
    fn run_plan(&mut self, plan: &PlanRequests, log: &mut PassLog);
}

/// Pipelined requests over one TCP connection: all sends, then all receives.
pub struct WireExecutor {
    client: ServeClient,
    selector: ModelSelector,
    samples: usize,
    sent_at: Vec<Instant>,
    frames: Vec<ServeRequest>,
}

impl WireExecutor {
    /// Connects to the server at `addr`.
    pub fn new(addr: std::net::SocketAddr, selector: ModelSelector, samples: usize) -> Self {
        WireExecutor {
            client: layers::connect(addr),
            selector,
            samples,
            sent_at: Vec::new(),
            frames: Vec::new(),
        }
    }
}

impl Executor for WireExecutor {
    fn run_plan(&mut self, plan: &PlanRequests, log: &mut PassLog) {
        let _plan = trace::span("plan", plan.id);
        self.frames.clear();
        self.frames.extend(
            plan.requests
                .iter()
                .map(|(_, q)| layers::request(&self.selector, q, self.samples)),
        );
        self.sent_at.clear();
        let started = Instant::now();
        for (frame, (request, _)) in self.frames.iter().zip(&plan.requests) {
            self.sent_at.push(Instant::now());
            if layers::send(&mut self.client, frame, *request as u64).is_err() {
                log.errors += 1;
            }
        }
        for ((request, _), sent) in plan.requests.iter().zip(&self.sent_at) {
            match layers::recv(&mut self.client, *request as u64) {
                Ok(reply) if !reply.degraded => {
                    log.estimate_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    log.answers.push(Answer {
                        request: *request,
                        bits: reply.estimate.to_bits(),
                        version: reply.key.version,
                        at: trace::now(),
                    });
                }
                _ => log.errors += 1,
            }
        }
        log.plan_ms.push(started.elapsed().as_secs_f64() * 1e3);
        log.ref_s += refclock::tick_if_due();
    }
}

/// Direct calls into one core from the caller's thread, one reused scratch.
pub struct DirectExecutor {
    core: Arc<EstimatorCore>,
    samples: usize,
    scratch: SamplerScratch,
}

impl DirectExecutor {
    /// An executor over `core`.
    pub fn new(core: Arc<EstimatorCore>, samples: usize) -> Self {
        DirectExecutor {
            core,
            samples,
            scratch: layers::scratch(),
        }
    }
}

/// Runs a plan one request at a time: `answer` gives `(estimate bits, version)` of one
/// request, or `None` when it failed.
fn run_sequentially(
    plan: &PlanRequests,
    log: &mut PassLog,
    mut answer: impl FnMut(usize, &Query) -> Option<(u64, u64)>,
) {
    let _plan = trace::span("plan", plan.id);
    let started = Instant::now();
    for (request, query) in &plan.requests {
        let sent = Instant::now();
        match answer(*request, query) {
            Some((bits, version)) => {
                log.estimate_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                log.answers.push(Answer {
                    request: *request,
                    bits,
                    version,
                    at: trace::now(),
                });
            }
            None => log.errors += 1,
        }
    }
    log.plan_ms.push(started.elapsed().as_secs_f64() * 1e3);
    log.ref_s += refclock::tick_if_due();
}

impl Executor for DirectExecutor {
    fn run_plan(&mut self, plan: &PlanRequests, log: &mut PassLog) {
        run_sequentially(plan, log, |request, query| {
            layers::estimate(
                &self.core,
                query,
                self.samples,
                &mut self.scratch,
                Precision::Exact,
                request as u64,
            )
            .ok()
            .map(|estimate| (estimate.to_bits(), 1))
        });
    }
}

/// One request at a time through a registry on the caller's thread (follows swaps).
pub struct RegistryExecutor {
    registry: Arc<nc_serve::ModelRegistry>,
    selector: ModelSelector,
    samples: usize,
    scratch: SamplerScratch,
}

impl RegistryExecutor {
    /// An executor routing through `registry`.
    pub fn new(
        registry: Arc<nc_serve::ModelRegistry>,
        selector: ModelSelector,
        samples: usize,
    ) -> Self {
        RegistryExecutor {
            registry,
            selector,
            samples,
            scratch: layers::scratch(),
        }
    }
}

impl Executor for RegistryExecutor {
    fn run_plan(&mut self, plan: &PlanRequests, log: &mut PassLog) {
        run_sequentially(plan, log, |request, query| {
            let frame = layers::request(&self.selector, query, self.samples);
            layers::registry_handle(&self.registry, &frame, &mut self.scratch, request as u64)
                .ok()
                .filter(|reply| !reply.degraded)
                .map(|reply| (reply.estimate.to_bits(), reply.key.version))
        });
    }
}

/// Shortest interval a pass's reference factor is read over.
const FACTOR_WINDOW_NS: u64 = 500_000_000;

/// Everything the clients logged during one measured phase.
pub struct PhaseLog {
    /// Complete passes per client.
    pub clients: Vec<Vec<PassLog>>,
    /// The pass each client was in when told to stop (checked, not timed).
    pub partial: Vec<PassLog>,
    /// Wall seconds from the start barrier to the last client finishing.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) over the same interval.
    pub cpu_s: f64,
    /// What the reference clock read over the same interval.
    pub reference: Reading,
}

/// Runs one measured phase: every client warms up with one pass, all start together,
/// and each repeats passes over its plans until `until` returns (the caller decides how
/// long the phase lasts; it is handed a probe for the highest model version any client
/// has been answered by so far); a pass cut short by the stop is kept apart from the
/// timed ones.
pub fn run_clients(
    mut executors: Vec<Box<dyn Executor>>,
    plans: &[Vec<PlanRequests>],
    until: impl FnOnce(&dyn Fn() -> u64),
) -> PhaseLog {
    assert_eq!(executors.len(), plans.len());
    let stop = AtomicBool::new(false);
    let newest = AtomicU64::new(0);
    let start = Barrier::new(executors.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = executors
            .iter_mut()
            .zip(plans)
            .map(|(executor, plans)| {
                let (stop, start, newest) = (&stop, &start, &newest);
                scope.spawn(move || {
                    let mut warm = PassLog::default();
                    for plan in plans {
                        executor.run_plan(plan, &mut warm);
                    }
                    start.wait();
                    let mut passes = Vec::new();
                    loop {
                        let mut log = PassLog::default();
                        let (began, from) = (Instant::now(), trace::now());
                        for plan in plans {
                            if stop.load(Ordering::Relaxed) {
                                return (passes, log);
                            }
                            executor.run_plan(plan, &mut log);
                            if let Some(answer) = log.answers.last() {
                                newest.fetch_max(answer.version, Ordering::Relaxed);
                            }
                        }
                        log.wall_s = began.elapsed().as_secs_f64();
                        // A short pass holds too few ticks of its own: read the clock
                        // over at least the half second that ends with the pass.
                        let to = trace::now();
                        log.factor =
                            refclock::reading(from.min(to.saturating_sub(FACTOR_WINDOW_NS)), to)
                                .factor;
                        passes.push(log);
                    }
                })
            })
            .collect();
        start.wait();
        let (began, cpu, from) = (Instant::now(), measure::cpu_seconds(), trace::now());
        until(&|| newest.load(Ordering::Relaxed));
        stop.store(true, Ordering::Relaxed);
        let (clients, partial) = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip();
        PhaseLog {
            clients,
            partial,
            wall_s: began.elapsed().as_secs_f64(),
            cpu_s: measure::cpu_seconds() - cpu,
            reference: refclock::reading(from, trace::now()),
        }
    })
}

/// The timings of a phase, each a median over slices.
pub struct PhaseTimings {
    /// Plan latency p50, ms.
    pub plan_p50_ms: Summary,
    /// Plan latency p95, ms.
    pub plan_p95_ms: Summary,
    /// Completed plans per second, all clients.
    pub plans_per_s: Summary,
    /// Estimate latency p50, ms.
    pub estimate_p50_ms: Summary,
    /// Estimate latency p95, ms.
    pub estimate_p95_ms: Summary,
    /// Completed estimates per second, all clients.
    pub estimates_per_s: Summary,
    /// Process CPU milliseconds per completed estimate over the whole phase.
    pub cpu_ms_per_estimate: f64,
    /// Estimates completed (timed passes and cut-short ones).
    pub estimates: u64,
}

impl PhaseLog {
    /// Pools the clients' i-th passes (every client ran at least `passes()` of them).
    fn pooled<T>(&self, pick: impl Fn(&PassLog) -> T) -> Vec<Vec<T>> {
        (0..self.passes())
            .map(|i| self.clients.iter().map(|c| pick(&c[i])).collect())
            .collect()
    }

    /// Complete passes every client finished.
    pub fn passes(&self) -> usize {
        self.clients.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Every pass log, timed or cut short.
    pub fn all(&self) -> impl Iterator<Item = &PassLog> {
        self.clients.iter().flatten().chain(&self.partial)
    }

    /// Requests that failed outright.
    pub fn errors(&self) -> u64 {
        self.all().map(|p| p.errors).sum()
    }

    /// The phase's timings at reference speed and as measured, in that order.
    pub fn both_timings(&self) -> Option<(PhaseTimings, PhaseTimings)> {
        self.timings(true).zip(self.timings(false))
    }

    /// Summarises the phase — as measured, or `at_reference` speed: each pass's
    /// durations divided by how much slower than nominal the reference clock ran during
    /// that pass.  `None` when the phase was too short for one complete pass.
    pub fn timings(&self, at_reference: bool) -> Option<PhaseTimings> {
        if self.passes() == 0 {
            return None;
        }
        let factor = |p: &PassLog| if at_reference { p.factor } else { 1.0 };
        let flat = |pick: fn(&PassLog) -> &Vec<f64>| -> Vec<Vec<f64>> {
            self.pooled(|p| {
                pick(p)
                    .iter()
                    .map(|ms| ms / factor(p))
                    .collect::<Vec<f64>>()
            })
            .into_iter()
            .map(|per_client| per_client.into_iter().flatten().collect())
            .collect()
        };
        let rate = |count: fn(&PassLog) -> usize| -> Summary {
            let passes: Vec<(f64, f64)> = self
                .pooled(|p| (count(p) as f64, (p.wall_s - p.ref_s) / factor(p)))
                .into_iter()
                .map(|per_client| {
                    let ops: f64 = per_client.iter().map(|(o, _)| o).sum();
                    let wall: f64 = per_client.iter().map(|(_, s)| s).sum();
                    (ops, wall / per_client.len() as f64)
                })
                .collect();
            stats::sliced_rate(&passes)
        };
        let (plans, estimates) = (flat(|p| &p.plan_ms), flat(|p| &p.estimate_ms));
        let completed: u64 = self.all().map(|p| p.estimate_ms.len() as u64).sum();
        Some(PhaseTimings {
            plan_p50_ms: stats::sliced_quantile(&plans, 0.5),
            plan_p95_ms: stats::sliced_quantile(&plans, 0.95),
            plans_per_s: rate(|p| p.plan_ms.len()),
            estimate_p50_ms: stats::sliced_quantile(&estimates, 0.5),
            estimate_p95_ms: stats::sliced_quantile(&estimates, 0.95),
            estimates_per_s: rate(|p| p.estimate_ms.len()),
            cpu_ms_per_estimate: (self.cpu_s - self.reference.spent_s).max(0.0) * 1e3
                / completed.max(1) as f64
                / if at_reference {
                    self.reference.factor
                } else {
                    1.0
                },
            estimates: completed,
        })
    }
}

/// Deals `plans` (already in seeded order) round-robin to `clients` clients.
pub fn deal(plans: Vec<PlanRequests>, clients: usize) -> Vec<Vec<PlanRequests>> {
    let mut hands = vec![Vec::new(); clients];
    for (i, plan) in plans.into_iter().enumerate() {
        hands[i % clients].push(plan);
    }
    hands
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(latency_ms: f64, n: usize, wall_s: f64, ref_s: f64, factor: f64) -> PassLog {
        PassLog {
            plan_ms: vec![latency_ms; n],
            estimate_ms: vec![latency_ms; n],
            wall_s,
            ref_s,
            factor,
            ..PassLog::default()
        }
    }

    fn phase(clients: Vec<Vec<PassLog>>) -> PhaseLog {
        PhaseLog {
            partial: vec![PassLog::default(); clients.len()],
            clients,
            wall_s: 4.0,
            cpu_s: 2.2,
            reference: Reading {
                factor: 2.0,
                ticks: 10,
                spent_s: 0.2,
            },
        }
    }

    #[test]
    fn timings_pool_clients_and_scale_by_each_pass_factor() {
        // Two clients, two passes each of 20 estimates; the machine ran at half speed
        // (factor 2) during the second pass, where everything took twice as long.
        let client = || vec![pass(1.0, 20, 1.1, 0.1, 1.0), pass(2.0, 20, 2.1, 0.1, 2.0)];
        let log = phase(vec![client(), client()]);
        assert_eq!(log.passes(), 2);
        let raw = log.timings(false).expect("two complete passes");
        // As measured: per-pass slices of 40 pooled samples, nearest-rank median over 2.
        assert_eq!(
            (raw.estimate_p50_ms.slices, raw.estimate_p50_ms.median),
            (2, 1.0)
        );
        assert_eq!(raw.estimate_p50_ms.q3, 2.0);
        // Rates leave the reference clock's own time out: 40 ÷ 1.0 s and 40 ÷ 2.0 s.
        assert_eq!(
            (raw.estimates_per_s.q1, raw.estimates_per_s.q3),
            (20.0, 40.0)
        );
        assert_eq!(raw.estimates, 80);
        // CPU: 2.2 s less the 0.2 s the ticks took, over 80 estimates.
        assert!((raw.cpu_ms_per_estimate - 25.0).abs() < 1e-9);
        // At reference speed both passes read the same.
        let at = log.timings(true).expect("two complete passes");
        assert_eq!((at.estimate_p50_ms.q1, at.estimate_p50_ms.q3), (1.0, 1.0));
        assert_eq!((at.plans_per_s.q1, at.plans_per_s.q3), (40.0, 40.0));
        assert!((at.cpu_ms_per_estimate - 12.5).abs() < 1e-9);
        // 20 samples per pass cannot carry a p95 (it needs 200 per slice).
        assert!(!at.estimate_p95_ms.supported);
    }

    #[test]
    fn a_phase_without_a_complete_pass_has_no_timings() {
        let log = phase(vec![vec![pass(1.0, 20, 1.0, 0.0, 1.0)], vec![]]);
        assert_eq!(log.passes(), 0);
        assert!(log.timings(true).is_none());
    }

    #[test]
    fn plans_are_dealt_round_robin() {
        let plans: Vec<PlanRequests> = (0..5)
            .map(|id| PlanRequests {
                id,
                requests: Vec::new(),
            })
            .collect();
        let hands = deal(plans, 2);
        let ids = |hand: &Vec<PlanRequests>| hand.iter().map(|p| p.id).collect::<Vec<_>>();
        assert_eq!(
            (ids(&hands[0]), ids(&hands[1])),
            (vec![0, 2, 4], vec![1, 3])
        );
    }
}
