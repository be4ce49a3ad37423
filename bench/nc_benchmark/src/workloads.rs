//! The four workloads.  Each runs in its own process: set-up, one measured phase, the
//! correctness checks, and — in the traced run — the layer probes.
//!
//! Every workload reports every end-to-end metric.  Where a workload's measured phase
//! does not produce a metric itself, the metric is the same quantity measured on that
//! workload's own model at its natural size there (see `bench/README.md`, "primary and
//! secondary cells"): a plan of a workload that asks for one estimate at a time is that
//! one estimate, `build_s` of a serving workload is its set-up build, and `update_s`
//! without a pipeline is artifact bytes handed over → first reply from the new version.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_pipeline::{PipelineEvent, UpdateBatch};
use nc_schema::Query;
use nc_serve::{ModelRegistry, ModelSelector};
use nc_storage::Database;
use neurocard::{EstimatorCore, Precision};
use serde::Json;

use crate::fixture::{self, Built, Fixture, Scale, FIXTURE_SEED};
use crate::gen::{self, DeltaSource};
use crate::layers::{self, Dataset};
use crate::phase::{
    self, Answer, DirectExecutor, Executor, PhaseLog, PhaseTimings, PlanRequests, WireExecutor,
};
use crate::refclock::{self, Reading};
use crate::stats::{self, Summary};
use crate::{measure, probes, trace};

/// The name every workload serves its model under.
pub const MODEL: &str = "neurocard";

/// What one invocation was asked to do.
pub struct Ctx {
    /// `--seed`: order and assignment of requests.
    pub seed: u64,
    /// Scale constants.
    pub scale: Scale,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where trace files and per-run records go.
    pub out: PathBuf,
}

/// `(name, value)` of every metric a run prints, in catalogue order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Everything else a run records: scale constants, quartiles, counts, values as measured.
pub type Detail = Vec<(String, Json)>;

/// The result of one invocation.
pub struct Outcome {
    /// Operations attempted (estimates, builds, swaps, update steps).
    pub attempted: u64,
    /// Operations that failed: errors, refusals, wrong answers, broken invariants.
    pub failed: u64,
    /// Every metric of the run's kind.
    pub metrics: Metrics,
    /// Everything else worth recording.
    pub detail: Detail,
}

/// Counts attempts and failures, remembering what failed.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failures (none when `n` is 0), remembering the first few.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// One attempted check that failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        self.fail(u64::from(!ok), what);
    }

    /// Closes a run: the counts, the metrics, and the detail with what failed appended.
    fn into_outcome(self, metrics: Metrics, mut detail: Detail) -> Outcome {
        detail.push((
            "failed_share".into(),
            num(self.failed as f64 / self.attempted.max(1) as f64),
        ));
        detail.push((
            "failures".into(),
            Json::Array(self.notes.into_iter().map(Json::Str).collect()),
        ));
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            detail,
        }
    }
}

fn num(v: f64) -> Json {
    Json::Float(v)
}

fn int(v: usize) -> Json {
    Json::UInt(v as u64)
}

fn summary_json(s: &Summary) -> Json {
    Json::Object(vec![
        ("median".into(), num(s.median)),
        ("q1".into(), num(s.q1)),
        ("q3".into(), num(s.q3)),
        ("slices".into(), int(s.slices)),
        ("samples".into(), int(s.samples)),
        ("supported".into(), Json::Bool(s.supported)),
    ])
}

const TOO_SHORT: &str = "the measured phase was too short for one complete pass";

fn sleep(seconds: f64) {
    std::thread::sleep(Duration::from_secs_f64(seconds.max(0.0)));
}

/// Single-request plans over `queries`, in an order seeded per client.
pub fn single_plans(queries: &[Query], seed: u64, clients: usize) -> Vec<Vec<PlanRequests>> {
    (0..clients)
        .map(|c| {
            gen::shuffled(queries.len(), seed ^ (c as u64).wrapping_mul(0x9E37_79B9))
                .into_iter()
                .map(|i| PlanRequests {
                    id: i as u64,
                    requests: vec![(i, queries[i].clone())],
                })
                .collect()
        })
        .collect()
}

/// A duration as measured, and at reference speed.
#[derive(Debug, Clone, Copy)]
pub struct AtReference {
    /// Seconds as measured.
    pub raw_s: f64,
    /// How much slower than nominal the reference clock ran meanwhile.
    pub factor: f64,
    /// Seconds at reference speed.
    pub value_s: f64,
}

impl AtReference {
    /// `raw_s`, less the `spent_s` the reference clock itself took out of it, divided by
    /// how much slower than nominal the clock ran.
    fn new(raw_s: f64, spent_s: f64, reading: Reading) -> Self {
        AtReference {
            raw_s,
            factor: reading.factor,
            value_s: (raw_s - spent_s).max(0.0) / reading.factor,
        }
    }

    fn json(&self) -> Json {
        Json::Object(vec![
            ("as_measured".into(), num(self.raw_s)),
            ("reference_factor".into(), num(self.factor)),
        ])
    }
}

/// Times set-up: everything before the first measured operation.
struct SetupClock(Instant, u64);

impl SetupClock {
    fn start() -> Self {
        SetupClock(Instant::now(), trace::now())
    }

    fn stop(self) -> AtReference {
        let reading = refclock::reading(self.1, trace::now());
        AtReference::new(self.0.elapsed().as_secs_f64(), reading.spent_s, reading)
    }
}

/// The end-to-end metrics of one workload, before they are flattened for printing.
struct EndToEnd {
    setup: AtReference,
    /// The phase's timings at reference speed, and as measured.
    timings: (PhaseTimings, PhaseTimings),
    phase: Reading,
    qerrors: Vec<f64>,
    built: Built,
    update: AtReference,
}

impl EndToEnd {
    fn into_outcome(self, tally: Tally, mut detail: Detail) -> Outcome {
        let q = stats::sorted(self.qerrors);
        let (t, raw) = &self.timings;
        let rate = self
            .built
            .train_tuples_per_s
            .scaled(self.built.reference.factor);
        let metrics = vec![
            ("setup_s", self.setup.value_s),
            ("plan_p50_ms", t.plan_p50_ms.median),
            ("plan_p95_ms", t.plan_p95_ms.median),
            ("plans_per_s", t.plans_per_s.median),
            ("estimate_p50_ms", t.estimate_p50_ms.median),
            ("estimate_p95_ms", t.estimate_p95_ms.median),
            ("estimates_per_s", t.estimates_per_s.median),
            ("cpu_ms_per_estimate", t.cpu_ms_per_estimate),
            ("qerror_p50", stats::nearest_rank(&q, 0.5)),
            ("qerror_p95", stats::nearest_rank(&q, 0.95)),
            ("build_s", self.built.build_s_at_reference()),
            ("train_tuples_per_s", rate.median),
            ("model_bytes", self.built.bytes.len() as f64),
            ("update_s", self.update.value_s),
            ("peak_rss_mb", measure::peak_rss_mb()),
        ];
        // The slice summaries are kept as measured, with the factor that was applied.
        for (name, s) in [
            ("plan_p50_ms", &raw.plan_p50_ms),
            ("plan_p95_ms", &raw.plan_p95_ms),
            ("plans_per_s", &raw.plans_per_s),
            ("estimate_p50_ms", &raw.estimate_p50_ms),
            ("estimate_p95_ms", &raw.estimate_p95_ms),
            ("estimates_per_s", &raw.estimates_per_s),
            ("train_tuples_per_s", &self.built.train_tuples_per_s),
        ] {
            detail.push((format!("as_measured.{name}"), summary_json(s)));
        }
        detail.push((
            "as_measured.cpu_ms_per_estimate".into(),
            num(raw.cpu_ms_per_estimate),
        ));
        detail.push(("as_measured.setup_s".into(), self.setup.json()));
        detail.push(("as_measured.update_s".into(), self.update.json()));
        detail.push(("as_measured.build_s".into(), num(self.built.build_s)));
        detail.push((
            "reference_clock".into(),
            Json::Object(vec![
                ("nominal_ns".into(), num(refclock::NOMINAL_NS)),
                ("phase_factor".into(), num(self.phase.factor)),
                ("phase_ticks".into(), int(self.phase.ticks)),
                ("build_factor".into(), num(self.built.reference.factor)),
                ("build_ticks".into(), int(self.built.reference.ticks)),
            ]),
        ));
        detail.push(("estimates".into(), Json::UInt(t.estimates)));
        detail.push(("qerror_queries".into(), int(q.len())));
        detail.push(("trained_tuples".into(), int(self.built.tuples)));
        tally.into_outcome(metrics, detail)
    }
}

/// Checks every logged answer: bit-identical to `expected(version, request)`, finite and
/// non-negative, and versions never decreasing within one client.
fn check_answers(log: &PhaseLog, tally: &mut Tally, mut expected: impl FnMut(u64, usize) -> u64) {
    tally.attempt(log.errors());
    tally.fail(log.errors(), || {
        format!("{} requests came back as errors or refusals", log.errors())
    });
    let per_client = log
        .clients
        .iter()
        .zip(&log.partial)
        .map(|(passes, partial)| passes.iter().chain(std::iter::once(partial)));
    for (client, passes) in per_client.enumerate() {
        let mut last_version = 0;
        for Answer {
            request,
            bits,
            version,
            ..
        } in passes.flat_map(|p| p.answers.iter().copied())
        {
            tally.attempt(1);
            let estimate = f64::from_bits(bits);
            let want = expected(version, request);
            tally.fail(u64::from(bits != want), || {
                format!(
                    "client {client} request {request} v{version}: served {estimate} but the direct core gives {}",
                    f64::from_bits(want)
                )
            });
            tally.fail(u64::from(!estimate.is_finite() || estimate < 0.0), || {
                format!("client {client} request {request}: estimate {estimate}")
            });
            tally.fail(u64::from(version < last_version), || {
                format!("client {client} saw version {version} after {last_version}")
            });
            last_version = last_version.max(version);
        }
    }
}

/// One pipelining TCP client per closed-loop connection.
fn wire_clients(
    addr: std::net::SocketAddr,
    selector: &ModelSelector,
    samples: usize,
) -> Vec<Box<dyn Executor>> {
    (0..fixture::clients())
        .map(|_| Box::new(WireExecutor::new(addr, selector.clone(), samples)) as Box<dyn Executor>)
        .collect()
}

/// Direct Exact-tier estimates of `queries` on `core`, with a fresh scratch.
fn direct_bits(core: &EstimatorCore, queries: &[Query], samples: usize) -> Vec<u64> {
    let mut scratch = layers::scratch();
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            layers::estimate(core, q, samples, &mut scratch, Precision::Exact, i as u64)
                .map_or(f64::NAN.to_bits(), f64::to_bits)
        })
        .collect()
}

fn qerrors(bits: &[u64], truths: &[f64]) -> Vec<f64> {
    bits.iter()
        .zip(truths)
        .map(|(b, t)| layers::q_error(f64::from_bits(*b), *t))
        .collect()
}

/// Rounds of the hot-swap measurement that stands in for `update_s` on a workload
/// without a pipeline.
const SWAP_ROUNDS: u64 = 11;

/// `update_s` without a pipeline: artifact bytes handed over → loaded → swapped in →
/// first reply carrying the new version.  Median of [`SWAP_ROUNDS`] rounds.
fn swap_update_s(
    registry: &ModelRegistry,
    fingerprint: u64,
    bytes: &[u8],
    tally: &mut Tally,
    mut first_reply: impl FnMut(u64) -> Option<u64>,
) -> AtReference {
    let mut rounds = Vec::new();
    let from = trace::now();
    for round in 0..SWAP_ROUNDS {
        refclock::tick();
        let handed = Instant::now();
        let core = layers::load_core(bytes);
        let (new, old) = layers::swap(registry, fingerprint, MODEL, core, round);
        let served = first_reply(round);
        rounds.push(handed.elapsed().as_secs_f64());
        let drained = layers::wait_drained(registry, &old, round);
        tally.check(served == Some(new.version) && drained, || {
            format!(
                "swap round {round}: first reply from {served:?}, expected v{}",
                new.version
            )
        });
    }
    let median = stats::nearest_rank(&stats::sorted(rounds), 0.5);
    AtReference::new(median, 0.0, refclock::reading(from, trace::now()))
}

/// A measured phase of `seconds`; the traced run instead alternates four blocks with
/// tracing off and on, and reports traced ÷ untraced estimates per second.
fn serve_phase(
    ctx: &Ctx,
    mut executors: impl FnMut() -> Vec<Box<dyn Executor>>,
    plans: &[Vec<PlanRequests>],
    seconds: f64,
) -> (PhaseLog, Option<(f64, f64)>) {
    if !ctx.trace {
        return (
            phase::run_clients(executors(), plans, |_| sleep(seconds)),
            None,
        );
    }
    let rate = |log: &PhaseLog| {
        log.all().map(|p| p.estimate_ms.len()).sum::<usize>() as f64 / log.wall_s.max(1e-9)
    };
    let (mut plain, mut traced, mut last) = (Vec::new(), Vec::new(), None);
    for block in 0..4 {
        trace::enable(block % 2 == 1);
        let log = phase::run_clients(executors(), plans, |_| sleep(seconds / 4.0));
        if block % 2 == 1 {
            &mut traced
        } else {
            &mut plain
        }
        .push(rate(&log));
        last = Some(log);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (
        last.expect("four blocks ran"),
        Some((mean(&traced), mean(&plain))),
    )
}

/// Finishes a traced run: probes every layer, writes the trace, prints layer metrics.
fn traced_outcome(
    workload: &str,
    probe: probes::Probe,
    overhead: (f64, f64),
    flow: Option<probes::UpdateFlow>,
    mut tally: Tally,
    mut detail: Detail,
) -> Outcome {
    trace::enable(true);
    let flow = flow.unwrap_or_else(|| probes::update_probe(&probe, &mut tally));
    let counters = probes::run_probes(&probe, &mut tally);
    trace::enable(false);
    let spans = trace::take();
    let (metrics, probe_detail) = probes::layer_metrics(&probe, &counters, &spans, &flow, overhead);
    let path = probe.out.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        tally.fail(1, || format!("writing {}: {e}", path.display()));
    }
    detail.extend(probe_detail);
    // Self time: what a grouping span spent outside the layer calls it made.
    for name in ["plan", "pipeline.step"] {
        if let Some(own) = trace::median(trace::self_us(&spans, name)) {
            detail.push((format!("self_us.{name}"), num(own)));
        }
    }
    detail.push(("spans".into(), int(spans.len())));
    tally.into_outcome(metrics, detail)
}

fn scale_detail(ctx: &Ctx, dataset: Dataset, extra: Vec<(&str, Json)>) -> Detail {
    let mut d = vec![
        ("fixture_seed".to_string(), Json::UInt(FIXTURE_SEED)),
        ("smoke".to_string(), Json::Bool(ctx.scale.smoke)),
        ("title_rows".to_string(), int(ctx.scale.title_rows(dataset))),
        ("queries".to_string(), int(ctx.scale.queries())),
        ("psamples".to_string(), int(ctx.scale.psamples(dataset))),
        ("clients".to_string(), int(fixture::clients())),
        ("workers".to_string(), int(fixture::nproc())),
    ];
    d.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    d
}

// ---- plan_burst ---------------------------------------------------------------------------

/// JOB-light served over TCP; each plan is one query expanded into all its connected
/// sub-joins, pipelined, timed first send → last reply.
pub fn plan_burst(ctx: &Ctx) -> Outcome {
    let clock = SetupClock::start();
    let dataset = Dataset::JobLight;
    let samples = ctx.scale.psamples(dataset);
    let fx = Fixture::new(dataset, ctx.scale.title_rows(dataset), ctx.scale.queries());
    let plans = gen::expand_plans(&fx.schema, &fx.queries);
    let requests: Vec<Query> = plans
        .iter()
        .flat_map(|p| p.subplans.iter().cloned())
        .collect();
    let truths = fx.truths(&fx.db, &requests);
    let built = fixture::build(&fx.db, &fx.schema, ctx.scale.setup_tuples(), samples);
    let core = layers::load_core(&built.bytes);
    let registry = layers::registry();
    layers::register(&registry, MODEL, core.clone());
    let server = layers::tcp_server(registry.clone(), fixture::nproc());
    let addr = layers::server_addr(&server);
    let fingerprint = layers::fingerprint(&fx.schema);
    let selector = layers::latest(fingerprint, MODEL);
    // The first set of connections is part of set-up; the traced run reconnects per block.
    let mut first = Some(wire_clients(addr, &selector, samples));
    let setup = clock.stop();

    // Plans in seeded order, dealt round-robin; request indices are positions in `requests`.
    let mut offsets = vec![0];
    for p in &plans {
        offsets.push(offsets[offsets.len() - 1] + p.subplans.len());
    }
    let ordered: Vec<PlanRequests> = gen::shuffled(plans.len(), ctx.seed)
        .into_iter()
        .map(|i| PlanRequests {
            id: plans[i].query as u64,
            requests: plans[i]
                .subplans
                .iter()
                .cloned()
                .enumerate()
                .map(|(k, q)| (offsets[i] + k, q))
                .collect(),
        })
        .collect();
    let hands = phase::deal(ordered, fixture::clients());
    let connect = || {
        first
            .take()
            .unwrap_or_else(|| wire_clients(addr, &selector, samples))
    };
    let (log, overhead) = serve_phase(ctx, connect, &hands, ctx.scale.seconds);
    let reactor = layers::server_stats(&server);

    let mut tally = Tally::default();
    let expected = direct_bits(&core, &requests, samples);
    check_answers(&log, &mut tally, |_, request| expected[request]);
    tally.check(reactor.overloaded == 0, || {
        format!("{} requests were shed", reactor.overloaded)
    });
    let mut client = layers::connect(addr);
    let probe_request = layers::request(&selector, &requests[0], samples);
    let update = swap_update_s(&registry, fingerprint, &built.bytes, &mut tally, |round| {
        let reply = layers::round_trip(&mut client, &probe_request, round).ok()?;
        (reply.estimate.to_bits() == expected[0]).then_some(reply.key.version)
    });
    drop(client);
    layers::server_shutdown(server);

    let detail = scale_detail(
        ctx,
        dataset,
        vec![
            ("setup_tuples", int(built.tuples)),
            ("plans", int(plans.len())),
            ("subplans", int(requests.len())),
            ("passes", int(log.passes())),
        ],
    );
    let Some(timings) = log.both_timings() else {
        return failed_outcome(tally, TOO_SHORT, detail);
    };
    if let Some(overhead) = overhead {
        let probe = probes::Probe {
            fx: &fx,
            built: &built,
            core: &core,
            requests: &requests,
            samples,
            out: &ctx.out,
            smoke: ctx.scale.smoke,
        };
        return traced_outcome("plan_burst", probe, overhead, None, tally, detail);
    }
    EndToEnd {
        setup,
        timings,
        phase: log.reference,
        qerrors: qerrors(&expected, &truths),
        built,
        update,
    }
    .into_outcome(tally, detail)
}

/// A run that could not produce its metrics: at least one failure, no metric.
fn failed_outcome(mut tally: Tally, why: &str, detail: Detail) -> Outcome {
    tally.check(false, || why.to_string());
    tally.into_outcome(Vec::new(), detail)
}

// ---- direct_m and build_light: direct calls on one thread -----------------------------------

/// What a workload that estimates by direct calls has ready when its set-up ends.
struct Prepared {
    fx: Fixture,
    truths: Vec<f64>,
    built: Built,
    setup: AtReference,
}

/// The shared tail of the two workloads that estimate by direct calls: `seconds` of
/// measured estimates on one thread with one reused scratch, checks, in-process hot swap.
fn direct_tail(
    ctx: &Ctx,
    workload: &str,
    prepared: Prepared,
    seconds: f64,
    mut detail: Detail,
) -> Outcome {
    let Prepared {
        fx,
        truths,
        built,
        setup,
    } = prepared;
    let fx = &fx;
    let samples = ctx.scale.psamples(fx.dataset);
    let core = layers::load_core(&built.bytes);
    let plans = single_plans(&fx.queries, ctx.seed, 1);
    let executors =
        || vec![Box::new(DirectExecutor::new(core.clone(), samples)) as Box<dyn Executor>];
    let (log, overhead) = serve_phase(ctx, executors, &plans, seconds);

    let mut tally = Tally::default();
    let expected = direct_bits(&core, &fx.queries, samples);
    check_answers(&log, &mut tally, |_, request| expected[request]);
    let registry = layers::registry();
    layers::register(&registry, MODEL, core.clone());
    let fingerprint = layers::fingerprint(&fx.schema);
    let probe_request =
        layers::request(&layers::latest(fingerprint, MODEL), &fx.queries[0], samples);
    let mut scratch = layers::scratch();
    let update = swap_update_s(&registry, fingerprint, &built.bytes, &mut tally, |round| {
        let reply = layers::registry_handle(&registry, &probe_request, &mut scratch, round).ok()?;
        (reply.estimate.to_bits() == expected[0]).then_some(reply.key.version)
    });

    detail.push(("passes".into(), int(log.passes())));
    let Some(timings) = log.both_timings() else {
        return failed_outcome(tally, TOO_SHORT, detail);
    };
    if let Some(overhead) = overhead {
        let probe = probes::Probe {
            fx,
            built: &built,
            core: &core,
            requests: &fx.queries,
            samples,
            out: &ctx.out,
            smoke: ctx.scale.smoke,
        };
        return traced_outcome(workload, probe, overhead, None, tally, detail);
    }
    EndToEnd {
        setup,
        timings,
        phase: log.reference,
        qerrors: qerrors(&expected, &truths),
        built,
        update,
    }
    .into_outcome(tally, detail)
}

/// JOB-M inference called directly from one thread: `nc-serve` is bypassed entirely.
pub fn direct_m(ctx: &Ctx) -> Outcome {
    let clock = SetupClock::start();
    let dataset = Dataset::JobM;
    let fx = Fixture::new(dataset, ctx.scale.title_rows(dataset), ctx.scale.queries());
    let truths = fx.truths(&fx.db, &fx.queries);
    let built = fixture::build(
        &fx.db,
        &fx.schema,
        ctx.scale.setup_tuples(),
        ctx.scale.psamples(dataset),
    );
    let setup = clock.stop();
    let detail = scale_detail(ctx, dataset, vec![("setup_tuples", int(built.tuples))]);
    direct_tail(
        ctx,
        "direct_m",
        Prepared {
            fx,
            truths,
            built,
            setup,
        },
        ctx.scale.seconds,
        detail,
    )
}

/// Seconds of direct estimates that give `build_light` its accuracy and its
/// estimate-latency cells (the build itself is the measured phase).
const EVAL_SECONDS: f64 = 5.0;

/// From the JOB-light `Database` to serving-ready artifact bytes, then the built
/// model's q-error against exact answers.
pub fn build_light(ctx: &Ctx) -> Outcome {
    let clock = SetupClock::start();
    let dataset = Dataset::JobLight;
    let fx = Fixture::new(dataset, ctx.scale.title_rows(dataset), ctx.scale.queries());
    let truths = fx.truths(&fx.db, &fx.queries);
    let setup = clock.stop();
    let built = fixture::build(
        &fx.db,
        &fx.schema,
        ctx.scale.build_tuples(),
        ctx.scale.psamples(dataset),
    );
    let detail = scale_detail(ctx, dataset, vec![("build_tuples", int(built.tuples))]);
    let eval = if ctx.scale.smoke { 0.2 } else { EVAL_SECONDS };
    direct_tail(
        ctx,
        "build_light",
        Prepared {
            fx,
            truths,
            built,
            setup,
        },
        eval,
        detail,
    )
}

// ---- update_serve ---------------------------------------------------------------------------

/// Share of the measured phase the readers run alone before the first batch arrives
/// (with the time after the last promotion, the quiet reference of
/// `pipeline.read_slowdown`).
const LEAD_IN_SHARE: f64 = 0.1;

/// When each milestone of one pipeline step happened (trace clock, nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct StepTimes {
    /// The update batch was handed to the pipeline.
    pub handed: u64,
    /// The drift check concluded.
    pub drift: u64,
    /// The shadow comparison concluded.
    pub shadow: u64,
    /// The swap completed.
    pub promoted: u64,
    /// Wall time of the retrain inside the step, from the step report.
    pub retrain_ns: u64,
    /// The version the step promoted (0 when it retired its candidate).
    pub version: u64,
    /// Snapshot before the step and the batch it ingested (to time ingest alone later).
    pub before: Option<(Arc<Database>, UpdateBatch)>,
}

/// One pipeline run beside live readers.
pub struct UpdateRun {
    /// What the readers logged.
    pub log: PhaseLog,
    /// Milestones of every step.
    pub steps: Vec<StepTimes>,
    /// Concatenated per-step decision digests.
    pub digest: String,
    /// `PipelineCounters::wrong_estimates` at the end.
    pub wrong_estimates: u64,
    /// Traced ÷ untraced reader estimates per second during the lead-in (traced runs).
    pub overhead: Option<(f64, f64)>,
}

/// The knobs of one [`update_run`].
pub struct UpdateSpec<'a> {
    /// Training tuples per retrain.
    pub tuples: usize,
    /// Progressive samples per estimate.
    pub samples: usize,
    /// Seconds the readers run alone before the first batch is handed over.
    pub lead_in: f64,
    /// Least length of the whole phase, seconds.
    pub seconds: f64,
    /// Whether to measure tracing overhead during the lead-in and trace the rest.
    pub traced: bool,
    /// Where artifacts and the journal go.
    pub dir: &'a std::path::Path,
}

/// Runs readers for at least `spec.seconds` while a pinned pipeline ingests
/// `snapshots[1..]` over `snapshots[0]`, one step per snapshot.
pub fn update_run(
    fx: &Fixture,
    snapshots: &[Arc<Database>],
    registry: &Arc<ModelRegistry>,
    readers: Vec<Box<dyn Executor>>,
    plans: &[Vec<PlanRequests>],
    spec: UpdateSpec,
    tally: &mut Tally,
) -> UpdateRun {
    let UpdateSpec {
        tuples,
        samples,
        lead_in,
        seconds,
        traced,
        dir,
    } = spec;
    std::fs::create_dir_all(dir).expect("creating the run directory inside the output directory");
    let source = DeltaSource::new(snapshots);
    let batches = source.remaining().to_vec();
    let handed = source.hand_over_times();
    let config = layers::pipeline_config(
        FIXTURE_SEED,
        MODEL,
        &dir.join("artifacts"),
        fixture::model_config(tuples, samples),
    );
    let mut pipeline = layers::pipeline(
        config,
        registry.clone(),
        layers::journal(&dir.join("journal.jsonl")),
        fx.schema.clone(),
        snapshots[0].clone(),
        source,
    );
    let mut steps = Vec::new();
    let mut digest = Vec::new();
    let mut overhead = None;
    let began = Instant::now();
    let log = phase::run_clients(readers, plans, |newest_seen| {
        if traced {
            // Four quiet blocks, tracing off/on alternately, on the same live readers.
            let mut marks = vec![trace::now()];
            for block in 0..4 {
                trace::enable(block % 2 == 1);
                sleep(lead_in / 4.0);
                marks.push(trace::now());
            }
            overhead = Some(marks);
            trace::enable(true);
        } else {
            sleep(lead_in);
        }
        for (k, batch) in batches.iter().enumerate() {
            let step = k as u64 + 1;
            let mut times = StepTimes {
                before: Some((layers::pipeline_db(&pipeline), batch.clone())),
                ..StepTimes::default()
            };
            let (report, span) =
                layers::pipeline_step(&mut pipeline, step, &mut |event| match event {
                    PipelineEvent::DriftChecked { .. } => times.drift = trace::now(),
                    PipelineEvent::ShadowCompared(_) => times.shadow = trace::now(),
                    PipelineEvent::Promoted(key) => {
                        times.promoted = trace::now();
                        times.version = key.version;
                    }
                    _ => {}
                });
            times.handed = handed
                .lock()
                .expect("hand-over log")
                .get(k)
                .copied()
                .unwrap_or(0);
            match report {
                Ok(report) => {
                    times.retrain_ns = report.retrain_wall_us * 1_000;
                    tally.check(
                        report.promoted.is_some() && report.retired.is_none(),
                        || format!("step {step} did not promote: {:?}", report.retired),
                    );
                    digest.push(layers::step_digest(&report));
                    let retrain_end = times.drift + times.retrain_ns;
                    for (name, from, to) in [
                        ("pipeline.stage.ingest_drift", times.handed, times.drift),
                        ("pipeline.stage.retrain", times.drift, retrain_end),
                        ("pipeline.stage.shadow", retrain_end, times.shadow),
                        ("pipeline.stage.promote", times.shadow, times.promoted),
                    ] {
                        trace::record(name, step, span, from, to);
                    }
                }
                Err(e) => tally.check(false, || format!("step {step} failed: {e}")),
            }
            steps.push(times);
        }
        sleep(seconds - began.elapsed().as_secs_f64());
        // The last update is over when a reader has been answered by what it promoted.
        let promoted = steps
            .iter()
            .map(|s: &StepTimes| s.version)
            .max()
            .unwrap_or(0);
        let patience = Instant::now();
        while newest_seen() < promoted && patience.elapsed() < Duration::from_secs(10) {
            sleep(0.001);
        }
    });
    let counters = layers::pipeline_counters(&pipeline);
    let overhead = overhead.map(|marks| {
        let mut per_block = [0.0; 4];
        for a in log.all().flat_map(|p| &p.answers) {
            if let Some(b) = (0..4).find(|&b| marks[b] <= a.at && a.at < marks[b + 1]) {
                per_block[b] += 1e9 / (marks[b + 1] - marks[b]).max(1) as f64;
            }
        }
        (
            (per_block[1] + per_block[3]) / 2.0,
            (per_block[0] + per_block[2]) / 2.0,
        )
    });
    UpdateRun {
        log,
        steps,
        digest: digest.join("\n"),
        wrong_estimates: counters.wrong_estimates,
        overhead,
    }
}

/// From each batch's hand-over to the first reader reply carrying the version it
/// promoted — as measured and at the reference speed read over that very interval; one
/// entry per promoted step.
pub fn update_latencies(run: &UpdateRun) -> Vec<AtReference> {
    let mut first_seen: HashMap<u64, u64> = HashMap::new();
    for a in run.log.all().flat_map(|p| &p.answers) {
        first_seen
            .entry(a.version)
            .and_modify(|t| *t = (*t).min(a.at))
            .or_insert(a.at);
    }
    run.steps
        .iter()
        .filter(|s| s.version > 0)
        .filter_map(|s| {
            let seen = *first_seen.get(&s.version)?;
            let raw_s = seen.saturating_sub(s.handed) as f64 / 1e9;
            // The readers' ticks run beside the update, not inside it: nothing to take out.
            Some(AtReference::new(
                raw_s,
                0.0,
                refclock::reading(s.handed, seen),
            ))
        })
        .collect()
}

/// The median update (the mean of the middle two when their number is even — with four
/// steps the lower-middle one alone would be the second fastest, not the typical one).
fn median_update(updates: &[AtReference]) -> AtReference {
    let mut sorted = updates.to_vec();
    sorted.sort_by(|a, b| a.value_s.total_cmp(&b.value_s));
    let (lo, hi) = (sorted[(sorted.len() - 1) / 2], sorted[sorted.len() / 2]);
    AtReference {
        raw_s: (lo.raw_s + hi.raw_s) / 2.0,
        factor: (lo.factor + hi.factor) / 2.0,
        value_s: (lo.value_s + hi.value_s) / 2.0,
    }
}

/// FNV-1a of the decision digest: what a record carries instead of the long string.
pub fn digest_hash(digest: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in digest.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Loads the cores of every version a run served: v1 from `incumbent`, later ones from
/// the promoted artifacts the pipeline wrote.
fn version_cores(
    incumbent: &Arc<EstimatorCore>,
    steps: &[StepTimes],
    artifacts: &std::path::Path,
) -> HashMap<u64, Arc<EstimatorCore>> {
    let mut cores = HashMap::from([(1, incumbent.clone())]);
    for s in steps.iter().filter(|s| s.version > 0) {
        let path = artifacts.join(format!("{MODEL}-v{}.ncar", s.version));
        if let Ok(bytes) = std::fs::read(&path) {
            cores.insert(s.version, layers::load_core(&bytes));
        }
    }
    cores
}

/// Checks a run's answers per pinned version against direct estimates on that version's
/// own artifact; returns the final version's estimates of `queries`.
pub fn check_update_run(
    run: &UpdateRun,
    incumbent: &Arc<EstimatorCore>,
    queries: &[Query],
    samples: usize,
    artifacts: &std::path::Path,
    tally: &mut Tally,
) -> Vec<u64> {
    let cores = version_cores(incumbent, &run.steps, artifacts);
    let mut expected: HashMap<u64, Vec<u64>> = HashMap::new();
    check_answers(&run.log, tally, |version, request| {
        match cores.get(&version) {
            Some(core) => expected
                .entry(version)
                .or_insert_with(|| direct_bits(core, queries, samples))[request],
            None => f64::NAN.to_bits() ^ 1,
        }
    });
    tally.check(run.wrong_estimates == 0, || {
        format!(
            "PipelineCounters::wrong_estimates = {}",
            run.wrong_estimates
        )
    });
    let last = run
        .steps
        .iter()
        .map(|s| s.version)
        .max()
        .unwrap_or(1)
        .max(1);
    match cores.get(&last) {
        Some(core) => direct_bits(core, queries, samples),
        None => vec![f64::NAN.to_bits(); queries.len()],
    }
}

/// Reads beside writes: TCP readers for the whole run while the pipeline ingests the
/// four remaining partitions, each step retraining, shadowing and promoting.
pub fn update_serve(ctx: &Ctx) -> Outcome {
    let clock = SetupClock::start();
    let dataset = Dataset::JobLight;
    let samples = ctx.scale.psamples(dataset);
    let tuples = ctx.scale.retrain_tuples();
    let mut fx = Fixture::new(dataset, ctx.scale.title_rows(dataset), ctx.scale.queries());
    let snapshots = layers::snapshots(&fx.db, &fx.schema, 5);
    // Readers ask about data every snapshot holds: literals are drawn from partition 1,
    // so a query means the same thing to the incumbent and to every promoted version.
    fx.queries = layers::queries(
        dataset,
        &snapshots[0],
        &fx.schema,
        ctx.scale.queries(),
        FIXTURE_SEED,
    );
    let truths = fx.truths(&snapshots[4], &fx.queries);
    let built = fixture::build(&snapshots[0], &fx.schema, tuples, samples);
    let incumbent = layers::load_core(&built.bytes);
    let registry = layers::registry();
    layers::register(&registry, MODEL, incumbent.clone());
    let server = layers::tcp_server(registry.clone(), fixture::nproc());
    let addr = layers::server_addr(&server);
    let selector = layers::latest(layers::fingerprint(&fx.schema), MODEL);
    let readers = wire_clients(addr, &selector, samples);
    let plans = single_plans(&fx.queries, ctx.seed, fixture::clients());
    let dir = ctx.out.join(format!("update_serve-{}", std::process::id()));
    let setup = clock.stop();

    let mut tally = Tally::default();
    let spec = UpdateSpec {
        tuples,
        samples,
        lead_in: ctx.scale.seconds * LEAD_IN_SHARE,
        seconds: ctx.scale.seconds,
        traced: ctx.trace,
        dir: &dir,
    };
    let run = update_run(
        &fx, &snapshots, &registry, readers, &plans, spec, &mut tally,
    );
    let reactor = layers::server_stats(&server);
    layers::server_shutdown(server);

    let final_bits = check_update_run(
        &run,
        &incumbent,
        &fx.queries,
        samples,
        &dir.join("artifacts"),
        &mut tally,
    );
    tally.check(reactor.overloaded == 0, || {
        format!("{} requests were shed", reactor.overloaded)
    });
    let updates = update_latencies(&run);
    tally.check(
        updates.len() == run.steps.len() && !updates.is_empty(),
        || {
            format!(
                "{} of {} steps were seen promoted by a reader",
                updates.len(),
                run.steps.len()
            )
        },
    );
    let detail = scale_detail(
        ctx,
        dataset,
        vec![
            ("retrain_tuples", int(tuples)),
            ("update_steps", int(run.steps.len())),
            ("promoted_steps", int(updates.len())),
            (
                "update_s_per_step",
                Json::Array(updates.iter().map(|u| num(u.raw_s)).collect()),
            ),
            ("decision_digest", Json::Str(digest_hash(&run.digest))),
            ("passes", int(run.log.passes())),
        ],
    );
    let timings = run.log.both_timings();
    let outcome = match (timings, updates.is_empty()) {
        (Some(timings), false) if !ctx.trace => EndToEnd {
            setup,
            timings,
            phase: run.log.reference,
            qerrors: qerrors(&final_bits, &truths),
            built,
            update: median_update(&updates),
        }
        .into_outcome(tally, detail),
        (Some(_), false) => {
            let raw: Vec<f64> = updates.iter().map(|u| u.raw_s).collect();
            let flow = probes::UpdateFlow::of(&run, &raw);
            let overhead = run.overhead.unwrap_or((1.0, 1.0));
            let probe = probes::Probe {
                fx: &fx,
                built: &built,
                core: &incumbent,
                requests: &fx.queries,
                samples,
                out: &ctx.out,
                smoke: ctx.scale.smoke,
            };
            traced_outcome("update_serve", probe, overhead, Some(flow), tally, detail)
        }
        _ => failed_outcome(
            tally,
            "the run was too short for one reader pass or saw no promotion",
            detail,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::RegistryExecutor;

    /// One tiny pinned pipeline run beside one in-process reader.
    fn tiny_run(tag: &str) -> (UpdateRun, Tally) {
        let scale = Scale {
            smoke: true,
            seconds: 0.2,
        };
        let dataset = Dataset::JobLight;
        let samples = scale.psamples(dataset);
        let mut fx = Fixture::new(dataset, scale.title_rows(dataset), scale.queries());
        let snapshots = layers::snapshots(&fx.db, &fx.schema, 5);
        fx.queries = layers::queries(
            dataset,
            &snapshots[0],
            &fx.schema,
            scale.queries(),
            FIXTURE_SEED,
        );
        let built = fixture::build(&snapshots[0], &fx.schema, 1_024, samples);
        let registry = layers::registry();
        layers::register(&registry, MODEL, layers::load_core(&built.bytes));
        let selector = layers::latest(layers::fingerprint(&fx.schema), MODEL);
        let reader: Vec<Box<dyn Executor>> = vec![Box::new(RegistryExecutor::new(
            registry.clone(),
            selector,
            samples,
        ))];
        let plans = single_plans(&fx.queries, 7, 1);
        let dir =
            std::env::temp_dir().join(format!("nc-benchmark-test-{}-{tag}", std::process::id()));
        let mut tally = Tally::default();
        let spec = UpdateSpec {
            tuples: 1_024,
            samples,
            lead_in: 0.0,
            seconds: 0.0,
            traced: false,
            dir: &dir,
        };
        let run = update_run(&fx, &snapshots, &registry, reader, &plans, spec, &mut tally);
        let incumbent = layers::load_core(&built.bytes);
        check_update_run(
            &run,
            &incumbent,
            &fx.queries,
            samples,
            &dir.join("artifacts"),
            &mut tally,
        );
        let _ = std::fs::remove_dir_all(&dir);
        (run, tally)
    }

    #[test]
    fn pinned_pipeline_promotes_every_step_and_replays_its_digest() {
        let (a, tally_a) = tiny_run("a");
        let (b, tally_b) = tiny_run("b");
        assert_eq!(
            (tally_a.failed, tally_b.failed),
            (0, 0),
            "{:?} {:?}",
            tally_a.notes,
            tally_b.notes
        );
        assert_eq!(a.steps.len(), 4);
        assert_eq!(
            a.steps.iter().map(|s| s.version).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(a.wrong_estimates, 0);
        assert!(!a.digest.is_empty());
        assert_eq!(a.digest, b.digest, "same pinned config, same decisions");
        assert_eq!(digest_hash(&a.digest), digest_hash(&b.digest));
        assert_ne!(digest_hash(&a.digest), digest_hash("something else"));
        // Milestones of a step come in order, and a reader saw every promoted version.
        for s in &a.steps {
            assert!(s.handed <= s.drift && s.drift <= s.shadow && s.shadow <= s.promoted);
        }
        assert_eq!(update_latencies(&a).len(), 4);
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!("a passing check builds no message"));
        tally.check(false, || "broken".into());
        tally.fail(0, || unreachable!("no failure, no message"));
        tally.attempt(3);
        assert_eq!(
            (tally.attempted, tally.failed, tally.notes.as_slice()),
            (5, 1, &["broken".to_string()][..])
        );
    }

    #[test]
    fn median_update_interpolates_even_counts() {
        let at = |v: f64| AtReference {
            raw_s: 2.0 * v,
            factor: 2.0,
            value_s: v,
        };
        assert_eq!(
            median_update(&[at(4.0), at(1.0), at(3.0), at(2.0)]).value_s,
            2.5
        );
        assert_eq!(median_update(&[at(9.0), at(1.0), at(3.0)]).value_s, 3.0);
        assert_eq!(median_update(&[at(9.0)]).raw_s, 18.0);
    }
}
