//! The layer probes of a traced run: each layer's public functions called from the
//! outside, at the workload's own model and request set, every call in a span; then the
//! per-layer metrics derived from those spans.
//!
//! The serving ladder replays the same requests one at a time at each nesting level —
//! direct core, in-process service, TCP — so that differences of medians are the self
//! time of the level added.  Rates computed from a kernel's time use 2·m·n·k operations;
//! they are computed, not counted by hardware.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nc_schema::Query;
use neurocard::{EstimatorCore, Precision};
use serde::Json;

use crate::fixture::{self, Built, Fixture, FIXTURE_SEED};
use crate::gen::SplitMix64;
use crate::layers::{self, Kernel};
use crate::phase::{Executor, RegistryExecutor};
use crate::trace::{self, Span};
use crate::workloads::{self, Detail, Metrics, Tally, UpdateRun, MODEL};

/// What the probes run against.
pub struct Probe<'a> {
    /// The workload's fixture.
    pub fx: &'a Fixture,
    /// Its most recent build.
    pub built: &'a Built,
    /// The loaded model.
    pub core: &'a Arc<EstimatorCore>,
    /// The workload's request set.
    pub requests: &'a [Query],
    /// Progressive samples per estimate.
    pub samples: usize,
    /// Output directory (journals and artifacts of the probes go under it).
    pub out: &'a Path,
    /// Tiny sizes.
    pub smoke: bool,
}

/// Requests replayed at each rung of the serving ladder.
const LADDER_REQUESTS: usize = 32;
/// Requests pipelined at once in the burst rung.
const BURST: usize = 16;

/// The stages of an update, each a median over steps.
pub struct UpdateFlow {
    /// Copy-on-append of one batch, ms.
    pub ingest_ms: f64,
    /// Oracle workload, exact answers and incumbent scoring, ms.
    pub drift_ms: f64,
    /// Background retrain, s.
    pub retrain_s: f64,
    /// Candidate load, artifact write, shadow registration and comparison, ms.
    pub shadow_ms: f64,
    /// Promoted artifact write, journal append and swap, ms.
    pub promote_ms: f64,
    /// Batch handed over → first reply from the promoted version, s.
    pub update_s: f64,
    /// Reader estimate p50 while a retrain runs ÷ while the pipeline is quiet.
    pub read_slowdown: f64,
    /// The quiet p50 that ratio is based on, ms.
    pub quiet_p50_ms: f64,
}

impl UpdateFlow {
    /// Reduces one pipeline run to its stage medians.
    pub fn of(run: &UpdateRun, updates: &[f64]) -> UpdateFlow {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut stages: [Vec<f64>; 5] = Default::default();
        for (k, s) in run.steps.iter().enumerate() {
            let ingest = s.before.as_ref().map_or(0.0, |(db, batch)| {
                let from = trace::now();
                std::hint::black_box(layers::apply_batch(db, batch, k as u64 + 1));
                ms(trace::now() - from)
            });
            let retrain_end = s.drift + s.retrain_ns;
            stages[0].push(ingest);
            stages[1].push((ms(s.drift.saturating_sub(s.handed)) - ingest).max(0.0));
            stages[2].push(s.retrain_ns as f64 / 1e9);
            stages[3].push(ms(s.shadow.saturating_sub(retrain_end)));
            stages[4].push(ms(s.promoted.saturating_sub(s.shadow)));
        }
        let median = |v: &[f64]| trace::median(v.to_vec()).unwrap_or(0.0);
        let busy = |at: u64| {
            run.steps
                .iter()
                .any(|s| s.drift <= at && at < s.drift + s.retrain_ns)
        };
        let first = run.steps.iter().map(|s| s.handed).min().unwrap_or(0);
        let last = run.steps.iter().map(|s| s.promoted).max().unwrap_or(0);
        let (mut during, mut quiet) = (Vec::new(), Vec::new());
        for pass in run.log.all() {
            for (a, latency) in pass.answers.iter().zip(&pass.estimate_ms) {
                if busy(a.at) {
                    during.push(*latency);
                } else if a.at < first || a.at > last {
                    quiet.push(*latency);
                }
            }
        }
        let quiet_p50_ms = median(&quiet);
        UpdateFlow {
            ingest_ms: median(&stages[0]),
            drift_ms: median(&stages[1]),
            retrain_s: median(&stages[2]),
            shadow_ms: median(&stages[3]),
            promote_ms: median(&stages[4]),
            update_s: median(updates),
            read_slowdown: if quiet_p50_ms > 0.0 && !during.is_empty() {
                median(&during) / quiet_p50_ms
            } else {
                1.0
            },
            quiet_p50_ms,
        }
    }
}

/// One pipeline step over the workload's own database and model, beside one in-process
/// reader: the update path of a workload that has none in its measured phase.
pub fn update_probe(probe: &Probe, tally: &mut Tally) -> UpdateFlow {
    let snapshots = layers::snapshots(&probe.fx.db, &probe.fx.schema, 5);
    let registry = layers::registry();
    layers::register(&registry, MODEL, probe.core.clone());
    let selector = layers::latest(layers::fingerprint(&probe.fx.schema), MODEL);
    let queries = ladder_requests(probe);
    let reader: Vec<Box<dyn Executor>> = vec![Box::new(RegistryExecutor::new(
        registry.clone(),
        selector,
        probe.samples,
    ))];
    let plans = workloads::single_plans(&queries, FIXTURE_SEED, 1);
    let dir = probe
        .out
        .join(format!("update_probe-{}", std::process::id()));
    let (lead_in, seconds) = if probe.smoke { (0.1, 0.3) } else { PROBE_PHASE };
    let spec = workloads::UpdateSpec {
        tuples: PROBE_RETRAIN_TUPLES / if probe.smoke { 5 } else { 1 },
        samples: probe.samples,
        lead_in,
        seconds,
        traced: false,
        dir: &dir,
    };
    let run = workloads::update_run(
        probe.fx,
        &snapshots[3..],
        &registry,
        reader,
        &plans,
        spec,
        tally,
    );
    workloads::check_update_run(
        &run,
        probe.core,
        &queries,
        probe.samples,
        &dir.join("artifacts"),
        tally,
    );
    let updates: Vec<f64> = workloads::update_latencies(&run)
        .iter()
        .map(|u| u.raw_s)
        .collect();
    tally.check(updates.len() == 1, || {
        "the probe's one update step was not seen promoted".into()
    });
    let flow = UpdateFlow::of(&run, &updates);
    let _ = std::fs::remove_dir_all(&dir);
    flow
}

/// Quantities the probes read off counters rather than spans.
#[derive(Default)]
pub struct Counters {
    began: u64,
    execute_p50_us: f64,
    max_queue_depth: f64,
    overloaded: f64,
    scratch_created: f64,
    max_qerror_delta: f64,
    rows: usize,
    shape: layers::NetShape,
}

/// Retrain budget of the one-step update probe (ten training batches).
const PROBE_RETRAIN_TUPLES: usize = 1_280;
/// Quiet lead-in and least length of the update probe's reader phase, seconds.
const PROBE_PHASE: (f64, f64) = (0.5, 2.0);

/// The requests the ladder and the update probe replay: an even stride through the
/// workload's request set.
fn ladder_requests(probe: &Probe) -> Vec<Query> {
    let stride = probe.requests.len().div_ceil(LADDER_REQUESTS).max(1);
    probe.requests.iter().step_by(stride).cloned().collect()
}

fn dense(rows: usize, cols: usize, rng: &mut SplitMix64) -> nc_nn::Matrix {
    // Strictly positive entries: the exact kernels skip zero inputs, and a probe must
    // not measure that shortcut.
    let data = (0..rows * cols)
        .map(|_| 0.05 + (rng.next() >> 40) as f32 / (1u64 << 24) as f32)
        .collect();
    layers::matrix(rows, cols, data)
}

/// Repeats `call` until it has run for about `budget_ms` (at least three times).
fn repeat(budget_ms: f64, mut call: impl FnMut()) {
    let from = trace::now();
    let mut runs = 0;
    while runs < 3 || (trace::now() - from) as f64 / 1e6 < budget_ms {
        call();
        runs += 1;
    }
}

fn kernel_probes(probe: &Probe, rows: usize) -> layers::NetShape {
    let net = layers::network(probe.core);
    let shape = layers::net_shape(net);
    let (dh, de, dom) = (shape.d_hidden, shape.d_emb, shape.max_domain);
    let mut rng = SplitMix64(FIXTURE_SEED);
    let (budget, forwards) = if probe.smoke { (2.0, 1) } else { (60.0, 3) };
    let mut run = |kernel: Kernel, m: usize, k: usize, b_rows: usize, b_cols: usize, n: usize| {
        let (a, b) = (dense(m, k, &mut rng), dense(b_rows, b_cols, &mut rng));
        let mut out = layers::matrix(m, n, vec![0.0; m * n]);
        repeat(budget, || {
            layers::run_kernel(kernel, &a, &b, &mut out, m as u64)
        });
        std::hint::black_box(&out);
    };
    // Residual-block GEMM, logit head against the largest embedding table, and the
    // one-column slice of the output layer — the three shapes an estimate spends its
    // time in — at `rows` live samples; then the block GEMM at the post-dedup size.
    run(Kernel::TensorMatmulBlocked, rows, dh, dh, dh, dh);
    run(Kernel::TensorGemmNt, rows, de, dom, de, dom);
    run(
        Kernel::TensorMatmulColRange,
        rows,
        dh,
        dh,
        shape.columns * de,
        de,
    );
    run(Kernel::TensorMatmulBlocked, SMALL_ROWS, dh, dh, dh, dh);
    run(Kernel::DispatchedMatmulBlocked, rows, dh, dh, dh, dh);
    run(Kernel::DispatchedGemmNt, rows, de, dom, de, dom);
    run(Kernel::DispatchedSoftmaxRows, rows, dom, 1, 1, dom);

    let mut scratch = layers::inference_scratch();
    for (name, batch) in [
        ("nn.made.forward", rows),
        ("nn.made.forward_small", FORWARD_SMALL_ROWS),
    ] {
        let row: Vec<u32> = (0..shape.columns)
            .map(|c| layers::mask_token(net, c))
            .collect();
        let tokens = row.repeat(batch);
        for col in 0..shape.columns {
            for _ in 0..forwards {
                layers::conditional_forward(net, &tokens, col, &mut scratch, name);
            }
        }
    }
    shape
}

/// Rows of the post-dedup GEMM probe and of the small forward probe.
const SMALL_ROWS: usize = 8;
const FORWARD_SMALL_ROWS: usize = 64;

fn sampler_probes(probe: &Probe) {
    for _ in 0..5 {
        std::hint::black_box(layers::full_join_rows(&layers::join_counts(
            &probe.fx.db,
            &probe.fx.schema,
        )));
    }
    let pool = layers::sampler_pool(
        &probe.fx.db,
        &probe.fx.schema,
        fixture::SAMPLER_THREADS,
        FIXTURE_SEED,
    );
    for batch in 0..20 {
        layers::pool_batch(&pool, batch, POOL_BATCH);
    }
}

/// Tuples per sampler-pool batch in the probe (the training batch size).
const POOL_BATCH: usize = 128;

fn artifact_probes(probe: &Probe) {
    let artifact = layers::artifact_parse(&probe.built.bytes);
    for _ in 0..5 {
        std::hint::black_box(layers::artifact_encode(&artifact));
        std::hint::black_box(layers::load_core(&probe.built.bytes));
    }
}

fn fixture_probes(probe: &Probe, queries: &[Query]) {
    for (i, q) in queries.iter().enumerate() {
        layers::true_cardinality(&probe.fx.db, &probe.fx.schema, q, i as u64);
    }
    let rows = probe.fx.db.expect_table("title").num_rows();
    for _ in 0..3 {
        std::hint::black_box(layers::database(probe.fx.dataset, FIXTURE_SEED, rows));
    }
}

fn swap_probes(probe: &Probe, tally: &mut Tally) {
    let registry = layers::registry();
    let mut key = layers::register(&registry, MODEL, probe.core.clone());
    let fingerprint = layers::fingerprint(&probe.fx.schema);
    let selector = layers::latest(fingerprint, MODEL);
    let path = probe
        .out
        .join(format!("probe-journal-{}.jsonl", std::process::id()));
    let mut journal = layers::journal(&path);
    for round in 0..11 {
        let held = layers::lease(&registry, &selector);
        layers::journal_append(&mut journal, &key, round);
        let (new, old) = layers::swap(&registry, fingerprint, MODEL, probe.core.clone(), round);
        let drained = layers::release_and_drain(&registry, held, &old, round);
        tally.check(drained && new.version == old.version + 1, || {
            format!("swap probe round {round}")
        });
        key = new;
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
}

/// Passes over the ladder's requests (each pass starts the rungs at another level, so
/// no level always runs on the coldest caches).
const LADDER_PASSES: usize = 3;

/// The serving ladder and the counters read beside it.
///
/// For every request the three nesting levels run back to back — direct core,
/// in-process service, TCP round trip — so that the per-request differences between
/// levels see the same machine state; then the Fast tier, then bursts.
fn ladder(probe: &Probe, queries: &[Query], tally: &mut Tally) -> Counters {
    let registry = layers::registry();
    let key = layers::register(&registry, MODEL, probe.core.clone());
    let selector = layers::latest(layers::fingerprint(&probe.fx.schema), MODEL);
    let frames: Vec<_> = queries
        .iter()
        .map(|q| layers::request(&selector, q, probe.samples))
        .collect();
    let service = layers::service(registry.clone(), fixture::nproc());
    let handle = layers::service_handle(&service);
    let server = layers::tcp_server(registry.clone(), fixture::nproc());
    let mut client = layers::connect(layers::server_addr(&server));
    let mut scratch = layers::scratch();
    let mut wrong = 0u64;
    let estimate = |scratch: &mut _, i: usize, precision| {
        layers::estimate(
            probe.core,
            &queries[i],
            probe.samples,
            scratch,
            precision,
            i as u64,
        )
        .map_or(f64::NAN.to_bits(), f64::to_bits)
    };
    let direct: Vec<u64> = (0..queries.len())
        .map(|i| estimate(&mut scratch, i, Precision::Exact))
        .collect();

    let passes = if probe.smoke { 1 } else { LADDER_PASSES };
    for pass in 0..passes {
        for (i, frame) in frames.iter().enumerate() {
            for level in (0..3).map(|l| (l + pass) % 3) {
                let bits = match level {
                    0 => {
                        let _s = trace::span("ladder.direct", i as u64);
                        estimate(&mut scratch, i, Precision::Exact)
                    }
                    1 => layers::service_request(&handle, frame.clone(), i as u64)
                        .map_or(0, |r| r.estimate.to_bits()),
                    _ => layers::round_trip(&mut client, frame, i as u64)
                        .map_or(0, |r| r.estimate.to_bits()),
                };
                wrong += u64::from(bits != direct[i]);
            }
        }
    }
    let scratch_created = layers::scratch_created(&service) as f64;
    drop(handle);
    layers::service_shutdown(service);

    // The Fast tier on the same requests and RNG streams; codec and lease alone.
    let mut max_delta: f64 = 1.0;
    for _ in 0..passes {
        for (i, exact_bits) in direct.iter().enumerate() {
            let fast = {
                let _s = trace::span("ladder.fast", i as u64);
                f64::from_bits(estimate(&mut scratch, i, Precision::Fast))
            };
            let (e, f) = (f64::from_bits(*exact_bits).max(1.0), fast.max(1.0));
            max_delta = max_delta.max(e / f).max(f / e);
            wrong += u64::from(!fast.is_finite());
        }
    }
    for (i, frame) in frames.iter().enumerate() {
        let reply = nc_serve::ServeReply {
            key: key.clone(),
            estimate: f64::from_bits(direct[i]),
            degraded: false,
        };
        wrong += u64::from(!layers::codec_round(frame, &reply, i as u64));
        layers::lease_cycle(&registry, &selector, i as u64);
    }

    // Bursts of BURST pipelined requests while a sampler thread watches the queue.
    let done = AtomicBool::new(false);
    let max_depth = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut max = 0;
            while !done.load(Ordering::Relaxed) {
                max = max.max(layers::server_stats(&server).queue_depth);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            max
        });
        for _ in 0..passes {
            for (base, chunk) in frames
                .chunks(BURST)
                .enumerate()
                .map(|(b, c)| (b * BURST, c))
            {
                let parent = trace::span("ladder.burst", base as u64);
                let mut sent = Vec::new();
                for (k, frame) in chunk.iter().enumerate() {
                    sent.push(trace::now());
                    wrong +=
                        u64::from(layers::send(&mut client, frame, (base + k) as u64).is_err());
                }
                for (k, from) in sent.into_iter().enumerate() {
                    let reply = layers::recv(&mut client, (base + k) as u64);
                    trace::record(
                        "ladder.burst_rtt",
                        (base + k) as u64,
                        parent.id(),
                        from,
                        trace::now(),
                    );
                    wrong +=
                        u64::from(reply.map_or(true, |r| r.estimate.to_bits() != direct[base + k]));
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        watcher.join().expect("queue watcher")
    });
    let execute_p50_us = layers::wire_stats(&mut client)
        .into_iter()
        .find(|s| s.key == key)
        .map_or(0.0, |s| s.p50_us);
    let overloaded = layers::server_stats(&server).overloaded as f64;
    drop(client);
    layers::server_shutdown(server);
    tally.check(wrong == 0, || {
        format!("{wrong} ladder replies differed from the direct core")
    });
    Counters {
        execute_p50_us,
        max_queue_depth: max_depth as f64,
        overloaded,
        scratch_created,
        max_qerror_delta: max_delta,
        ..Counters::default()
    }
}

/// Runs every probe (spans are recorded as a side effect) and returns what is read off
/// counters instead, with the time the probes began.
pub fn run_probes(probe: &Probe, tally: &mut Tally) -> Counters {
    let began = trace::now();
    let rows = if probe.smoke { 64 } else { 512 };
    let queries = ladder_requests(probe);
    let shape = kernel_probes(probe, rows);
    sampler_probes(probe);
    artifact_probes(probe);
    fixture_probes(probe, &queries);
    swap_probes(probe, tally);
    let mut counters = ladder(probe, &queries, tally);
    counters.began = began;
    counters.rows = rows;
    counters.shape = shape;
    counters
}

/// Derives every per-layer metric from the spans the probes left (those that started at
/// or after `counters.began`; earlier spans belong to the measured phase).
pub fn layer_metrics(
    probe: &Probe,
    counters: &Counters,
    spans: &[Span],
    flow: &UpdateFlow,
    overhead: (f64, f64),
) -> (Metrics, Detail) {
    let spans: Vec<Span> = spans
        .iter()
        .filter(|s| s.start >= counters.began)
        .cloned()
        .collect();
    let us = |name: &str| trace::median(trace::durations_us(&spans, name)).unwrap_or(0.0);
    let us_at = |name: &str, op: u64| {
        let at_op = spans
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect();
        trace::median(at_op).unwrap_or(0.0)
    };
    // A rung's self time: per request, the outer level's time less the inner level's,
    // then the median over requests — pairing takes the spread between cheap and
    // expensive requests out of the difference.  Where a level adds less than the
    // inner level's own jitter the result can come out slightly negative; it is
    // reported as measured.
    let by_request = |name: &str| -> HashMap<u64, f64> {
        let mut samples: HashMap<u64, Vec<f64>> = HashMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            samples
                .entry(s.op)
                .or_default()
                .push((s.end - s.start) as f64 / 1e3);
        }
        samples
            .into_iter()
            .filter_map(|(op, v)| Some((op, trace::median(v)?)))
            .collect()
    };
    let paired = |outer: &str, inner: &str| {
        let (outer, inner) = (by_request(outer), by_request(inner));
        let diffs = outer
            .iter()
            .filter_map(|(op, us)| inner.get(op).map(|inner| us - inner))
            .collect();
        trace::median(diffs).unwrap_or(0.0)
    };
    let s = &counters.shape;
    let (rows, small) = (counters.rows as f64, SMALL_ROWS as f64);
    let (dh, de, dom) = (s.d_hidden as f64, s.d_emb as f64, s.max_domain as f64);
    // 2·m·n·k operations ÷ microseconds ÷ 1000 = GFLOP/s (computed from the shapes).
    let gflops = |m: f64, n: f64, k: f64, us: f64| 2.0 * m * n * k / us.max(1e-3) / 1e3;
    // Kernel spans carry their row count as `op`: the block GEMM ran at two sizes.
    let block_big = us_at("nn.tensor.matmul_blocked", counters.rows as u64);
    let block_small = us_at("nn.tensor.matmul_blocked", SMALL_ROWS as u64);
    // The conditional forward: median over columns of each column's median.
    let forward = |name: &str| {
        trace::median((0..s.columns as u64).map(|c| us_at(name, c)).collect()).unwrap_or(0.0)
    };
    let (direct, fast) = (us("ladder.direct"), us("ladder.fast"));
    let (service, tcp, burst) = (
        us("serve.service.request"),
        us("serve.tcp.round_trip"),
        us("ladder.burst_rtt"),
    );
    let (traced, plain) = overhead;

    let metrics = vec![
        (
            "nn.tensor.matmul_blocked_gflops",
            gflops(rows, dh, dh, block_big),
        ),
        (
            "nn.tensor.gemm_nt_gflops",
            gflops(rows, dom, de, us("nn.tensor.gemm_nt")),
        ),
        (
            "nn.tensor.matmul_col_range_gflops",
            gflops(rows, de, dh, us("nn.tensor.matmul_col_range")),
        ),
        (
            "nn.tensor.matmul_blocked_small_gflops",
            gflops(small, dh, dh, block_small),
        ),
        (
            "nn.kernel.matmul_blocked_gflops",
            gflops(rows, dh, dh, us("nn.kernel.matmul_blocked")),
        ),
        (
            "nn.kernel.gemm_nt_gflops",
            gflops(rows, dom, de, us("nn.kernel.gemm_nt")),
        ),
        (
            "nn.kernel.softmax_rows_per_s",
            rows / us("nn.kernel.softmax_rows").max(1e-3) * 1e6,
        ),
        ("nn.made.forward_us", forward("nn.made.forward")),
        ("nn.made.forward_small_us", forward("nn.made.forward_small")),
        ("nn.made.train_step_ms", probe.built.train_step_ms),
        ("sampler.join_counts_ms", us("sampler.join_counts") / 1e3),
        (
            "sampler.pool_tuples_per_s",
            POOL_BATCH as f64 / us("sampler.pool.batch").max(1e-3) * 1e6,
        ),
        ("sampler.stall_share", probe.built.stall_share),
        ("neurocard.infer.estimate_us", direct),
        (
            "neurocard.infer.samples_per_s",
            probe.samples as f64 / direct.max(1e-3) * 1e6,
        ),
        ("neurocard.infer.fast_vs_exact", fast / direct.max(1e-3)),
        (
            "neurocard.artifact.encode_ms",
            us("neurocard.artifact.encode") / 1e3,
        ),
        (
            "neurocard.artifact.load_ms",
            us("neurocard.artifact.load") / 1e3,
        ),
        ("serve.protocol.codec_us", us("serve.protocol.codec")),
        ("serve.registry.lease_us", us("serve.registry.lease")),
        (
            "serve.service.overhead_us",
            paired("serve.service.request", "ladder.direct"),
        ),
        (
            "serve.reactor.wire_overhead_us",
            paired("serve.tcp.round_trip", "serve.service.request"),
        ),
        ("serve.registry.execute_p50_us", counters.execute_p50_us),
        (
            "serve.reactor.queue_wait_us",
            paired("ladder.burst_rtt", "serve.tcp.round_trip"),
        ),
        ("serve.reactor.max_queue_depth", counters.max_queue_depth),
        ("serve.reactor.overloaded", counters.overloaded),
        ("serve.pool.scratch_created", counters.scratch_created),
        ("serve.registry.swap_us", us("serve.registry.swap")),
        ("serve.registry.drain_ms", us("serve.registry.drain") / 1e3),
        ("serve.journal.append_us", us("serve.journal.append")),
        ("pipeline.ingest_ms", flow.ingest_ms),
        ("pipeline.drift_ms", flow.drift_ms),
        ("pipeline.retrain_s", flow.retrain_s),
        ("pipeline.shadow_ms", flow.shadow_ms),
        ("pipeline.promote_ms", flow.promote_ms),
        ("pipeline.read_slowdown", flow.read_slowdown),
        (
            "exec.true_cardinality_ms",
            us("exec.true_cardinality") / 1e3,
        ),
        ("datagen.database_ms", us("datagen.database") / 1e3),
        ("trace_overhead", traced / plain.max(1e-9)),
    ];
    let stage_sum = flow.ingest_ms / 1e3
        + flow.drift_ms / 1e3
        + flow.retrain_s
        + flow.shadow_ms / 1e3
        + flow.promote_ms / 1e3;
    let num = Json::Float;
    let detail = vec![
        ("isa".to_string(), Json::Str(layers::isa_name().to_string())),
        ("probe_rows".to_string(), Json::UInt(counters.rows as u64)),
        (
            "ladder_requests".to_string(),
            Json::UInt(ladder_requests(probe).len() as u64),
        ),
        ("ladder_direct_us".to_string(), num(direct)),
        ("ladder_service_us".to_string(), num(service)),
        ("ladder_tcp_us".to_string(), num(tcp)),
        ("ladder_burst_rtt_us".to_string(), num(burst)),
        ("fast_vs_exact_base_us".to_string(), num(direct)),
        (
            "fast_vs_exact_max_qerror_delta".to_string(),
            num(counters.max_qerror_delta),
        ),
        (
            "trace_overhead_base_estimates_per_s".to_string(),
            num(plain),
        ),
        ("read_slowdown_base_ms".to_string(), num(flow.quiet_p50_ms)),
        ("update_s".to_string(), num(flow.update_s)),
        ("pipeline_stage_sum_s".to_string(), num(stage_sum)),
        (
            "pipeline_stage_sum_over_update_s".to_string(),
            num(stage_sum / flow.update_s.max(1e-9)),
        ),
    ];
    (metrics, detail)
}
