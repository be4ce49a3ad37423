//! The one file that names functions of the crates under measurement.
//!
//! Every call the benchmark makes into a layer goes through one thin wrapper here, which
//! brackets it in a [`trace::span`] named `crate.module.call`.  Nothing else in the
//! benchmark calls a function of `nc-*`/`neurocard` (types are named freely), so when
//! ROADMAP item 2(b) collapses the twenty `estimate*` entry points — or the two worker
//! pools — the follow-up here is this file and nothing else.  The wrappers use the
//! fewest public functions that reach each layer.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use nc_datagen::DataGenConfig;
use nc_nn::{InferenceScratch, Matrix, ResMade};
use nc_pipeline::{
    Pipeline, PipelineConfig, PipelineCounters, PipelineError, PipelineEvent, StepReport,
    UpdateBatch, UpdateSource,
};
use nc_sampler::{JoinCounts, JoinSampler, SamplerPool, WideLayout};
use nc_schema::{JoinSchema, Query};
use nc_serve::{
    FaultInjector, JournalEvent, ModelKey, ModelLease, ModelRegistry, ModelSelector, ModelStats,
    ReactorConfig, ReactorStats, RegistryHandle, RegistryJournal, RegistryService, ServeClient,
    ServeError, ServeReply, ServeRequest, ServiceConfig, SharedJournal, TcpServer,
};
use nc_storage::Database;
use neurocard::{
    EstimateError, EstimatorCore, EstimatorStats, ModelArtifact, NeuroCard, NeuroCardConfig,
    Precision, SamplerScratch, TrainProgress,
};

use crate::gen::DeltaSource;
use crate::trace::span;

// ---- datagen / workloads / exec ---------------------------------------------------------

/// The two synthetic IMDB stand-ins the benchmark runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// JOB-light: 6 tables, star join on `movie_id`.
    JobLight,
    /// JOB-M: 16 tables, multi-key snowflake.
    JobM,
}

/// Generates the database (spanned) and its schema.
pub fn database(
    dataset: Dataset,
    seed: u64,
    title_rows: usize,
) -> (Arc<Database>, Arc<JoinSchema>) {
    let config = DataGenConfig {
        seed,
        title_rows,
        ..DataGenConfig::default()
    };
    let _s = span("datagen.database", 0);
    match dataset {
        Dataset::JobLight => (
            Arc::new(nc_datagen::job_light_database(&config)),
            Arc::new(nc_datagen::job_light_schema()),
        ),
        Dataset::JobM => (
            Arc::new(nc_datagen::job_m_database(&config)),
            Arc::new(nc_datagen::job_m_schema()),
        ),
    }
}

/// The dataset's query workload.
pub fn queries(
    dataset: Dataset,
    db: &Arc<Database>,
    schema: &JoinSchema,
    count: usize,
    seed: u64,
) -> Vec<Query> {
    let _s = span("workloads.queries", 0);
    match dataset {
        Dataset::JobLight => nc_workloads::job_light_queries(db, schema, count, seed),
        Dataset::JobM => nc_workloads::job_m_queries(db, schema, count, seed),
    }
}

/// Cumulative time-ordered snapshots of the database (Table 6's partitioning).
pub fn snapshots(db: &Database, schema: &JoinSchema, partitions: usize) -> Vec<Arc<Database>> {
    let _s = span("datagen.partitioned_snapshots", 0);
    nc_datagen::partitioned_snapshots(db, schema, "production_year", partitions)
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// Exact cardinality, floored at 1 (the q-error convention).
pub fn true_cardinality(db: &Database, schema: &JoinSchema, query: &Query, op: u64) -> f64 {
    let _s = span("exec.true_cardinality", op);
    (nc_exec::true_cardinality(db, schema, query) as f64).max(1.0)
}

/// Q-error of an estimate against a truth.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    nc_workloads::q_error(estimate, truth)
}

/// Whether `tables` induce a connected subtree of the schema.
pub fn is_connected(schema: &JoinSchema, tables: &[String]) -> bool {
    schema.is_connected_subset(tables)
}

/// Whether the query is valid against the schema.
#[cfg(test)]
pub fn is_valid(schema: &JoinSchema, query: &Query) -> bool {
    query.validate(schema).is_ok()
}

// ---- sampler ----------------------------------------------------------------------------

/// Join-count tables of the exact-weight sampler.
pub fn join_counts(db: &Database, schema: &JoinSchema) -> JoinCounts {
    let _s = span("sampler.join_counts", 0);
    JoinCounts::compute(db, schema)
}

/// `|J|` of a join-count computation.
pub fn full_join_rows(counts: &JoinCounts) -> u128 {
    counts.full_join_rows()
}

/// A sampler worker pool over the database (raw wide tuples, no encoder).
pub fn sampler_pool(
    db: &Arc<Database>,
    schema: &Arc<JoinSchema>,
    threads: usize,
    seed: u64,
) -> SamplerPool {
    let _s = span("sampler.pool.new", 0);
    let layout = WideLayout::without_join_keys(db, schema);
    SamplerPool::new(
        Arc::new(JoinSampler::new(db.clone(), schema.clone())),
        Arc::new(layout),
        threads,
        seed,
        None,
    )
}

/// Samples one batch of `n` tuples through the pool and waits for it.
pub fn pool_batch(pool: &SamplerPool, index: u64, n: usize) -> usize {
    let _s = span("sampler.pool.batch", index);
    pool.submit_indexed(index, n).wait().len()
}

// ---- neurocard: build, artifact, inference ------------------------------------------------

/// Trains an estimator on the first `first_tuples` of its budget (join counts, sampler
/// pool and dictionaries included).
pub fn build_start(
    db: &Arc<Database>,
    schema: &Arc<JoinSchema>,
    config: &NeuroCardConfig,
) -> NeuroCard {
    let _s = span("neurocard.build", 0);
    NeuroCard::build(db.clone(), schema.clone(), config)
}

/// Continues training by `tuples` (one slice of the training budget).
pub fn build_continue(model: &mut NeuroCard, tuples: usize, slice: u64) -> TrainProgress {
    let _s = span("neurocard.train_slice", slice);
    model.update_incremental(tuples)
}

/// Construction statistics of a built estimator.
pub fn build_stats(model: &NeuroCard) -> &EstimatorStats {
    model.stats()
}

/// Serving-ready artifact bytes of a built estimator.
pub fn artifact_bytes(model: &NeuroCard) -> Vec<u8> {
    let _s = span("neurocard.artifact.encode", 0);
    model.to_artifact().to_bytes().to_vec()
}

/// Re-encodes a parsed artifact (the encode half alone, for the layer metric).
pub fn artifact_encode(artifact: &ModelArtifact) -> usize {
    let _s = span("neurocard.artifact.encode", 0);
    artifact.to_bytes().len()
}

/// Parses artifact bytes.
pub fn artifact_parse(bytes: &[u8]) -> ModelArtifact {
    let _s = span("neurocard.artifact.parse", 0);
    ModelArtifact::from_bytes(bytes).expect("the benchmark only loads artifacts it wrote")
}

/// Artifact bytes → serving core (`from_bytes` + `to_core`).
pub fn load_core(bytes: &[u8]) -> Arc<EstimatorCore> {
    let _s = span("neurocard.artifact.load", 0);
    let artifact =
        ModelArtifact::from_bytes(bytes).expect("the benchmark only loads artifacts it wrote");
    Arc::new(
        artifact
            .to_core()
            .expect("the benchmark only loads artifacts it wrote"),
    )
}

/// A fresh inference scratch.
pub fn scratch() -> SamplerScratch {
    SamplerScratch::new()
}

/// One direct estimate on the core — the single entry point the benchmark uses.
pub fn estimate(
    core: &EstimatorCore,
    query: &Query,
    samples: usize,
    scratch: &mut SamplerScratch,
    precision: Precision,
    op: u64,
) -> Result<f64, EstimateError> {
    let _s = span("neurocard.infer.estimate", op);
    core.try_estimate_with_samples_scratch_precision(query, samples, scratch, precision)
}

/// The schema fingerprint models are registered under.
pub fn fingerprint(schema: &JoinSchema) -> u64 {
    neurocard::schema_fingerprint(schema)
}

/// The trained network of a core.
pub fn network(core: &EstimatorCore) -> &ResMade {
    core.model()
}

// ---- nn: kernels and the conditional forward ------------------------------------------------

/// Shape facts of a network the kernel probes are sized by.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetShape {
    /// Hidden width.
    pub d_hidden: usize,
    /// Embedding width.
    pub d_emb: usize,
    /// Autoregressive columns.
    pub columns: usize,
    /// Largest column domain.
    pub max_domain: usize,
}

/// Reads the layer shapes off a network.
pub fn net_shape(net: &ResMade) -> NetShape {
    let config = net.config();
    NetShape {
        d_hidden: config.d_hidden,
        d_emb: config.d_emb,
        columns: net.num_columns(),
        max_domain: config.domains.iter().copied().max().unwrap_or(1),
    }
}

/// A dense matrix from row-major data.
pub fn matrix(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
    Matrix::from_vec(rows, cols, data)
}

/// The GEMM and softmax kernels the probes time, exact (`tensor.rs`) or dispatched
/// (`kernel.rs`).
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// `tensor::matmul_blocked`
    TensorMatmulBlocked,
    /// `tensor::gemm_nt`
    TensorGemmNt,
    /// `tensor::matmul_col_range`
    TensorMatmulColRange,
    /// `kernel::matmul_blocked`
    DispatchedMatmulBlocked,
    /// `kernel::gemm_nt`
    DispatchedGemmNt,
    /// `kernel::softmax_rows_into`
    DispatchedSoftmaxRows,
}

/// Runs one kernel call.  `a` is `m×k`; `b` is `k×n` (for the `gemm_nt` kernels `n×k`,
/// for `matmul_col_range` the first `n` columns of `b` are produced); `out` is `m×n`.
pub fn run_kernel(kernel: Kernel, a: &Matrix, b: &Matrix, out: &mut Matrix, op: u64) {
    let (m, k, n) = (a.rows(), a.cols(), out.cols());
    match kernel {
        Kernel::TensorMatmulBlocked => {
            let _s = span("nn.tensor.matmul_blocked", op);
            nc_nn::tensor::matmul_blocked(a, b, out)
        }
        Kernel::TensorGemmNt => {
            let _s = span("nn.tensor.gemm_nt", op);
            nc_nn::tensor::gemm_nt(m, n, k, a.data(), b.data(), out.data_mut())
        }
        Kernel::TensorMatmulColRange => {
            let _s = span("nn.tensor.matmul_col_range", op);
            nc_nn::tensor::matmul_col_range(a, b, 0, n, out)
        }
        Kernel::DispatchedMatmulBlocked => {
            let _s = span("nn.kernel.matmul_blocked", op);
            nc_nn::kernel::matmul_blocked(a, b, out)
        }
        Kernel::DispatchedGemmNt => {
            let _s = span("nn.kernel.gemm_nt", op);
            nc_nn::kernel::gemm_nt(m, n, k, a.data(), b.data(), out.data_mut())
        }
        Kernel::DispatchedSoftmaxRows => {
            let _s = span("nn.kernel.softmax_rows", op);
            nc_nn::kernel::softmax_rows_into(a, out)
        }
    }
}

/// Name of the instruction set the dispatched kernels run on.
pub fn isa_name() -> &'static str {
    nc_nn::kernel::isa_name()
}

/// A fresh forward-pass scratch.
pub fn inference_scratch() -> InferenceScratch {
    InferenceScratch::new()
}

/// One conditional forward of the network for column `col` over a flat token buffer.
pub fn conditional_forward(
    net: &ResMade,
    tokens: &[u32],
    col: usize,
    scratch: &mut InferenceScratch,
    name: &'static str,
) -> usize {
    let _s = span(name, col as u64);
    net.conditional_probs_into(tokens, col, scratch).rows()
}

/// The MASK token of a column (what an unconstrained progressive sample carries).
pub fn mask_token(net: &ResMade, col: usize) -> u32 {
    net.mask_token(col)
}

// ---- serve: registry, service, wire --------------------------------------------------------

/// A fresh registry.
pub fn registry() -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::new())
}

/// Registers `core` as version 1 of `name`.
pub fn register(registry: &ModelRegistry, name: &str, core: Arc<EstimatorCore>) -> ModelKey {
    let _s = span("serve.registry.register", 0);
    registry
        .register_core(name, core)
        .expect("the benchmark registers each name once")
}

/// Publishes `core` as the next version of `name`.
pub fn swap(
    registry: &ModelRegistry,
    fingerprint: u64,
    name: &str,
    core: Arc<EstimatorCore>,
    op: u64,
) -> (ModelKey, ModelKey) {
    let _s = span("serve.registry.swap", op);
    let receipt = registry
        .swap(fingerprint, name, core)
        .expect("the swapped model is registered");
    (receipt.new, receipt.old)
}

/// Waits until the superseded version `key` has drained.
pub fn wait_drained(registry: &ModelRegistry, key: &ModelKey, op: u64) -> bool {
    let _s = span("serve.registry.drain", op);
    registry.wait_drained(key, Duration::from_secs(10))
}

/// Pins the version a selector resolves to (the lease is released when dropped).
pub fn lease(registry: &ModelRegistry, selector: &ModelSelector) -> ModelLease {
    registry
        .acquire(selector)
        .expect("the leased model is registered")
}

/// Acquires a lease and drops it again: the per-request lease cost alone.
pub fn lease_cycle(registry: &ModelRegistry, selector: &ModelSelector, op: u64) {
    let _s = span("serve.registry.lease", op);
    drop(lease(registry, selector));
}

/// Releases the last lease of the superseded version `key` and waits for its
/// retirement — the drain a hot swap ends with.
pub fn release_and_drain(
    registry: &ModelRegistry,
    lease: ModelLease,
    key: &ModelKey,
    op: u64,
) -> bool {
    let _s = span("serve.registry.drain", op);
    drop(lease);
    registry.wait_drained(key, Duration::from_secs(10))
}

/// "Latest version of `name` for this schema".
pub fn latest(fingerprint: u64, name: &str) -> ModelSelector {
    ModelSelector::latest(fingerprint, name)
}

/// An estimation request with an explicit sample budget (Exact tier).
pub fn request(selector: &ModelSelector, query: &Query, samples: usize) -> ServeRequest {
    ServeRequest::new(selector.clone(), query.clone()).with_samples(samples)
}

/// One request through the registry on the caller's thread (resolve, pin, estimate).
pub fn registry_handle(
    registry: &ModelRegistry,
    request: &ServeRequest,
    scratch: &mut SamplerScratch,
    op: u64,
) -> Result<ServeReply, ServeError> {
    let _s = span("serve.registry.handle", op);
    registry.handle(request, scratch)
}

/// The in-process worker-pool service.
pub fn service(registry: Arc<ModelRegistry>, workers: usize) -> RegistryService {
    RegistryService::new(
        registry,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
}

/// A handle onto the service's queue.
pub fn service_handle(service: &RegistryService) -> RegistryHandle {
    service.handle()
}

/// One request through the in-process service (queue, worker, scratch pool, lease).
pub fn service_request(
    handle: &RegistryHandle,
    request: ServeRequest,
    op: u64,
) -> Result<ServeReply, ServeError> {
    let _s = span("serve.service.request", op);
    handle.request(request)
}

/// Scratches the service's pool has ever created (flat in steady state).
pub fn scratch_created(service: &RegistryService) -> u64 {
    service.scratch_pool().total_created()
}

/// Stops the service's workers.
pub fn service_shutdown(service: RegistryService) {
    service.shutdown();
}

/// Binds the TCP reactor on a loopback port: one I/O thread, `workers` workers.
pub fn tcp_server(registry: Arc<ModelRegistry>, workers: usize) -> TcpServer {
    let _s = span("serve.tcp.bind", 0);
    TcpServer::bind_with(
        registry,
        "127.0.0.1:0",
        ReactorConfig {
            io_threads: 1,
            workers,
            ..ReactorConfig::default()
        },
    )
    .expect("binding a loopback port")
}

/// The server's address.
pub fn server_addr(server: &TcpServer) -> SocketAddr {
    server.local_addr()
}

/// The reactor's counters and gauges.
pub fn server_stats(server: &TcpServer) -> ReactorStats {
    server.stats()
}

/// Stops the server and joins its threads.
pub fn server_shutdown(server: TcpServer) {
    server.shutdown()
}

/// Connects a blocking client.
pub fn connect(addr: SocketAddr) -> ServeClient {
    let _s = span("serve.tcp.connect", 0);
    ServeClient::connect(addr).expect("connecting to the loopback server")
}

/// Writes one request frame without waiting (the pipelining half).
pub fn send(client: &mut ServeClient, request: &ServeRequest, op: u64) -> Result<(), ServeError> {
    let _s = span("serve.tcp.send", op);
    client.send_request(request)
}

/// Blocks for the next in-order reply.
pub fn recv(client: &mut ServeClient, op: u64) -> Result<ServeReply, ServeError> {
    let _s = span("serve.tcp.recv", op);
    client.recv_result()
}

/// One blocking round trip.
pub fn round_trip(
    client: &mut ServeClient,
    request: &ServeRequest,
    op: u64,
) -> Result<ServeReply, ServeError> {
    let _s = span("serve.tcp.round_trip", op);
    client.request(request)
}

/// The server's per-model latency split, over the wire.
pub fn wire_stats(client: &mut ServeClient) -> Vec<ModelStats> {
    let _s = span("serve.tcp.stats", 0);
    client.stats().expect("the stats admin request is answered")
}

/// Encodes and decodes one request and one reply — the codec work of one round trip.
pub fn codec_round(request: &ServeRequest, reply: &ServeReply, op: u64) -> bool {
    let _s = span("serve.protocol.codec", op);
    let decoded = nc_serve::decode_request(&nc_serve::encode_request(request));
    let result = nc_serve::decode_result(&nc_serve::encode_result(&Ok(reply.clone())));
    decoded.as_ref() == Ok(request) && result == Ok(Ok(reply.clone()))
}

/// Opens a registry journal at `path`.
pub fn journal(path: &Path) -> RegistryJournal {
    RegistryJournal::open(path)
        .expect("opening a journal inside the benchmark's output directory")
        .0
}

/// Appends (and fsyncs) one publish event.
pub fn journal_append(journal: &mut RegistryJournal, key: &ModelKey, op: u64) {
    let _s = span("serve.journal.append", op);
    journal
        .append(&JournalEvent::publish(key, "probe.ncar"))
        .expect("appending to the benchmark's own journal");
}

// ---- pipeline --------------------------------------------------------------------------

/// The pinned pipeline configuration: every step's drift check fires (`shift_threshold`
/// 0), every candidate is compared on all mirrored traffic and promoted (`promote_margin`
/// 0, one shadow sample suffices), so a run's decisions depend on nothing but its seed.
pub fn pipeline_config(
    seed: u64,
    name: &str,
    artifact_dir: &Path,
    model: NeuroCardConfig,
) -> PipelineConfig {
    PipelineConfig {
        shift_threshold: 0.0,
        mirror_per_mille: 1000,
        min_shadow_samples: 1,
        promote_margin: 0.0,
        model,
        faults: FaultInjector::disabled(),
        ..PipelineConfig::new(seed, artifact_dir).with_model_name(name)
    }
}

/// Starts the control plane over an already-registered incumbent, journaling to `journal`.
pub fn pipeline(
    config: PipelineConfig,
    registry: Arc<ModelRegistry>,
    journal: RegistryJournal,
    schema: Arc<JoinSchema>,
    db: Arc<Database>,
    source: DeltaSource,
) -> Pipeline<DeltaSource> {
    let _s = span("pipeline.new", 0);
    Pipeline::new(
        config,
        registry,
        Some(SharedJournal::new(journal)),
        schema,
        db,
        source,
    )
    .expect("the incumbent is registered before the pipeline starts")
}

/// One pipeline step; `observe` sees every milestone in decision order.  Also returns
/// the id of the span around the step, so stage spans can name it as their parent.
pub fn pipeline_step(
    pipeline: &mut Pipeline<DeltaSource>,
    step: u64,
    observe: &mut dyn FnMut(PipelineEvent),
) -> (Result<StepReport, PipelineError>, u64) {
    let s = span("pipeline.step", step);
    (pipeline.step_with(observe), s.id())
}

/// The pipeline's running totals.
pub fn pipeline_counters(pipeline: &Pipeline<DeltaSource>) -> PipelineCounters {
    pipeline.counters().clone()
}

/// The pipeline's current snapshot.
pub fn pipeline_db(pipeline: &Pipeline<DeltaSource>) -> Arc<Database> {
    pipeline.db().clone()
}

/// The replay digest of one step's decisions.
pub fn step_digest(report: &StepReport) -> String {
    report.digest()
}

/// Applies one batch copy-on-append (the ingest stage alone).
pub fn apply_batch(db: &Database, batch: &UpdateBatch, op: u64) -> Database {
    let _s = span("pipeline.ingest.apply_batch", op);
    nc_pipeline::apply_batch(db, batch)
}

impl UpdateSource for DeltaSource {
    fn next_batch(&mut self) -> Option<UpdateBatch> {
        self.hand_over()
    }
}
