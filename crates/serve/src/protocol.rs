//! The transport-independent request/response protocol.
//!
//! [`ServeRequest`] / [`ServeReply`] are the one pair of types every serving surface
//! speaks: the in-process [`crate::RegistryService`], the TCP front-end, and the
//! benches.  This module also defines their **wire form**: a length-prefixed binary
//! codec built on the checked [`nc_storage::binio`] primitives, so a corrupt or hostile
//! stream produces a typed [`ServeError::Protocol`] instead of a panic or an oversized
//! allocation.
//!
//! Framing (all integers little-endian):
//!
//! ```text
//! frame      u32 payload length (≤ MAX_FRAME_LEN), payload bytes
//! request    0x01, selector, query, samples, [precision]
//!            (precision byte 0x01 = fast tier, appended only when requested;
//!            absent = exact, so pre-precision encodings stay byte-identical)
//! reply      0x02, key, estimate f64 bits as u64 (bit-exact across the wire),
//!            degraded u8 (1 = served by the stats fallback, not a registered model)
//! error      0x03, error code u8, error fields
//! deregister 0x04, fingerprint u64, name string       (admin request)
//! deregistered 0x05, key                              (admin reply: the removed version)
//! stats      0x06                                     (admin request, no operands)
//! stats-reply 0x07, count u32, per model: key, served u64,
//!            p50/p99/qps f64 bits as u64              (admin reply, sorted by key)
//! selector   0x00 key | 0x01 fingerprint u64, has_name u8, [name]
//! key        fingerprint u64, name string, version u64
//! query      table count u32, tables; filter count u32, filters
//! filter     table, column, op u8, literal count u32, literals (binio Value encoding)
//! string     u64 length, UTF-8 bytes (binio)
//! ```
//!
//! The estimate crosses the wire as raw `f64` bits, so the determinism contract —
//! registry-routed estimates are bit-identical to direct [`neurocard::EstimatorCore`]
//! calls — survives serialisation exactly.

use std::io::{Read, Write};

use nc_schema::{CompareOp, Predicate, Query, TableFilter};
use nc_storage::binio::{put_string, BinError, BinReader};
use nc_storage::Value;
use neurocard::{EstimateError, Precision};

use crate::registry::{ModelKey, ModelSelector, ModelStats};
use crate::ServeError;

/// A routing-aware estimation request: which model, which query, how many samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Which model serves this request.
    pub selector: ModelSelector,
    /// The cardinality query.
    pub query: Query,
    /// Progressive-sample budget; `None` uses the selected model's default.
    pub samples: Option<usize>,
    /// Which inference tier answers: [`Precision::Exact`] (the default — bit-identical to
    /// direct core calls) or [`Precision::Fast`] (SIMD kernels over the same weights, gated
    /// by the q-error-delta bound).  Estimators without a fast tier serve exactly either way.
    pub precision: Precision,
}

impl ServeRequest {
    /// A request with the model's default sample budget, served at [`Precision::Exact`].
    pub fn new(selector: ModelSelector, query: Query) -> Self {
        ServeRequest {
            selector,
            query,
            samples: None,
            precision: Precision::Exact,
        }
    }

    /// Sets an explicit sample budget (builder style).
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }

    /// Selects the inference tier (builder style).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// A successful estimate, stamped with the exact model version that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReply {
    /// The version that served the request (selectors may be indirect; this never is).
    /// Degraded replies carry a synthetic key: the fallback estimator's name at
    /// version `0` — a version no registered model can ever hold.
    pub key: ModelKey,
    /// The estimated row count.
    pub estimate: f64,
    /// `true` when the estimate came from the statistics fallback (no live model
    /// matched the selector); the number is a coarse independence-assumption
    /// estimate, not a learned one.  Flagged on the wire so planners can weigh it.
    pub degraded: bool,
}

/// Frames larger than this are rejected before allocation (corrupt length prefix or a
/// hostile peer; real requests are a few hundred bytes).
pub const MAX_FRAME_LEN: usize = 1 << 24;

const MSG_REQUEST: u8 = 0x01;
const MSG_REPLY: u8 = 0x02;
const MSG_ERROR: u8 = 0x03;
pub(crate) const MSG_DEREGISTER: u8 = 0x04;
const MSG_DEREGISTERED: u8 = 0x05;
pub(crate) const MSG_STATS: u8 = 0x06;
const MSG_STATS_REPLY: u8 = 0x07;

const SEL_EXACT: u8 = 0x00;
const SEL_LATEST: u8 = 0x01;

fn op_tag(op: &CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::Lt => 1,
        CompareOp::Le => 2,
        CompareOp::Gt => 3,
        CompareOp::Ge => 4,
        CompareOp::In => 5,
    }
}

fn op_from_tag(tag: u8) -> Result<CompareOp, ServeError> {
    Ok(match tag {
        0 => CompareOp::Eq,
        1 => CompareOp::Lt,
        2 => CompareOp::Le,
        3 => CompareOp::Gt,
        4 => CompareOp::Ge,
        5 => CompareOp::In,
        other => return Err(protocol_err(format!("unknown compare-op tag {other}"))),
    })
}

fn protocol_err(message: impl std::fmt::Display) -> ServeError {
    ServeError::Protocol(message.to_string())
}

fn bin(e: BinError) -> ServeError {
    protocol_err(e)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_key(out: &mut Vec<u8>, key: &ModelKey) {
    put_u64(out, key.schema_fingerprint);
    put_string(out, &key.name);
    put_u64(out, key.version);
}

fn decode_key(r: &mut BinReader<'_>) -> Result<ModelKey, ServeError> {
    Ok(ModelKey {
        schema_fingerprint: r.u64().map_err(bin)?,
        name: r.string().map_err(bin)?,
        version: r.u64().map_err(bin)?,
    })
}

fn encode_selector(out: &mut Vec<u8>, selector: &ModelSelector) {
    match selector {
        ModelSelector::Exact(key) => {
            out.push(SEL_EXACT);
            encode_key(out, key);
        }
        ModelSelector::Latest {
            schema_fingerprint,
            name,
        } => {
            out.push(SEL_LATEST);
            put_u64(out, *schema_fingerprint);
            match name {
                Some(name) => {
                    out.push(1);
                    put_string(out, name);
                }
                None => out.push(0),
            }
        }
    }
}

fn decode_selector(r: &mut BinReader<'_>) -> Result<ModelSelector, ServeError> {
    match r.u8().map_err(bin)? {
        SEL_EXACT => Ok(ModelSelector::Exact(decode_key(r)?)),
        SEL_LATEST => {
            let schema_fingerprint = r.u64().map_err(bin)?;
            let name = match r.u8().map_err(bin)? {
                0 => None,
                1 => Some(r.string().map_err(bin)?),
                other => return Err(protocol_err(format!("bad name-presence byte {other}"))),
            };
            Ok(ModelSelector::Latest {
                schema_fingerprint,
                name,
            })
        }
        other => Err(protocol_err(format!("unknown selector tag {other}"))),
    }
}

fn encode_query(out: &mut Vec<u8>, query: &Query) {
    put_u32(out, query.tables.len() as u32);
    for t in &query.tables {
        put_string(out, t);
    }
    put_u32(out, query.filters.len() as u32);
    for f in &query.filters {
        put_string(out, &f.table);
        put_string(out, &f.column);
        out.push(op_tag(&f.predicate.op));
        put_u32(out, f.predicate.literals.len() as u32);
        for v in &f.predicate.literals {
            v.write_binary(out);
        }
    }
}

fn decode_query(r: &mut BinReader<'_>) -> Result<Query, ServeError> {
    let num_tables = r.u32().map_err(bin)? as usize;
    let mut tables = Vec::with_capacity(num_tables.min(1 << 16));
    for _ in 0..num_tables {
        tables.push(r.string().map_err(bin)?);
    }
    let num_filters = r.u32().map_err(bin)? as usize;
    let mut filters = Vec::with_capacity(num_filters.min(1 << 16));
    for _ in 0..num_filters {
        let table = r.string().map_err(bin)?;
        let column = r.string().map_err(bin)?;
        let op = op_from_tag(r.u8().map_err(bin)?)?;
        let num_literals = r.u32().map_err(bin)? as usize;
        let mut literals = Vec::with_capacity(num_literals.min(1 << 16));
        for _ in 0..num_literals {
            literals.push(Value::read_binary(r).map_err(bin)?);
        }
        // Predicate::new asserts its invariants (literal arity); re-validate here so a
        // hostile stream cannot reach the panic.
        match op {
            CompareOp::In if literals.is_empty() => {
                return Err(protocol_err("IN predicate with no literals"));
            }
            CompareOp::In => {}
            _ if literals.len() != 1 => {
                return Err(protocol_err(format!(
                    "binary predicate with {} literals",
                    literals.len()
                )));
            }
            _ => {}
        }
        filters.push(TableFilter {
            table,
            column,
            predicate: Predicate { op, literals },
        });
    }
    Ok(Query { tables, filters })
}

fn error_code(e: &ServeError) -> (u8, Vec<u8>) {
    let mut fields = Vec::new();
    let code = match e {
        ServeError::Estimate(EstimateError::InvalidQuery(msg)) => {
            put_string(&mut fields, msg);
            0
        }
        ServeError::Estimate(EstimateError::UnknownColumn { table, column }) => {
            put_string(&mut fields, table);
            put_string(&mut fields, column);
            1
        }
        ServeError::Estimate(EstimateError::InvalidSampleCount) => 2,
        ServeError::UnknownModel(selector) => {
            put_string(&mut fields, selector);
            3
        }
        ServeError::StaleVersion { requested, current } => {
            encode_key(&mut fields, requested);
            encode_key(&mut fields, current);
            4
        }
        ServeError::AlreadyRegistered(key) => {
            encode_key(&mut fields, key);
            5
        }
        ServeError::ShuttingDown => 6,
        ServeError::Transport(msg) => {
            put_string(&mut fields, msg);
            7
        }
        ServeError::Protocol(msg) => {
            put_string(&mut fields, msg);
            8
        }
        ServeError::Overloaded => 9,
        ServeError::Internal(msg) => {
            put_string(&mut fields, msg);
            10
        }
        ServeError::Timeout => 11,
    };
    (code, fields)
}

fn decode_error(r: &mut BinReader<'_>) -> Result<ServeError, ServeError> {
    Ok(match r.u8().map_err(bin)? {
        0 => ServeError::Estimate(EstimateError::InvalidQuery(r.string().map_err(bin)?)),
        1 => ServeError::Estimate(EstimateError::UnknownColumn {
            table: r.string().map_err(bin)?,
            column: r.string().map_err(bin)?,
        }),
        2 => ServeError::Estimate(EstimateError::InvalidSampleCount),
        3 => ServeError::UnknownModel(r.string().map_err(bin)?),
        4 => ServeError::StaleVersion {
            requested: decode_key(r)?,
            current: decode_key(r)?,
        },
        5 => ServeError::AlreadyRegistered(decode_key(r)?),
        6 => ServeError::ShuttingDown,
        7 => ServeError::Transport(r.string().map_err(bin)?),
        8 => ServeError::Protocol(r.string().map_err(bin)?),
        9 => ServeError::Overloaded,
        10 => ServeError::Internal(r.string().map_err(bin)?),
        11 => ServeError::Timeout,
        other => return Err(protocol_err(format!("unknown error code {other}"))),
    })
}

/// Encodes a request payload (unframed).
pub fn encode_request(request: &ServeRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.push(MSG_REQUEST);
    encode_selector(&mut out, &request.selector);
    encode_query(&mut out, &request.query);
    match request.samples {
        Some(n) => {
            out.push(1);
            put_u64(&mut out, n as u64);
        }
        None => out.push(0),
    }
    // Appended only for the fast tier: exact requests keep the pre-precision encoding
    // byte-for-byte, so old clients and recorded frames stay valid.
    if request.precision == Precision::Fast {
        out.push(1);
    }
    out
}

/// Decodes a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<ServeRequest, ServeError> {
    let mut r = BinReader::new(payload);
    if r.u8().map_err(bin)? != MSG_REQUEST {
        return Err(protocol_err("payload is not a request"));
    }
    let selector = decode_selector(&mut r)?;
    let query = decode_query(&mut r)?;
    let samples = match r.u8().map_err(bin)? {
        0 => None,
        1 => {
            let n = r.u64().map_err(bin)?;
            Some(usize::try_from(n).map_err(|_| protocol_err("sample budget overflows usize"))?)
        }
        other => return Err(protocol_err(format!("bad samples-presence byte {other}"))),
    };
    let precision = if r.is_empty() {
        Precision::Exact
    } else {
        match r.u8().map_err(bin)? {
            1 => Precision::Fast,
            other => return Err(protocol_err(format!("bad precision byte {other}"))),
        }
    };
    if !r.is_empty() {
        return Err(protocol_err(format!(
            "{} trailing bytes after request",
            r.remaining()
        )));
    }
    Ok(ServeRequest {
        selector,
        query,
        samples,
        precision,
    })
}

/// Encodes a reply-or-error payload (unframed).
pub fn encode_result(result: &Result<ServeReply, ServeError>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match result {
        Ok(reply) => {
            out.push(MSG_REPLY);
            encode_key(&mut out, &reply.key);
            put_u64(&mut out, reply.estimate.to_bits());
            out.push(u8::from(reply.degraded));
        }
        Err(e) => {
            out.push(MSG_ERROR);
            let (code, fields) = error_code(e);
            out.push(code);
            out.extend_from_slice(&fields);
        }
    }
    out
}

/// Decodes a payload produced by [`encode_result`].
///
/// The outer `Err` is a local decode failure; a successfully decoded *remote* error
/// comes back as `Ok(Err(...))`.
pub fn decode_result(payload: &[u8]) -> Result<Result<ServeReply, ServeError>, ServeError> {
    let mut r = BinReader::new(payload);
    let result = match r.u8().map_err(bin)? {
        MSG_REPLY => {
            let key = decode_key(&mut r)?;
            let estimate = f64::from_bits(r.u64().map_err(bin)?);
            let degraded = match r.u8().map_err(bin)? {
                0 => false,
                1 => true,
                other => return Err(protocol_err(format!("bad degraded flag {other}"))),
            };
            Ok(ServeReply {
                key,
                estimate,
                degraded,
            })
        }
        MSG_ERROR => Err(decode_error(&mut r)?),
        other => return Err(protocol_err(format!("unknown message tag {other}"))),
    };
    if !r.is_empty() {
        return Err(protocol_err(format!(
            "{} trailing bytes after response",
            r.remaining()
        )));
    }
    Ok(result)
}

/// Encodes an admin deregister request (unframed): remove `(schema_fingerprint,
/// name)` from the routing table.
pub fn encode_deregister(schema_fingerprint: u64, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(MSG_DEREGISTER);
    put_u64(&mut out, schema_fingerprint);
    put_string(&mut out, name);
    out
}

/// Decodes a payload produced by [`encode_deregister`].
pub fn decode_deregister(payload: &[u8]) -> Result<(u64, String), ServeError> {
    let mut r = BinReader::new(payload);
    if r.u8().map_err(bin)? != MSG_DEREGISTER {
        return Err(protocol_err("payload is not a deregister request"));
    }
    let schema_fingerprint = r.u64().map_err(bin)?;
    let name = r.string().map_err(bin)?;
    if !r.is_empty() {
        return Err(protocol_err(format!(
            "{} trailing bytes after deregister request",
            r.remaining()
        )));
    }
    Ok((schema_fingerprint, name))
}

/// Encodes the admin reply to a deregister: the removed version on success, the
/// shared error encoding otherwise.
pub fn encode_admin_result(result: &Result<ModelKey, ServeError>) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match result {
        Ok(key) => {
            out.push(MSG_DEREGISTERED);
            encode_key(&mut out, key);
        }
        Err(e) => {
            out.push(MSG_ERROR);
            let (code, fields) = error_code(e);
            out.push(code);
            out.extend_from_slice(&fields);
        }
    }
    out
}

/// Decodes a payload produced by [`encode_admin_result`].  As with
/// [`decode_result`], the outer `Err` is a local decode failure; a decoded remote
/// error is `Ok(Err(...))`.
pub fn decode_admin_result(payload: &[u8]) -> Result<Result<ModelKey, ServeError>, ServeError> {
    let mut r = BinReader::new(payload);
    let result = match r.u8().map_err(bin)? {
        MSG_DEREGISTERED => Ok(decode_key(&mut r)?),
        MSG_ERROR => Err(decode_error(&mut r)?),
        other => return Err(protocol_err(format!("unknown admin message tag {other}"))),
    };
    if !r.is_empty() {
        return Err(protocol_err(format!(
            "{} trailing bytes after admin response",
            r.remaining()
        )));
    }
    Ok(result)
}

/// Encodes an admin stats request (unframed): report the registry's per-model
/// latency/throughput split.  The request carries no operands — the tag is the
/// whole payload.
pub fn encode_stats_request() -> Vec<u8> {
    vec![MSG_STATS]
}

/// Decodes a payload produced by [`encode_stats_request`].
pub fn decode_stats_request(payload: &[u8]) -> Result<(), ServeError> {
    let mut r = BinReader::new(payload);
    if r.u8().map_err(bin)? != MSG_STATS {
        return Err(protocol_err("payload is not a stats request"));
    }
    if !r.is_empty() {
        return Err(protocol_err(format!(
            "{} trailing bytes after stats request",
            r.remaining()
        )));
    }
    Ok(())
}

/// Encodes the admin reply to a stats request: the per-model split on success
/// (sorted by key, as [`crate::ModelRegistry::model_stats`] returns it), the shared
/// error encoding otherwise.  Latency and rate figures cross the wire as raw `f64`
/// bits, so monitors see exactly what the server measured.
pub fn encode_stats_result(result: &Result<Vec<ModelStats>, ServeError>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match result {
        Ok(stats) => {
            out.push(MSG_STATS_REPLY);
            put_u32(&mut out, stats.len() as u32);
            for s in stats {
                encode_key(&mut out, &s.key);
                put_u64(&mut out, s.served);
                put_u64(&mut out, s.p50_us.to_bits());
                put_u64(&mut out, s.p99_us.to_bits());
                put_u64(&mut out, s.queries_per_sec.to_bits());
            }
        }
        Err(e) => {
            out.push(MSG_ERROR);
            let (code, fields) = error_code(e);
            out.push(code);
            out.extend_from_slice(&fields);
        }
    }
    out
}

/// Decodes a payload produced by [`encode_stats_result`].  As with
/// [`decode_result`], the outer `Err` is a local decode failure; a decoded remote
/// error is `Ok(Err(...))`.
pub fn decode_stats_result(
    payload: &[u8],
) -> Result<Result<Vec<ModelStats>, ServeError>, ServeError> {
    let mut r = BinReader::new(payload);
    let result = match r.u8().map_err(bin)? {
        MSG_STATS_REPLY => {
            let count = r.u32().map_err(bin)? as usize;
            let mut stats = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let key = decode_key(&mut r)?;
                let served = r.u64().map_err(bin)?;
                let p50_us = f64::from_bits(r.u64().map_err(bin)?);
                let p99_us = f64::from_bits(r.u64().map_err(bin)?);
                let queries_per_sec = f64::from_bits(r.u64().map_err(bin)?);
                stats.push(ModelStats {
                    key,
                    served,
                    p50_us,
                    p99_us,
                    queries_per_sec,
                });
            }
            Ok(stats)
        }
        MSG_ERROR => Err(decode_error(&mut r)?),
        other => return Err(protocol_err(format!("unknown stats message tag {other}"))),
    };
    if !r.is_empty() {
        return Err(protocol_err(format!(
            "{} trailing bytes after stats response",
            r.remaining()
        )));
    }
    Ok(result)
}

/// Maps an I/O failure to the typed serve error: socket-timeout kinds become
/// [`ServeError::Timeout`] (the client sets SO_RCVTIMEO/SO_SNDTIMEO), the rest
/// [`ServeError::Transport`].
fn io_err(e: std::io::Error) -> ServeError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => ServeError::Timeout,
        _ => ServeError::Transport(e.to_string()),
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(protocol_err(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte limit",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads one length-prefixed frame, rejecting oversized length prefixes before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ServeError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(io_err)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(protocol_err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(io_err)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_schema::Predicate;

    fn sample_request() -> ServeRequest {
        ServeRequest::new(
            ModelSelector::Exact(ModelKey::new(0xfeed, "neurocard", 3)),
            Query::join(&["A", "B"])
                .filter("A", "c", Predicate::eq(7i64))
                .filter(
                    "B",
                    "tag",
                    Predicate::isin(vec![Value::from("x"), Value::Null]),
                )
                .filter("A", "d", Predicate::le("zz")),
        )
        .with_samples(64)
    }

    #[test]
    fn request_round_trips() {
        let requests = [
            sample_request(),
            sample_request().with_precision(Precision::Fast),
            ServeRequest::new(ModelSelector::latest(1, "m"), Query::join(&["t"])),
            ServeRequest::new(
                ModelSelector::latest_for_schema(u64::MAX),
                Query::join(&["t"]),
            ),
        ];
        for request in &requests {
            let bytes = encode_request(request);
            assert_eq!(&decode_request(&bytes).unwrap(), request);
        }
    }

    #[test]
    fn precision_byte_is_fast_only_and_backward_compatible() {
        let exact = sample_request();
        let fast = sample_request().with_precision(Precision::Fast);
        let exact_bytes = encode_request(&exact);
        let fast_bytes = encode_request(&fast);
        // Exact requests keep the pre-precision encoding: the fast frame is the exact
        // frame plus exactly one trailing tier byte.
        assert_eq!(fast_bytes.len(), exact_bytes.len() + 1);
        assert_eq!(&fast_bytes[..exact_bytes.len()], &exact_bytes[..]);
        assert_eq!(
            decode_request(&exact_bytes).unwrap().precision,
            Precision::Exact
        );
        assert_eq!(
            decode_request(&fast_bytes).unwrap().precision,
            Precision::Fast
        );
        // Only 0x01 is a legal tier byte — anything else is trailing garbage.
        let mut bad = exact_bytes.clone();
        bad.push(2);
        assert!(matches!(decode_request(&bad), Err(ServeError::Protocol(_))));
        let mut extra = fast_bytes.clone();
        extra.push(1);
        assert!(decode_request(&extra).is_err());
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        for degraded in [false, true] {
            let reply = ServeReply {
                key: ModelKey::new(42, "m", 9),
                estimate: 1_234.567_891_011e-3,
                degraded,
            };
            let back = decode_result(&encode_result(&Ok(reply.clone())))
                .unwrap()
                .unwrap();
            assert_eq!(back.key, reply.key);
            assert_eq!(back.estimate.to_bits(), reply.estimate.to_bits());
            assert_eq!(back.degraded, degraded);
        }

        let errors = [
            ServeError::Estimate(EstimateError::InvalidQuery("boom".into())),
            ServeError::Estimate(EstimateError::UnknownColumn {
                table: "t".into(),
                column: "c".into(),
            }),
            ServeError::Estimate(EstimateError::InvalidSampleCount),
            ServeError::UnknownModel("0000000000000001/m@latest".into()),
            ServeError::StaleVersion {
                requested: ModelKey::new(1, "m", 1),
                current: ModelKey::new(1, "m", 2),
            },
            ServeError::AlreadyRegistered(ModelKey::new(1, "m", 1)),
            ServeError::ShuttingDown,
            ServeError::Overloaded,
            ServeError::Internal("estimator panicked: boom".into()),
            ServeError::Transport("connection reset".into()),
            ServeError::Protocol("bad tag".into()),
            ServeError::Timeout,
        ];
        for e in errors {
            let back = decode_result(&encode_result(&Err(e.clone()))).unwrap();
            assert_eq!(back, Err(e));
        }
    }

    #[test]
    fn admin_deregister_round_trips() {
        let bytes = encode_deregister(0xfeed_beef_dead_cafe, "neurocard");
        assert_eq!(
            decode_deregister(&bytes).unwrap(),
            (0xfeed_beef_dead_cafe, "neurocard".to_string())
        );
        // Results: removed key, and the shared error encoding.
        let key = ModelKey::new(7, "m", 4);
        let ok = encode_admin_result(&Ok(key.clone()));
        assert_eq!(decode_admin_result(&ok).unwrap(), Ok(key));
        let err = encode_admin_result(&Err(ServeError::UnknownModel("x".into())));
        assert_eq!(
            decode_admin_result(&err).unwrap(),
            Err(ServeError::UnknownModel("x".into()))
        );
        // Corruption: truncation at every length errors cleanly, trailing bytes and
        // cross-type decodes are rejected.
        for cut in 0..bytes.len() {
            assert!(decode_deregister(&bytes[..cut]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_deregister(&padded).is_err());
        assert!(decode_request(&bytes).is_err());
        assert!(decode_admin_result(&bytes).is_err());
        let mut padded_ok = encode_admin_result(&Ok(ModelKey::new(1, "m", 1)));
        padded_ok.push(9);
        assert!(decode_admin_result(&padded_ok).is_err());
    }

    #[test]
    fn admin_stats_round_trips() {
        let bytes = encode_stats_request();
        decode_stats_request(&bytes).unwrap();
        // Operand-free request: trailing bytes and cross-type decodes are rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_stats_request(&padded).is_err());
        assert!(decode_request(&bytes).is_err());
        assert!(decode_deregister(&bytes).is_err());

        // Reply: empty and multi-model, f64 figures bit-exact across the wire.
        let empty = encode_stats_result(&Ok(Vec::new()));
        assert_eq!(decode_stats_result(&empty).unwrap(), Ok(Vec::new()));
        let stats = vec![
            ModelStats {
                key: ModelKey::new(7, "m", 1),
                served: 42,
                p50_us: 13.25,
                p99_us: 99.031_25,
                queries_per_sec: 1_234.567_891_011e-3,
            },
            ModelStats {
                key: ModelKey::new(7, "m", 2),
                served: 0,
                p50_us: 0.0,
                p99_us: 0.0,
                queries_per_sec: 0.0,
            },
        ];
        let ok = encode_stats_result(&Ok(stats.clone()));
        let back = decode_stats_result(&ok).unwrap().unwrap();
        assert_eq!(back.len(), 2);
        for (b, s) in back.iter().zip(&stats) {
            assert_eq!(b.key, s.key);
            assert_eq!(b.served, s.served);
            assert_eq!(b.p50_us.to_bits(), s.p50_us.to_bits());
            assert_eq!(b.p99_us.to_bits(), s.p99_us.to_bits());
            assert_eq!(b.queries_per_sec.to_bits(), s.queries_per_sec.to_bits());
        }
        // Shared error encoding, truncation at every length, trailing garbage.
        let err = encode_stats_result(&Err(ServeError::Overloaded));
        assert_eq!(
            decode_stats_result(&err).unwrap(),
            Err(ServeError::Overloaded)
        );
        for cut in 0..ok.len() {
            assert!(decode_stats_result(&ok[..cut]).is_err());
        }
        let mut padded_ok = ok.clone();
        padded_ok.push(0);
        assert!(decode_stats_result(&padded_ok).is_err());
        assert!(decode_admin_result(&ok).is_err());
    }

    #[test]
    fn socket_timeouts_surface_as_typed_timeout() {
        struct TimesOut;
        impl std::io::Read for TimesOut {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "rcvtimeo",
                ))
            }
        }
        impl std::io::Write for TimesOut {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::TimedOut))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(read_frame(&mut TimesOut), Err(ServeError::Timeout));
        assert_eq!(write_frame(&mut TimesOut, b"x"), Err(ServeError::Timeout));
    }

    #[test]
    fn corrupt_payloads_error_cleanly() {
        let bytes = encode_request(&sample_request());
        // Truncation at every length errors (never panics).
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        // Wrong message tag.
        let mut wrong = bytes.clone();
        wrong[0] = 0x7F;
        assert!(matches!(
            decode_request(&wrong),
            Err(ServeError::Protocol(_))
        ));
        // A request is not a result and vice versa.
        assert!(decode_result(&bytes).is_err());
        // Hostile IN-arity payloads cannot reach Predicate::new's assert.
        let evil = {
            let mut out = Vec::new();
            out.push(MSG_REQUEST);
            encode_selector(&mut out, &ModelSelector::latest(0, "m"));
            put_u32(&mut out, 1);
            put_string(&mut out, "t");
            put_u32(&mut out, 1); // one filter
            put_string(&mut out, "t");
            put_string(&mut out, "c");
            out.push(0); // Eq
            put_u32(&mut out, 2); // ...with two literals
            Value::Int(1).write_binary(&mut out);
            Value::Int(2).write_binary(&mut out);
            out.push(0);
            out
        };
        assert!(matches!(
            decode_request(&evil),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = encode_request(&sample_request());
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"second");
        // EOF → transport error.
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ServeError::Transport(_))
        ));
        // A hostile length prefix is rejected before allocation.
        let mut evil = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut evil),
            Err(ServeError::Protocol(_))
        ));
    }
}
