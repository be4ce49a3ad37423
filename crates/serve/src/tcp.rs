//! The blocking TCP client of the serving protocol.
//!
//! [`ServeClient`] talks to a [`crate::TcpServer`] (the [`crate::reactor`]): requests
//! are length-prefixed [`ServeRequest`] frames, and replies come back strictly in
//! per-connection order, so a client may pipeline.  Because the estimate crosses the
//! wire as raw `f64` bits, a TCP round trip is **bit-identical** to calling the
//! registry in process — pinned by the `wire_protocol` and `reactor_frontend`
//! integration tests.
//!
//! What the server does with a malformed frame, a full queue or a stalled peer is the
//! reactor's business (`docs/serving.md`); what the client does about the errors it
//! sees — deadlines, backoff, reconnect-and-replay — is [`ServeClient::request`]'s.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use nc_schema::Query;

use crate::fault::{splitmix64_mix, FaultInjector, GOLDEN_GAMMA};
use crate::protocol::{
    decode_admin_result, decode_result, decode_stats_result, encode_deregister, encode_request,
    encode_stats_request, read_frame, write_frame, ServeReply, ServeRequest,
};
use crate::registry::{ModelKey, ModelSelector, ModelStats};
use crate::ServeError;

/// Client-side resilience tuning for [`ServeClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Overall per-request deadline.  Socket read/write timeouts are derived from
    /// what remains of it, so a dead or unresponsive server surfaces as a typed
    /// [`ServeError::Timeout`] instead of blocking forever.
    pub request_timeout: Duration,
    /// Retry budget per [`ServeClient::request`] call (estimates are idempotent —
    /// deterministic functions of `(seed, query)` — so replaying is always safe).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed of the backoff jitter stream (deterministic per client; give concurrent
    /// clients distinct seeds so their retries decorrelate reproducibly).
    pub retry_seed: u64,
    /// Client-side fault injection (`client.conn-drop`) and the injectable clock
    /// backoff sleeps through.
    pub faults: FaultInjector,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: Duration::from_secs(30),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            retry_seed: 0,
            faults: FaultInjector::disabled(),
        }
    }
}

/// A blocking client for the TCP front-end: one connection, in-order replies, with
/// optional pipelining via [`ServeClient::send_request`] / [`ServeClient::recv_result`].
///
/// [`ServeClient::request`] adds the resilience layer: per-request deadlines,
/// bounded exponential backoff with seeded jitter, and reconnect-and-replay for
/// the idempotent estimate path.  The raw pipelining halves stay single-shot.
pub struct ServeClient {
    stream: TcpStream,
    addr: SocketAddr,
    config: ClientConfig,
    /// Jitter-stream position (monotonic across the client's lifetime).
    backoffs: u64,
    retries: u64,
    reconnects: u64,
}

impl ServeClient {
    /// Connects to a [`crate::TcpServer`] with default [`ClientConfig`] tuning.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit resilience tuning.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let stream = Self::dial(addr, config.request_timeout)?;
        Ok(ServeClient {
            stream,
            addr,
            config,
            backoffs: 0,
            retries: 0,
            reconnects: 0,
        })
    }

    fn dial(addr: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
        let stream = if timeout.is_zero() {
            TcpStream::connect(addr)?
        } else {
            TcpStream::connect_timeout(&addr, timeout)?
        };
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Total retried attempts across this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total reconnects across this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Arms both socket timeouts with what remains of `deadline`.
    fn set_deadline(&mut self, deadline: Instant) -> Result<(), ServeError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ServeError::Timeout);
        }
        let transport = |e: std::io::Error| ServeError::Transport(e.to_string());
        self.stream
            .set_read_timeout(Some(remaining))
            .map_err(transport)?;
        self.stream
            .set_write_timeout(Some(remaining))
            .map_err(transport)?;
        Ok(())
    }

    /// Deterministically jittered exponential backoff for retry `attempt` (1-based):
    /// `min(base · 2^(attempt-1), cap)` scaled into `[0.5, 1.0]` by the client's
    /// seeded jitter stream.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.backoff_cap);
        let draw =
            splitmix64_mix(self.config.retry_seed ^ self.backoffs.wrapping_add(GOLDEN_GAMMA));
        self.backoffs += 1;
        let jitter = 0.5 + 0.5 * (draw >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(jitter)
    }

    /// One wire round trip under `deadline` (no retries).
    fn attempt(
        &mut self,
        request: &ServeRequest,
        deadline: Instant,
    ) -> Result<ServeReply, ServeError> {
        self.set_deadline(deadline)?;
        if self.config.faults.fires("client.conn-drop") {
            // Simulate the peer vanishing mid-request: kill our half so the write
            // (or read) below fails through the real socket error path.
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        write_frame(&mut self.stream, &encode_request(request))?;
        let frame = read_frame(&mut self.stream)?;
        decode_result(&frame)?
    }

    /// Sends one request and blocks for its reply, retrying within the configured
    /// deadline and retry budget.  The outer transport/protocol layer and the
    /// remote serving result collapse into one `Result`, so callers match on a
    /// single [`ServeError`].
    ///
    /// Retry policy: [`ServeError::Transport`] reconnects and replays (estimates
    /// are idempotent); [`ServeError::Overloaded`] and [`ServeError::Internal`]
    /// back off and replay on the same connection (the server kept it healthy).
    /// [`ServeError::Timeout`] means the overall deadline lapsed — never retried —
    /// and routing/protocol errors are not transient, so they surface immediately.
    pub fn request(&mut self, request: &ServeRequest) -> Result<ServeReply, ServeError> {
        let deadline = Instant::now() + self.config.request_timeout;
        let mut attempt = 0u32;
        loop {
            let error = match self.attempt(request, deadline) {
                Ok(reply) => return Ok(reply),
                Err(e) => e,
            };
            attempt += 1;
            let reconnect = match &error {
                ServeError::Transport(_) => true,
                ServeError::Overloaded | ServeError::Internal(_) => false,
                _ => return Err(error),
            };
            if attempt > self.config.max_retries {
                return Err(error);
            }
            let delay = self.backoff_delay(attempt);
            if Instant::now() + delay >= deadline {
                return Err(error);
            }
            self.config.faults.sleep(delay);
            if reconnect {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match Self::dial(self.addr, remaining) {
                    Ok(stream) => {
                        self.stream = stream;
                        self.reconnects += 1;
                    }
                    Err(_) => return Err(error),
                }
            }
            self.retries += 1;
        }
    }

    /// Writes one request frame without waiting for its reply — the pipelining half.
    /// The server answers every request in send order, so `k` sends followed by `k`
    /// [`ServeClient::recv_result`] calls pair up exactly.  No retries: replaying
    /// half a pipeline would break the send/recv pairing.
    pub fn send_request(&mut self, request: &ServeRequest) -> Result<(), ServeError> {
        write_frame(&mut self.stream, &encode_request(request))
    }

    /// Blocks for the next in-order reply frame.
    pub fn recv_result(&mut self) -> Result<ServeReply, ServeError> {
        let frame = read_frame(&mut self.stream)?;
        decode_result(&frame)?
    }

    /// Estimates `query` on the model `selector` resolves to (default sample budget).
    pub fn estimate(
        &mut self,
        selector: &ModelSelector,
        query: &Query,
    ) -> Result<ServeReply, ServeError> {
        self.request(&ServeRequest::new(selector.clone(), query.clone()))
    }

    /// Admin: removes `(schema_fingerprint, name)` from the server's routing table,
    /// returning the deregistered version.  Single-shot — a mutation is not
    /// blind-replayed after a transport error (the first attempt may have applied;
    /// callers seeing [`ServeError::Transport`] or [`ServeError::Timeout`] should
    /// re-check with an estimate or a fresh deregister, which then reports
    /// [`ServeError::UnknownModel`]).
    pub fn deregister(
        &mut self,
        schema_fingerprint: u64,
        name: &str,
    ) -> Result<ModelKey, ServeError> {
        let deadline = Instant::now() + self.config.request_timeout;
        self.set_deadline(deadline)?;
        write_frame(
            &mut self.stream,
            &encode_deregister(schema_fingerprint, name),
        )?;
        let frame = read_frame(&mut self.stream)?;
        decode_admin_result(&frame)?
    }

    /// Admin: fetches the server's per-model latency/throughput split
    /// ([`crate::ModelRegistry::model_stats`]), sorted by key.  Read-only and
    /// single-shot — monitors poll; a failed poll is just retried on the next tick.
    pub fn stats(&mut self) -> Result<Vec<ModelStats>, ServeError> {
        let deadline = Instant::now() + self.config.request_timeout;
        self.set_deadline(deadline)?;
        write_frame(&mut self.stream, &encode_stats_request())?;
        let frame = read_frame(&mut self.stream)?;
        decode_stats_result(&frame)?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::testing::Fixed;
    use crate::TcpServer;
    use std::sync::Arc;

    #[test]
    fn tcp_round_trip_serves_and_shuts_down() {
        let registry = Arc::new(ModelRegistry::new());
        let key = registry.register(3, "m", Arc::new(Fixed(12.5))).unwrap();
        let server = TcpServer::bind(registry.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let mut client = ServeClient::connect(addr).unwrap();
        let reply = client
            .estimate(&ModelSelector::latest(3, "m"), &Query::join(&["t"]))
            .unwrap();
        assert_eq!(reply.key, key);
        assert_eq!(reply.estimate, 12.5);

        // Remote routing errors arrive typed.
        assert!(matches!(
            client.estimate(&ModelSelector::latest(3, "nope"), &Query::join(&["t"])),
            Err(ServeError::UnknownModel(_))
        ));

        // A hot swap is visible to an already-connected client on its next request.
        registry.swap(3, "m", Arc::new(Fixed(99.0))).unwrap();
        let reply = client
            .estimate(&ModelSelector::latest(3, "m"), &Query::join(&["t"]))
            .unwrap();
        assert_eq!((reply.key.version, reply.estimate), (2, 99.0));

        // Two clients share the server.
        let mut other = ServeClient::connect(addr).unwrap();
        assert_eq!(
            other
                .estimate(&ModelSelector::latest_for_schema(3), &Query::join(&["t"]))
                .unwrap()
                .estimate,
            99.0
        );

        assert_eq!(server.served(), 4);
        // Shutdown returns even with clients still connected.
        server.shutdown();
        // The dead connection surfaces as a transport error client-side.
        assert!(matches!(
            client.estimate(&ModelSelector::latest(3, "m"), &Query::join(&["t"])),
            Err(ServeError::Transport(_) | ServeError::Protocol(_))
        ));
    }

    #[test]
    fn malformed_frames_get_a_typed_reply_then_a_close() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(1, "m", Arc::new(Fixed(1.0))).unwrap();
        let server = TcpServer::bind(registry, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A frame whose payload is garbage: the server answers with a Protocol error.
        write_frame(&mut stream, &[0x7F, 1, 2, 3]).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert!(matches!(
            decode_result(&frame).unwrap(),
            Err(ServeError::Protocol(_))
        ));
        // The framed error counts as an answered frame.
        assert_eq!(server.served(), 1);
        // ...and then closes the connection.
        assert!(read_frame(&mut stream).is_err());
        server.shutdown();
    }

    #[test]
    fn client_pipelining_round_trips_in_order() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(1, "m", Arc::new(Fixed(4.0))).unwrap();
        let server = TcpServer::bind(registry, "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let request = ServeRequest::new(ModelSelector::latest(1, "m"), Query::join(&["t"]));
        for _ in 0..8 {
            client.send_request(&request).unwrap();
        }
        for _ in 0..8 {
            assert_eq!(client.recv_result().unwrap().estimate, 4.0);
        }
        assert_eq!(server.served(), 8);
        server.shutdown();
    }
}
