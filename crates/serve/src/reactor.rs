//! The nonblocking multiplexed TCP front-end: an epoll reactor over the serving
//! protocol.  [`Reactor`] is exported as [`crate::TcpServer`].
//!
//! A fixed set of **I/O threads** each run a level-triggered [`mio::Poll`] loop over a
//! slab of connections: they accept, read, parse length-prefixed frames, and write
//! replies — never blocking on any single peer.  Each complete frame is submitted,
//! undecoded, to the crate's dispatch core (`dispatch.rs`: the same queue, worker loop,
//! panic fence and shed policy as the in-process service; `docs/serving.md` states them
//! once); a worker decodes it, answers it, and posts the encoded reply back to the
//! owning I/O thread's mailbox, waking its poller via an eventfd [`mio::Waker`].
//!
//! What is particular to this transport, and pinned by its tests:
//!
//! * **Pipelining, in order.** Each request gets a per-connection sequence number at
//!   parse time, workers complete out of order, and replies are released strictly in
//!   sequence.
//! * **Admission control without blocking.** The I/O thread never waits for queue
//!   space: a frame the full queue refuses is shed at once, in its pipeline slot.
//! * **Bounded buffers, hostile clients disconnected.** Per-connection read/write
//!   buffers have hard limits; a slow-loris peer (partial frame, no progress) or a
//!   peer that stops reading its replies is disconnected after
//!   [`ReactorConfig::stall_timeout`], not pinned forever.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::lockcheck::Mutex;
use mio::{Events, Interest, Poll, Token, Waker};

use crate::dispatch::{Dispatch, Executor, Submitter};
use crate::fault::FaultInjector;
use crate::journal::{JournalEvent, SharedJournal};
use crate::protocol::{
    decode_deregister, decode_request, decode_stats_request, encode_admin_result, encode_result,
    encode_stats_result, MAX_FRAME_LEN, MSG_DEREGISTER, MSG_STATS,
};
use crate::registry::{ModelKey, ModelRegistry, ModelSelector};
use crate::{ServeError, ServeReply};

/// Tuning of a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Poller threads multiplexing connections (≥ 1; connections are distributed
    /// round-robin).
    pub io_threads: usize,
    /// Worker threads executing estimates (≥ 1).
    pub workers: usize,
    /// Bound of the worker queue; a full queue sheds (the registry's fallback, else
    /// [`ServeError::Overloaded`]).
    pub queue_depth: usize,
    /// Maximum simultaneous connections; excess accepts get a best-effort
    /// `Overloaded` frame and an immediate close.
    pub max_connections: usize,
    /// Hard cap on buffered unparsed request bytes per connection; a frame declaring
    /// more gets a framed protocol error and a close.
    pub read_buffer_limit: usize,
    /// Hard cap on buffered unsent reply bytes per connection; exceeding it (a client
    /// that stopped reading) disconnects.
    pub write_buffer_limit: usize,
    /// Requests admitted per connection before its reads pause (pipelining window).
    pub max_inflight_per_conn: usize,
    /// A connection holding a partial frame, or unsent replies, without progress for
    /// this long is disconnected.
    pub stall_timeout: Duration,
    /// Fault injection hooks (see [`crate::fault`]); inert by default, and compiled
    /// away entirely in release builds.
    pub faults: FaultInjector,
    /// Write-ahead journal for admin mutations (deregister); when `None`, admin
    /// requests still apply but are not persisted across restarts.
    pub admin_journal: Option<SharedJournal>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            io_threads: 2,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_depth: 256,
            max_connections: 1024,
            read_buffer_limit: 1 << 20,
            write_buffer_limit: 1 << 20,
            max_inflight_per_conn: 32,
            stall_timeout: Duration::from_secs(10),
            faults: FaultInjector::disabled(),
            admin_journal: None,
        }
    }
}

/// Counters and gauges of a running [`Reactor`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReactorStats {
    /// Connections accepted (including ones later disconnected).
    pub accepted: u64,
    /// Frames answered (replies and framed errors).
    pub served: u64,
    /// Requests the full worker queue refused (each still answered in its pipeline
    /// slot: degraded from the fallback, or a framed [`ServeError::Overloaded`]).
    pub overloaded: u64,
    /// Connections dropped for stalling (slow-loris partial frames, unread replies).
    pub stalled_disconnects: u64,
    /// Connections dropped for exceeding a buffer limit or the connection cap.
    pub overflow_disconnects: u64,
    /// Accepts refused *at the listener* because `live_connections` had reached
    /// `max_connections` (a subset of `overflow_disconnects`).  Together with
    /// `live_connections` / `max_connections` this is the accept-backlog gauge: a
    /// nonzero value means the cap — not the workers — is shedding load.
    pub accept_sheds: u64,
    /// Connections currently open.
    pub live_connections: usize,
    /// The configured connection cap, exported so `live_connections` reads as a
    /// utilisation gauge without consulting the config.
    pub max_connections: usize,
    /// Requests admitted to the worker queue and not yet picked up.
    pub queue_depth: usize,
}

const TOKEN_WAKER: Token = Token(0);
const TOKEN_LISTENER: Token = Token(1);
const TOKEN_BASE: usize = 2;

/// One estimate crossing from an I/O thread to a worker.
struct Job {
    io_idx: usize,
    conn_id: u64,
    seq: u64,
    frame: Vec<u8>,
}

/// One encoded reply crossing back from a worker to an I/O thread.
struct Completion {
    conn_id: u64,
    seq: u64,
    frame: Vec<u8>,
    /// Close the connection after this reply flushes (protocol errors: the frame
    /// boundary downstream of a malformed request cannot be trusted).
    close_after: bool,
}

/// Cross-thread inbox of one I/O thread.
#[derive(Default)]
struct Mailbox {
    new_conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

struct IoShared {
    mailbox: Mutex<Mailbox>,
    waker: Waker,
}

struct Shared {
    config: ReactorConfig,
    stop: AtomicBool,
    served: AtomicU64,
    accepted: AtomicU64,
    overloaded: AtomicU64,
    stalled_disconnects: AtomicU64,
    overflow_disconnects: AtomicU64,
    accept_sheds: AtomicU64,
    live: AtomicUsize,
    next_conn_id: AtomicU64,
    round_robin: AtomicUsize,
    io: Vec<IoShared>,
}

impl Shared {
    fn deliver(&self, io_idx: usize, completion: Completion) {
        self.io[io_idx].mailbox.lock().completions.push(completion);
        let _ = self.io[io_idx].waker.wake();
    }
}

/// A running TCP front-end over a model registry: I/O threads + one dispatch core over
/// one listener.
pub struct Reactor {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
    dispatch: Dispatch,
}

impl Reactor {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts serving
    /// with default [`ReactorConfig`] tuning.
    pub fn bind(registry: Arc<ModelRegistry>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(registry, addr, ReactorConfig::default())
    }

    /// Binds with explicit tuning and starts the I/O and worker threads.
    pub fn bind_with(
        registry: Arc<ModelRegistry>,
        addr: impl ToSocketAddrs,
        config: ReactorConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let io_count = config.io_threads.max(1);
        let worker_count = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);

        // One Poll per I/O thread, created here so the wakers can register before the
        // threads exist; the listener lives on thread 0.
        let mut polls = Vec::with_capacity(io_count);
        let mut io_shared = Vec::with_capacity(io_count);
        for _ in 0..io_count {
            let poll = Poll::new()?;
            let waker = Waker::new(&poll, TOKEN_WAKER)?;
            polls.push(poll);
            io_shared.push(IoShared {
                mailbox: Mutex::new("reactor.mailbox", Mailbox::default()),
                waker,
            });
        }
        polls[0].register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;

        let shared = Arc::new(Shared {
            config: ReactorConfig {
                io_threads: io_count,
                workers: worker_count,
                queue_depth,
                ..config
            },
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            stalled_disconnects: AtomicU64::new(0),
            overflow_disconnects: AtomicU64::new(0),
            accept_sheds: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            round_robin: AtomicUsize::new(0),
            io: io_shared,
        });

        let mut executor = Executor::new(registry, worker_count);
        executor.faults = shared.config.faults.clone();
        let (dispatch, jobs) = {
            let shared = shared.clone();
            Dispatch::start(
                executor,
                worker_count,
                queue_depth,
                "nc-reactor-worker",
                move |executor: &Executor, job| run_job(&shared, executor, job),
            )
        };

        // The listener must move (not be dup'ed) into thread 0: epoll watches its fd,
        // and dropping the original here would silently deregister the accept source.
        let mut listener = Some(listener);
        let io_threads = polls
            .into_iter()
            .enumerate()
            .map(|(i, poll)| {
                let shared = shared.clone();
                let jobs = jobs.clone();
                let listener = if i == 0 { listener.take() } else { None };
                #[expect(
                    clippy::expect_used,
                    reason = "bind-time path, before the listener accepts anything: no \
                              connection exists yet to answer, and a process that cannot \
                              spawn OS threads cannot serve at all"
                )]
                std::thread::Builder::new()
                    .name(format!("nc-reactor-io-{i}"))
                    .spawn(move || IoThread::new(i, poll, listener, shared, jobs).run())
                    .expect("spawning a reactor I/O thread")
            })
            .collect();
        // Sending ends now live only in the I/O threads: once those exit, the workers
        // see the disconnect and drain out without waiting for an idle poll.
        drop(jobs);

        Ok(Reactor {
            addr,
            shared,
            io_threads,
            dispatch,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry requests are routed through.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.dispatch.executor.registry
    }

    /// Frames answered so far (replies and framed errors).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Connections currently open (closed connections remove themselves).
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Counters and gauges (accepted/overloaded/disconnect splits).
    pub fn stats(&self) -> ReactorStats {
        let executor = &self.dispatch.executor;
        ReactorStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::SeqCst),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            stalled_disconnects: self.shared.stalled_disconnects.load(Ordering::Relaxed),
            overflow_disconnects: self.shared.overflow_disconnects.load(Ordering::Relaxed),
            accept_sheds: self.shared.accept_sheds.load(Ordering::Relaxed),
            live_connections: self.shared.live.load(Ordering::SeqCst),
            max_connections: self.shared.config.max_connections,
            queue_depth: executor.queue_depth(),
        }
    }

    /// Stops accepting, closes every connection, joins the I/O threads, then drains and
    /// joins the workers (completions for the closed connections are dropped).
    /// Dropping the reactor does the same, but swallows a dead worker's panic.
    pub fn shutdown(mut self) {
        self.join_io_threads();
        self.dispatch.shutdown();
    }

    fn join_io_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for io in &self.shared.io {
            let _ = io.waker.wake();
        }
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // I/O threads first, so nothing submits while the `dispatch` field's own drop
        // stops the workers.
        self.join_io_threads();
    }
}

/// True for the one error after which the frame boundary downstream cannot be trusted.
fn is_protocol_error<T>(result: &Result<T, ServeError>) -> bool {
    matches!(result, Err(ServeError::Protocol(_)))
}

/// What a worker does with one job: answer the frame — estimates through
/// [`Executor::execute`]; the admin frames and the codec are the wire's own — and post
/// the encoded reply to the owning I/O thread.
fn run_job(shared: &Shared, executor: &Executor, job: Job) {
    let (frame, close_after) = match job.frame.first() {
        Some(&MSG_DEREGISTER) => {
            let journal = &shared.config.admin_journal;
            let result = handle_deregister(&executor.registry, journal, &job.frame);
            (encode_admin_result(&result), is_protocol_error(&result))
        }
        Some(&MSG_STATS) => {
            let result = decode_stats_request(&job.frame).map(|()| executor.registry.model_stats());
            (encode_stats_result(&result), is_protocol_error(&result))
        }
        _ => {
            let result = decode_request(&job.frame).and_then(|request| executor.execute(request));
            (encode_result(&result), is_protocol_error(&result))
        }
    };
    let completion = Completion {
        conn_id: job.conn_id,
        seq: job.seq,
        frame,
        close_after,
    };
    shared.deliver(job.io_idx, completion);
}

/// What the I/O thread answers for a frame the full queue refused: the core's shed
/// policy for an estimate when a fallback is installed — the only case that pays for a
/// decode on the I/O thread — else `Overloaded`, which is also all an admin frame gets.
fn shed(executor: &Executor, frame: &[u8]) -> Result<ServeReply, ServeError> {
    let admin = matches!(frame.first(), Some(&MSG_DEREGISTER | &MSG_STATS));
    if admin || executor.registry.fallback().is_none() {
        return Err(ServeError::Overloaded);
    }
    executor.shed(&decode_request(frame)?)
}

/// Applies one wire `deregister`: write-ahead to the admin journal, then drop the
/// routing entry.  The journal append happens *before* the registry mutation — a
/// crash between the two replays the deregister on restart, whereas the opposite
/// order would resurrect the model.
fn handle_deregister(
    registry: &ModelRegistry,
    journal: &Option<SharedJournal>,
    frame: &[u8],
) -> Result<ModelKey, ServeError> {
    let (schema_fingerprint, name) = decode_deregister(frame)?;
    // Check existence first so an unknown model is a typed error, not a journal
    // entry: journaling a no-op deregister would be harmless but noisy.
    if registry.latest(schema_fingerprint, &name).is_none() {
        return Err(ServeError::UnknownModel(
            ModelSelector::latest(schema_fingerprint, &name).to_string(),
        ));
    }
    if let Some(journal) = journal {
        journal
            .append(&JournalEvent::deregister(schema_fingerprint, &name))
            .map_err(|e| ServeError::Internal(format!("admin journal append failed: {e}")))?;
    }
    registry.deregister(schema_fingerprint, &name)
}

/// Why a connection was torn down (feeds the right stats counter).
#[derive(PartialEq)]
enum CloseCause {
    /// Normal end of life: peer hung up, protocol-error drain finished, shutdown.
    Orderly,
    Stalled,
    Overflow,
}

struct Conn {
    id: u64,
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to release into `write_buf` (in-order reply discipline).
    next_reply: u64,
    /// Completed-but-out-of-order replies, keyed by sequence number.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests admitted (parsed) and not yet released in order.
    inflight: usize,
    /// The peer half-closed (or a fatal frame ended reads): parse nothing more, flush
    /// what remains, then close.
    read_closed: bool,
    /// Close as soon as `write_buf` drains, discarding everything else.
    draining_close: bool,
    /// When the tail of `read_buf` became a partial frame (slow-loris clock).
    partial_since: Option<Instant>,
    /// When `write_buf` last failed to fully drain (unread-replies clock).
    write_stalled_since: Option<Instant>,
    interest: Interest,
}

impl Conn {
    fn wants(&self, max_inflight: usize) -> Interest {
        let mut interest = Interest::NONE;
        if !self.read_closed && !self.draining_close && self.inflight < max_inflight {
            interest = interest | Interest::READABLE;
        }
        if !self.write_buf.is_empty() {
            interest = interest | Interest::WRITABLE;
        }
        interest
    }
}

struct IoThread {
    idx: usize,
    poll: Poll,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    jobs: Submitter<Job>,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    by_id: HashMap<u64, usize>,
}

impl IoThread {
    fn new(
        idx: usize,
        poll: Poll,
        listener: Option<TcpListener>,
        shared: Arc<Shared>,
        jobs: Submitter<Job>,
    ) -> Self {
        IoThread {
            idx,
            poll,
            listener,
            shared,
            jobs,
            conns: Vec::new(),
            free_slots: Vec::new(),
            by_id: HashMap::new(),
        }
    }

    fn run(mut self) {
        // The tick bounds stall detection *and* stop-flag latency.
        let tick = (self.shared.config.stall_timeout / 4)
            .clamp(Duration::from_millis(5), Duration::from_millis(500));
        let mut events = Events::with_capacity(256);
        while !self.shared.stop.load(Ordering::SeqCst) {
            if self.poll.poll(&mut events, Some(tick)).is_err() {
                continue;
            }
            let mut accept_ready = false;
            for event in events.iter() {
                match event.token() {
                    TOKEN_WAKER => self.shared.io[self.idx].waker.drain(),
                    TOKEN_LISTENER => accept_ready = true,
                    Token(t) => self.on_conn_event(t - TOKEN_BASE, event.is_writable()),
                }
            }
            self.drain_mailbox();
            // Accept LAST: a slot freed while processing this batch may be reused by a
            // new connection, and stale tokens from the same batch must not reach it.
            if accept_ready {
                self.accept_all();
            }
            self.sweep_stalls();
        }
        // Shutdown: close everything still open.
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close(slot, CloseCause::Orderly);
            }
        }
    }

    // ---- connection lifecycle -------------------------------------------------

    fn accept_all(&mut self) {
        // Only I/O thread 0 owns the listener; a spurious TOKEN_LISTENER on another
        // thread (impossible today — nothing else registers that token) is a no-op.
        let Some(listener) = self.listener.take() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nonblocking(true);
                    // Replies are one small frame each: without NODELAY, Nagle +
                    // delayed ACKs add tens of milliseconds per round trip.
                    let _ = stream.set_nodelay(true);
                    if self.shared.live.load(Ordering::SeqCst) >= self.shared.config.max_connections
                    {
                        // Best-effort refusal frame, then drop.
                        let mut s = &stream;
                        let _ = s.write(&refusal_frame());
                        self.shared
                            .overflow_disconnects
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared.accept_sheds.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.shared.live.fetch_add(1, Ordering::SeqCst);
                    let target = self.shared.round_robin.fetch_add(1, Ordering::Relaxed)
                        % self.shared.config.io_threads;
                    if target == self.idx {
                        self.install(stream);
                    } else {
                        self.shared.io[target].mailbox.lock().new_conns.push(stream);
                        let _ = self.shared.io[target].waker.wake();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        self.listener = Some(listener);
    }

    fn install(&mut self, stream: TcpStream) {
        let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let conn = Conn {
            id,
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            next_seq: 0,
            next_reply: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            read_closed: false,
            draining_close: false,
            partial_since: None,
            write_stalled_since: None,
            interest: Interest::READABLE,
        };
        if self
            .poll
            .register(
                conn.stream.as_raw_fd(),
                Token(slot + TOKEN_BASE),
                conn.interest,
            )
            .is_err()
        {
            self.free_slots.push(slot);
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.by_id.insert(id, slot);
        self.conns[slot] = Some(conn);
    }

    fn close(&mut self, slot: usize, cause: CloseCause) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poll.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.by_id.remove(&conn.id);
        self.free_slots.push(slot);
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        match cause {
            CloseCause::Orderly => {}
            CloseCause::Stalled => {
                self.shared
                    .stalled_disconnects
                    .fetch_add(1, Ordering::Relaxed);
            }
            CloseCause::Overflow => {
                self.shared
                    .overflow_disconnects
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // ---- event handling -------------------------------------------------------

    fn on_conn_event(&mut self, slot: usize, writable: bool) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // already closed earlier in this batch
        }
        if writable && !self.flush(slot) {
            return;
        }
        if !self.fill(slot) {
            return;
        }
        self.pump(slot);
    }

    /// Reads everything available into `read_buf`.  Returns false if the connection
    /// was closed.
    fn fill(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            debug_assert!(false, "fill() on an empty slot");
            return false;
        };
        if conn.read_closed || conn.draining_close {
            // Still must notice a full hangup so a drain-phase peer that vanished
            // (e.g. reset) does not linger until the stall sweep.
            let mut probe = [0u8; 64];
            loop {
                match (&conn.stream).read(&mut probe) {
                    Ok(0) => {
                        if conn.inflight == 0 && conn.write_buf.is_empty() {
                            self.close(slot, CloseCause::Orderly);
                            return false;
                        }
                        return true;
                    }
                    Ok(_) => continue, // discard post-close bytes
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(slot, CloseCause::Orderly);
                        return false;
                    }
                }
            }
        }
        let mut tmp = [0u8; 16 * 1024];
        // Injected partial read: shrink this readiness cycle to a few bytes and stop
        // early, exactly as if the kernel had delivered that little.  Level-triggered
        // polling re-reports readiness, so no byte is lost — only re-sliced.
        let cap = match self.shared.config.faults.draw("reactor.partial-read") {
            Some(draw) => 1 + (draw % 7) as usize,
            None => tmp.len(),
        };
        loop {
            match (&conn.stream).read(&mut tmp[..cap]) {
                Ok(0) => {
                    conn.read_closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&tmp[..n]);
                    // The parser below dispatches complete frames and rejects frames
                    // declaring more than the limit, so an over-limit backlog means a
                    // peer streaming garbage faster than it can be shed.
                    if conn.read_buf.len() > self.shared.config.read_buffer_limit + tmp.len() {
                        self.close(slot, CloseCause::Overflow);
                        return false;
                    }
                    if cap < tmp.len() {
                        return true; // injected partial read: simulated WouldBlock
                    }
                    if n < tmp.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, CloseCause::Orderly);
                    return false;
                }
            }
        }
    }

    /// Parses frames, admits jobs, releases ordered replies, updates interest — the
    /// per-connection state machine turn.  Safe to call whenever anything changed.
    fn pump(&mut self, slot: usize) {
        let max_inflight = self.shared.config.max_inflight_per_conn.max(1);
        loop {
            let conn = match self.conns.get_mut(slot).and_then(Option::as_mut) {
                Some(c) => c,
                None => return,
            };
            if conn.read_closed || conn.draining_close || conn.inflight >= max_inflight {
                break;
            }
            if conn.read_buf.len() < 4 {
                break;
            }
            let mut len_bytes = [0u8; 4];
            len_bytes.copy_from_slice(&conn.read_buf[..4]);
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len > MAX_FRAME_LEN || len + 4 > self.shared.config.read_buffer_limit {
                // Tell the peer, then close once the error flushes: the declared
                // length cannot be skipped over, the boundary is lost.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.inflight += 1;
                conn.read_buf.clear();
                conn.read_closed = true;
                let frame = encode_result(&Err::<ServeReply, _>(ServeError::Protocol(format!(
                    "frame length {len} exceeds the limit"
                ))));
                self.complete(slot, seq, frame, true);
                continue;
            }
            if conn.read_buf.len() < 4 + len {
                break; // partial frame: wait for more bytes
            }
            let frame = conn.read_buf[4..4 + len].to_vec();
            conn.read_buf.drain(..4 + len);
            conn.partial_since = None;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.inflight += 1;
            let job = Job {
                io_idx: self.idx,
                conn_id: conn.id,
                seq,
                frame,
            };
            match self.jobs.submit(job, false) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    // Admission control: answer right now, in order, without ever
                    // queueing the request.
                    self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                    let result = shed(&self.jobs.executor, &job.frame);
                    self.complete(
                        slot,
                        seq,
                        encode_result(&result),
                        is_protocol_error(&result),
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    let frame = encode_result(&Err::<ServeReply, _>(ServeError::ShuttingDown));
                    self.complete(slot, seq, frame, true);
                }
            }
        }
        // Partial-frame clock for the stall sweep.
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if conn.read_buf.is_empty() || conn.read_closed || conn.inflight >= max_inflight {
                if conn.read_buf.is_empty() {
                    conn.partial_since = None;
                }
            } else if conn.partial_since.is_none() {
                conn.partial_since = Some(Instant::now());
            }
        }
        self.finish_turn(slot);
    }

    /// Post-pump bookkeeping: orderly close when drained, interest reregistration.
    fn finish_turn(&mut self, slot: usize) {
        let max_inflight = self.shared.config.max_inflight_per_conn.max(1);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let drained = conn.write_buf.is_empty();
        if conn.draining_close && drained {
            self.close(slot, CloseCause::Orderly);
            return;
        }
        if conn.read_closed && drained && conn.inflight == 0 && conn.pending.is_empty() {
            self.close(slot, CloseCause::Orderly);
            return;
        }
        let wants = conn.wants(max_inflight);
        if wants != conn.interest {
            conn.interest = wants;
            let _ = self
                .poll
                .reregister(conn.stream.as_raw_fd(), Token(slot + TOKEN_BASE), wants);
        }
    }

    /// Registers one completed reply and releases everything now deliverable in order.
    fn complete(&mut self, slot: usize, seq: u64, frame: Vec<u8>, close_after: bool) {
        let conn = match self.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(c) => c,
            None => return,
        };
        conn.pending.insert(seq, (frame, close_after));
        while let Some((frame, close_after)) = conn.pending.remove(&conn.next_reply) {
            conn.next_reply += 1;
            conn.inflight -= 1;
            conn.write_buf
                .extend_from_slice(&(frame.len() as u32).to_le_bytes());
            conn.write_buf.extend_from_slice(&frame);
            // Count before the reply leaves: a client holding its answer must already
            // be visible in `served()`.
            self.shared.served.fetch_add(1, Ordering::SeqCst);
            if close_after {
                conn.read_closed = true;
                conn.draining_close = true;
                conn.read_buf.clear();
                conn.pending.clear();
                conn.inflight = 0;
                break;
            }
        }
        if conn.write_buf.len() > self.shared.config.write_buffer_limit {
            // The peer stopped reading its replies; do not let it pin memory.
            self.close(slot, CloseCause::Overflow);
            return;
        }
        if !self.flush(slot) {
            return;
        }
        self.finish_turn(slot);
    }

    /// Writes as much of `write_buf` as the socket accepts.  Returns false if the
    /// connection was closed.
    fn flush(&mut self, slot: usize) -> bool {
        let conn = match self.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(c) => c,
            None => return false,
        };
        // Injected partial write: cap how much this cycle pushes, then report
        // WouldBlock.  The unsent tail stays in `write_buf`; the poller retries.
        let cap = match self.shared.config.faults.draw("reactor.partial-write") {
            Some(draw) => 1 + (draw % 7) as usize,
            None => usize::MAX,
        };
        let mut written = 0usize;
        let closed = loop {
            if written == conn.write_buf.len() {
                break false;
            }
            let end = conn.write_buf.len().min(written.saturating_add(cap));
            match (&conn.stream).write(&conn.write_buf[written..end]) {
                Ok(0) => break true,
                Ok(n) => {
                    written += n;
                    if end < conn.write_buf.len() {
                        break false; // injected partial write: simulated WouldBlock
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            }
        };
        if closed {
            self.close(slot, CloseCause::Orderly);
            return false;
        }
        conn.write_buf.drain(..written);
        conn.write_stalled_since = if conn.write_buf.is_empty() {
            None
        } else if written > 0 || conn.write_stalled_since.is_none() {
            Some(Instant::now())
        } else {
            conn.write_stalled_since
        };
        true
    }

    // ---- mailbox + stalls -----------------------------------------------------

    fn drain_mailbox(&mut self) {
        let (new_conns, completions) = {
            let mut mailbox = self.shared.io[self.idx].mailbox.lock();
            (
                std::mem::take(&mut mailbox.new_conns),
                std::mem::take(&mut mailbox.completions),
            )
        };
        for completion in completions {
            // The connection may have died while the worker computed: route by id.
            if let Some(&slot) = self.by_id.get(&completion.conn_id) {
                self.complete(
                    slot,
                    completion.seq,
                    completion.frame,
                    completion.close_after,
                );
                // Admitting more pipelined frames may now be possible.
                self.pump(slot);
            }
        }
        for stream in new_conns {
            self.install(stream);
        }
    }

    fn sweep_stalls(&mut self) {
        let timeout = self.shared.config.stall_timeout;
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let read_stalled = conn
                .partial_since
                .is_some_and(|t| now.duration_since(t) > timeout);
            let write_stalled = conn
                .write_stalled_since
                .is_some_and(|t| now.duration_since(t) > timeout);
            if read_stalled || write_stalled {
                self.close(slot, CloseCause::Stalled);
            }
        }
    }
}

/// The best-effort frame written to a connection refused by the connection cap.
fn refusal_frame() -> Vec<u8> {
    let payload = encode_result(&Err::<ServeReply, _>(ServeError::Overloaded));
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BaselineModel;
    use crate::protocol::{decode_result, encode_request, read_frame, write_frame, ServeRequest};
    use crate::registry::ModelSelector;
    use crate::testing::{Bomb, Fixed, Gate};
    use nc_schema::Query;

    fn fixed_registry(value: f64) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(1, "m", Arc::new(BaselineModel::new(Fixed(value))))
            .unwrap();
        registry
    }

    fn request() -> ServeRequest {
        ServeRequest::new(ModelSelector::latest(1, "m"), Query::join(&["t"]))
    }

    fn small_config() -> ReactorConfig {
        ReactorConfig {
            io_threads: 2,
            workers: 2,
            stall_timeout: Duration::from_millis(200),
            ..ReactorConfig::default()
        }
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let reactor =
            Reactor::bind_with(fixed_registry(5.0), "127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        // Write a burst of requests before reading anything.
        for _ in 0..16 {
            write_frame(&mut stream, &encode_request(&request())).unwrap();
        }
        for _ in 0..16 {
            let frame = read_frame(&mut stream).unwrap();
            let reply = decode_result(&frame).unwrap().unwrap();
            assert_eq!(reply.estimate, 5.0);
        }
        assert_eq!(reactor.served(), 16);
        let stats = reactor.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.overloaded, 0);
        reactor.shutdown();
    }

    #[test]
    fn slow_loris_is_disconnected_but_healthy_clients_are_not() {
        let config = ReactorConfig {
            stall_timeout: Duration::from_millis(100),
            ..small_config()
        };
        let reactor = Reactor::bind_with(fixed_registry(1.0), "127.0.0.1:0", config).unwrap();
        // The loris sends half a frame header and goes quiet.
        let mut loris = TcpStream::connect(reactor.local_addr()).unwrap();
        loris.write_all(&[0x10, 0x00]).unwrap();
        // A healthy client keeps getting served the whole time.
        let mut healthy = TcpStream::connect(reactor.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.stats().stalled_disconnects == 0 {
            assert!(Instant::now() < deadline, "loris never disconnected");
            write_frame(&mut healthy, &encode_request(&request())).unwrap();
            let frame = read_frame(&mut healthy).unwrap();
            assert_eq!(decode_result(&frame).unwrap().unwrap().estimate, 1.0);
            #[expect(
                clippy::disallowed_methods,
                reason = "a test client paces its requests"
            )]
            std::thread::sleep(Duration::from_millis(10));
        }
        // The loris's socket is dead: reads see EOF/reset.
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 8];
        assert!(matches!(loris.read(&mut buf), Ok(0) | Err(_)));
        assert_eq!(reactor.stats().stalled_disconnects, 1);
        assert_eq!(reactor.live_connections(), 1); // the healthy one
        reactor.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_overloaded_in_reply_order() {
        let gate = Gate::default();
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(1, "m", Arc::new(BaselineModel::new(gate.clone())))
            .unwrap();
        let config = ReactorConfig {
            io_threads: 1,
            workers: 1,
            queue_depth: 1,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind_with(registry, "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();

        // Pipeline 3 requests: one held inside the gate by the single worker, one in
        // the queue's single slot, one shed by admission control.
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        while gate.entered() == 0 {
            std::thread::yield_now();
        }
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        while reactor.stats().queue_depth == 0 {
            std::thread::yield_now();
        }
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.stats().overloaded == 0 {
            assert!(Instant::now() < deadline, "third request never shed");
            std::thread::yield_now();
        }

        // Open the gate: replies arrive strictly in request order — two estimates,
        // then the typed Overloaded for the shed request.
        gate.open();
        for want_ok in [true, true, false] {
            let frame = read_frame(&mut stream).unwrap();
            match decode_result(&frame).unwrap() {
                Ok(reply) => {
                    assert!(want_ok, "expected Overloaded, got {reply:?}");
                    assert_eq!(reply.estimate, 7.0);
                }
                Err(e) => {
                    assert!(!want_ok, "unexpected error {e}");
                    assert_eq!(e, ServeError::Overloaded);
                }
            }
        }
        assert_eq!(reactor.served(), 3);
        reactor.shutdown();
    }

    #[test]
    fn wire_shed_degrades_through_the_fallback_in_reply_order() {
        let gate = Gate::default();
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(1, "m", Arc::new(BaselineModel::new(gate.clone())))
            .unwrap();
        registry.set_fallback(crate::testing::stats_fallback());
        let config = ReactorConfig {
            io_threads: 1,
            workers: 1,
            queue_depth: 1,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind_with(registry.clone(), "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();

        // As in the test above: one request held inside the gate, one in the queue's
        // single slot — then two frames the full queue refuses, an estimate and garbage.
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        while gate.entered() == 0 {
            std::thread::yield_now();
        }
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        while reactor.stats().queue_depth == 0 {
            std::thread::yield_now();
        }
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        write_frame(&mut stream, &[0x7F, 1, 2, 3]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.stats().overloaded < 2 {
            assert!(Instant::now() < deadline, "refused frames never shed");
            std::thread::yield_now();
        }
        assert_eq!(reactor.stats().queue_depth, 1);

        // Replies arrive strictly in request order: two estimates, the shed request
        // answered by the fallback (flagged degraded), and the shed garbage answered as
        // a worker would have — a framed protocol error, then a close.
        gate.open();
        for _ in 0..2 {
            let frame = read_frame(&mut stream).unwrap();
            assert_eq!(decode_result(&frame).unwrap().unwrap().estimate, 7.0);
        }
        let frame = read_frame(&mut stream).unwrap();
        let reply = decode_result(&frame).unwrap().unwrap();
        assert!(reply.degraded);
        assert_eq!(reply.estimate, 40.0);
        assert_eq!(reply.key, ModelKey::new(1, "stats-fallback", 0));
        assert_eq!(registry.stats().degraded, 1);
        let frame = read_frame(&mut stream).unwrap();
        assert!(matches!(
            decode_result(&frame).unwrap(),
            Err(ServeError::Protocol(_))
        ));
        assert!(read_frame(&mut stream).is_err(), "connection must close");
        assert_eq!(reactor.served(), 4);
        reactor.shutdown();
    }

    #[test]
    fn panicking_model_is_an_internal_error_and_the_connection_survives() {
        let registry = fixed_registry(3.0);
        registry
            .register(1, "bomb", Arc::new(BaselineModel::new(Bomb)))
            .unwrap();
        let config = ReactorConfig {
            io_threads: 1,
            workers: 1, // the one worker must survive its own catch
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind_with(registry, "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        let bomb_req = ServeRequest::new(ModelSelector::latest(1, "bomb"), Query::join(&["t"]));
        write_frame(&mut stream, &encode_request(&bomb_req)).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        match decode_result(&frame).unwrap() {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("kaboom"), "got {msg:?}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        // Same connection, same worker: still serving.
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(decode_result(&frame).unwrap().unwrap().estimate, 3.0);
        assert_eq!(reactor.served(), 2);
        reactor.shutdown();
    }

    #[test]
    fn oversized_frame_gets_a_protocol_error_then_a_close() {
        let reactor =
            Reactor::bind_with(fixed_registry(1.0), "127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        // Declare a frame bigger than MAX_FRAME_LEN.
        stream
            .write_all(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes())
            .unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert!(matches!(
            decode_result(&frame).unwrap(),
            Err(ServeError::Protocol(_))
        ));
        assert!(read_frame(&mut stream).is_err(), "connection must close");
        assert_eq!(reactor.served(), 1);
        reactor.shutdown();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn injected_partial_io_never_corrupts_frames() {
        // Aggressive partial reads and writes re-slice the byte stream without ever
        // dropping or duplicating a byte: every pipelined frame still round-trips.
        let config = ReactorConfig {
            faults: crate::fault::FaultPlan::new(7)
                .point("reactor.partial-read", 500)
                .point("reactor.partial-write", 500)
                .injector(),
            ..small_config()
        };
        let reactor = Reactor::bind_with(fixed_registry(9.0), "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        for _ in 0..8 {
            write_frame(&mut stream, &encode_request(&request())).unwrap();
        }
        for _ in 0..8 {
            let frame = read_frame(&mut stream).unwrap();
            assert_eq!(decode_result(&frame).unwrap().unwrap().estimate, 9.0);
        }
        assert_eq!(reactor.served(), 8);
        reactor.shutdown();
    }

    #[test]
    fn wire_deregister_is_journaled_write_ahead() {
        use crate::journal::{RegistryJournal, SharedJournal};
        use crate::protocol::{decode_admin_result, encode_deregister};
        let mut path = std::env::temp_dir();
        path.push(format!(
            "nc-reactor-deregister-{}-{:p}.jsonl",
            std::process::id(),
            &path
        ));
        let _ = std::fs::remove_file(&path);
        let (journal, _) = RegistryJournal::open(path.clone()).unwrap();
        let config = ReactorConfig {
            admin_journal: Some(SharedJournal::new(journal)),
            ..small_config()
        };
        let reactor = Reactor::bind_with(fixed_registry(2.0), "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();

        write_frame(&mut stream, &encode_deregister(1, "m")).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        let key = decode_admin_result(&frame).unwrap().unwrap();
        assert_eq!(key.schema_fingerprint, 1);
        assert_eq!(key.name, "m");

        // Routing is gone: estimates and repeat deregisters answer UnknownModel,
        // on the same still-healthy connection.
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert!(matches!(
            decode_result(&frame).unwrap(),
            Err(ServeError::UnknownModel(_))
        ));
        write_frame(&mut stream, &encode_deregister(1, "m")).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert!(matches!(
            decode_admin_result(&frame).unwrap(),
            Err(ServeError::UnknownModel(_))
        ));

        // Exactly one deregister event hit the journal, before the reply went out.
        let (_, events) = RegistryJournal::open(path.clone()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, "deregister");
        assert_eq!(events[0].name, "m");
        let _ = std::fs::remove_file(&path);
        reactor.shutdown();
    }

    #[test]
    fn wire_stats_reports_the_per_model_split() {
        use crate::protocol::{decode_stats_result, encode_stats_request};
        let reactor =
            Reactor::bind_with(fixed_registry(2.0), "127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();

        // A registry with no serving history answers an empty split.
        write_frame(&mut stream, &encode_stats_request()).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(decode_stats_result(&frame).unwrap().unwrap(), Vec::new());

        for _ in 0..3 {
            write_frame(&mut stream, &encode_request(&request())).unwrap();
            read_frame(&mut stream).unwrap();
        }
        write_frame(&mut stream, &encode_stats_request()).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        let stats = decode_stats_result(&frame).unwrap().unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].key, ModelKey::new(1, "m", 1));
        assert_eq!(stats[0].served, 3);
        assert!(stats[0].p50_us >= 0.0 && stats[0].queries_per_sec > 0.0);
        // The connection stays healthy for normal requests afterwards.
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(decode_result(&frame).unwrap().unwrap().estimate, 2.0);
        assert_eq!(reactor.served(), 6);
        reactor.shutdown();
    }

    #[test]
    fn connection_cap_refuses_excess_clients() {
        let config = ReactorConfig {
            max_connections: 2,
            ..small_config()
        };
        let reactor = Reactor::bind_with(fixed_registry(1.0), "127.0.0.1:0", config).unwrap();
        let keep: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(reactor.local_addr()).unwrap();
                // Prove liveness so the accept definitely happened.
                write_frame(&mut s, &encode_request(&request())).unwrap();
                read_frame(&mut s).unwrap();
                s
            })
            .collect();
        let mut extra = TcpStream::connect(reactor.local_addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The refused connection gets a best-effort Overloaded frame and/or a close.
        match read_frame(&mut extra) {
            Ok(frame) => assert_eq!(
                decode_result(&frame).unwrap().unwrap_err(),
                ServeError::Overloaded
            ),
            Err(ServeError::Transport(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
        assert!(read_frame(&mut extra).is_err());
        let stats = reactor.stats();
        assert!(stats.overflow_disconnects >= 1);
        // The accept-backlog gauge: the shed happened at the listener, the cap is
        // exported next to the live count, and sheds never exceed overflow drops.
        assert!(stats.accept_sheds >= 1);
        assert!(stats.accept_sheds <= stats.overflow_disconnects);
        assert_eq!(stats.max_connections, 2);
        assert!(stats.live_connections <= stats.max_connections);
        drop(keep);
        reactor.shutdown();
    }
}
