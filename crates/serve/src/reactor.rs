//! The nonblocking multiplexed TCP front-end: an epoll reactor over the serving
//! protocol.
//!
//! This replaces the PR-5 thread-per-connection loop.  A fixed set of **I/O threads**
//! each run a level-triggered [`mio::Poll`] loop over a slab of connections: they
//! accept, read, parse length-prefixed frames, and write replies — never blocking on
//! any single peer.  Parsed requests are handed to a fixed **worker pool** through a
//! bounded queue; each worker routes through the shared [`ModelRegistry::handle`] entry
//! point (same as the in-process service) and posts the encoded reply back to the
//! owning I/O thread's mailbox, waking its poller via an eventfd [`mio::Waker`].
//!
//! Properties the tests pin:
//!
//! * **Pipelining, in order.** A client may write many request frames before reading;
//!   each request gets a per-connection sequence number at parse time, workers complete
//!   out of order, and replies are released strictly in sequence.
//! * **Admission control.** A full worker queue answers [`ServeError::Overloaded`]
//!   immediately (the request is never queued) instead of blocking the I/O thread — a
//!   burst sheds load; the connection stays healthy.
//! * **Bounded buffers, hostile clients disconnected.** Per-connection read/write
//!   buffers have hard limits; a slow-loris peer (partial frame, no progress) or a
//!   peer that stops reading its replies is disconnected after
//!   [`ReactorConfig::stall_timeout`], not pinned forever.
//! * **Panic isolation.** A panicking estimator is caught in the worker
//!   ([`ServeError::Internal`] reply); the worker, the connection and the server
//!   survive, and the scratch that was live during the panic is discarded.
//! * **Determinism.** Estimates are derived purely from `(config.seed, query)`, so
//!   replies are bit-identical to direct [`neurocard::EstimatorCore`] calls regardless
//!   of I/O thread count, worker count, queueing order or concurrent swaps.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::lockcheck::Mutex;
use mio::{Events, Interest, Poll, Token, Waker};

use crate::fault::FaultInjector;
use crate::journal::{JournalEvent, SharedJournal};
use crate::pool::ScratchPool;
use crate::protocol::{
    decode_deregister, decode_request, decode_stats_request, encode_admin_result, encode_result,
    encode_stats_result, MAX_FRAME_LEN, MSG_DEREGISTER, MSG_STATS,
};
use crate::registry::{ModelKey, ModelRegistry, ModelSelector};
use crate::service::panic_message;
use crate::ServeError;

/// Tuning of a [`Reactor`] (and therefore of [`crate::TcpServer`]).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Poller threads multiplexing connections (≥ 1; connections are distributed
    /// round-robin).
    pub io_threads: usize,
    /// Worker threads executing estimates (≥ 1).
    pub workers: usize,
    /// Bound of the worker queue; a full queue sheds with
    /// [`ServeError::Overloaded`].
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
    /// Sample budget applied when a request carries none; `None` defers to the
    /// selected model's own default.
    pub default_samples: Option<usize>,
    /// Fault injection hooks (see [`crate::fault`]); inert by default, and compiled
    /// away entirely in release builds.
    pub faults: FaultInjector,
    /// Write-ahead journal for admin mutations (deregister); when `None`, admin
    /// requests still apply but are not persisted across restarts.
    pub admin_journal: Option<SharedJournal>,
    /// Precision autoselection: when the worker-queue depth at dispatch time is at
    /// or past this threshold, [`Precision::Exact`] requests are served at
    /// [`Precision::Fast`] instead — precision degrades before availability does.
    /// `None` (the default) disables; explicit `Fast` requests are unaffected, and
    /// without the `simd` feature the fast tier is bit-identical to exact anyway.
    ///
    /// [`Precision::Exact`]: neurocard::Precision::Exact
    /// [`Precision::Fast`]: neurocard::Precision::Fast
    pub fast_precision_queue_depth: Option<usize>,
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
            default_samples: None,
            faults: FaultInjector::disabled(),
            admin_journal: None,
            fast_precision_queue_depth: None,
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
    /// Requests shed by admission control (each still answered with a framed
    /// [`ServeError::Overloaded`]).
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
    /// Exact-precision requests downgraded to the fast tier because the queue
    /// depth had crossed [`ReactorConfig::fast_precision_queue_depth`].
    pub fast_autoselected: u64,
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
    registry: Arc<ModelRegistry>,
    config: ReactorConfig,
    stop: AtomicBool,
    served: AtomicU64,
    accepted: AtomicU64,
    overloaded: AtomicU64,
    stalled_disconnects: AtomicU64,
    overflow_disconnects: AtomicU64,
    accept_sheds: AtomicU64,
    live: AtomicUsize,
    queue_depth: AtomicUsize,
    fast_autoselected: AtomicU64,
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

/// The running reactor: I/O threads + worker pool over one listener.
pub struct Reactor {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Binds `addr` and starts the I/O and worker threads.
    pub fn bind(
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
            registry,
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
            queue_depth: AtomicUsize::new(0),
            fast_autoselected: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
            round_robin: AtomicUsize::new(0),
            io: io_shared,
        });

        let (jobs_tx, jobs_rx) = sync_channel::<Job>(queue_depth);
        let jobs_rx = Arc::new(Mutex::new("reactor.worker_rx", jobs_rx));
        let scratch_pool = Arc::new(ScratchPool::new(worker_count));

        let workers = (0..worker_count)
            .map(|i| {
                let shared = shared.clone();
                let rx = jobs_rx.clone();
                let pool = scratch_pool.clone();
                std::thread::Builder::new()
                    .name(format!("nc-reactor-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx, &pool))
                    // nc-lint: allow(panic-in-serving) — bind-time path, before the
                    // listener accepts anything; thread-spawn failure means the
                    // process cannot serve at all.
                    .expect("spawning a reactor worker")
            })
            .collect();

        // The listener must move (not be dup'ed) into thread 0: epoll watches its fd,
        // and dropping the original here would silently deregister the accept source.
        let mut listener = Some(listener);
        let io_threads = polls
            .into_iter()
            .enumerate()
            .map(|(i, poll)| {
                let shared = shared.clone();
                let jobs_tx = jobs_tx.clone();
                let listener = if i == 0 { listener.take() } else { None };
                std::thread::Builder::new()
                    .name(format!("nc-reactor-io-{i}"))
                    .spawn(move || IoThread::new(i, poll, listener, shared, jobs_tx).run())
                    // nc-lint: allow(panic-in-serving) — same bind-time reasoning as
                    // the worker spawns above: no connection exists yet to answer.
                    .expect("spawning a reactor I/O thread")
            })
            .collect();
        // `jobs_tx` clones now live only in the I/O threads: when they exit, the
        // channel disconnects and the workers drain out.
        drop(jobs_tx);

        Ok(Reactor {
            addr,
            shared,
            io_threads,
            workers,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry requests are routed through.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Frames answered so far (replies and framed errors).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Connections currently open.
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Counters and gauges.
    pub fn stats(&self) -> ReactorStats {
        ReactorStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::SeqCst),
            overloaded: self.shared.overloaded.load(Ordering::Relaxed),
            stalled_disconnects: self.shared.stalled_disconnects.load(Ordering::Relaxed),
            overflow_disconnects: self.shared.overflow_disconnects.load(Ordering::Relaxed),
            accept_sheds: self.shared.accept_sheds.load(Ordering::Relaxed),
            live_connections: self.shared.live.load(Ordering::SeqCst),
            max_connections: self.shared.config.max_connections,
            queue_depth: self.shared.queue_depth.load(Ordering::Relaxed),
            fast_autoselected: self.shared.fast_autoselected.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, closes every connection, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for io in &self.shared.io {
            let _ = io.waker.wake();
        }
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>, pool: &ScratchPool) {
    loop {
        // Hold the receiver lock only for the dequeue, never the compute.
        let job = match rx.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // all I/O threads gone
        };
        // fetch_sub returns the pre-decrement depth: the backlog including this job,
        // which is the congestion signal precision autoselection keys off.
        let depth_at_dispatch = shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(
            depth_at_dispatch >= 1,
            "queue-depth gauge wrapped below zero"
        );
        if job.frame.first() == Some(&MSG_DEREGISTER) {
            let result = handle_deregister(shared, &job.frame);
            let close_after = matches!(result, Err(ServeError::Protocol(_)));
            shared.deliver(
                job.io_idx,
                Completion {
                    conn_id: job.conn_id,
                    seq: job.seq,
                    frame: encode_admin_result(&result),
                    close_after,
                },
            );
            continue;
        }
        if job.frame.first() == Some(&MSG_STATS) {
            let result = decode_stats_request(&job.frame).map(|()| shared.registry.model_stats());
            let close_after = matches!(result, Err(ServeError::Protocol(_)));
            shared.deliver(
                job.io_idx,
                Completion {
                    conn_id: job.conn_id,
                    seq: job.seq,
                    frame: encode_stats_result(&result),
                    close_after,
                },
            );
            continue;
        }
        let result = match decode_request(&job.frame) {
            Ok(mut request) => {
                if request.samples.is_none() {
                    request.samples = shared.config.default_samples;
                }
                // Precision autoselection: under backlog, trade the exact tier for
                // the fast one instead of (eventually) shedding with Overloaded.
                if let Some(threshold) = shared.config.fast_precision_queue_depth {
                    if request.precision == neurocard::Precision::Exact
                        && depth_at_dispatch >= threshold
                    {
                        request.precision = neurocard::Precision::Fast;
                        shared.fast_autoselected.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Catch estimator panics: reply Internal, keep the worker, discard the
                // scratch that was live during the unwind (its state is suspect; the
                // pool replaces it on demand).  Injected worker faults land inside the
                // same boundary, so chaos exercises exactly the production panic path.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shared.config.faults.maybe_panic("worker.panic");
                    shared.config.faults.stall("worker.delay");
                    let mut scratch = pool.checkout();
                    let result = shared.registry.handle(&request, &mut scratch);
                    pool.checkin(scratch);
                    result
                }))
                .unwrap_or_else(|panic| Err(ServeError::Internal(panic_message(panic))))
            }
            Err(e) => Err(e),
        };
        let close_after = matches!(result, Err(ServeError::Protocol(_)));
        shared.deliver(
            job.io_idx,
            Completion {
                conn_id: job.conn_id,
                seq: job.seq,
                frame: encode_result(&result),
                close_after,
            },
        );
    }
}

/// Applies one wire `deregister`: write-ahead to the admin journal, then drop the
/// routing entry.  The journal append happens *before* the registry mutation — a
/// crash between the two replays the deregister on restart, whereas the opposite
/// order would resurrect the model.
fn handle_deregister(shared: &Shared, frame: &[u8]) -> Result<ModelKey, ServeError> {
    let (schema_fingerprint, name) = decode_deregister(frame)?;
    // Check existence first so an unknown model is a typed error, not a journal
    // entry: journaling a no-op deregister would be harmless but noisy.
    if shared.registry.latest(schema_fingerprint, &name).is_none() {
        return Err(ServeError::UnknownModel(
            ModelSelector::latest(schema_fingerprint, &name).to_string(),
        ));
    }
    if let Some(journal) = &shared.config.admin_journal {
        journal
            .append(&JournalEvent::deregister(schema_fingerprint, &name))
            .map_err(|e| ServeError::Internal(format!("admin journal append failed: {e}")))?;
    }
    shared.registry.deregister(schema_fingerprint, &name)
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
    jobs: SyncSender<Job>,
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
        jobs: SyncSender<Job>,
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
        if self.conns.get(slot).map_or(true, Option::is_none) {
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
                let frame = encode_result(&Err::<crate::ServeReply, _>(ServeError::Protocol(
                    format!("frame length {len} exceeds the limit"),
                )));
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
            let (io_idx, conn_id) = (self.idx, conn.id);
            // Counted before the enqueue and undone if it fails: a worker may dequeue
            // (and decrement) the instant the job is queued, so counting afterwards
            // lets the gauge be observed wrapped below zero.
            self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
            let sent = self.jobs.try_send(Job {
                io_idx,
                conn_id,
                seq,
                frame,
            });
            if sent.is_err() {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            }
            match sent {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    // Admission control: answer Overloaded right now, in order, without
                    // ever queueing the request.
                    self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                    let frame = encode_result(&Err::<crate::ServeReply, _>(ServeError::Overloaded));
                    self.complete(slot, seq, frame, false);
                }
                Err(TrySendError::Disconnected(_)) => {
                    let frame =
                        encode_result(&Err::<crate::ServeReply, _>(ServeError::ShuttingDown));
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
    let payload = encode_result(&Err::<crate::ServeReply, _>(ServeError::Overloaded));
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
    use nc_baselines::CardinalityEstimator;
    use nc_schema::Query;

    struct Fixed(f64);
    impl CardinalityEstimator for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn estimate(&self, _query: &Query) -> f64 {
            self.0
        }
    }

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
        let reactor = Reactor::bind(fixed_registry(5.0), "127.0.0.1:0", small_config()).unwrap();
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
        let reactor = Reactor::bind(fixed_registry(1.0), "127.0.0.1:0", config).unwrap();
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
        use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
        struct Gate {
            state: Arc<(StdMutex<bool>, StdCondvar)>,
            entered: Arc<AtomicUsize>,
        }
        impl CardinalityEstimator for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn estimate(&self, _query: &Query) -> f64 {
                let (lock, cv) = &*self.state;
                let mut open = lock.lock().unwrap_or_else(|p| p.into_inner());
                self.entered.fetch_add(1, Ordering::SeqCst);
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                7.0
            }
        }
        let state = Arc::new((StdMutex::new(false), StdCondvar::new()));
        let entered = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(
                1,
                "m",
                Arc::new(BaselineModel::new(Gate {
                    state: state.clone(),
                    entered: entered.clone(),
                })),
            )
            .unwrap();
        let config = ReactorConfig {
            io_threads: 1,
            workers: 1,
            queue_depth: 1,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind(registry, "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();

        // Pipeline 3 requests: one held inside the gate by the single worker, one in
        // the queue's single slot, one shed by admission control.
        write_frame(&mut stream, &encode_request(&request())).unwrap();
        while entered.load(Ordering::SeqCst) == 0 {
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
        *state.0.lock().unwrap_or_else(|p| p.into_inner()) = true;
        state.1.notify_all();
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
    fn panicking_model_is_an_internal_error_and_the_connection_survives() {
        struct Bomb;
        impl CardinalityEstimator for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn estimate(&self, _query: &Query) -> f64 {
                panic!("kaboom")
            }
        }
        let registry = fixed_registry(3.0);
        registry
            .register(1, "bomb", Arc::new(BaselineModel::new(Bomb)))
            .unwrap();
        let config = ReactorConfig {
            io_threads: 1,
            workers: 1, // the one worker must survive its own catch
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind(registry, "127.0.0.1:0", config).unwrap();
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
        let reactor = Reactor::bind(fixed_registry(1.0), "127.0.0.1:0", small_config()).unwrap();
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
        let reactor = Reactor::bind(fixed_registry(9.0), "127.0.0.1:0", config).unwrap();
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
        let reactor = Reactor::bind(fixed_registry(2.0), "127.0.0.1:0", config).unwrap();
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
        let reactor = Reactor::bind(fixed_registry(2.0), "127.0.0.1:0", small_config()).unwrap();
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
    fn precision_autoselects_fast_past_the_queue_depth_threshold() {
        // Threshold 0: every dispatch sees depth >= 0, so every exact request is
        // downgraded — the counter must track them all, and (the fixed baseline has
        // no fast tier) the answers stay correct.
        let config = ReactorConfig {
            fast_precision_queue_depth: Some(0),
            ..small_config()
        };
        let reactor = Reactor::bind(fixed_registry(6.0), "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        for _ in 0..5 {
            write_frame(&mut stream, &encode_request(&request())).unwrap();
            let frame = read_frame(&mut stream).unwrap();
            assert_eq!(decode_result(&frame).unwrap().unwrap().estimate, 6.0);
        }
        assert_eq!(reactor.stats().fast_autoselected, 5);
        reactor.shutdown();

        // Disabled (the default): nothing is downgraded no matter the backlog.
        let reactor = Reactor::bind(fixed_registry(6.0), "127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(reactor.local_addr()).unwrap();
        for _ in 0..4 {
            write_frame(&mut stream, &encode_request(&request())).unwrap();
            read_frame(&mut stream).unwrap();
        }
        assert_eq!(reactor.stats().fast_autoselected, 0);
        reactor.shutdown();
    }

    #[test]
    fn connection_cap_refuses_excess_clients() {
        let config = ReactorConfig {
            max_connections: 2,
            ..small_config()
        };
        let reactor = Reactor::bind(fixed_registry(1.0), "127.0.0.1:0", config).unwrap();
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
