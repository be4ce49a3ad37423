//! The dispatch core both transports feed: one bounded queue, one worker loop and one
//! way to execute a request (`docs/serving.md`).
//!
//! [`Executor`] is *what happens to a request*: [`Executor::execute`] on a worker.
//! [`Submitter`] and [`Dispatch`] are *how a job gets to a worker*: the bounded channel
//! with its queue-depth gauge, and the worker threads' start, stop and join.  They are
//! generic over the job type so that they never look inside one: the in-process
//! service queues a request with its reply rendezvous, the reactor queues an undecoded
//! frame with its connection coordinates, and each passes the runner that knows what to
//! do with its own job on a worker.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use crate::fault::FaultInjector;
use crate::lockcheck::Mutex;
use crate::pool::ScratchPool;
use crate::protocol::{ServeReply, ServeRequest};
use crate::registry::ModelRegistry;
use crate::ServeError;

/// How often an idle worker wakes to check the stop flag.  Only reached when the queue
/// is empty, so it costs nothing on the serving hot path; it bounds shutdown latency
/// when a leaked submitter keeps the channel open.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// The half of a dispatch core that does not depend on the job type: what its workers,
/// its submitters and its owner share.
pub(crate) struct Executor {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) scratch_pool: ScratchPool,
    /// Arms `worker.panic` / `worker.delay`.
    pub(crate) faults: FaultInjector,
    /// Jobs admitted to the queue and not yet picked up by a worker.
    queue_depth: AtomicUsize,
    /// Tells workers to exit at their next idle check even while a leaked
    /// [`Submitter`] keeps the channel open — shutdown must be bounded.
    stop: AtomicBool,
}

impl Executor {
    /// An executor for `workers` threads (one pooled scratch each) with no faults armed.
    pub(crate) fn new(registry: Arc<ModelRegistry>, workers: usize) -> Self {
        Executor {
            registry,
            scratch_pool: ScratchPool::new(workers),
            faults: FaultInjector::disabled(),
            queue_depth: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Answers `request` on the calling worker.
    pub(crate) fn execute(&self, request: ServeRequest) -> Result<ServeReply, ServeError> {
        // A panicking model must not take the worker (and with it the whole server)
        // down: catch the unwind, reply with a typed Internal error, and *discard* the
        // scratch that was live during the panic — its state is suspect, and the pool
        // replaces discarded scratches on demand.  Injected worker faults land inside
        // the same boundary, so chaos exercises exactly the production panic path.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.faults.maybe_panic("worker.panic");
            self.faults.stall("worker.delay");
            let mut scratch = self.scratch_pool.checkout();
            let result = self.registry.handle(&request, &mut scratch);
            self.scratch_pool.checkin(scratch);
            result
        }))
        .unwrap_or_else(|panic| Err(ServeError::Internal(panic_message(panic))))
    }

    /// Jobs currently queued.  A probe — racy by nature, exact enough for load
    /// shedding and dashboards.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }
}

/// Renders a caught panic payload for a [`ServeError::Internal`] reply.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "estimator panicked".to_string()
    }
}

/// A cloneable sending end of a [`Dispatch`] queue.
pub(crate) struct Submitter<J> {
    tx: SyncSender<J>,
    pub(crate) executor: Arc<Executor>,
}

impl<J> Clone for Submitter<J> {
    fn clone(&self) -> Self {
        Submitter {
            tx: self.tx.clone(),
            executor: self.executor.clone(),
        }
    }
}

impl<J> Submitter<J> {
    /// Queues `job` — waiting for queue space, or refusing with
    /// [`TrySendError::Full`], which hands the job back intact.
    /// [`TrySendError::Disconnected`] means the workers are gone.
    pub(crate) fn submit(&self, job: J, wait_for_space: bool) -> Result<(), TrySendError<J>> {
        // Counted before the enqueue and undone if it fails: a worker may dequeue (and
        // decrement) the instant the job is queued, so counting afterwards lets the
        // gauge be observed wrapped below zero.
        self.executor.queue_depth.fetch_add(1, Ordering::Relaxed);
        let sent = if wait_for_space {
            self.tx
                .send(job)
                .map_err(|e| TrySendError::Disconnected(e.0))
        } else {
            self.tx.try_send(job)
        };
        if sent.is_err() {
            self.executor.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }
}

/// The worker threads draining one bounded job queue.
pub(crate) struct Dispatch {
    pub(crate) executor: Arc<Executor>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Dispatch {
    /// Starts `workers` threads named `{thread_prefix}-{i}` draining a queue of
    /// `queue_depth` jobs, and returns them with the queue's first sending end; each
    /// dequeued job is handed to `run` with the executor.  Workers leave at once when the
    /// last [`Submitter`] is dropped, so an owner that keeps one drops it before stopping
    /// them.
    pub(crate) fn start<J: Send + 'static>(
        executor: Executor,
        workers: usize,
        queue_depth: usize,
        thread_prefix: &str,
        run: impl Fn(&Executor, J) + Clone + Send + 'static,
    ) -> (Self, Submitter<J>) {
        let executor = Arc::new(executor);
        let (tx, rx) = sync_channel(queue_depth);
        let rx = Arc::new(Mutex::new("dispatch.worker_rx", rx));
        let workers = (0..workers)
            .map(|i| {
                let (executor, rx, run) = (executor.clone(), rx.clone(), run.clone());
                #[expect(
                    clippy::expect_used,
                    reason = "startup path, before any request is admitted; a process that \
                              cannot spawn OS threads cannot serve, and there is no client \
                              to hand an error to"
                )]
                std::thread::Builder::new()
                    .name(format!("{thread_prefix}-{i}"))
                    .spawn(move || worker_loop(&executor, &rx, run))
                    .expect("spawning a dispatch worker")
            })
            .collect();
        let submitter = Submitter {
            tx,
            executor: executor.clone(),
        };
        (Dispatch { executor, workers }, submitter)
    }

    /// Lets the workers drain the queue and joins them.  Returns within a few
    /// [`IDLE_POLL`]s even if a leaked [`Submitter`] keeps the channel open; a job sent
    /// through one afterwards is refused as disconnected.  Panics if a worker died.
    pub(crate) fn shutdown(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "shutdown path, after the last reply: a worker that panicked despite the \
                      catch_unwind around every estimate is a bug that must surface, not be \
                      swallowed into the final stats"
        )]
        self.stop_and_join().expect("dispatch worker panicked");
    }

    /// Idempotent; `Err` carries a dead worker's panic.
    fn stop_and_join(&mut self) -> std::thread::Result<()> {
        self.executor.stop.store(true, Ordering::Release);
        let mut outcome = Ok(());
        for worker in self.workers.drain(..) {
            outcome = outcome.and(worker.join());
        }
        outcome
    }
}

impl Drop for Dispatch {
    fn drop(&mut self) {
        // A panic in a worker already unwound; don't double-panic in drop.
        let _ = self.stop_and_join();
    }
}

fn worker_loop<J>(executor: &Executor, rx: &Mutex<Receiver<J>>, run: impl Fn(&Executor, J)) {
    loop {
        // Hold the receiver lock only for the dequeue, never the compute.  Queued jobs
        // are always served before a stop-flag exit (recv_timeout only times out on an
        // empty queue), so shutdown still drains.
        let job = match rx.lock().recv_timeout(IDLE_POLL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) if executor.stop.load(Ordering::Acquire) => return,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return, // every submitter is gone
        };
        // fetch_sub returns the pre-decrement depth: the backlog including this job.
        let depth_at_dispatch = executor.queue_depth.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(
            depth_at_dispatch >= 1,
            "queue-depth gauge wrapped below zero"
        );
        run(executor, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_executor() -> Executor {
        Executor::new(Arc::new(ModelRegistry::new()), 1)
    }

    #[test]
    fn refused_job_comes_back_intact_with_the_gauge_undone() {
        // The runner reports each job it is handed, then waits to be released.
        let (started, started_rx) = sync_channel::<String>(4);
        let (release, release_rx) = sync_channel::<()>(4);
        let release_rx = Arc::new(Mutex::new("test.release_rx", release_rx));
        let (mut dispatch, jobs) = Dispatch::start(
            idle_executor(),
            1,
            1,
            "test-dispatch",
            move |_: &Executor, job: String| {
                started.send(job).unwrap();
                release_rx.lock().recv().unwrap();
            },
        );

        // One job held by the single worker (dequeued, so the gauge is back at zero),
        // one in the queue's single slot.
        jobs.submit("held".to_string(), false).unwrap();
        assert_eq!(started_rx.recv().unwrap(), "held");
        assert_eq!(jobs.executor.queue_depth(), 0);
        jobs.submit("queued".to_string(), false).unwrap();
        assert_eq!(jobs.executor.queue_depth(), 1);

        match jobs.submit("refused".to_string(), false) {
            Err(TrySendError::Full(job)) => assert_eq!(job, "refused"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(jobs.executor.queue_depth(), 1);

        release.send(()).unwrap();
        release.send(()).unwrap();
        assert_eq!(started_rx.recv().unwrap(), "queued");
        dispatch.shutdown();
        assert_eq!(dispatch.executor.queue_depth(), 0);
        // Once the workers are gone a leaked submitter is refused, not left hanging.
        match jobs.submit("late".to_string(), true) {
            Err(TrySendError::Disconnected(job)) => assert_eq!(job, "late"),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert_eq!(jobs.executor.queue_depth(), 0);
    }

    #[test]
    fn shutdown_with_a_leaked_submitter_drains_the_queue_and_returns() {
        let sum = Arc::new(AtomicUsize::new(0));
        let (mut dispatch, leaked) = {
            let sum = sum.clone();
            Dispatch::start(
                idle_executor(),
                1,
                8,
                "test-dispatch",
                move |_: &Executor, n: usize| {
                    sum.fetch_add(n, Ordering::SeqCst);
                },
            )
        };
        for n in 1..=5 {
            leaked.submit(n, true).unwrap();
        }
        // `leaked` keeps the channel open, so the workers never see a disconnect: they
        // must drain what is queued, then leave by the stop flag at an idle poll.
        let started = std::time::Instant::now();
        dispatch.shutdown();
        assert!(started.elapsed() < 100 * IDLE_POLL, "shutdown hung");
        assert_eq!(sum.load(Ordering::SeqCst), 15);
        assert_eq!(leaked.executor.queue_depth(), 0);
    }
}
