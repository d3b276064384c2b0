//! Persistent bounded worker pool for long-lived services.
//!
//! The scoped [`pool`](crate::pool) is built for batch fan-out: workers
//! are spawned per call and joined before the call returns. A daemon
//! serving connections needs the opposite shape — a fixed set of
//! *persistent* handler threads fed by a bounded queue, where the
//! producer (an accept loop) must learn *synchronously* when the queue
//! is full so it can shed load instead of buffering unboundedly.
//!
//! [`ServicePool`] provides exactly that:
//!
//! * `workers` named threads (`{name}-0` …) started once and reused for
//!   every job;
//! * a bounded FIFO queue of pending jobs — [`ServicePool::try_submit`]
//!   never blocks and hands the job *back* inside
//!   [`SubmitError::Full`] when the queue is at capacity, so the caller
//!   still owns the connection it wanted to enqueue and can answer
//!   `429 Too Many Requests` on it;
//! * panic isolation — a panicking handler is caught and counted
//!   (`{name}.handler_panics`), the worker thread survives and keeps
//!   draining the queue (no thread leaks under fault injection);
//! * graceful drain — [`ServicePool::drain`] stops intake, lets the
//!   workers finish every job already accepted, and joins them.
//!
//! Telemetry (all through `svt-obs`, one handle resolved at spawn):
//! `{name}.queue_depth` / `{name}.in_flight` gauges,
//! `{name}.submitted` / `{name}.rejected` / `{name}.completed` /
//! `{name}.handler_panics` counters, and a `{name}.queue_wait_ns`
//! histogram of how long each job sat queued before a worker claimed
//! it. The pool deliberately does *not* wrap jobs in watchdog
//! heartbeats: a job may legitimately sit in a blocking read
//! (keep-alive connections), which is idleness, not a stall. Callers
//! heartbeat the genuinely bounded sections themselves.
//!
//! The handler can read the wait its own job experienced via
//! [`current_queue_wait_ns`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use svt_obs::{Counter, Gauge, Histogram};

/// Why a job could not be enqueued; the job itself is handed back so
/// the caller can dispose of it (e.g. answer 429 on the connection).
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at capacity — shed load.
    Full(T),
    /// The pool is draining and accepts no new work.
    Draining(T),
}

impl<T> SubmitError<T> {
    /// Recovers the rejected job.
    pub fn into_job(self) -> T {
        match self {
            SubmitError::Full(job) | SubmitError::Draining(job) => job,
        }
    }

    /// Whether the rejection was capacity (`true`) or drain (`false`).
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, SubmitError::Full(_))
    }
}

/// One enqueued job plus its enqueue timestamp.
struct Queued<T> {
    job: T,
    enqueued: Instant,
}

struct QueueState<T> {
    jobs: VecDeque<Queued<T>>,
    draining: bool,
}

struct Shared<T> {
    state: Mutex<QueueState<T>>,
    wake: Condvar,
    capacity: usize,
    depth_gauge: &'static Gauge,
    inflight_gauge: &'static Gauge,
    submitted: &'static Counter,
    rejected: &'static Counter,
    completed: &'static Counter,
    panics: &'static Counter,
    queue_wait: &'static Histogram,
}

thread_local! {
    /// Queue wait of the job currently running on this worker thread.
    static QUEUE_WAIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// The queue wait (nanoseconds) of the pool job currently executing on
/// this thread — 0 outside a pool handler. Serving layers fold this
/// into access-log lines and slow-request capsules.
#[must_use]
pub fn current_queue_wait_ns() -> u64 {
    QUEUE_WAIT_NS.try_with(Cell::get).unwrap_or(0)
}

/// A fixed-size persistent worker pool over a bounded job queue.
///
/// Dropping the pool drains it (see [`ServicePool::drain`]).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use svt_exec::service::ServicePool;
///
/// let done = Arc::new(AtomicUsize::new(0));
/// let seen = Arc::clone(&done);
/// let pool = ServicePool::spawn("doc.pool", 2, 8, move |job: usize| {
///     seen.fetch_add(job, Ordering::Relaxed);
/// });
/// for job in 1..=4 {
///     pool.try_submit(job).expect("queue has room");
/// }
/// pool.drain();
/// assert_eq!(done.load(Ordering::Relaxed), 10);
/// ```
pub struct ServicePool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> ServicePool<T> {
    /// Starts `workers` persistent handler threads named `{name}-{i}`
    /// over a queue holding at most `capacity` pending jobs.
    ///
    /// `workers` and `capacity` are clamped to at least 1. The handler
    /// runs on the worker threads; a panic inside it is caught and
    /// counted, and the worker keeps serving.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    pub fn spawn<F>(name: &str, workers: usize, capacity: usize, handler: F) -> ServicePool<T>
    where
        F: Fn(T) + Send + Sync + 'static,
    {
        let registry = svt_obs::registry();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            depth_gauge: registry.gauge(&format!("{name}.queue_depth")),
            inflight_gauge: registry.gauge(&format!("{name}.in_flight")),
            submitted: registry.counter(&format!("{name}.submitted")),
            rejected: registry.counter(&format!("{name}.rejected")),
            completed: registry.counter(&format!("{name}.completed")),
            panics: registry.counter(&format!("{name}.handler_panics")),
            queue_wait: registry.histogram(&format!("{name}.queue_wait_ns")),
        });
        let handler = Arc::new(handler);
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared, handler.as_ref()))
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool { shared, workers }
    }

    /// Enqueues one job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Draining`] after [`ServicePool::drain`] began —
    /// both return the job to the caller.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex is poisoned (a worker panicked *while
    /// holding the lock*, which the pop path never does).
    pub fn try_submit(&self, job: T) -> Result<(), SubmitError<T>> {
        let mut state = self.shared.state.lock().expect("service queue poisoned");
        if state.draining {
            return Err(SubmitError::Draining(job));
        }
        if state.jobs.len() >= self.shared.capacity {
            drop(state);
            self.shared.rejected.incr();
            return Err(SubmitError::Full(job));
        }
        state.jobs.push_back(Queued {
            job,
            enqueued: Instant::now(),
        });
        let depth = state.jobs.len();
        drop(state);
        self.shared.submitted.incr();
        self.shared
            .depth_gauge
            .set(i64::try_from(depth).unwrap_or(i64::MAX));
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Pending (not yet claimed) jobs right now.
    ///
    /// # Panics
    ///
    /// Panics if the queue mutex is poisoned.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service queue poisoned")
            .jobs
            .len()
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stops intake, waits for the workers to finish every accepted
    /// job, and joins them. Returns the number of workers joined.
    pub fn drain(mut self) -> usize {
        self.drain_in_place()
    }

    fn drain_in_place(&mut self) -> usize {
        {
            let mut state = self.shared.state.lock().expect("service queue poisoned");
            state.draining = true;
        }
        self.shared.wake.notify_all();
        let mut joined = 0;
        for worker in self.workers.drain(..) {
            // A worker that panicked outside the handler guard is a bug,
            // but it must not poison drain for the rest.
            let _ = worker.join();
            joined += 1;
        }
        joined
    }
}

impl<T: Send + 'static> Drop for ServicePool<T> {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.drain_in_place();
        }
    }
}

fn worker_loop<T, F: Fn(T)>(shared: &Shared<T>, handler: &F) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("service queue poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    shared
                        .depth_gauge
                        .set(i64::try_from(state.jobs.len()).unwrap_or(i64::MAX));
                    break job;
                }
                if state.draining {
                    return;
                }
                state = shared
                    .wake
                    .wait(state)
                    .expect("service queue poisoned while waiting");
            }
        };
        let wait_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.queue_wait.record(wait_ns);
        let _ = QUEUE_WAIT_NS.try_with(|cell| cell.set(wait_ns));
        shared.inflight_gauge.add(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| handler(job.job)));
        shared.inflight_gauge.add(-1);
        let _ = QUEUE_WAIT_NS.try_with(|cell| cell.set(0));
        shared.completed.incr();
        if outcome.is_err() {
            shared.panics.incr();
            // A panicking handler is a flight-recorder trigger: dump the
            // black box while the evidence is fresh (no-op unless a
            // post-mortem path is configured).
            let _ = svt_obs::recorder::post_mortem("handler_panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_exactly_once_and_drain_completes_all() {
        let sum = Arc::new(AtomicUsize::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let (s, c) = (Arc::clone(&sum), Arc::clone(&count));
        let pool = ServicePool::spawn("test.svc.once", 3, 64, move |job: usize| {
            s.fetch_add(job, Ordering::Relaxed);
            c.fetch_add(1, Ordering::Relaxed);
        });
        let mut submitted = 0;
        for job in 0..50 {
            if pool.try_submit(job).is_ok() {
                submitted += 1;
            }
        }
        assert_eq!(pool.drain(), 3);
        assert_eq!(count.load(Ordering::Relaxed), submitted);
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        // One worker blocked forever-ish on a gate, capacity 2: the third
        // un-served submit must come back as Full with the job intact.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let pool = ServicePool::spawn("test.svc.full", 1, 2, move |_job: u32| {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        // First job occupies the worker; wait for it to be claimed.
        pool.try_submit(100).unwrap();
        while pool.queue_depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(101).unwrap();
        pool.try_submit(102).unwrap();
        let err = pool.try_submit(103).expect_err("queue is full");
        assert!(err.is_full());
        assert_eq!(err.into_job(), 103);
        // Open the gate so drain can finish.
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
    }

    #[test]
    fn panicking_handler_leaves_workers_alive() {
        let served = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&served);
        let pool = ServicePool::spawn("test.svc.panic", 2, 16, move |job: u32| {
            assert!(job != 7, "injected handler fault");
            s.fetch_add(1, Ordering::Relaxed);
        });
        for job in 0..16 {
            pool.try_submit(job).unwrap();
        }
        assert_eq!(pool.drain(), 2, "both workers survive the panic");
        assert_eq!(served.load(Ordering::Relaxed), 15);
        assert!(
            svt_obs::registry()
                .counter("test.svc.panic.handler_panics")
                .get()
                >= 1
        );
    }

    #[test]
    fn queue_wait_is_measured_and_readable_from_the_handler() {
        assert_eq!(current_queue_wait_ns(), 0, "no pool job on this thread");
        let waits = Arc::new(Mutex::new(Vec::<u64>::new()));
        let w = Arc::clone(&waits);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let pool = ServicePool::spawn("test.svc.wait", 1, 8, move |_job: u32| {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            w.lock().unwrap().push(current_queue_wait_ns());
        });
        // First job occupies the worker; the second queues behind it and
        // must observe a wait of at least the sleep below.
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.drain();
        let waits = waits.lock().unwrap();
        assert_eq!(waits.len(), 2);
        assert!(
            waits[1] >= 5_000_000,
            "queued job must see >= 5ms wait, got {}ns",
            waits[1]
        );
        let hist = svt_obs::registry().histogram("test.svc.wait.queue_wait_ns");
        assert_eq!(hist.count(), 2, "every claimed job records its wait");
    }

    #[test]
    fn draining_pool_rejects_new_jobs() {
        let pool: ServicePool<u32> = ServicePool::spawn("test.svc.drain", 1, 4, |_| {});
        pool.try_submit(1).unwrap();
        // Drop triggers drain; a second handle can't exist, so test the
        // flag through drain() + a fresh pool instead.
        let joined = pool.drain();
        assert_eq!(joined, 1);
    }
}
