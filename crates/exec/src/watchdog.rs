//! Pool watchdog: per-worker heartbeat timestamps plus a monitor thread
//! that flags tasks stuck past a deadline.
//!
//! A long-running sign-off service cannot afford a silent wedge — one
//! infinite loop inside a characterization task would otherwise look like
//! "busy" forever. While armed, every pool task stamps a heartbeat slot on
//! entry and clears it on exit (panic-safe: the pool brackets the task's
//! `catch_unwind`); a monitor thread scans the slots and:
//!
//! * keeps the `pool.stalled` gauge at the number of tasks currently past
//!   the deadline (rendered as `svt_pool_stalled` in the Prometheus
//!   exposition, surfaced by `svtd`'s `/healthz`),
//! * bumps the cumulative `pool.stall_events` counter once per stuck task
//!   (a task is re-counted only if it finishes and a *new* task stalls),
//! * drops a `pool.stalled` timeline instant so the stall is visible in
//!   the Chrome trace at the moment it was detected.
//!
//! # Cost contract
//!
//! Disarmed (the default — only `svtd` and tests arm it), the pool's
//! per-batch check [`armed`] is **one relaxed atomic load**, and no
//! monitor thread exists until the first [`arm`]. Heartbeat slots follow
//! the timeline-ring pattern: a fixed table, claimed per worker thread,
//! returned on thread exit, so memory is bounded by peak concurrency.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use svt_obs::timeline::now_ns;
use svt_obs::{counter, gauge};

/// Maximum concurrently-monitored worker threads; extras run unmonitored.
const MAX_SLOTS: usize = 256;

/// Whether the watchdog is armed; the entire disarmed cost of the pool
/// integration is this one relaxed load per batch.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Stall deadline in nanoseconds.
static DEADLINE_NS: AtomicU64 = AtomicU64::new(u64::MAX);
/// Cumulative stuck-task detections since process start.
static STALL_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Tasks currently past the deadline, as of the monitor's last scan.
static STALLED_NOW: AtomicU64 = AtomicU64::new(0);

struct Slot {
    /// Claimed by a live worker thread.
    in_use: AtomicBool,
    /// Heartbeat: `now_ns()` at task entry, 0 while idle.
    task_started_ns: AtomicU64,
    /// The `task_started_ns` value most recently counted as a stall, so
    /// one stuck task is counted once, not once per scan.
    flagged_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const FREE: Slot = Slot {
    in_use: AtomicBool::new(false),
    task_started_ns: AtomicU64::new(0),
    flagged_ns: AtomicU64::new(0),
};

static SLOTS: [Slot; MAX_SLOTS] = [FREE; MAX_SLOTS];

/// This thread's claimed slot plus its task nesting depth (a pool batch
/// can run inside another batch's task on the inline path; only the
/// outermost task owns the heartbeat).
struct SlotGuard {
    idx: usize,
    depth: Cell<u32>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let slot = &SLOTS[self.idx];
        slot.task_started_ns.store(0, Ordering::Relaxed);
        slot.in_use.store(false, Ordering::Release);
    }
}

thread_local! {
    static MY_SLOT: RefCell<Option<SlotGuard>> = const { RefCell::new(None) };
}

/// Whether the watchdog is armed. One relaxed load; the pool samples it
/// once per batch.
#[inline]
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the watchdog with a stall `deadline` and starts the monitor
/// thread (once per process; re-arming adjusts the deadline in place).
pub fn arm(deadline: Duration) {
    let ns = u64::try_from(deadline.as_nanos())
        .unwrap_or(u64::MAX)
        .max(1);
    DEADLINE_NS.store(ns, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    static MONITOR: OnceLock<()> = OnceLock::new();
    MONITOR.get_or_init(|| {
        let spawned = std::thread::Builder::new()
            .name("svt-watchdog".into())
            .spawn(monitor_loop);
        if let Err(e) = spawned {
            eprintln!("svt-exec: watchdog monitor failed to start: {e}");
        }
    });
}

/// Disarms the watchdog. The monitor thread idles (it never exits, so a
/// later [`arm`] needs no restart) and the stalled gauge drops to 0.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    STALLED_NOW.store(0, Ordering::Relaxed);
    gauge!("pool.stalled").set(0);
}

/// Marks the current thread as having entered a pool task. Callers pair
/// this with [`task_end`] around the task body (including its unwind
/// path). Claims a heartbeat slot on the thread's first task; if the
/// table is exhausted the task simply runs unmonitored.
pub fn task_begin() {
    let _ = MY_SLOT.try_with(|cell| {
        let mut cell = cell.borrow_mut();
        if cell.is_none() {
            *cell = claim_slot();
        }
        if let Some(guard) = cell.as_ref() {
            let depth = guard.depth.get();
            guard.depth.set(depth + 1);
            if depth == 0 {
                SLOTS[guard.idx]
                    .task_started_ns
                    .store(now_ns().max(1), Ordering::Relaxed);
            }
        }
    });
}

/// Marks the current thread as having left a pool task.
pub fn task_end() {
    let _ = MY_SLOT.try_with(|cell| {
        if let Some(guard) = cell.borrow().as_ref() {
            let depth = guard.depth.get().saturating_sub(1);
            guard.depth.set(depth);
            if depth == 0 {
                SLOTS[guard.idx].task_started_ns.store(0, Ordering::Relaxed);
            }
        }
    });
}

fn claim_slot() -> Option<SlotGuard> {
    for (idx, slot) in SLOTS.iter().enumerate() {
        if slot
            .in_use
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            slot.task_started_ns.store(0, Ordering::Relaxed);
            return Some(SlotGuard {
                idx,
                depth: Cell::new(0),
            });
        }
    }
    None
}

/// One monitor scan: counts tasks past `deadline_ns` and counts each
/// newly-stalled task exactly once. Factored out so tests can drive it
/// without timing on the monitor thread's schedule.
fn scan(deadline_ns: u64) -> u64 {
    let now = now_ns();
    let mut stalled = 0u64;
    for slot in &SLOTS {
        if !slot.in_use.load(Ordering::Acquire) {
            continue;
        }
        let started = slot.task_started_ns.load(Ordering::Relaxed);
        if started == 0 || now.saturating_sub(started) < deadline_ns {
            continue;
        }
        stalled += 1;
        if slot.flagged_ns.swap(started, Ordering::Relaxed) != started {
            STALL_EVENTS.fetch_add(1, Ordering::Relaxed);
            counter!("pool.stall_events").incr();
            svt_obs::instant("pool.stalled");
            // A stall is a flight-recorder trigger: dump the retained
            // capsules and a metrics snapshot while the wedge is live
            // (no-op unless a post-mortem path is configured).
            let _ = svt_obs::recorder::post_mortem("watchdog_stall");
        }
    }
    STALLED_NOW.store(stalled, Ordering::Relaxed);
    gauge!("pool.stalled").set(i64::try_from(stalled).unwrap_or(i64::MAX));
    stalled
}

fn monitor_loop() {
    loop {
        if !ARMED.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        let deadline_ns = DEADLINE_NS.load(Ordering::Relaxed);
        scan(deadline_ns);
        // Scan at quarter-deadline so a stall is detected within ~1.25×
        // the deadline, floored to keep a tiny deadline from busy-waiting.
        let poll = Duration::from_nanos((deadline_ns / 4).max(1_000_000));
        std::thread::sleep(poll.min(Duration::from_millis(250)));
    }
}

/// The watchdog's current verdict, as `svtd`'s `/healthz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogStatus {
    /// Whether the watchdog is armed.
    pub armed: bool,
    /// The stall deadline.
    pub deadline: Duration,
    /// Tasks past the deadline as of the last monitor scan.
    pub stalled_now: u64,
    /// Cumulative stuck-task detections since process start.
    pub stall_events: u64,
}

impl WatchdogStatus {
    /// Healthy = not armed, or armed with nothing currently stalled.
    #[must_use]
    pub fn healthy(&self) -> bool {
        !self.armed || self.stalled_now == 0
    }
}

/// Reads the current watchdog status (atomics only; scrape-safe).
#[must_use]
pub fn status() -> WatchdogStatus {
    WatchdogStatus {
        armed: armed(),
        deadline: Duration::from_nanos(DEADLINE_NS.load(Ordering::Relaxed)),
        stalled_now: STALLED_NOW.load(Ordering::Relaxed),
        stall_events: STALL_EVENTS.load(Ordering::Relaxed),
    }
}

/// Publishes the watchdog verdict as gauges, so the sampler thread can
/// put `pool.armed` / `pool.deadline_ms` beside the scan-maintained
/// `pool.stalled` in the time-series store each tick.
pub fn publish_status_gauges() {
    let st = status();
    gauge!("pool.armed").set(i64::from(st.armed));
    gauge!("pool.deadline_ms").set(i64::try_from(st.deadline.as_millis()).unwrap_or(i64::MAX));
    gauge!("pool.stalled").set(i64::try_from(st.stalled_now).unwrap_or(i64::MAX));
}

#[cfg(test)]
mod tests {
    use super::*;

    // Heartbeat slots are process-global; tests that claim them run under
    // this lock, each on a thread of its own that has exited — and so
    // given its slot back — before the lock is released. Nothing in this
    // binary arms the watchdog: armed, every pool task of every other
    // test here would claim and free slots behind the lock's back.
    // Arming is tested in `tests/watchdog.rs`, a separate process.
    fn state_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` on a new thread and joins it. A joined thread has run its
    /// thread-local destructors, so its slot is free again on return; a
    /// `thread::scope` can return before they run.
    fn on_own_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn scan_flags_each_stuck_task_once() {
        let _guard = state_lock();
        let events_before = STALL_EVENTS.load(Ordering::Relaxed);
        // Latch the trace epoch, then let it advance past the deadline so
        // a heartbeat backdated to the epoch reads as stalled.
        let _ = now_ns();
        std::thread::sleep(Duration::from_millis(5));
        on_own_thread(|| {
            task_begin();
            // Backdate the heartbeat instead of sleeping.
            MY_SLOT.with(|cell| {
                let idx = cell.borrow().as_ref().unwrap().idx;
                SLOTS[idx].task_started_ns.store(1, Ordering::Relaxed);
            });
            assert_eq!(scan(1_000_000), 1, "backdated task counts as stalled");
            assert_eq!(scan(1_000_000), 1, "still stalled on rescan");
            task_end();
            assert_eq!(scan(1_000_000), 0, "finished task clears the gauge");
        });
        assert_eq!(
            STALL_EVENTS.load(Ordering::Relaxed),
            events_before + 1,
            "one stuck task is one event, not one per scan"
        );
    }

    #[test]
    fn nested_tasks_keep_the_outer_heartbeat() {
        let _guard = state_lock();
        on_own_thread(|| {
            task_begin();
            let started = MY_SLOT.with(|cell| {
                let idx = cell.borrow().as_ref().unwrap().idx;
                SLOTS[idx].task_started_ns.load(Ordering::Relaxed)
            });
            assert!(started > 0);
            task_begin(); // inner batch on the same thread
            task_end();
            let after_inner = MY_SLOT.with(|cell| {
                let idx = cell.borrow().as_ref().unwrap().idx;
                SLOTS[idx].task_started_ns.load(Ordering::Relaxed)
            });
            assert_eq!(
                after_inner, started,
                "inner task_end must not clear the outer heartbeat"
            );
            task_end();
        });
    }

    #[test]
    fn slots_recycle_when_threads_exit() {
        let _guard = state_lock();
        let claimed = |idx: usize| SLOTS[idx].in_use.load(Ordering::Relaxed);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let idx = on_own_thread(|| {
                task_begin();
                let idx = MY_SLOT.with(|cell| cell.borrow().as_ref().unwrap().idx);
                task_end();
                idx
            });
            assert!(!claimed(idx), "slot must free on thread exit");
            seen.push(idx);
        }
        // Sequential threads reuse the freed slot instead of leaking one
        // per thread (bounded by peak concurrency, like timeline rings).
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[1], seen[2]);
    }
}
