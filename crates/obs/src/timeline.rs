//! Event-timeline recording: bounded per-thread ring buffers of
//! timestamped begin/end/instant events.
//!
//! This is the second observability layer (the first — [`mod@crate::registry`]
//! — aggregates spans into counters and loses the *when*). The timeline
//! keeps the raw event stream so a run can be rendered as a
//! Chrome/Perfetto trace ([`crate::chrome`]) showing worker occupancy,
//! cache-miss stalls, and per-corner STA waves.
//!
//! Design:
//!
//! * **One ring per thread.** Every recording thread owns a [`Ring`]; the
//!   owner is the only writer, so pushes are plain relaxed stores plus one
//!   release store of the head index — no lock, no CAS loop. Readers
//!   ([`snapshot_all`]) only run at export time.
//! * **Bounded, newest-wins.** A full ring wraps and overwrites the
//!   *oldest* events; the head index counts every push ever made, so the
//!   drop count is exact: `head.saturating_sub(capacity)`.
//! * **Interned names.** Events store a `u32` id into a global name
//!   table instead of a pointer, so a torn read across a wrap race can at
//!   worst mislabel an event — it can never fabricate an invalid string.
//!   Interning is cached in a thread-local map keyed by the `&'static
//!   str`'s address, so the hot path takes no global lock after a name's
//!   first use on a thread.
//! * **Ring reuse.** `svt-exec` spawns scoped workers per batch; when a
//!   thread exits, its ring returns to a free list and the next new thread
//!   adopts it (and its timeline id). Resident memory is therefore bounded
//!   by the *peak concurrent* thread count, not the total spawned.
//!
//! Recording is active only in [`crate::TraceMode::Chrome`] — every other
//! mode leaves [`crate::timeline_enabled`] false and the probes inert.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Environment variable overriding the per-thread ring capacity.
pub const CAPACITY_ENV: &str = "SVT_TRACE_BUF";

/// The kind of a timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A region opened (Chrome `"B"`).
    Begin,
    /// A region closed (Chrome `"E"`).
    End,
    /// A point event (Chrome `"i"`).
    Instant,
}

impl Phase {
    fn to_code(self) -> u64 {
        match self {
            Phase::Begin => 0,
            Phase::End => 1,
            Phase::Instant => 2,
        }
    }

    fn from_code(code: u64) -> Phase {
        match code {
            0 => Phase::Begin,
            1 => Phase::End,
            _ => Phase::Instant,
        }
    }
}

/// One decoded timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Event name (resolved from the intern table).
    pub name: &'static str,
    /// Begin / end / instant.
    pub phase: Phase,
}

/// The recorded timeline of one thread (or one reused worker slot).
#[derive(Debug, Clone)]
pub struct ThreadTimeline {
    /// Stable timeline id (1-based; becomes the Chrome `tid`).
    pub tid: u32,
    /// Events oldest-first. At most one ring capacity of the newest.
    pub events: Vec<Event>,
    /// Events lost to ring wraparound, counted exactly.
    pub dropped: u64,
}

/// A bounded single-writer ring buffer of timeline events.
///
/// The owning thread is the only writer; concurrent snapshot reads are
/// safe (every word is atomic) and at worst observe a torn *label* for an
/// event being overwritten mid-read — never an invalid one.
#[derive(Debug)]
pub struct Ring {
    tid: u32,
    capacity: usize,
    /// Total events ever pushed; slot `i % capacity` holds push `i`.
    head: AtomicU64,
    ts: Box<[AtomicU64]>,
    /// `name_id << 8 | phase`.
    meta: Box<[AtomicU64]>,
}

impl Ring {
    /// Creates a detached ring (tests; runtime rings come from the global
    /// pool). `capacity` is clamped to at least 2 so a begin/end pair fits.
    #[must_use]
    pub fn with_capacity(tid: u32, capacity: usize) -> Ring {
        let capacity = capacity.max(2);
        Ring {
            tid,
            capacity,
            head: AtomicU64::new(0),
            ts: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            meta: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The timeline id this ring reports under.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Pushes one event, overwriting the oldest when full.
    pub fn push(&self, ts_ns: u64, name_id: u32, phase: Phase) {
        let head = self.head.load(Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let slot = (head % self.capacity as u64) as usize;
        self.ts[slot].store(ts_ns, Ordering::Relaxed);
        self.meta[slot].store(u64::from(name_id) << 8 | phase.to_code(), Ordering::Relaxed);
        // Publish: a reader that Acquire-loads the head sees the slot
        // contents of every push it counts.
        self.head.store(head + 1, Ordering::Release);
    }

    /// Decodes the retained events (oldest-first) and the exact number of
    /// events lost to wraparound.
    #[must_use]
    pub fn snapshot(&self) -> ThreadTimeline {
        let head = self.head.load(Ordering::Acquire);
        let retained = head.min(self.capacity as u64);
        let dropped = head - retained;
        let mut events = Vec::with_capacity(usize::try_from(retained).unwrap_or(0));
        for i in dropped..head {
            #[allow(clippy::cast_possible_truncation)]
            let slot = (i % self.capacity as u64) as usize;
            let meta = self.meta[slot].load(Ordering::Relaxed);
            #[allow(clippy::cast_possible_truncation)]
            let name_id = (meta >> 8) as u32;
            events.push(Event {
                ts_ns: self.ts[slot].load(Ordering::Relaxed),
                name: name_of(name_id),
                phase: Phase::from_code(meta & 0xff),
            });
        }
        ThreadTimeline {
            tid: self.tid,
            events,
            dropped,
        }
    }
}

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every ring ever created through the global pool, in tid order.
fn all_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Rings whose owning thread has exited, available for adoption.
fn free_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static FREE: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Global intern table: id -> name. Names are `&'static str`, so the table
/// only ever grows by the (small, static) set of instrumentation names.
fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

fn name_of(id: u32) -> &'static str {
    lock_recovering(names())
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

/// The per-thread ring capacity: `SVT_TRACE_BUF` or the default, latched
/// on first use.
fn ring_capacity() -> usize {
    static CAPACITY: OnceLock<usize> = OnceLock::new();
    *CAPACITY.get_or_init(|| {
        std::env::var(CAPACITY_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 2)
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

/// The process trace epoch: timestamps are nanoseconds since this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    /// The ring this thread records into, adopted or created on first use.
    /// The guard returns the ring to the free list when the thread exits.
    static LOCAL_RING: RefCell<Option<RingGuard>> = const { RefCell::new(None) };
    /// Per-thread intern cache: `&'static str` address -> global name id.
    static LOCAL_NAMES: RefCell<HashMap<usize, u32>> = RefCell::new(HashMap::new());
}

struct RingGuard(Arc<Ring>);

impl Drop for RingGuard {
    fn drop(&mut self) {
        lock_recovering(free_rings()).push(Arc::clone(&self.0));
    }
}

fn intern(name: &'static str) -> u32 {
    LOCAL_NAMES.with(|cache| {
        *cache
            .borrow_mut()
            .entry(name.as_ptr() as usize)
            .or_insert_with(|| {
                let mut table = lock_recovering(names());
                if let Some(pos) = table.iter().position(|n| *n == name) {
                    u32::try_from(pos).unwrap_or(u32::MAX)
                } else {
                    table.push(name);
                    u32::try_from(table.len() - 1).unwrap_or(u32::MAX)
                }
            })
    })
}

/// Records one event on the current thread's ring. Callers gate this on
/// [`crate::timeline_enabled`]; the function itself is unconditional so
/// tests can drive it directly.
pub fn record(phase: Phase, name: &'static str) {
    let ts = now_ns();
    let id = intern(name);
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let guard = slot.get_or_insert_with(|| {
            let adopted = lock_recovering(free_rings()).pop();
            let ring = adopted.unwrap_or_else(|| {
                let mut all = lock_recovering(all_rings());
                let tid = u32::try_from(all.len() + 1).unwrap_or(u32::MAX);
                let ring = Arc::new(Ring::with_capacity(tid, ring_capacity()));
                all.push(Arc::clone(&ring));
                ring
            });
            RingGuard(ring)
        });
        guard.0.push(ts, id, phase);
    });
}

/// Snapshots every thread timeline ever recorded, tid-ascending. Safe to
/// call while other threads are still recording (their newest events may
/// be missed or, across a wrap, mislabeled — the export path runs after
/// the workload has quiesced).
#[must_use]
pub fn snapshot_all() -> Vec<ThreadTimeline> {
    lock_recovering(all_rings())
        .iter()
        .map(|ring| ring.snapshot())
        .collect()
}

/// Snapshots the ring owned by the *current* thread, if it has recorded
/// anything. The flight recorder ([`mod@crate::recorder`]) uses this to
/// slice one request's events out of the handler thread's own timeline
/// without touching other threads' rings.
#[must_use]
pub fn snapshot_current() -> Option<ThreadTimeline> {
    LOCAL_RING
        .try_with(|slot| slot.borrow().as_ref().map(|guard| guard.0.snapshot()))
        .ok()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_counts_drops_exactly() {
        let ring = Ring::with_capacity(7, 8);
        for i in 0..20u64 {
            ring.push(i, intern("t.ring.ev"), Phase::Instant);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.tid, 7);
        assert_eq!(snap.dropped, 12, "20 pushes into 8 slots drop exactly 12");
        assert_eq!(snap.events.len(), 8);
        let ts: Vec<u64> = snap.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (12..20).collect::<Vec<u64>>(), "newest 8 retained");
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        let ring = Ring::with_capacity(1, 16);
        ring.push(5, intern("t.ring.b"), Phase::Begin);
        ring.push(9, intern("t.ring.b"), Phase::End);
        let snap = ring.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].phase, Phase::Begin);
        assert_eq!(snap.events[1].phase, Phase::End);
        assert_eq!(snap.events[0].name, "t.ring.b");
    }

    #[test]
    fn interning_dedupes_by_content() {
        let a = intern("t.intern.same");
        // A distinct static with identical content must map to one id.
        let other: &'static str = Box::leak("t.intern.same".to_string().into_boxed_str());
        let b = intern(other);
        assert_eq!(a, b);
        assert_eq!(name_of(a), "t.intern.same");
    }

    #[test]
    fn snapshot_current_sees_only_this_thread() {
        std::thread::spawn(|| {
            assert!(
                snapshot_current().is_none(),
                "a thread that never recorded has no current timeline"
            );
            record(Phase::Instant, "t.current.mark");
            let tl = snapshot_current().expect("recording created a ring");
            assert!(tl.events.iter().any(|e| e.name == "t.current.mark"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
