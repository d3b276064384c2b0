//! Heap-allocation telemetry: a [`GlobalAlloc`] wrapper counting
//! allocations process-wide and per thread, so every span can record
//! the bytes allocated while it was open.
//!
//! The workspace's litho/STA hot paths are allocation-sensitive (scratch
//! buffers, memo keys), so knowing *which span* allocates is as valuable
//! as knowing which span burns time. [`CountingAlloc`] wraps the system
//! allocator; binaries opt in with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: svt_obs::alloc::CountingAlloc = svt_obs::alloc::CountingAlloc::system();
//! ```
//!
//! Attribution lives in the span registry: [`crate::span`] reads this
//! thread's byte count when it opens and the guard's drop adds the
//! difference to the path's [`crate::SpanStat`]. A span's bytes are
//! therefore the heap bytes allocated *on its own thread* while it was
//! open, children included; work it hands to other threads counts on
//! those threads' spans.
//!
//! # Safety discipline
//!
//! The recording hook runs *inside* `malloc`, so it must never allocate,
//! lock, or panic. It therefore touches only relaxed atomics and a
//! const-initialized, drop-free thread-local [`Cell`] (no lazy
//! initializer, no destructor registration), reached through `try_with`
//! so an allocation during thread teardown is simply not attributed.
//!
//! # Cost contract
//!
//! Mirrors the rest of `svt-obs`: while not activated (the default) the
//! hook is **one relaxed atomic load** before falling through to the
//! real allocator. [`set_active`] turns recording on — `svtd` does this
//! at boot; batch runs never pay.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Runtime switch; off by default so the hook costs one relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Process-wide allocation totals (count, bytes) while active.
static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes this thread has allocated while recording was active.
    /// Const-init and drop-free, so the hook's access never allocates.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes the current thread has allocated while recording was active.
/// Spans read it when they open and close; only differences matter.
#[inline]
pub(crate) fn thread_bytes() -> u64 {
    THREAD_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Turns allocation recording on or off at runtime. Independent of
/// `SVT_TRACE` so a daemon can watch memory even while trace mode is off.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Whether allocation recording is currently active.
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The allocation hook proper: atomics and one TLS cell, no allocation,
/// no panic.
#[inline]
fn record_alloc(bytes: usize) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return; // the entire inactive cost: one relaxed load
    }
    TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_BYTES.try_with(|b| b.set(b.get().wrapping_add(bytes as u64)));
}

/// Process-wide `(count, bytes)` totals recorded while active.
#[must_use]
pub fn totals() -> (u64, u64) {
    (
        TOTAL_COUNT.load(Ordering::Relaxed),
        TOTAL_BYTES.load(Ordering::Relaxed),
    )
}

/// Zeroes the process totals. Lets a caller isolate one measured
/// section (warm up, reset, measure) instead of reporting cumulative
/// process history. Counters racing with a live hook are zeroed on a
/// best-effort basis — call it between sections, not under concurrent
/// load.
pub fn reset() {
    TOTAL_COUNT.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
}

/// Pushes the current allocation totals into the global registry as the
/// `alloc.total.count` and `alloc.total.bytes` gauges, so they ride along
/// in every snapshot, exposition, and sampler tick. Allocates freely —
/// never call from the hook.
pub fn publish_gauges() {
    let (count, bytes) = totals();
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    crate::registry()
        .gauge("alloc.total.count")
        .set(clamp(count));
    crate::registry()
        .gauge("alloc.total.bytes")
        .set(clamp(bytes));
}

/// A [`GlobalAlloc`] wrapper that forwards to `A` and, while
/// [`set_active`] is on, counts each allocation into the process totals
/// and the allocating thread's byte count. Deallocations are forwarded
/// untouched: the telemetry answers "who allocates", and churn shows up
/// in `count` regardless.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc<A = System>(A);

impl CountingAlloc<System> {
    /// The system allocator, wrapped. `const` so it can initialize a
    /// `#[global_allocator]` static.
    #[must_use]
    pub const fn system() -> CountingAlloc<System> {
        CountingAlloc(System)
    }
}

// SAFETY: forwards every call verbatim to the inner allocator; the
// recording hook touches only atomics and a const-init TLS cell, so the
// GlobalAlloc contract (no unwinding, no reentrant allocation) holds.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.0.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.0.realloc(ptr, layout, new_size);
        if !p.is_null() && new_size > layout.size() {
            record_alloc(new_size - layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout);
    }
}
