//! The black-box flight recorder: a bounded in-memory ring of "slow
//! request capsules" plus a post-mortem dump path.
//!
//! A capsule is the complete local evidence for one slow request: its
//! trace id (from [`next_trace_id`]), route and design, latency, queue
//! wait, alloc delta, and the slice of the handler thread's timeline ring
//! covering the request window. The serving layer captures a capsule
//! when a request exceeds its `--slow-ms` threshold; capsules are served
//! back as JSON at `GET /debug/requests` and as a per-request Chrome
//! trace (every event tagged with the trace id) at
//! `GET /debug/requests/{trace_id}/trace.json`.
//!
//! # Ownership and bounds
//!
//! The ring is process-global and holds at most [`CAPSULE_CAPACITY`]
//! capsules, newest-wins: recording the N+1th evicts the oldest. Each
//! capsule owns its event slice (copied out of the per-thread ring at
//! capture time), so later ring wraparound cannot corrupt it. Capturing
//! takes one short mutex on the slow path only — fast requests never
//! touch the recorder.
//!
//! # Post-mortem dumps
//!
//! When a dump path is configured ([`set_post_mortem_path`]; `svtd` does
//! this at startup), [`post_mortem`] writes every retained capsule plus
//! a full metrics snapshot to that path as one JSON document. The
//! triggers are: a watchdog stall, a panicking pool handler, and daemon
//! drain. Without a configured path the call is a no-op, so embedded
//! uses (tests, benches) never scribble files into the working
//! directory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::json::escape_json;
use crate::timeline::{Phase, ThreadTimeline};

/// Maximum retained capsules; the ring evicts oldest-first beyond this.
pub const CAPSULE_CAPACITY: usize = 64;

/// Allocates the next process-unique request trace id: monotonic and
/// 1-based, so 0 never names a request. One relaxed `fetch_add`.
#[must_use]
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The complete recorded evidence for one slow request.
#[derive(Debug, Clone)]
pub struct RequestCapsule {
    /// The request's process-unique trace id.
    pub trace_id: u64,
    /// HTTP method.
    pub method: String,
    /// Concrete request path.
    pub path: String,
    /// Route class (the template, e.g. `/designs/{name}/eco`).
    pub route: String,
    /// Design the request targeted, `-` when none.
    pub design: String,
    /// Response status code.
    pub status: u16,
    /// Wall time spent serving the request.
    pub latency_ns: u64,
    /// Time the request's pool task spent queued before a worker picked
    /// it up (0 when no pool task was involved).
    pub queue_wait_ns: u64,
    /// Allocations made process-wide during the request window (requires
    /// the active counting allocator; 0 otherwise). Process-global, so
    /// concurrent requests inflate each other's deltas.
    pub alloc_count: u64,
    /// Bytes allocated process-wide during the request window.
    pub alloc_bytes: u64,
    /// Request start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Request end, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// The handler thread's timeline events inside the request window
    /// (empty outside Chrome trace mode).
    pub timeline: ThreadTimeline,
}

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ring() -> &'static Mutex<VecDeque<RequestCapsule>> {
    static RING: OnceLock<Mutex<VecDeque<RequestCapsule>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn post_mortem_slot() -> &'static Mutex<Option<String>> {
    static PATH: Mutex<Option<String>> = Mutex::new(None);
    &PATH
}

/// Restricts a thread timeline to the events inside `[start_ns, end_ns]`
/// — the capture step slicing one request's window out of the handler
/// thread's ring. The slice owns its events; `dropped` is reset to zero
/// because ring-wide drop counts are not attributable to one request.
#[must_use]
pub fn slice_window(tl: &ThreadTimeline, start_ns: u64, end_ns: u64) -> ThreadTimeline {
    ThreadTimeline {
        tid: tl.tid,
        events: tl
            .events
            .iter()
            .filter(|e| e.ts_ns >= start_ns && e.ts_ns <= end_ns)
            .copied()
            .collect(),
        dropped: 0,
    }
}

/// Records one capsule, evicting the oldest past [`CAPSULE_CAPACITY`].
pub fn record(capsule: RequestCapsule) {
    let mut ring = lock_recovering(ring());
    if ring.len() >= CAPSULE_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(capsule);
    crate::counter!("obs.recorder.capsules").incr();
}

/// Every retained capsule, oldest first.
#[must_use]
pub fn capsules() -> Vec<RequestCapsule> {
    lock_recovering(ring()).iter().cloned().collect()
}

/// The retained capsule with this trace id, if any.
#[must_use]
pub fn find(trace_id: u64) -> Option<RequestCapsule> {
    lock_recovering(ring())
        .iter()
        .find(|c| c.trace_id == trace_id)
        .cloned()
}

/// Number of retained capsules.
#[must_use]
pub fn len() -> usize {
    lock_recovering(ring()).len()
}

/// Whether the ring is empty.
#[must_use]
pub fn is_empty() -> bool {
    len() == 0
}

/// Forgets every retained capsule (tests and benchmark phases).
pub fn clear() {
    lock_recovering(ring()).clear();
}

fn phase_str(phase: Phase) -> &'static str {
    match phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    }
}

fn capsule_fields(c: &RequestCapsule) -> String {
    format!(
        "\"trace_id\": {}, \"method\": \"{}\", \"path\": \"{}\", \"route\": \"{}\", \
         \"design\": \"{}\", \"status\": {}, \"latency_ns\": {}, \"queue_wait_ns\": {}, \
         \"alloc_count\": {}, \"alloc_bytes\": {}, \"start_ns\": {}, \"end_ns\": {}, \
         \"events\": {}",
        c.trace_id,
        escape_json(&c.method),
        escape_json(&c.path),
        escape_json(&c.route),
        escape_json(&c.design),
        c.status,
        c.latency_ns,
        c.queue_wait_ns,
        c.alloc_count,
        c.alloc_bytes,
        c.start_ns,
        c.end_ns,
        c.timeline.events.len()
    )
}

/// Renders one capsule as a self-contained JSON object, timeline events
/// included.
#[must_use]
pub fn render_capsule(c: &RequestCapsule) -> String {
    let events: Vec<String> = c
        .timeline
        .events
        .iter()
        .map(|e| {
            format!(
                "{{ \"ts_ns\": {}, \"name\": \"{}\", \"ph\": \"{}\" }}",
                e.ts_ns,
                escape_json(e.name),
                phase_str(e.phase)
            )
        })
        .collect();
    format!(
        "{{ {}, \"tid\": {}, \"timeline\": [{}] }}\n",
        capsule_fields(c),
        c.timeline.tid,
        events.join(", ")
    )
}

/// Renders the capsule index (summaries without per-event detail) served
/// at `GET /debug/requests`.
#[must_use]
pub fn render_index(caps: &[RequestCapsule]) -> String {
    let rows: Vec<String> = caps
        .iter()
        .map(|c| format!("{{ {} }}", capsule_fields(c)))
        .collect();
    format!(
        "{{ \"count\": {}, \"capacity\": {CAPSULE_CAPACITY}, \"capsules\": [{}] }}\n",
        caps.len(),
        rows.join(", ")
    )
}

/// Renders one capsule's timeline slice as a per-request Chrome trace;
/// every span event carries the capsule's trace id.
#[must_use]
pub fn chrome_trace(c: &RequestCapsule) -> String {
    crate::chrome::render_request_trace(&c.timeline, c.trace_id)
}

/// Configures where [`post_mortem`] writes its dump. `svtd` calls this
/// at startup; until it is called, dumps are disabled.
pub fn set_post_mortem_path(path: &str) {
    *lock_recovering(post_mortem_slot()) = Some(path.to_string());
}

/// The configured dump path, if any.
#[must_use]
pub fn post_mortem_path() -> Option<String> {
    lock_recovering(post_mortem_slot()).clone()
}

/// Dumps every retained capsule plus a full metrics snapshot to the
/// configured post-mortem path, recording `reason` (e.g.
/// `"watchdog_stall"`, `"handler_panic"`, `"drain"`) in the document.
/// Returns the path written, `None` when no path is configured or the
/// write fails (logged to stderr — a dying process must not die harder
/// because its black box is unwritable).
pub fn post_mortem(reason: &str) -> Option<String> {
    let path = post_mortem_path()?;
    let caps = capsules();
    let rows: Vec<String> = caps.iter().map(render_capsule).collect();
    let doc = format!(
        "{{ \"reason\": \"{}\", \"ts_ns\": {}, \"capsule_count\": {}, \"capsules\": [{}], \
         \"metrics\": {} }}\n",
        escape_json(reason),
        crate::timeline::now_ns(),
        caps.len(),
        rows.join(", "),
        crate::registry().snapshot().to_json()
    );
    match std::fs::write(&path, &doc) {
        Ok(()) => {
            crate::counter!("obs.recorder.postmortems").incr();
            Some(path)
        }
        Err(e) => {
            eprintln!("svt-obs: cannot write post-mortem to `{path}`: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Event;

    fn capsule(trace_id: u64) -> RequestCapsule {
        RequestCapsule {
            trace_id,
            method: "POST".into(),
            path: "/designs/builtin/eco".into(),
            route: "/designs/{name}/eco".into(),
            design: "builtin".into(),
            status: 200,
            latency_ns: 7_000_000,
            queue_wait_ns: 40_000,
            alloc_count: 12,
            alloc_bytes: 4096,
            start_ns: 1_000,
            end_ns: 7_001_000,
            timeline: ThreadTimeline {
                tid: 3,
                events: vec![
                    Event {
                        ts_ns: 1_000,
                        name: "serve.request",
                        phase: Phase::Begin,
                    },
                    Event {
                        ts_ns: 7_000_000,
                        name: "serve.request",
                        phase: Phase::End,
                    },
                ],
                dropped: 0,
            },
        }
    }

    // The ring is process-global; tests touching it serialize here.
    fn ring_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a > 0 && b > a);
    }

    #[test]
    fn ring_records_finds_and_evicts() {
        let _guard = ring_lock();
        clear();
        for id in 0..CAPSULE_CAPACITY as u64 + 5 {
            record(capsule(id + 1));
        }
        assert_eq!(len(), CAPSULE_CAPACITY, "ring is bounded");
        assert!(find(1).is_none(), "oldest capsules evicted");
        assert_eq!(
            find(CAPSULE_CAPACITY as u64 + 5).map(|c| c.status),
            Some(200)
        );
        let all = capsules();
        assert_eq!(all.first().map(|c| c.trace_id), Some(6), "oldest first");
        clear();
        assert!(is_empty());
    }

    #[test]
    fn slice_window_keeps_only_the_request_events() {
        let tl = ThreadTimeline {
            tid: 1,
            events: vec![
                Event {
                    ts_ns: 10,
                    name: "before",
                    phase: Phase::Instant,
                },
                Event {
                    ts_ns: 100,
                    name: "inside",
                    phase: Phase::Instant,
                },
                Event {
                    ts_ns: 200,
                    name: "after",
                    phase: Phase::Instant,
                },
            ],
            dropped: 9,
        };
        let slice = slice_window(&tl, 50, 150);
        assert_eq!(slice.tid, 1);
        assert_eq!(slice.dropped, 0);
        assert_eq!(slice.events.len(), 1);
        assert_eq!(slice.events[0].name, "inside");
    }

    #[test]
    fn capsule_renders_json_and_chrome_trace() {
        let c = capsule(42);
        let json = render_capsule(&c);
        let doc = crate::json::JsonValue::parse(&json).expect("capsule JSON parses");
        assert_eq!(doc.get("trace_id").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(
            doc.get("route").and_then(|v| v.as_str()),
            Some("/designs/{name}/eco")
        );
        let index = render_index(std::slice::from_ref(&c));
        let doc = crate::json::JsonValue::parse(&index).expect("index JSON parses");
        assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(1));
        let trace = chrome_trace(&c);
        let stats = crate::chrome::validate_chrome_trace(&trace).expect("trace validates");
        assert!(stats
            .events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "B" | "E" | "i"))
            .all(|e| e.trace_id == Some(42)));
    }

    #[test]
    fn post_mortem_requires_a_configured_path() {
        let _guard = ring_lock();
        // Path slot is process-global too; run both halves under the lock.
        *lock_recovering(post_mortem_slot()) = None;
        assert!(post_mortem("test").is_none(), "no path, no dump");
        let path =
            std::env::temp_dir().join(format!("svt_postmortem_test_{}.json", std::process::id()));
        let path_str = path.to_string_lossy().to_string();
        set_post_mortem_path(&path_str);
        clear();
        record(capsule(7));
        let written = post_mortem("unit_test").expect("dump written");
        assert_eq!(written, path_str);
        let body = std::fs::read_to_string(&path).expect("dump readable");
        let doc = crate::json::JsonValue::parse(&body).expect("dump parses");
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("unit_test")
        );
        assert_eq!(doc.get("capsule_count").and_then(|v| v.as_u64()), Some(1));
        assert!(doc.get("metrics").is_some(), "metrics snapshot embedded");
        let _ = std::fs::remove_file(&path);
        *lock_recovering(post_mortem_slot()) = None;
        clear();
    }
}
