//! Pipeline-wide observability for the `svt` workspace.
//!
//! Three layers, std-only:
//!
//! * [`metrics`] — lock-free primitives: [`Counter`], [`Gauge`],
//!   [`Histogram`] (log2 ns buckets), and [`SpanStat`] (count/total/min/max
//!   and allocated bytes per span path). All updates are relaxed atomics.
//! * [`mod@registry`] — a sharded global [`Registry`] (lock-striped like
//!   `svt-exec`'s memo cache) mapping names to leaked `&'static` handles,
//!   plus cache-telemetry probes registered by the caches themselves.
//!   Snapshots are name-sorted and render as a tree summary, JSON, a
//!   Prometheus-style exposition (`render`), or flame-graph views of the
//!   span aggregates ([`profile`]).
//! * spans — [`span`] returns an RAII guard timing a region with
//!   `std::time::Instant` (monotonic). Guards nest through a thread-local
//!   path stack, so `span("flow")` containing `span("corner")` aggregates
//!   under `"flow/corner"`. Worker threads start a fresh stack: a span
//!   recorded inside a `svt-exec` pool task roots at its own name.
//!
//! # Overhead contract
//!
//! Tracing is controlled by `SVT_TRACE` (`off` | `summary` |
//! `json[:path]` | `chrome[:path]` | `prom[:path]`), latched on first
//! probe. When off, every probe is one relaxed atomic load and a
//! predictable branch — the pipeline's timing results are bit-identical
//! with tracing on or off, and `tests/overhead.rs` bounds the off-mode
//! cost. Counter and histogram call sites cache their `&'static` handle
//! in a per-site `OnceLock` (see [`counter!`]), so enabled-mode updates
//! are lock-free too; only the *first* use of a name takes a shard lock.
//!
//! # Examples
//!
//! ```
//! svt_obs::set_mode(svt_obs::TraceMode::Summary);
//! {
//!     let _outer = svt_obs::span("demo.work");
//!     svt_obs::counter!("demo.items").add(3);
//! }
//! let snapshot = svt_obs::registry().snapshot();
//! assert!(snapshot.render_summary().contains("demo.work"));
//! svt_obs::set_mode(svt_obs::TraceMode::Off);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod audit;
pub mod chrome;
pub mod family;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod registry;
mod render;
pub mod rss;
pub mod timeline;
pub mod tsdb;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use family::{CounterFamily, HistogramFamily};
pub use metrics::{quantile_from_buckets, Counter, Gauge, Histogram, InflightGuard, SpanStat};
pub use recorder::RequestCapsule;
pub use registry::{
    registry, CacheCounters, CounterFamilyEntry, HistogramEntry, HistogramFamilyEntry, Registry,
    Snapshot, SpanEntry,
};
pub use render::{build_info_prometheus, parse_prometheus, PromSample};

/// Environment variable selecting the trace mode.
pub const TRACE_ENV: &str = "SVT_TRACE";

/// How the pipeline reports its telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No collection; every probe is a single relaxed load.
    Off,
    /// Collect, and [`emit_if_enabled`] prints the summary tree to stderr.
    Summary,
    /// Collect, and [`emit_if_enabled`] writes the JSON snapshot to the
    /// configured path (`SVT_TRACE=json:path`, default `svt_trace.json`).
    Json,
    /// Collect aggregates *and* per-thread event timelines, and
    /// [`emit_if_enabled`] writes a Chrome/Perfetto `trace_event` JSON
    /// document (`SVT_TRACE=chrome:path`, default `svt_trace_chrome.json`).
    Chrome,
    /// Collect, and [`emit_if_enabled`] writes the Prometheus text
    /// exposition (`SVT_TRACE=prom:path`, default `svt_metrics.prom`).
    Prom,
}

/// Mode state: 0 = unresolved (read `SVT_TRACE` on next probe).
const MODE_UNSET: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_SUMMARY: u8 = 2;
const MODE_JSON: u8 = 3;
const MODE_CHROME: u8 = 4;
const MODE_PROM: u8 = 5;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

fn json_path_slot() -> &'static Mutex<Option<String>> {
    static PATH: Mutex<Option<String>> = Mutex::new(None);
    &PATH
}

#[cold]
fn init_mode_from_env() -> u8 {
    let raw = std::env::var(TRACE_ENV).unwrap_or_default();
    let raw = raw.trim();
    let (code, path) = if raw.eq_ignore_ascii_case("summary") {
        (MODE_SUMMARY, None)
    } else if raw.eq_ignore_ascii_case("json") {
        (MODE_JSON, None)
    } else if let Some(p) = raw.strip_prefix("json:") {
        (MODE_JSON, Some(p.to_string()))
    } else if raw.eq_ignore_ascii_case("chrome") {
        (MODE_CHROME, None)
    } else if let Some(p) = raw.strip_prefix("chrome:") {
        (MODE_CHROME, Some(p.to_string()))
    } else if raw.eq_ignore_ascii_case("prom") {
        (MODE_PROM, None)
    } else if let Some(p) = raw.strip_prefix("prom:") {
        (MODE_PROM, Some(p.to_string()))
    } else {
        // `off`, empty, unset, and anything unrecognized all disable
        // tracing — observability must never make a pipeline run fail.
        (MODE_OFF, None)
    };
    *json_path_slot().lock().expect("trace path poisoned") = path;
    MODE.store(code, Ordering::Relaxed);
    code
}

fn mode_code() -> u8 {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNSET => init_mode_from_env(),
        code => code,
    }
}

/// Whether telemetry collection is active. This is the hot-path check:
/// one relaxed atomic load after the first call.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    mode_code() > MODE_OFF
}

/// The active trace mode.
#[must_use]
pub fn mode() -> TraceMode {
    match mode_code() {
        MODE_SUMMARY => TraceMode::Summary,
        MODE_JSON => TraceMode::Json,
        MODE_CHROME => TraceMode::Chrome,
        MODE_PROM => TraceMode::Prom,
        _ => TraceMode::Off,
    }
}

/// Whether per-thread event-timeline recording is active (Chrome mode
/// only). Like [`enabled`], one relaxed atomic load after the first call.
#[inline]
#[must_use]
pub fn timeline_enabled() -> bool {
    mode_code() == MODE_CHROME
}

/// Overrides the trace mode (benchmarks and tests; normal runs latch it
/// from `SVT_TRACE` on first probe).
pub fn set_mode(mode: TraceMode) {
    let code = match mode {
        TraceMode::Off => MODE_OFF,
        TraceMode::Summary => MODE_SUMMARY,
        TraceMode::Json => MODE_JSON,
        TraceMode::Chrome => MODE_CHROME,
        TraceMode::Prom => MODE_PROM,
    };
    MODE.store(code, Ordering::Relaxed);
}

/// Re-reads `SVT_TRACE`, discarding the latched mode. Tests that vary the
/// environment mid-process call this after `std::env::set_var`.
pub fn reinit_from_env() {
    init_mode_from_env();
}

/// Destination of the JSON snapshot when the mode is [`TraceMode::Json`].
#[must_use]
pub fn json_path() -> String {
    json_path_slot()
        .lock()
        .expect("trace path poisoned")
        .clone()
        .unwrap_or_else(|| "svt_trace.json".to_string())
}

/// Destination of the emitted artifact for the active file-writing mode
/// (`SVT_TRACE=<mode>:path`, with a per-mode default otherwise).
#[must_use]
pub fn trace_path() -> String {
    let configured = json_path_slot()
        .lock()
        .expect("trace path poisoned")
        .clone();
    configured.unwrap_or_else(|| {
        match mode() {
            TraceMode::Chrome => "svt_trace_chrome.json",
            TraceMode::Prom => "svt_metrics.prom",
            _ => "svt_trace.json",
        }
        .to_string()
    })
}

/// Registers a named cache-telemetry probe on the global registry.
/// Telemetry costs the cache nothing: the probe reads the cache's own live
/// counters only when a snapshot is taken.
pub fn register_cache<F>(name: &str, probe: F)
where
    F: Fn() -> CacheCounters + Send + Sync + 'static,
{
    registry().register_cache(name, probe);
}

thread_local! {
    /// The enclosing span names of the current thread, root first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An RAII guard timing a region; created by [`span`]. Dropping the guard
/// records the elapsed monotonic time, and the heap bytes this thread
/// allocated meanwhile, under the guard's `/`-joined path.
#[must_use = "a span guard measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    /// This thread's allocated-byte count when the span opened
    /// ([`alloc::thread_bytes`]); the drop records the difference, so a
    /// span's bytes include its children's.
    alloc_start: u64,
}

/// Opens a span named `name`, nested under any enclosing spans of this
/// thread. Inert (no clock read, no allocation) when tracing is off. In
/// Chrome mode the span additionally records begin/end timeline events.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            start: None,
            name,
            alloc_start: 0,
        };
    }
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
    if timeline_enabled() {
        timeline::record(timeline::Phase::Begin, name);
    }
    Span {
        start: Some(Instant::now()),
        name,
        alloc_start: alloc::thread_bytes(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let alloc_bytes = alloc::thread_bytes().wrapping_sub(self.alloc_start);
        if timeline_enabled() {
            timeline::record(timeline::Phase::End, self.name);
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        registry().span_stat(&path).record(ns, alloc_bytes);
    }
}

/// Records a zero-duration timeline marker (e.g. a cache miss) on the
/// current thread. Inert outside Chrome mode.
#[inline]
pub fn instant(name: &'static str) {
    if timeline_enabled() {
        timeline::record(timeline::Phase::Instant, name);
    }
}

/// The counter named by the literal, with the handle cached per call site
/// so repeated updates are a single atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// The gauge named by the literal, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// The histogram named by the literal, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// The labeled counter family named by the literal, with the family
/// handle cached per call site. `.with(&[...])` resolves one child;
/// see [`mod@family`] for the cardinality budget.
#[macro_export]
macro_rules! family_counter {
    ($name:expr, $keys:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::CounterFamily> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter_family($name, $keys))
    }};
}

/// The labeled histogram family named by the literal, with the family
/// handle cached per call site. `.with(&[...])` resolves one child;
/// see [`mod@family`] for the cardinality budget.
#[macro_export]
macro_rules! family_histogram {
    ($name:expr, $keys:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::HistogramFamily> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram_family($name, $keys))
    }};
}

/// Emits the collected telemetry according to the active mode: the summary
/// tree to stderr for [`TraceMode::Summary`], the JSON snapshot to
/// [`json_path`] for [`TraceMode::Json`], nothing when off. Binaries call
/// this once before exiting. Returns the rendered text, if any.
pub fn emit_if_enabled() -> Option<String> {
    match mode() {
        TraceMode::Off => None,
        TraceMode::Summary => {
            let text = registry().snapshot().render_summary();
            eprint!("{text}");
            Some(text)
        }
        TraceMode::Json => {
            let json = registry().snapshot().to_json();
            let path = trace_path();
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("svt-obs: cannot write trace JSON to `{path}`: {e}");
            }
            Some(json)
        }
        TraceMode::Chrome => {
            let timelines = timeline::snapshot_all();
            let json = chrome::render_chrome_trace(&timelines);
            let path = trace_path();
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("svt-obs: cannot write chrome trace to `{path}`: {e}");
            } else {
                eprintln!(
                    "svt-obs: wrote chrome trace ({} threads) to `{path}` — open in Perfetto",
                    timelines.len()
                );
            }
            Some(json)
        }
        TraceMode::Prom => {
            let text = registry().snapshot().to_prometheus();
            let path = trace_path();
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("svt-obs: cannot write prometheus exposition to `{path}`: {e}");
            }
            Some(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mode state is process-global and the harness runs tests on parallel
    // threads, so every test flipping it holds this lock and restores
    // `Off` before returning.
    pub(crate) fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn off_mode_records_nothing() {
        let _guard = mode_lock();
        set_mode(TraceMode::Off);
        assert!(!enabled());
        {
            let _s = span("test.off.span");
            let _ = counter!("test.off.guarded");
        }
        let snap = registry().snapshot();
        assert!(
            !snap.spans.iter().any(|s| s.path.contains("test.off.span")),
            "off-mode span must not be recorded"
        );
    }

    #[test]
    fn spans_nest_into_paths() {
        let _guard = mode_lock();
        set_mode(TraceMode::Summary);
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_mode(TraceMode::Off);
        let snap = registry().snapshot();
        let outer = snap.spans.iter().find(|s| s.path == "test.outer").unwrap();
        let inner = snap
            .spans
            .iter()
            .find(|s| s.path == "test.outer/test.inner")
            .unwrap();
        assert!(outer.count >= 1 && inner.count >= 1);
        assert!(
            outer.max_ns >= inner.min_ns,
            "outer spans contain inner spans"
        );
    }

    #[test]
    fn span_guard_survives_panic_unwinding() {
        let _guard = mode_lock();
        set_mode(TraceMode::Summary);
        let caught = std::panic::catch_unwind(|| {
            let _s = span("test.panic.span");
            panic!("boom");
        });
        assert!(caught.is_err());
        // The stack must be balanced: a fresh span roots at top level.
        {
            let _s = span("test.panic.after");
        }
        set_mode(TraceMode::Off);
        let snap = registry().snapshot();
        assert!(
            snap.spans.iter().any(|s| s.path == "test.panic.after"),
            "unwound span left the thread-local stack unbalanced"
        );
    }

    #[test]
    fn macros_cache_handles() {
        let _guard = mode_lock();
        set_mode(TraceMode::Summary);
        let a = counter!("test.macro.counter");
        let b = counter!("test.macro.counter");
        assert!(std::ptr::eq(a, b));
        a.incr();
        gauge!("test.macro.gauge").set(3);
        histogram!("test.macro.hist").record(7);
        set_mode(TraceMode::Off);
        let snap = registry().snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "test.macro.counter" && *v >= 1));
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "test.macro.gauge" && *v == 3));
        assert!(snap.histograms.iter().any(|h| h.name == "test.macro.hist"));
    }

    #[test]
    fn family_macros_cache_handles() {
        let _guard = mode_lock();
        set_mode(TraceMode::Summary);
        let a = family_counter!("test.macro.family", &["route", "status"]);
        let b = family_counter!("test.macro.family", &["route", "status"]);
        assert!(std::ptr::eq(a, b));
        a.with(&["/eco", "200"]).incr();
        family_histogram!("test.macro.hfamily", &["route"])
            .with(&["/eco"])
            .record(11);
        set_mode(TraceMode::Off);
        let snap = registry().snapshot();
        assert!(snap
            .counter_families
            .iter()
            .any(|f| f.name == "test.macro.family"
                && f.series
                    .iter()
                    .any(|(vs, n)| vs == &["/eco", "200"] && *n >= 1)));
        assert!(snap
            .histogram_families
            .iter()
            .any(|f| f.name == "test.macro.hfamily"));
    }

    #[test]
    fn env_parsing_covers_all_forms() {
        let _guard = mode_lock();
        for (raw, want_mode, want_path) in [
            ("off", TraceMode::Off, None),
            ("", TraceMode::Off, None),
            ("nonsense", TraceMode::Off, None),
            ("summary", TraceMode::Summary, None),
            ("SUMMARY", TraceMode::Summary, None),
            ("json", TraceMode::Json, None),
            ("json:/tmp/t.json", TraceMode::Json, Some("/tmp/t.json")),
            ("chrome", TraceMode::Chrome, None),
            (
                "chrome:/tmp/t_chrome.json",
                TraceMode::Chrome,
                Some("/tmp/t_chrome.json"),
            ),
            ("prom", TraceMode::Prom, None),
            ("prom:/tmp/t.prom", TraceMode::Prom, Some("/tmp/t.prom")),
        ] {
            std::env::set_var(TRACE_ENV, raw);
            reinit_from_env();
            assert_eq!(mode(), want_mode, "SVT_TRACE={raw}");
            if let Some(p) = want_path {
                assert_eq!(trace_path(), p, "SVT_TRACE={raw}");
            }
        }
        // Per-mode default paths when no `:path` suffix is given.
        for (raw, want_default) in [
            ("json", "svt_trace.json"),
            ("chrome", "svt_trace_chrome.json"),
            ("prom", "svt_metrics.prom"),
        ] {
            std::env::set_var(TRACE_ENV, raw);
            reinit_from_env();
            assert_eq!(trace_path(), want_default, "SVT_TRACE={raw}");
        }
        std::env::remove_var(TRACE_ENV);
        set_mode(TraceMode::Off);
    }

    #[test]
    fn emit_returns_summary_text() {
        let _guard = mode_lock();
        set_mode(TraceMode::Summary);
        counter!("test.emit.counter").incr();
        let text = emit_if_enabled().expect("summary mode emits");
        assert!(text.contains("svt trace summary"));
        set_mode(TraceMode::Off);
        assert!(emit_if_enabled().is_none());
    }
}
