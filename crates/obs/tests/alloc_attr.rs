//! End-to-end test of per-span allocation attribution with the counting
//! allocator actually installed as the process `#[global_allocator]` —
//! exactly how `svtd` runs it.
//!
//! One `#[test]` only: the hook's totals and activity switch are
//! process-global, and a sibling test allocating concurrently would make
//! exact passthrough assertions racy.

use svt_obs::alloc::{self, CountingAlloc};
use svt_obs::TraceMode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

#[test]
fn spans_record_the_bytes_their_thread_allocates_and_nothing_when_inactive() {
    // Inactive (the default): the wrapper is a pure passthrough and
    // records nothing, whatever the trace mode says.
    svt_obs::set_mode(TraceMode::Summary);
    let before = alloc::totals();
    {
        let _s = svt_obs::span("t.alloc.cold");
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        std::hint::black_box(&v);
    }
    assert_eq!(alloc::totals(), before, "inactive hook must record nothing");
    assert!(!alloc::active());

    // Active: totals move and every open span on this thread counts the
    // bytes, so the outer span includes its child's.
    alloc::set_active(true);
    {
        let _outer = svt_obs::span("t.alloc.outer");
        let big: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&big);
        {
            let _inner = svt_obs::span("t.alloc.inner");
            let nested: Vec<u8> = Vec::with_capacity(1 << 18);
            std::hint::black_box(&nested);
        }
        // Growth through realloc counts the grown bytes.
        let mut grow: Vec<u8> = Vec::with_capacity(16);
        grow.resize(1 << 12, 0);
        std::hint::black_box(&grow);
    }
    alloc::set_active(false);

    let (count, bytes) = alloc::totals();
    assert!(count > before.0, "active hook counts allocations");
    assert!(
        bytes - before.1 >= MIB + 256 * KIB,
        "active hook counts bytes (saw {} new)",
        bytes - before.1
    );

    // Publish the process totals and RSS before reading the registry.
    alloc::publish_gauges();
    svt_obs::rss::publish_gauges();
    svt_obs::set_mode(TraceMode::Off);
    let snap = svt_obs::registry().snapshot();
    let span_bytes = |path: &str| {
        snap.spans
            .iter()
            .find(|s| s.path == path)
            .unwrap_or_else(|| panic!("no span `{path}` in {:?}", snap.spans))
            .alloc_bytes
    };
    let inner = span_bytes("t.alloc.outer/t.alloc.inner");
    assert!(
        (256 * KIB..MIB).contains(&inner),
        "the inner span holds its own 256 KiB and none of the outer MiB: {inner}"
    );
    let outer = span_bytes("t.alloc.outer");
    assert!(
        outer.saturating_sub(inner) >= MIB,
        "outer self bytes (outer {outer} − inner {inner}) hold its own MiB"
    );
    assert_eq!(
        span_bytes("t.alloc.cold"),
        0,
        "a span closed while the hook is inactive records no bytes"
    );

    let gauge = |name: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("gauge `{name}` missing"))
    };
    assert!(gauge("alloc.total.bytes") >= MIB as i64);
    // RSS gauges ride along on Linux; tolerate their absence elsewhere.
    if svt_obs::rss::sample().is_some() {
        assert!(gauge("proc.rss_kb") > 0);
        assert!(gauge("proc.rss_peak_kb") >= gauge("proc.rss_kb"));
    }
}
