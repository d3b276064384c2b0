//! Differential test of the full Table-2 flow across execution
//! configurations.
//!
//! The pipeline's core contract: worker-thread count and trace mode are
//! *observability/performance* knobs, never *result* knobs. This test runs
//! the complete expand → map → place → sign-off flow under every
//! `SVT_THREADS` ∈ {1, 2, 8} × `SVT_TRACE` ∈ {off, summary, chrome}
//! combination, from a cold cache each time, and asserts that
//!
//! * every corner delay is bit-identical (`f64::to_bits`),
//! * every memo cache ends with the identical entry count,
//! * the sign-off audit trail renders to *byte-identical* text and JSON
//!   reports under every configuration, and
//! * the audit reconciles bit-for-bit with the sign-off comparison: the
//!   per-path corner arrivals max-reduce to exactly the circuit corner
//!   delays, and the audit's spread-reduction percentage equals the
//!   comparison's uncertainty reduction.
//!
//! The final (chrome-mode) iteration additionally emits the Chrome trace
//! and the audit reports to `target/artifacts/` so CI can upload them, and
//! schema-validates the trace (balanced begin/end per tid, monotonic
//! timestamps, one tid per pool worker).
//!
//! All environment mutation lives in this single `#[test]` because sibling
//! tests in one binary share the process environment.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use svt_core::{SignoffComparison, SignoffFlow, SignoffOptions};
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
use svt_obs::audit::AuditTrail;
use svt_obs::chrome::{validate_chrome_trace, ChromeTraceStats};
use svt_place::{place, PlacementOptions};
use svt_stdcell::{
    clear_expand_caches, expand_cache_stats, expand_library, ExpandOptions, Library,
};

/// Directory the chrome trace and audit reports land in for CI upload.
const ARTIFACT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/artifacts");

/// The result fingerprint of one configuration: corner-delay bit patterns,
/// final memo-cache entry counts, and the rendered audit reports (byte
/// equality — the audit must not depend on scheduling).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    corner_bits: [u64; 6],
    cd_entries: usize,
    transfer_entries: usize,
    pair_entries: usize,
    row_entries: usize,
    audit_text: String,
    audit_json: String,
}

/// Writes the chrome trace recorded so far and schema-validates it.
fn emit_and_validate(trace_path: &str) -> ChromeTraceStats {
    svt_obs::emit_if_enabled().expect("chrome emission");
    let trace = std::fs::read_to_string(trace_path).expect("trace artifact");
    validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("differential trace failed validation: {e}"))
}

/// The tids carrying at least one event named `name` at or after trace
/// time `since_us`.
fn tids_with(stats: &ChromeTraceStats, name: &str, since_us: f64) -> BTreeSet<u64> {
    stats
        .events
        .iter()
        .filter(|e| e.name == name && e.ph != "M" && e.ts_us.is_some_and(|t| t >= since_us))
        .map(|e| e.tid)
        .collect()
}

fn run_flow_cold() -> (Fingerprint, SignoffComparison, AuditTrail) {
    // Cold start: every memo cache is emptied so each configuration does
    // the same work and must converge to the same final cache shape.
    svt_litho::clear_litho_caches();
    clear_expand_caches();

    let lib = Library::svt90();
    let sim = svt_litho::Process::nm90().simulator();
    let expanded = expand_library(&lib, &sim, &ExpandOptions::fast()).expect("expansion");
    let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").expect("profile"));
    let mapped = technology_map(&netlist, &lib).expect("techmap");
    let placement = place(&mapped, &lib, &PlacementOptions::default()).expect("place");
    let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
    let (cmp, trail) = flow.run_audited(&mapped, &placement).expect("signoff");

    let rendered = svt_obs::audit::render_audit(&trail);
    let (pairs, rows) = expand_cache_stats();
    let fp = Fingerprint {
        corner_bits: [
            cmp.traditional.bc_ns.to_bits(),
            cmp.traditional.nom_ns.to_bits(),
            cmp.traditional.wc_ns.to_bits(),
            cmp.aware.bc_ns.to_bits(),
            cmp.aware.nom_ns.to_bits(),
            cmp.aware.wc_ns.to_bits(),
        ],
        cd_entries: svt_litho::cd_cache_stats().entries,
        transfer_entries: svt_litho::transfer_cache_stats().entries,
        pair_entries: pairs.entries,
        row_entries: rows.entries,
        audit_text: rendered.text,
        audit_json: rendered.json,
    };
    (fp, cmp, trail)
}

/// Max-reduction of one per-path corner column, replicating the circuit
/// delay fold (`fold(0.0, f64::max)` over arrival times).
fn path_max(trail: &AuditTrail, pick: impl Fn(&svt_obs::audit::PathAudit) -> f64) -> f64 {
    trail.paths.iter().map(pick).fold(0.0, f64::max)
}

/// The audit trail must explain the comparison *exactly*: same corner
/// delays bit-for-bit, per-path arrivals that max-reduce to them, and the
/// identical headline reduction percentage.
fn assert_audit_reconciles(cmp: &SignoffComparison, trail: &AuditTrail, label: &str) {
    let pairs = [
        ("traditional-bc", cmp.traditional.bc_ns),
        ("traditional-nom", cmp.traditional.nom_ns),
        ("traditional-wc", cmp.traditional.wc_ns),
        ("aware-bc", cmp.aware.bc_ns),
        ("aware-nom", cmp.aware.nom_ns),
        ("aware-wc", cmp.aware.wc_ns),
    ];
    for (corner, expected) in pairs {
        assert_eq!(
            trail.corner_delay(corner).to_bits(),
            expected.to_bits(),
            "{label}: audit corner `{corner}` must copy the sign-off value"
        );
    }

    assert!(!trail.paths.is_empty(), "{label}: audit lists timing paths");
    // Per-path derating commutes with the max-reduction (positive scale
    // factors preserve the argmax), so the path columns must reproduce the
    // circuit corner delays bit-for-bit — not approximately.
    type Pick = fn(&svt_obs::audit::PathAudit) -> f64;
    let columns: [(&str, f64, Pick); 4] = [
        ("traditional-bc", cmp.traditional.bc_ns, |p| p.trad_bc_ns),
        ("traditional-wc", cmp.traditional.wc_ns, |p| p.trad_wc_ns),
        ("aware-bc", cmp.aware.bc_ns, |p| p.aware_bc_ns),
        ("aware-wc", cmp.aware.wc_ns, |p| p.aware_wc_ns),
    ];
    for (corner, expected, pick) in columns {
        assert_eq!(
            path_max(trail, pick).to_bits(),
            expected.to_bits(),
            "{label}: per-path arrivals must max-reduce to the `{corner}` circuit delay"
        );
    }
    assert_eq!(
        trail.spread_reduction_pct().to_bits(),
        cmp.uncertainty_reduction_pct().to_bits(),
        "{label}: audit reduction % must equal the Table-2 headline number"
    );
    assert!(
        trail.circuit_spread_after_ns() < trail.circuit_spread_before_ns(),
        "{label}: variation-aware sign-off must shrink the corner spread"
    );

    assert!(
        !trail.instances.is_empty(),
        "{label}: audit explains per-instance trim decisions"
    );
    for inst in &trail.instances {
        assert!(
            ["smile", "frown", "self-compensated"].contains(&trail_label(inst)),
            "{label}: unknown arc label `{}` on {}",
            inst.trim.arc_label,
            inst.instance
        );
        assert!(
            inst.trim.bc_before_nm.is_finite() && inst.trim.wc_after_nm.is_finite(),
            "{label}: trim record of {} must be numeric",
            inst.instance
        );
    }
}

fn trail_label(inst: &svt_obs::audit::InstanceAudit) -> &str {
    inst.trim.arc_label.as_str()
}

#[test]
fn thread_count_and_trace_mode_never_change_results() {
    let restore_threads = std::env::var("SVT_THREADS").ok();
    let restore_trace = std::env::var("SVT_TRACE").ok();
    std::fs::create_dir_all(ARTIFACT_DIR).expect("artifact dir");
    let trace_path = format!("{ARTIFACT_DIR}/differential_trace.json");
    let chrome = format!("chrome:{trace_path}");

    let mut baseline: Option<(String, Fingerprint)> = None;
    let mut last: Option<(SignoffComparison, AuditTrail)> = None;
    // Trace time (µs) at which the latest configuration started: the trace
    // keeps the earlier chrome iterations' events too.
    let mut last_start_us = 0.0;
    for threads in ["1", "2", "8"] {
        for trace in ["off", "summary", chrome.as_str()] {
            std::env::set_var("SVT_THREADS", threads);
            std::env::set_var("SVT_TRACE", trace);
            svt_obs::reinit_from_env();
            last_start_us = svt_obs::timeline::now_ns() as f64 / 1e3;

            let label = format!("SVT_THREADS={threads} SVT_TRACE={trace}");
            let (fp, cmp, trail) = run_flow_cold();
            // The sign-off flow exercises the pitch-pair, OPC-row, and
            // transfer-table caches (the CD memo serves only the
            // line-array/isolated paths, which this flow does not hit —
            // its count still participates in the equality check below).
            assert!(
                fp.pair_entries > 0 && fp.row_entries > 0 && fp.transfer_entries > 0,
                "{label}: the flow must have exercised the memo caches ({fp:?})"
            );
            assert_audit_reconciles(&cmp, &trail, &label);
            match &baseline {
                None => baseline = Some((label, fp)),
                Some((base_label, base)) => {
                    assert_eq!(
                        base, &fp,
                        "{label} diverged from baseline {base_label}: \
                         corner bits, cache entry counts, and audit report \
                         bytes must be invariant"
                    );
                }
            }
            last = Some((cmp, trail));
        }
    }

    // With tracing active the whole run was recorded: the summary must
    // show the sign-off spans and the pipeline caches.
    let summary = svt_obs::registry().snapshot().render_summary();
    for needle in [
        "core.signoff",
        "core.signoff.audit",
        "stdcell.expand",
        "litho.cd",
        "stdcell.pitch_pairs",
    ] {
        assert!(
            summary.contains(needle),
            "summary missing `{needle}`:\n{summary}"
        );
    }

    // The final iteration ran in chrome mode with 8 workers: emit the
    // flow's trace, schema-validate it, and check that this iteration's own
    // pool batches ran on more than one worker thread (the caller's tid,
    // which carries the sign-off span, runs single-item batches inline).
    assert_eq!(svt_obs::mode(), svt_obs::TraceMode::Chrome);
    let flow = emit_and_validate(&trace_path);
    let caller = tids_with(&flow, "core.signoff", last_start_us);
    assert!(!caller.is_empty(), "sign-off span missing from the trace");
    let flow_workers: Vec<u64> = tids_with(&flow, "exec.pool.task", last_start_us)
        .difference(&caller)
        .copied()
        .collect();
    assert!(
        flow_workers.len() >= 2,
        "expected the 8-worker flow's pool tasks on ≥2 worker tids, got \
         {flow_workers:?} (all tids {:?})",
        flow.tids
    );

    // How many of a batch's eight workers claim a task depends on
    // scheduling: a short batch can drain before its last workers start.
    // One batch sized by SVT_THREADS, like the flow's, whose eight tasks
    // wait for each other puts every worker into the trace (a 30 s
    // deadline keeps a pool that runs fewer workers from hanging the test).
    let arrived = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    svt_exec::par_map(&[(); 8], |()| {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < 8 && Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    let stats = emit_and_validate(&trace_path);
    assert!(
        stats.tids_with_event("exec.pool.task") >= 8,
        "expected ≥8 worker tids with pool task events, got {:?}",
        stats.tids
    );

    // Publish the audit reports next to the trace for CI artifact upload.
    let (_, trail) = last.expect("at least one configuration ran");
    let rendered = svt_obs::audit::render_audit(&trail);
    std::fs::write(format!("{ARTIFACT_DIR}/audit_c432.txt"), &rendered.text)
        .expect("audit text artifact");
    std::fs::write(format!("{ARTIFACT_DIR}/audit_c432.json"), &rendered.json)
        .expect("audit json artifact");

    match restore_threads {
        Some(v) => std::env::set_var("SVT_THREADS", v),
        None => std::env::remove_var("SVT_THREADS"),
    }
    match restore_trace {
        Some(v) => std::env::set_var("SVT_TRACE", v),
        None => std::env::remove_var("SVT_TRACE"),
    }
    svt_obs::reinit_from_env();
}
