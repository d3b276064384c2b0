//! End-to-end pipeline benchmark for the execution layer (thread pool +
//! memo caches): aerial imaging, library expansion, FEM build, full
//! signoff, and the observability layer's overhead, each timed at 1
//! worker against 8 workers and with cold against warm caches. Emits
//! `BENCH_pipeline.json` at the repo root, including a full `svt-obs`
//! snapshot of the traced sign-off run.
//!
//! Timing uses `std::time::Instant` only — no external bench harness —
//! so the binary runs in the offline build. Cache state is controlled
//! explicitly via `svt_litho::clear_litho_caches`, and every number is
//! labelled cold/warm so single-core hosts (where pure thread-level
//! speedup is impossible) still report honestly.

use std::fmt::Write as _;
use std::time::Instant;

use svt_core::{SignoffFlow, SignoffOptions};
use svt_litho::{clear_litho_caches, FocusExposureMatrix, MaskCutline, Process};
use svt_obs::alloc::{self, CountingAlloc};
use svt_obs::TraceMode;
use svt_stdcell::{clear_expand_caches, expand_library, ExpandOptions, Library};

// Route the benchmark's own heap traffic through the counting allocator
// so the memory section below can report what a sign-off run allocates;
// inert (one relaxed load per allocation) until `alloc::set_active`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

use svt_bench::repo_root;

fn clear_all_caches() {
    clear_litho_caches();
    clear_expand_caches();
}

fn main() {
    // Latch the user's SVT_TRACE choice now: the overhead section below
    // overrides the mode explicitly, so the env mode is restored before the
    // final emit (a `chrome:` run gets its Perfetto trace of the real
    // benchmark sections, not of the overhead loop).
    svt_obs::reinit_from_env();
    let env_mode = svt_obs::mode();
    let threads_available = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"threads_available\": {threads_available},");

    let process = Process::nm90();
    let sim = process.simulator();

    // ---- Aerial image: transfer-table + FFT-plan caches -----------------
    println!("[1/7] aerial image (cold vs warm transfer tables)...");
    clear_litho_caches();
    let lines: Vec<(f64, f64)> = (-6..=6)
        .map(|k| {
            let c = f64::from(k) * 250.0;
            (c - 45.0, c + 45.0)
        })
        .collect();
    let mask = MaskCutline::from_lines(-2048.0, 4096.0, 2.0, &lines).expect("valid mask");
    let start = Instant::now();
    let cold_img = sim.aerial_image(&mask, 120.0);
    let aerial_cold_ms = ms(start);
    let reps = 20;
    let start = Instant::now();
    for _ in 0..reps {
        let warm_img = sim.aerial_image(&mask, 120.0);
        assert_eq!(warm_img, cold_img, "warm aerial image must be identical");
    }
    let aerial_warm_ms = ms(start) / f64::from(reps);
    let _ = writeln!(
        json,
        "  \"aerial_image\": {{ \"cold_ms\": {aerial_cold_ms:.3}, \"warm_ms\": {aerial_warm_ms:.3}, \"speedup_warm_vs_cold\": {:.2} }},",
        aerial_cold_ms / aerial_warm_ms
    );

    // ---- Library expansion: pool + CD memo ------------------------------
    // Default ExpandOptions (7-spacing table), 4 cells.
    println!("[2/7] expand_library, 4 cells, default options...");
    let full = Library::svt90();
    let cells: Vec<_> = full
        .cells()
        .iter()
        .filter(|c| matches!(c.name(), "INVX1" | "INVX2" | "NAND2X1" | "NOR2X1"))
        .cloned()
        .collect();
    let lib4 = Library::from_cells("svt90_bench4", cells);
    let opts = |threads: Option<usize>| ExpandOptions {
        threads,
        ..ExpandOptions::default()
    };

    clear_all_caches();
    let start = Instant::now();
    let expanded_1t = expand_library(&lib4, &sim, &opts(Some(1))).expect("expansion succeeds");
    let expand_1t_cold_ms = ms(start);

    let start = Instant::now();
    let expanded_8t_warm = expand_library(&lib4, &sim, &opts(Some(8))).expect("expansion succeeds");
    let expand_8t_warm_ms = ms(start);

    clear_all_caches();
    let start = Instant::now();
    let expanded_8t_cold = expand_library(&lib4, &sim, &opts(Some(8))).expect("expansion succeeds");
    let expand_8t_cold_ms = ms(start);

    assert_eq!(
        expanded_1t, expanded_8t_warm,
        "thread count changed results"
    );
    assert_eq!(expanded_1t, expanded_8t_cold, "cache state changed results");
    let _ = writeln!(
        json,
        "  \"expand_library\": {{ \"cells\": 4, \"variants\": {}, \"threads_1_cold_ms\": {expand_1t_cold_ms:.3}, \"threads_8_cold_ms\": {expand_8t_cold_ms:.3}, \"threads_8_warm_ms\": {expand_8t_warm_ms:.3}, \"speedup_8t_warm_vs_1t_cold\": {:.2} }},",
        expanded_1t.len(),
        expand_1t_cold_ms / expand_8t_warm_ms
    );

    // ---- Focus-exposure matrix: CD memo ---------------------------------
    println!("[3/7] focus-exposure matrix (cold vs warm rebuild)...");
    let focus: Vec<f64> = (-4..=4).map(|i| f64::from(i) * 75.0).collect();
    let pitches = [240.0, 320.0, 480.0, f64::INFINITY];
    let doses = [0.95, 1.0, 1.05];
    clear_litho_caches();
    let start = Instant::now();
    let fem_cold = FocusExposureMatrix::build(&sim, 90.0, &pitches, &focus, &doses)
        .expect("FEM build succeeds");
    let fem_cold_ms = ms(start);
    let start = Instant::now();
    let fem_warm = FocusExposureMatrix::build(&sim, 90.0, &pitches, &focus, &doses)
        .expect("FEM rebuild succeeds");
    let fem_warm_ms = ms(start);
    assert_eq!(fem_cold, fem_warm, "warm FEM rebuild must be identical");
    let _ = writeln!(
        json,
        "  \"fem_build\": {{ \"pitches\": {}, \"cold_ms\": {fem_cold_ms:.3}, \"warm_ms\": {fem_warm_ms:.3}, \"speedup_warm_vs_cold\": {:.2} }},",
        pitches.len(),
        fem_cold_ms / fem_warm_ms
    );

    // ---- Full signoff ----------------------------------------------------
    println!("[4/7] full signoff flow on c432...");
    let expanded = expand_library(&full, &sim, &ExpandOptions::fast()).expect("expansion succeeds");
    let design = svt_bench::build_design(&full, "c432");
    let run_with = |threads: usize| {
        std::env::set_var("SVT_THREADS", threads.to_string());
        let flow = SignoffFlow::new(&full, &expanded, SignoffOptions::default());
        let start = Instant::now();
        let cmp = flow
            .run(&design.mapped, &design.placement)
            .expect("signoff succeeds");
        (ms(start), cmp)
    };
    let (signoff_1t_ms, cmp_1t) = run_with(1);
    let (signoff_8t_ms, cmp_8t) = run_with(8);
    std::env::remove_var("SVT_THREADS");
    assert_eq!(cmp_1t, cmp_8t, "thread count changed signoff results");
    let _ = writeln!(
        json,
        "  \"signoff_c432\": {{ \"gates\": {}, \"threads_1_ms\": {signoff_1t_ms:.3}, \"threads_8_ms\": {signoff_8t_ms:.3}, \"uncertainty_reduction_pct\": {:.2} }},",
        cmp_1t.gates,
        cmp_1t.uncertainty_reduction_pct()
    );

    // ---- Memory: allocation volume + peak RSS ---------------------------
    // One *warm* sign-off with the allocation hook live: a warm-up run
    // fills the flow's memoized state (characterizations, interned
    // topology, scratch arenas), then the counters are reset so this
    // section reports the steady-state hot path in isolation — not
    // residue from earlier sections or the cache-filling cold run. The
    // warm allocation count is near-deterministic, so it is gated in
    // scripts/bench_compare.sh; RSS stays informational.
    println!("[5/7] memory (alloc totals + peak RSS during warm signoff)...");
    let flow = SignoffFlow::new(&full, &expanded, SignoffOptions::default());
    let cmp_warmup = flow
        .run(&design.mapped, &design.placement)
        .expect("signoff succeeds");
    assert_eq!(cmp_1t, cmp_warmup, "warm-up changed signoff results");
    alloc::reset();
    alloc::set_active(true);
    let cmp_mem = flow
        .run(&design.mapped, &design.placement)
        .expect("signoff succeeds");
    alloc::set_active(false);
    let (signoff_allocs, signoff_bytes) = alloc::totals();
    assert_eq!(cmp_1t, cmp_mem, "alloc accounting changed signoff results");
    #[allow(clippy::cast_precision_loss)]
    let signoff_alloc_mb = signoff_bytes as f64 / (1024.0 * 1024.0);
    #[allow(clippy::cast_precision_loss)]
    let (rss_mb, peak_rss_mb) = svt_obs::rss::sample().map_or((0.0, 0.0), |r| {
        (r.current_kb as f64 / 1024.0, r.peak_kb as f64 / 1024.0)
    });
    let _ = writeln!(
        json,
        "  \"memory\": {{ \"signoff_allocs\": {signoff_allocs}, \"signoff_alloc_mb\": {signoff_alloc_mb:.1}, \"rss_mb\": {rss_mb:.1}, \"peak_rss_mb\": {peak_rss_mb:.1} }},"
    );

    // ---- Observability overhead -----------------------------------------
    // The full sign-off flow, traced and untraced: it crosses thousands of
    // span sites per run (per-corner, per-instance) plus the pool counters
    // and memo probes, so the delta bounds what tracing costs a real run.
    // The off path must stay within noise of free (a single relaxed atomic
    // load per call site); the measured percentage is recorded so
    // regressions show up in the committed JSON.
    println!("[6/7] observability overhead (SVT_TRACE=off vs summary)...");
    let overhead_reps = 10;
    let time_trace = |mode: TraceMode| {
        svt_obs::set_mode(mode);
        let start = Instant::now();
        for _ in 0..overhead_reps {
            let cmp = flow
                .run(&design.mapped, &design.placement)
                .expect("signoff succeeds");
            assert_eq!(cmp, cmp_1t, "trace mode changed signoff results");
        }
        ms(start) / f64::from(overhead_reps)
    };
    let obs_off_ms = time_trace(TraceMode::Off);
    let obs_summary_ms = time_trace(TraceMode::Summary);
    let obs_overhead_pct = 100.0 * (obs_summary_ms - obs_off_ms) / obs_off_ms;
    let _ = writeln!(
        json,
        "  \"obs_overhead\": {{ \"workload\": \"signoff_c432\", \"trace_off_ms\": {obs_off_ms:.3}, \"trace_summary_ms\": {obs_summary_ms:.3}, \"summary_overhead_pct\": {obs_overhead_pct:.2} }},"
    );

    // ---- svtd's always-on layer: sampler + allocation attribution -------
    // What `svtd` turns on by default on top of summary tracing: a live
    // sampler scraping the registry into the tiered rings every 100 ms,
    // and the counting allocator's per-thread byte count that every span
    // drop records as its allocated bytes. Measured against the
    // summary-only time above so the percentage isolates what those two
    // add on top of span collection. Gated by an absolute threshold in
    // scripts/bench_compare.sh (a relative gate on a near-zero baseline
    // would trip on timer noise).
    println!("[7/7] sampler + allocation attribution overhead (vs summary tracing)...");
    svt_obs::set_mode(TraceMode::Summary);
    alloc::set_active(true);
    let sampler = svt_obs::tsdb::Sampler::spawn(
        svt_obs::tsdb::global(),
        std::time::Duration::from_millis(100),
        vec![],
    );
    let start = Instant::now();
    for _ in 0..overhead_reps {
        let cmp = flow
            .run(&design.mapped, &design.placement)
            .expect("signoff succeeds");
        assert_eq!(
            cmp, cmp_1t,
            "sampler or alloc attribution changed signoff results"
        );
    }
    let attributed_ms = ms(start) / f64::from(overhead_reps);
    sampler.stop();
    alloc::set_active(false);
    svt_obs::set_mode(TraceMode::Off);
    let spans = svt_obs::registry().snapshot().spans;
    let span_paths = spans.len();
    assert!(
        spans.iter().any(|s| s.alloc_bytes > 0),
        "no span recorded allocated bytes during the attributed runs"
    );
    let profile_overhead_pct = 100.0 * (attributed_ms - obs_summary_ms) / obs_summary_ms;
    let _ = writeln!(
        json,
        "  \"profile_overhead\": {{ \"workload\": \"signoff_c432\", \"summary_ms\": {obs_summary_ms:.3}, \"attributed_ms\": {attributed_ms:.3}, \"span_paths\": {span_paths}, \"profile_overhead_pct\": {profile_overhead_pct:.2} }},"
    );

    // One traced sign-off run, snapshotted into the report so the committed
    // JSON shows the span tree and cache hit rates of the real pipeline.
    svt_obs::registry().reset_metrics();
    svt_obs::set_mode(TraceMode::Summary);
    let cmp_traced = flow
        .run(&design.mapped, &design.placement)
        .expect("traced signoff succeeds");
    assert_eq!(cmp_1t, cmp_traced, "trace mode changed signoff results");
    svt_obs::set_mode(TraceMode::Off);
    let snapshot = svt_obs::registry().snapshot().to_json();
    let _ = writeln!(json, "  \"observability\": {}", snapshot.trim_end());

    json.push_str("}\n");
    let out = repo_root().join("BENCH_pipeline.json");
    std::fs::write(out, &json).expect("write BENCH_pipeline.json");
    println!("--- BENCH_pipeline.json ---\n{json}");

    // Perf trajectory: append the warm-path numbers of this run to the
    // history log. `scripts/bench_compare.sh` diffs the two newest lines
    // and fails `scripts/check.sh` on a >20 % warm-path regression.
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let history_line = format!(
        "{{\"unix_ts\": {unix_ts}, \"threads_available\": {threads_available}, \
         \"aerial_warm_ms\": {aerial_warm_ms:.3}, \"expand_8t_warm_ms\": {expand_8t_warm_ms:.3}, \
         \"fem_warm_ms\": {fem_warm_ms:.3}, \"signoff_8t_ms\": {signoff_8t_ms:.3}, \
         \"obs_off_ms\": {obs_off_ms:.3}, \"obs_overhead_pct\": {obs_overhead_pct:.2}, \
         \"profile_overhead_pct\": {profile_overhead_pct:.2}, \
         \"signoff_alloc_mb\": {signoff_alloc_mb:.1}, \"peak_rss_mb\": {peak_rss_mb:.1}}}\n"
    );
    let history = repo_root().join("BENCH_history.jsonl");
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .expect("open BENCH_history.jsonl");
    std::io::Write::write_all(&mut log, history_line.as_bytes())
        .expect("append BENCH_history.jsonl");
    println!("appended warm-path numbers to BENCH_history.jsonl");

    // Restore the env-selected mode and emit its artifact (chrome trace,
    // prometheus exposition, JSON snapshot, or summary tree).
    svt_obs::set_mode(env_mode);
    svt_obs::emit_if_enabled();
}
