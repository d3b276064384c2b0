//! The end-to-end smoke sequence used by CI and `svtd --smoke`.
//!
//! A pure-Rust client (no `curl`) walks every endpoint of a freshly
//! started daemon and validates each response with the workspace's own
//! parsers: the Prometheus exposition must survive
//! [`svt_obs::parse_prometheus`], the snapshot and ECO responses the
//! shared [`svt_obs::json`] parser, and the timeline
//! [`svt_obs::chrome::validate_chrome_trace`]. The ECO checks are
//! *differential*: the client rebuilds the daemon's design locally,
//! applies the identical edits through [`EcoSession::apply`] directly,
//! and requires the served bodies — single edit *and* atomic batch — to
//! match bit-for-bit.
//!
//! [`run_smoke_full`] layers the multi-tenant and fault checks on top:
//! second-design warm-up and isolation, rejected-input status codes,
//! the flight-recorder walk (`/debug/requests` index → capsule →
//! Chrome-trace export with every span tagged by the request's trace
//! id; the daemon must run with `--slow-ms 0` so every smoke request
//! leaves a capsule), slow-loris saturation answered with `429` +
//! `Retry-After` (the daemon must run with `--workers 1
//! --queue-depth 1` for that check to be deterministic), and the
//! graceful drain on `POST /shutdown`.
//!
//! [`EcoSession::apply`]: svt_eco::EcoSession::apply

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use svt_eco::{EcoEdit, EcoSession};
use svt_netlist::MappedNetlist;
use svt_obs::json::JsonValue;

use crate::http::{http_request, HttpClient};
use crate::server::{render_batch_report, render_delta_report, warm_session, DesignSpec};

/// The deterministic edit the smoke check posts: resize the first
/// `INVX1` instance (netlist order) to `INVX2`. Both the client and any
/// observer can reproduce it from the design alone.
///
/// # Errors
///
/// Returns a message when the design has no `INVX1` instance.
pub fn pick_smoke_edit(netlist: &MappedNetlist) -> Result<EcoEdit, String> {
    let instance = netlist
        .instances()
        .iter()
        .find(|i| i.cell == "INVX1")
        .map(|i| i.name.clone())
        .ok_or("design has no INVX1 instance to resize")?;
    Ok(EcoEdit::ResizeCell {
        instance,
        new_cell: "INVX2".into(),
    })
}

/// What [`run_smoke_full`] exercises beyond the core sequence.
pub struct SmokeOptions {
    /// Every design the daemon was booted with, default first. The core
    /// differential runs on the first; the rest get warm-up and
    /// isolation checks.
    pub designs: Vec<DesignSpec>,
    /// Exercise the bounded-queue `429` path with slow-loris
    /// connections. Only deterministic against a daemon running
    /// `--workers 1 --queue-depth 1`.
    pub backpressure: bool,
    /// Finish with `POST /shutdown` and verify the drain. The daemon
    /// exits afterwards, so this must be the last check.
    pub shutdown: bool,
    /// Walk the flight-recorder surface: `/debug/requests` must retain
    /// capsules whose per-request Chrome traces validate and carry the
    /// capsule's trace id on every span event. Requires a daemon booted
    /// with `--slow-ms 0` so every smoke request is captured.
    pub recorder: bool,
    /// Walk the long-horizon observability surface: `/dashboard`,
    /// `/debug/profile` in all three formats (the `serve.request` stack
    /// must carry allocated bytes), and `/query` answering with points
    /// in at least two downsample tiers plus the derived
    /// `serve.requests.rate` series. Requires a daemon with a running
    /// sampler, span recording on, and allocation attribution active
    /// (`svtd` does all three by default).
    pub observability: bool,
}

fn get(addr: &str, path: &str) -> Result<String, String> {
    let (status, body) = http_request(addr, "GET", path, "")?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}, body: {body}"));
    }
    Ok(body)
}

fn expect_status(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Result<(), String> {
    let (status, response) = http_request(addr, method, path, body)?;
    if status != want {
        return Err(format!(
            "{method} {path}: status {status}, want {want}; body: {response}"
        ));
    }
    Ok(())
}

fn render_edit(edit: &EcoEdit) -> String {
    match edit {
        EcoEdit::ResizeCell { instance, new_cell } => format!(
            "{{\"type\":\"resize_cell\",\"instance\":\"{instance}\",\"new_cell\":\"{new_cell}\"}}"
        ),
        EcoEdit::SwapCell { instance, new_cell } => format!(
            "{{\"type\":\"swap_cell\",\"instance\":\"{instance}\",\"new_cell\":\"{new_cell}\"}}"
        ),
        EcoEdit::AdjustSpacing { instance, dx_nm } => format!(
            "{{\"type\":\"adjust_spacing\",\"instance\":\"{instance}\",\"dx_nm\":{dx_nm:?}}}"
        ),
        EcoEdit::MoveInstance {
            instance,
            row,
            x_nm,
        } => format!(
            "{{\"type\":\"move_instance\",\"instance\":\"{instance}\",\"row\":{row},\"x_nm\":{x_nm:?}}}"
        ),
    }
}

/// Runs the full smoke sequence against `addr` (`host:port`).
///
/// Assumes the daemon was started fresh on `spec` with no edits applied
/// — the differential mirror replays from the initial sign-off. Returns
/// a human-readable pass summary.
///
/// # Errors
///
/// Returns the first failed check with enough context to debug it.
pub fn run_smoke(addr: &str, spec: &DesignSpec) -> Result<String, String> {
    run_smoke_core(addr, spec).map(|(summary, _mirror)| summary)
}

fn run_smoke_core(addr: &str, spec: &DesignSpec) -> Result<(String, EcoSession<'static>), String> {
    let mut summary = String::new();

    // 1. Readiness, design identity, and the watchdog verdict.
    let health = get(addr, "/healthz")?;
    let health = JsonValue::parse(&health).map_err(|e| format!("/healthz not JSON: {e}"))?;
    let status = health.get("status").and_then(JsonValue::as_str);
    if status != Some("ok") {
        return Err(format!("/healthz status is {status:?}, want ok"));
    }
    let design = health.get("design").and_then(JsonValue::as_str);
    if design != Some(spec.name()) {
        return Err(format!(
            "/healthz design is {design:?}, want {:?} — is the daemon running a different design?",
            spec.name()
        ));
    }
    if health
        .get("watchdog")
        .and_then(|w| w.get("healthy"))
        .and_then(JsonValue::as_bool)
        != Some(true)
    {
        return Err("watchdog reports unhealthy on a fresh daemon".to_string());
    }
    summary.push_str("healthz: ok\n");

    // 2. Scrape: must parse with the workspace's own parser and carry
    // the service-plane counters.
    let scrape = get(addr, "/metrics")?;
    let samples = svt_obs::parse_prometheus(&scrape).map_err(|e| format!("/metrics: {e}"))?;
    if samples.is_empty() {
        return Err("/metrics exposition is empty".to_string());
    }
    if !samples.iter().any(|s| s.name == "svt_serve_requests_total") {
        return Err("svt_serve_requests_total missing from /metrics".to_string());
    }
    summary.push_str(&format!("metrics: {} samples\n", samples.len()));

    // 3. Aggregate snapshot parses as JSON.
    let snapshot = get(addr, "/snapshot.json")?;
    JsonValue::parse(&snapshot).map_err(|e| format!("/snapshot.json not JSON: {e}"))?;
    summary.push_str("snapshot.json: ok\n");

    // 4. Live timeline is a well-formed Chrome trace.
    let trace = get(addr, "/timeline.json")?;
    let stats = svt_obs::chrome::validate_chrome_trace(&trace)
        .map_err(|e| format!("/timeline.json: {e}"))?;
    summary.push_str(&format!(
        "timeline.json: {} events on {} threads\n",
        stats.events.len(),
        stats.tids.len()
    ));

    // 5. Differential ECO: served deltas must equal a direct
    // EcoSession::apply on an identically constructed session, bit for
    // bit.
    let mut mirror = warm_session(spec)?;
    let edit = pick_smoke_edit(mirror.netlist())?;
    let body = render_edit(&edit);
    let (status, served) = http_request(addr, "POST", "/eco", &body)?;
    if status != 200 {
        return Err(format!("POST /eco: status {status}, body: {served}"));
    }
    let expected_report = mirror
        .apply(&edit)
        .map_err(|e| format!("mirror apply: {e}"))?;
    let expected = render_delta_report(&expected_report);
    let served_json = JsonValue::parse(&served).map_err(|e| format!("/eco not JSON: {e}"))?;
    let deltas = served_json
        .get("endpoint_deltas")
        .and_then(JsonValue::as_array)
        .ok_or("eco response missing endpoint_deltas")?;
    if deltas.len() != expected_report.endpoint_deltas.len() {
        return Err(format!(
            "served {} endpoint deltas, direct apply produced {}",
            deltas.len(),
            expected_report.endpoint_deltas.len()
        ));
    }
    for (served_delta, want) in deltas.iter().zip(&expected_report.endpoint_deltas) {
        for (field, want_ns) in [
            ("arrival_before_ns", want.arrival_before_ns),
            ("arrival_after_ns", want.arrival_after_ns),
        ] {
            let got = served_delta
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("delta missing {field}"))?;
            if got.to_bits() != want_ns.to_bits() {
                return Err(format!(
                    "{}/{} {field}: served {got:?} != direct {want_ns:?} (bit-exact check)",
                    want.endpoint, want.corner
                ));
            }
        }
    }
    if served != expected {
        return Err(format!(
            "eco response body diverges from the direct render:\n served: {served}\n direct: {expected}"
        ));
    }
    summary.push_str(&format!(
        "eco: {} endpoint deltas bit-identical to direct apply\n",
        deltas.len()
    ));

    // 6. Batched ECO: a JSON array applies atomically and renders the
    // merged batch report bit-identically to a local replay. The batch
    // resizes the smoke instance back and forth, so it is always valid
    // after step 5.
    let EcoEdit::ResizeCell { instance, .. } = &edit else {
        unreachable!("pick_smoke_edit only resizes");
    };
    let batch = [
        EcoEdit::ResizeCell {
            instance: instance.clone(),
            new_cell: "INVX1".into(),
        },
        EcoEdit::ResizeCell {
            instance: instance.clone(),
            new_cell: "INVX2".into(),
        },
    ];
    let body = format!(
        "[{}]",
        batch.iter().map(render_edit).collect::<Vec<_>>().join(",")
    );
    let (status, served) = http_request(addr, "POST", "/eco", &body)?;
    if status != 200 {
        return Err(format!(
            "POST /eco (batch): status {status}, body: {served}"
        ));
    }
    let mut reports = Vec::new();
    for edit in &batch {
        reports.push(
            mirror
                .apply(edit)
                .map_err(|e| format!("mirror batch apply: {e}"))?,
        );
    }
    let expected = render_batch_report(&reports);
    if served != expected {
        return Err(format!(
            "batched eco response diverges from the direct render:\n served: {served}\n direct: {expected}"
        ));
    }
    summary.push_str(&format!(
        "eco batch: {} edits applied atomically, bit-identical to direct apply\n",
        batch.len()
    ));

    summary.push_str("smoke: PASS");
    Ok((summary, mirror))
}

fn check_designs(addr: &str, opts: &SmokeOptions) -> Result<String, String> {
    let mut summary = String::new();
    let listing = get(addr, "/designs")?;
    let listing = JsonValue::parse(&listing).map_err(|e| format!("/designs not JSON: {e}"))?;
    let listed = listing
        .get("designs")
        .and_then(JsonValue::as_array)
        .ok_or("/designs missing designs array")?;
    if listed.len() != opts.designs.len() {
        return Err(format!(
            "/designs lists {} designs, daemon was booted with {}",
            listed.len(),
            opts.designs.len()
        ));
    }
    for (entry, spec) in listed.iter().zip(&opts.designs) {
        let name = entry.get("name").and_then(JsonValue::as_str);
        if name != Some(spec.name()) {
            return Err(format!(
                "/designs order: got {name:?}, want {:?} (registration order)",
                spec.name()
            ));
        }
    }
    summary.push_str(&format!("designs: {} listed in order\n", listed.len()));

    // Warm every secondary design eagerly and read its timing under the
    // per-design read lock; the default design's edit counter must be
    // untouched by traffic on the others (isolation).
    for spec in &opts.designs[1..] {
        let name = spec.name();
        let (status, body) = http_request(addr, "POST", &format!("/designs/{name}/warm"), "")?;
        if status != 200 {
            return Err(format!(
                "POST /designs/{name}/warm: status {status}: {body}"
            ));
        }
        let timing = get(addr, &format!("/designs/{name}/timing"))?;
        let timing = JsonValue::parse(&timing).map_err(|e| format!("{name} timing: {e}"))?;
        let gates = timing.get("gates").and_then(JsonValue::as_u64).unwrap_or(0);
        if gates == 0 {
            return Err(format!("/designs/{name}/timing reports 0 gates"));
        }
        if timing
            .get("edits_applied")
            .and_then(JsonValue::as_u64)
            .unwrap_or(u64::MAX)
            != 0
        {
            return Err(format!("freshly warmed `{name}` reports prior edits"));
        }
        summary.push_str(&format!("design {name}: warm, {gates} gates\n"));
    }
    let default = get(addr, &format!("/designs/{}", opts.designs[0].name()))?;
    let default = JsonValue::parse(&default).map_err(|e| format!("default design: {e}"))?;
    if default.get("edits_applied").and_then(JsonValue::as_u64) != Some(3) {
        return Err(format!(
            "default design should hold exactly the 3 smoke edits, got {:?}",
            default.get("edits_applied").and_then(JsonValue::as_u64)
        ));
    }
    summary.push_str("isolation: default design edit count untouched by other designs\n");

    // Rejected inputs answer with typed client errors, not 500s.
    expect_status(addr, "GET", "/designs/nope", "", 404)?;
    expect_status(addr, "DELETE", "/healthz", "", 405)?;
    expect_status(addr, "POST", "/eco", "not json", 400)?;
    expect_status(addr, "POST", "/eco", "[]", 400)?;
    expect_status(addr, "GET", "/nope", "", 404)?;
    // Nesting past the JSON depth bound is a 400, not a dead handler.
    expect_status(addr, "POST", "/eco", &"[".repeat(100_000), 400)?;
    expect_status(addr, "GET", "/healthz", "", 200)?;
    summary.push_str("error paths: 404/405/400 as specified\n");
    Ok(summary)
}

/// Opens a connection and sends a deliberately unfinished request head,
/// pinning whichever handler/queue slot accepts it.
fn slow_loris(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("loris connect: {e}"))?;
    stream
        .write_all(b"POST /eco HTTP/1.1\r\n")
        .map_err(|e| format!("loris write: {e}"))?;
    Ok(stream)
}

fn check_backpressure(addr: &str) -> Result<String, String> {
    // With one worker and a queue of one, two pinned connections leave
    // no capacity; the next connection must be turned away immediately
    // with 429 + Retry-After. Scheduling decides which loris lands
    // where, so keep adding loris connections (bounded) until the probe
    // sees the rejection.
    let mut lorises = vec![slow_loris(addr)?, slow_loris(addr)?];
    for _attempt in 0..40 {
        let probe = (|| -> Result<Option<String>, String> {
            let mut client = HttpClient::connect(addr)?;
            client.set_read_timeout(Duration::from_millis(500))?;
            let response = client.send_full("GET", "/healthz", "")?;
            if response.status != 429 {
                return Ok(None);
            }
            let retry_after = response
                .header("retry-after")
                .ok_or("429 without Retry-After header")?;
            retry_after
                .parse::<u64>()
                .map_err(|_| format!("Retry-After `{retry_after}` is not seconds"))?;
            Ok(Some(retry_after.to_string()))
        })();
        match probe {
            Ok(Some(retry_after)) => {
                let summary = format!(
                    "backpressure: saturated queue answered 429 with Retry-After: {retry_after}\n"
                );
                drop(lorises);
                // Recovery: with the loris connections gone the plane
                // must serve normally again within the idle timeout.
                for _ in 0..100 {
                    if let Ok((200, _)) = http_request(addr, "GET", "/healthz", "") {
                        return Ok(summary + "backpressure recovery: healthz 200 after release\n");
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                return Err(
                    "plane did not recover within 10s of releasing the loris connections"
                        .to_string(),
                );
            }
            Ok(None) | Err(_) => {
                if lorises.len() < 6 {
                    lorises.push(slow_loris(addr)?);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(
        "never saw a 429 despite saturating workers and queue (is the daemon running \
         --workers 1 --queue-depth 1?)"
            .to_string(),
    )
}

fn check_flight_recorder(addr: &str) -> Result<String, String> {
    let index = get(addr, "/debug/requests")?;
    let index = JsonValue::parse(&index).map_err(|e| format!("/debug/requests not JSON: {e}"))?;
    let count = index
        .get("count")
        .and_then(JsonValue::as_u64)
        .ok_or("/debug/requests missing count")?;
    let capsules = index
        .get("capsules")
        .and_then(JsonValue::as_array)
        .ok_or("/debug/requests missing capsules array")?;
    if count == 0 || capsules.is_empty() {
        return Err(
            "flight recorder retained no capsules (is the daemon running --slow-ms 0?)".to_string(),
        );
    }
    // Prefer an ECO capsule — the paper's hot path — else take the
    // newest of whatever the smoke traffic left behind.
    let capsule = capsules
        .iter()
        .rev()
        .find(|c| {
            c.get("route")
                .and_then(JsonValue::as_str)
                .is_some_and(|r| r.ends_with("/eco") || r == "/eco")
        })
        .unwrap_or_else(|| capsules.last().expect("non-empty capsules"));
    let trace_id = capsule
        .get("trace_id")
        .and_then(JsonValue::as_u64)
        .ok_or("capsule summary missing trace_id")?;
    let route = capsule
        .get("route")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
        .to_string();

    let body = get(addr, &format!("/debug/requests/{trace_id}"))?;
    let full = JsonValue::parse(&body).map_err(|e| format!("capsule {trace_id} not JSON: {e}"))?;
    if full.get("trace_id").and_then(JsonValue::as_u64) != Some(trace_id) {
        return Err(format!("capsule {trace_id} echoes a different trace id"));
    }
    if full
        .get("latency_ns")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
        == 0
    {
        return Err(format!("capsule {trace_id} has zero latency"));
    }

    let trace = get(addr, &format!("/debug/requests/{trace_id}/trace.json"))?;
    let stats = svt_obs::chrome::validate_chrome_trace(&trace)
        .map_err(|e| format!("capsule {trace_id} trace.json: {e}"))?;
    let span_events: Vec<_> = stats
        .events
        .iter()
        .filter(|e| matches!(e.ph.as_str(), "B" | "E" | "i"))
        .collect();
    if span_events.is_empty() {
        return Err(format!(
            "capsule {trace_id} trace has no span events (is the daemon in Chrome trace mode?)"
        ));
    }
    if let Some(stray) = span_events.iter().find(|e| e.trace_id != Some(trace_id)) {
        return Err(format!(
            "capsule {trace_id} trace event `{}` tagged {:?}, want {trace_id}",
            stray.name, stray.trace_id
        ));
    }
    Ok(format!(
        "flight recorder: {count} capsules; capsule {trace_id} ({route}) trace validates, \
         {} events all tagged with the trace id\n",
        span_events.len()
    ))
}

fn check_observability(addr: &str) -> Result<String, String> {
    // Dashboard: a standalone HTML document with inline SVG sparklines,
    // no scripts or external assets to fetch.
    let dash = get(addr, "/dashboard")?;
    if !dash.starts_with("<!DOCTYPE html") || !dash.contains("long-horizon observability") {
        return Err("GET /dashboard is not the expected HTML document".to_string());
    }
    // The span profile, all three formats. The smoke traffic above
    // guarantees serve.request stacks exist.
    let collapsed = get(addr, "/debug/profile?format=collapsed")?;
    if !collapsed.contains("serve.request") {
        return Err(format!(
            "collapsed profile has no serve.request stack:\n{collapsed}"
        ));
    }
    let json = get(addr, "/debug/profile?format=json")?;
    let doc = JsonValue::parse(&json).map_err(|e| format!("profile json: {e}"))?;
    let stacks = doc
        .get("stacks")
        .and_then(JsonValue::as_array)
        .ok_or("profile json missing stacks array")?;
    // The daemon runs the counting allocator, so a request's span
    // carries the bytes its handler allocated.
    let request_bytes = stacks
        .iter()
        .find(|s| s.get("stack").and_then(JsonValue::as_str) == Some("serve.request"))
        .and_then(|s| s.get("alloc_bytes"))
        .and_then(JsonValue::as_u64)
        .ok_or("profile json has no serve.request stack")?;
    if request_bytes == 0 {
        return Err("serve.request stack records no allocated bytes".to_string());
    }
    let svg = get(addr, "/debug/profile?format=svg")?;
    if !svg.starts_with("<svg") || !svg.contains("serve.request") {
        return Err("flame SVG is empty or missing the serve.request frame".to_string());
    }
    expect_status(addr, "GET", "/debug/profile?format=nope", "", 400)?;

    // TSDB: the sampler must have filled at least two downsample tiers
    // for the headline request counter (parallel ingest populates every
    // tier on each tick, so this converges within one sample interval),
    // and derived its rate series (which needs a second tick).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (status, body) =
            http_request(addr, "GET", "/query?metric=serve.requests&range=600", "")?;
        let (rate_status, rate_body) = http_request(
            addr,
            "GET",
            "/query?metric=serve.requests.rate&range=600",
            "",
        )?;
        let rate_points = if rate_status == 200 {
            JsonValue::parse(&rate_body)
                .map_err(|e| format!("/query rate: {e}"))?
                .get("points")
                .and_then(JsonValue::as_array)
                .map_or(0, <[JsonValue]>::len)
        } else {
            0
        };
        if status == 200 && rate_points >= 1 {
            let doc = JsonValue::parse(&body).map_err(|e| format!("/query: {e}"))?;
            let tiers = doc
                .get("tiers")
                .and_then(JsonValue::as_array)
                .ok_or("/query response missing tiers")?;
            let populated = tiers
                .iter()
                .filter(|t| t.get("points").and_then(JsonValue::as_u64).unwrap_or(0) > 0)
                .count();
            let points = doc
                .get("points")
                .and_then(JsonValue::as_array)
                .map_or(0, <[JsonValue]>::len);
            if populated >= 2 && points >= 1 {
                expect_status(addr, "GET", "/query?metric=no.such.series", "", 404)?;
                expect_status(addr, "GET", "/query", "", 400)?;
                expect_status(
                    addr,
                    "GET",
                    "/query?metric=serve.requests&range=abc",
                    "",
                    400,
                )?;
                expect_status(
                    addr,
                    "GET",
                    "/query?metric=serve.requests&step=abc",
                    "",
                    400,
                )?;
                return Ok(format!(
                    "observability: dashboard ok; profile {} stacks in 3 formats, \
                     serve.request allocated {request_bytes} bytes; /query serves \
                     {points} points across {populated} populated tiers, and \
                     serve.requests.rate\n",
                    stacks.len()
                ));
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "sampler never populated two tiers and a rate for serve.requests within 20s \
                 (is the daemon running with a sampler? last /query: {status}, \
                 rate: {rate_status} with {rate_points} points)"
            ));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// The SLO breach scenario, run as its own smoke mode
/// (`svtd --smoke HOST:PORT --smoke-slo`) against a daemon booted with
/// a deliberately unmeetable objective (e.g.
/// `--slo route=*,p99_ms=0.001,err_pct=1,window=12`) and a fast
/// sampler. Hammers the plane until the burn-rate engine flips
/// `/healthz` to degraded/503, then verifies the `svt_slo_*`
/// exposition reports the breach.
///
/// # Errors
///
/// Returns the first failed check, or a timeout when no breach is
/// observed within 30 s.
pub fn run_smoke_slo(addr: &str) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        // Sustained traffic: every request violates the tiny latency
        // bound, so the budget burns at both windows.
        for _ in 0..20 {
            let _ = http_request(addr, "GET", "/designs", "");
        }
        let (status, body) = http_request(addr, "GET", "/healthz", "")?;
        let doc = JsonValue::parse(&body).map_err(|e| format!("/healthz: {e}"))?;
        let slo = doc
            .get("slo")
            .and_then(JsonValue::as_array)
            .ok_or("healthz has no slo block (was the daemon booted with --slo?)")?;
        let breached = slo
            .iter()
            .any(|s| s.get("breached").and_then(JsonValue::as_bool) == Some(true));
        if breached {
            if status != 503 {
                return Err(format!(
                    "SLO breached but /healthz answered {status}, want 503: {body}"
                ));
            }
            if doc.get("status").and_then(JsonValue::as_str) != Some("degraded") {
                return Err(format!("breached /healthz status is not degraded: {body}"));
            }
            let (m_status, metrics) = http_request(addr, "GET", "/metrics", "")?;
            if m_status != 200 {
                return Err(format!(
                    "/metrics must stay 200 during a breach: {m_status}"
                ));
            }
            for needle in [
                "svt_slo_breached",
                "svt_slo_burn_rate",
                "svt_slo_breaches_total",
            ] {
                if !metrics.contains(needle) {
                    return Err(format!("{needle} missing from /metrics during breach"));
                }
            }
            return Ok(
                "slo: deliberate breach degraded /healthz to 503 and exposed svt_slo_* families\n\
                 smoke: PASS"
                    .to_string(),
            );
        }
        if Instant::now() >= deadline {
            return Err(format!("no SLO breach within 30s — burn rates: {body}"));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn check_shutdown(addr: &str) -> Result<String, String> {
    let (status, body) = http_request(addr, "POST", "/shutdown", "")?;
    if status != 200 || !body.contains("draining") {
        return Err(format!("POST /shutdown: status {status}, body: {body}"));
    }
    // New work is refused while the drain completes: either a 503 or a
    // refused/reset connection once the listener is gone.
    match http_request(addr, "GET", "/healthz", "") {
        Ok((503, _)) | Err(_) => {}
        Ok((status, body)) => {
            return Err(format!(
                "post-shutdown request got {status} ({body}), want 503 or refusal"
            ))
        }
    }
    Ok("shutdown: drain acknowledged, new work refused\n".to_string())
}

/// Runs [`run_smoke`] plus the multi-tenant, error-path, backpressure,
/// and graceful-shutdown checks selected in `opts`.
///
/// # Errors
///
/// Returns the first failed check with enough context to debug it.
///
/// # Panics
///
/// Panics if `opts.designs` is empty.
pub fn run_smoke_full(addr: &str, opts: &SmokeOptions) -> Result<String, String> {
    assert!(
        !opts.designs.is_empty(),
        "smoke needs the daemon's design list"
    );
    let (mut summary, _mirror) = run_smoke_core(addr, &opts.designs[0])?;
    summary.truncate(summary.len() - "smoke: PASS".len());
    summary.push_str(&check_designs(addr, opts)?);
    if opts.recorder {
        summary.push_str(&check_flight_recorder(addr)?);
    }
    if opts.observability {
        summary.push_str(&check_observability(addr)?);
    }
    if opts.backpressure {
        summary.push_str(&check_backpressure(addr)?);
    }
    if opts.shutdown {
        summary.push_str(&check_shutdown(addr)?);
    }
    summary.push_str("smoke: PASS");
    Ok(summary)
}
