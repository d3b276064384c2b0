//! End-to-end service-plane test: boot a real multi-tenant daemon on an
//! ephemeral port and run the exact CI smoke sequence against it
//! in-process — including the differential checks that single and
//! batched `POST /eco` responses are bit-identical to direct
//! `EcoSession::apply` calls. Then probe the error paths, keep-alive
//! reuse, cross-design isolation under a held write lock, and the
//! concurrency differential: readers streaming timing off `c432` while
//! a writer streams ECO batches at `c880`, with the served batch
//! bodies replayed afterwards through a local session under
//! `SVT_THREADS=1` and required to match byte-for-byte (the daemon
//! served them under the default thread count, so the comparison spans
//! both sides of the `SVT_THREADS` ∈ {1, default} sweep).
//!
//! Single `#[test]`: the telemetry registry, trace mode, warm library
//! stack, and process environment are process-global.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use svt_obs::alloc::CountingAlloc;
use svt_obs::json::JsonValue;
use svt_serve::http::{http_request, HttpClient};
use svt_serve::server::{
    render_batch_report, warm_session, DesignSpec, Server, ServerOptions, ServiceState,
};
use svt_serve::smoke::{run_smoke_full, SmokeOptions};

// Match the daemon: count allocations so /metrics carries the
// svt_alloc_* gauges and every span its allocated bytes.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const READERS: usize = 3;
const WRITER_BATCHES: usize = 8;
/// A read on one design must never wait out another design's write
/// stream. Generous for single-core CI boxes; catastrophic (global
/// lock) serialization would push reads past the whole writer run.
const READ_LATENCY_BOUND: Duration = Duration::from_secs(2);

fn resize_batch(instance: &str) -> ([svt_eco::EcoEdit; 2], String) {
    let edits = [
        svt_eco::EcoEdit::ResizeCell {
            instance: instance.to_string(),
            new_cell: "INVX2".into(),
        },
        svt_eco::EcoEdit::ResizeCell {
            instance: instance.to_string(),
            new_cell: "INVX1".into(),
        },
    ];
    let body = format!(
        "[{{\"type\":\"resize_cell\",\"instance\":\"{instance}\",\"new_cell\":\"INVX2\"}},\
          {{\"type\":\"resize_cell\",\"instance\":\"{instance}\",\"new_cell\":\"INVX1\"}}]"
    );
    (edits, body)
}

#[test]
fn daemon_serves_multi_tenant_traffic_with_bit_exact_eco_deltas() {
    // Mirror the daemon's defaults: span recording with the live
    // timeline, allocation attribution, armed watchdog, and a sampler
    // feeding the embedded time-series store.
    svt_obs::set_mode(svt_obs::TraceMode::Chrome);
    svt_obs::alloc::set_active(true);
    svt_exec::watchdog::arm(Duration::from_secs(30));
    let sampler = svt_obs::tsdb::Sampler::spawn(
        svt_obs::tsdb::global(),
        Duration::from_millis(100),
        vec![
            Box::new(svt_obs::alloc::publish_gauges),
            Box::new(|| {
                let _ = svt_obs::rss::publish_gauges();
            }),
        ],
    );

    let designs = [
        DesignSpec::Builtin,
        DesignSpec::Iscas("c432".into()),
        DesignSpec::Iscas("c880".into()),
    ];
    // Arm the full observability surface: capture every request as a
    // flight-recorder capsule and log each one to a JSONL access log.
    let access_log = std::env::temp_dir()
        .join(format!("svt_e2e_access_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .to_string();
    let _ = std::fs::remove_file(&access_log);
    let options = ServerOptions {
        slow_ms: Some(0),
        access_log_path: Some(access_log.clone()),
        ..ServerOptions::default()
    };
    let state = ServiceState::new(&designs, options).expect("state");
    let server = Server::spawn("127.0.0.1:0", state).expect("bind an ephemeral port");
    let addr = server.addr().to_string();

    // The full CI sequence: healthz, the /metrics scrape,
    // snapshot, timeline, single + batched bit-exact ECO differentials,
    // the /designs surface with lazy warm-up, isolation, and the
    // 404/405/400 error paths. (Backpressure and shutdown run in
    // tests/stress.rs against a deliberately tiny pool.)
    let opts = SmokeOptions {
        designs: designs.to_vec(),
        backpressure: false,
        shutdown: false,
        recorder: true,
        observability: true,
    };
    let summary = run_smoke_full(&addr, &opts).unwrap_or_else(|e| panic!("smoke failed: {e}"));
    assert!(summary.ends_with("smoke: PASS"), "summary: {summary}");
    assert!(
        summary.contains("flight recorder:"),
        "recorder walk ran: {summary}"
    );

    // Every access-log line is one JSON object whose trace id resolves
    // at the flight-recorder surface (slow-ms 0 captures everything the
    // capsule ring still retains).
    let log = std::fs::read_to_string(&access_log).expect("access log written");
    assert!(!log.is_empty(), "smoke traffic must be logged");
    let mut eco_trace_id = None;
    for line in log.lines() {
        let doc = JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("access-log line not JSON ({e}): {line}"));
        let trace_id = doc
            .get("trace_id")
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("access-log line missing trace_id: {line}"));
        assert!(trace_id > 0, "trace ids are nonzero");
        if doc.get("route").and_then(JsonValue::as_str) == Some("/eco") {
            eco_trace_id = Some(trace_id);
        }
    }
    // The acceptance path: the smoke's POST /eco left a capsule whose
    // per-request Chrome trace validates and is tagged throughout.
    let eco_trace_id = eco_trace_id.expect("smoke posted /eco, so the log has its line");
    let (status, trace) = http_request(
        &addr,
        "GET",
        &format!("/debug/requests/{eco_trace_id}/trace.json"),
        "",
    )
    .unwrap();
    assert_eq!(status, 200, "eco capsule resolves by its logged trace id");
    let stats = svt_obs::chrome::validate_chrome_trace(&trace).expect("eco trace validates");
    assert!(
        stats
            .events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "B" | "E" | "i"))
            .all(|e| e.trace_id == Some(eco_trace_id)),
        "every span event carries the request's trace id"
    );

    // The smoke posted one single edit and one two-edit batch at the
    // default design; /healthz accounts for all three.
    let (status, health) = http_request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let health = JsonValue::parse(&health).unwrap();
    assert_eq!(
        health.get("edits_applied").and_then(JsonValue::as_u64),
        Some(3)
    );

    // Rejected-edit bodies are diagnostic and mutate nothing.
    let (status, body) = http_request(&addr, "POST", "/eco", "{\"type\":\"resize_cell\"}").unwrap();
    assert_eq!(status, 400, "missing fields are a client error: {body}");
    assert!(body.contains("instance"), "error names the field: {body}");
    let (status, body) = http_request(
        &addr,
        "POST",
        "/eco",
        "{\"type\":\"adjust_spacing\",\"instance\":\"no-such-inst\",\"dx_nm\":10.0}",
    )
    .unwrap();
    assert_eq!(status, 400, "invalid edits are a client error: {body}");
    let err = JsonValue::parse(&body).unwrap();
    assert!(err.get("error").and_then(JsonValue::as_str).is_some());
    let (_, health) = http_request(&addr, "GET", "/healthz", "").unwrap();
    let health = JsonValue::parse(&health).unwrap();
    assert_eq!(
        health.get("edits_applied").and_then(JsonValue::as_u64),
        Some(3),
        "a rejected edit must not mutate any session"
    );

    // No --snapshot path was configured in this process, so persistence
    // is off: /healthz reports it, the info gauge labels it, and an
    // on-demand save is refused with 409 (a client error, not a crash).
    assert_eq!(
        health
            .get("snapshot")
            .and_then(|s| s.get("mode"))
            .and_then(JsonValue::as_str),
        Some("disabled"),
        "healthz snapshot mode: {health:?}"
    );
    let (status, body) = http_request(&addr, "POST", "/snapshot/save", "").unwrap();
    assert_eq!(status, 409, "save without a configured path: {body}");
    assert!(body.contains("no snapshot path"), "{body}");
    let (_, metrics) = http_request(&addr, "GET", "/metrics", "").unwrap();
    assert!(
        metrics.contains("svt_snapshot_info{mode=\"disabled\""),
        "metrics must expose the disabled snapshot state"
    );

    // A failing edit mid-batch rolls nothing in: the batch is refused
    // at the offending element and the count stays put.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/eco",
        "[{\"type\":\"adjust_spacing\",\"instance\":\"no-such-inst\",\"dx_nm\":1.0}]",
    )
    .unwrap();
    assert_eq!(status, 400, "batch with a bad edit: {body}");

    // Keep-alive: one connection serves many requests, and the server
    // advertises it.
    let mut client = HttpClient::connect(&addr).expect("keep-alive connect");
    for _ in 0..5 {
        let response = client.send_full("GET", "/healthz", "").expect("reuse");
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    drop(client);

    // Cross-design isolation, deterministically: while c880's write
    // lock is held (a long ECO in progress), a read on c432 must still
    // be served promptly by another pool worker.
    let entry = server.state().registry().entry("c880").expect("c880");
    entry
        .write(|_session| {
            let t = Instant::now();
            let (status, _) = http_request(&addr, "GET", "/designs/c432/timing", "")
                .expect("read under held write lock");
            assert_eq!(status, 200);
            let waited = t.elapsed();
            assert!(
                waited < READ_LATENCY_BOUND,
                "c432 read stalled {waited:?} behind c880's write lock"
            );
        })
        .expect("write lock");

    // Concurrency differential: readers hammer c432 timing while a
    // writer streams ECO batches at c880. Reads must stay under the
    // latency bound throughout, and every served batch body is kept for
    // the bit-exact replay below. Not every INVX1 has room for the
    // wider master, so probe a throwaway mirror for one that does
    // (rejected edits validate without mutating).
    let instance = {
        let mut probe = warm_session(&DesignSpec::Iscas("c880".into())).expect("c880 probe");
        let candidates: Vec<String> = probe
            .netlist()
            .instances()
            .iter()
            .filter(|i| i.cell == "INVX1")
            .map(|i| i.name.clone())
            .collect();
        candidates
            .into_iter()
            .find(|name| {
                probe
                    .apply(&svt_eco::EcoEdit::ResizeCell {
                        instance: name.clone(),
                        new_cell: "INVX2".into(),
                    })
                    .is_ok()
            })
            .expect("some INVX1 in c880 has room to upsize")
    };
    let (batch_edits, batch_body) = resize_batch(&instance);

    let stop_readers = AtomicBool::new(false);
    let served_batches = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::connect(&addr).expect("reader connect");
                    let mut worst = Duration::ZERO;
                    let mut reads = 0u64;
                    while !stop_readers.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        // The server closes connections at the
                        // keep-alive request cap; a real client
                        // reconnects and carries on.
                        let (status, body) = match client.send("GET", "/designs/c432/timing", "") {
                            Ok(response) => response,
                            Err(_) => {
                                client = HttpClient::connect(&addr).expect("reader reconnect");
                                continue;
                            }
                        };
                        worst = worst.max(t.elapsed());
                        assert_eq!(status, 200, "{body}");
                        assert!(
                            body.contains("\"testcase\":\"c432\""),
                            "wrong design: {body}"
                        );
                        reads += 1;
                    }
                    (reads, worst)
                })
            })
            .collect();
        let mut writer = HttpClient::connect(&addr).expect("writer connect");
        let mut served = Vec::with_capacity(WRITER_BATCHES);
        for _ in 0..WRITER_BATCHES {
            let (status, body) = writer
                .send("POST", "/designs/c880/eco", &batch_body)
                .expect("writer batch");
            assert_eq!(status, 200, "{body}");
            served.push(body);
        }
        stop_readers.store(true, Ordering::Relaxed);
        for reader in readers {
            let (reads, worst) = reader.join().expect("reader thread");
            assert!(reads > 0, "reader never completed a request");
            assert!(
                worst < READ_LATENCY_BOUND,
                "a c432 read waited {worst:?} while c880 absorbed ECO batches"
            );
        }
        served
    });

    // Drain before replaying: the replay below flips SVT_THREADS, and
    // the process environment must not change under live pool workers.
    sampler.stop();
    server.shutdown();
    assert!(
        svt_exec::watchdog::status().healthy(),
        "watchdog must stay green through concurrent traffic"
    );

    // Bit-exact replay across thread counts: the daemon served the
    // batches under the default SVT_THREADS; replaying them locally
    // pinned to one thread must render byte-identical bodies.
    let restore = std::env::var("SVT_THREADS").ok();
    std::env::set_var("SVT_THREADS", "1");
    let mut mirror = warm_session(&DesignSpec::Iscas("c880".into())).expect("replay mirror");
    for (i, served) in served_batches.iter().enumerate() {
        let reports: Vec<_> = batch_edits
            .iter()
            .map(|edit| mirror.apply(edit).expect("replay apply"))
            .collect();
        let expected = render_batch_report(&reports);
        assert_eq!(
            served, &expected,
            "served batch {i} diverges from the SVT_THREADS=1 replay"
        );
    }
    match restore {
        Some(v) => std::env::set_var("SVT_THREADS", v),
        None => std::env::remove_var("SVT_THREADS"),
    }
    let _ = std::fs::remove_file(&access_log);
}
