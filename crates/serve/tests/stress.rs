//! Backpressure and graceful-shutdown fault injection for the service
//! plane, against a deliberately tiny pool (2 workers, queue of 2) so
//! saturation is cheap to provoke:
//!
//! * keep-alive bounds — the per-connection request cap closes the
//!   connection after exactly N requests, and an idle connection is
//!   reaped after the idle timeout;
//! * slow-loris saturation — partial-request connections pin every
//!   worker and queue slot, the next connection gets an immediate
//!   `429` with `Retry-After`, and the plane recovers to `200`s once
//!   the loris connections go away;
//! * graceful drain — a shutdown issued while a request is in flight
//!   answers that request (200 before the drain flag, 503 after — but
//!   always answers), then joins every pool thread: the OS thread
//!   count returns to its pre-server baseline (no handler leaks);
//! * the watchdog stays green throughout: connection lifetimes are
//!   *not* heartbeated (only bounded route handling is), so pinned and
//!   idle connections must not read as stalls.
//!
//! Single `#[test]`: the telemetry registry, watchdog, and warm stack
//! are process-global.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use svt_serve::http::{http_request, HttpClient};
use svt_serve::server::{DesignSpec, Server, ServerOptions, ServiceState};

const KEEP_ALIVE_CAP: usize = 5;
/// Phase 1's idle timeout: short, so the reaping checks finish quickly.
const IDLE_TIMEOUT: Duration = Duration::from_millis(400);
/// Phase 2's idle timeout: longer than its whole probe window (10 s to
/// fill the pool, then at most 50 probes of ≤ 550 ms), so the pinned
/// loris connections stay pinned until a probe has seen the `429`.
const PINNED_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Live OS threads of this process (Linux); `None` where /proc is
/// unavailable, which skips the leak assertion.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn tiny_pool_options(idle_timeout: Duration) -> ServerOptions {
    ServerOptions {
        workers: 2,
        queue_capacity: 2,
        keep_alive_max_requests: KEEP_ALIVE_CAP,
        idle_timeout,
        // Widen the in-flight window so the drain test reliably
        // catches a request mid-handling.
        fault_delay: Some(Duration::from_millis(50)),
        ..ServerOptions::default()
    }
}

fn spawn_server(idle_timeout: Duration) -> (Server, String) {
    let state =
        ServiceState::new(&[DesignSpec::Builtin], tiny_pool_options(idle_timeout)).expect("state");
    state.warm("builtin").expect("warm builtin");
    let server = Server::spawn("127.0.0.1:0", state).expect("bind");
    let addr = server.addr().to_string();
    (server, addr)
}

fn loris(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("loris connect");
    stream
        .write_all(b"POST /eco HTTP/1.1\r\nContent-Length: 5\r\n")
        .expect("loris write");
    stream
}

#[test]
fn backpressure_and_graceful_shutdown_under_fault_injection() {
    svt_exec::watchdog::arm(Duration::from_secs(5));
    let baseline_threads = os_thread_count();

    // ---- Phase 1: keep-alive bounds. ----
    let (server, addr) = spawn_server(IDLE_TIMEOUT);

    // The request cap closes the connection after exactly
    // KEEP_ALIVE_CAP requests: the last response advertises the close,
    // and the next send fails.
    let mut client = HttpClient::connect(&addr).expect("connect");
    for i in 1..=KEEP_ALIVE_CAP {
        let response = client
            .send_full("GET", "/healthz", "")
            .expect("capped send");
        assert_eq!(response.status, 200);
        assert_eq!(
            response.close(),
            i == KEEP_ALIVE_CAP,
            "connection must close exactly at request {KEEP_ALIVE_CAP}"
        );
    }
    assert!(
        client.send("GET", "/healthz", "").is_err(),
        "request {} must not be served on a capped connection",
        KEEP_ALIVE_CAP + 1
    );

    // An idle keep-alive connection is reaped after the idle timeout.
    let mut idler = HttpClient::connect(&addr).expect("idler connect");
    let (status, _) = idler.send("GET", "/healthz", "").expect("idler first");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(900));
    assert!(
        idler.send("GET", "/healthz", "").is_err(),
        "idle connection must be closed after the idle timeout"
    );

    // A half-sent request also cannot pin a worker forever: the idle
    // timeout applies to mid-request silence too.
    let stalled = loris(&addr);
    std::thread::sleep(Duration::from_millis(900));
    let t = Instant::now();
    let (status, _) = http_request(&addr, "GET", "/healthz", "").expect("after stalled loris");
    assert_eq!(status, 200);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "reaped loris must not delay fresh requests"
    );
    drop(stalled);
    server.shutdown();

    // ---- Phase 2: slow-loris saturation → 429 → recovery. ----
    let (server, addr) = spawn_server(PINNED_IDLE_TIMEOUT);
    // Pin both workers, then both queue slots, one loris at a time: each
    // must show up in the pool's own gauges before the next connects, or
    // it could find the queue still full of its predecessors and be
    // refused itself. Probing starts only once the pool is full.
    let gauge = |name: &str| svt_obs::registry().gauge(name).get();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut lorises = Vec::new();
    for want in [(1, 0), (2, 0), (2, 1), (2, 2)] {
        lorises.push(loris(&addr));
        loop {
            let got = (
                gauge("serve.pool.in_flight"),
                gauge("serve.pool.queue_depth"),
            );
            if got == want {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "loris {} did not land: (in_flight, queue_depth) = {got:?}, want {want:?}",
                lorises.len()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let mut rejection = None;
    for _ in 0..50 {
        let mut probe = match HttpClient::connect(&addr) {
            Ok(probe) => probe,
            Err(_) => continue,
        };
        probe
            .set_read_timeout(Duration::from_millis(500))
            .expect("probe timeout");
        match probe.send_full("GET", "/healthz", "") {
            Ok(response) if response.status == 429 => {
                rejection = Some(response);
                break;
            }
            // The pool is full, so a probe misses the 429 only on a
            // transport hiccup (the server may reset the socket as it
            // closes it). Retry.
            Ok(_) | Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let rejection = rejection.expect("a saturated pool must answer 429");
    let retry_after = rejection
        .header("retry-after")
        .expect("429 must carry Retry-After");
    assert!(
        retry_after.parse::<u64>().is_ok(),
        "Retry-After must be seconds, got `{retry_after}`"
    );
    assert!(rejection.close(), "429 responses close the connection");

    // Release the lorises: the plane must recover to plain 200s.
    drop(lorises);
    let recovered = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(50));
        matches!(http_request(&addr, "GET", "/healthz", ""), Ok((200, _)))
    });
    assert!(recovered, "plane did not recover after loris release");

    // ---- Phase 3: drain with a request in flight. ----
    // The 50 ms fault delay keeps the request mid-handler while the
    // drain starts; it must still be answered (200 if routed before the
    // drain flag, 503 after), never dropped.
    let addr_for_inflight = addr.clone();
    let inflight =
        std::thread::spawn(move || http_request(&addr_for_inflight, "GET", "/healthz", ""));
    std::thread::sleep(Duration::from_millis(15));
    server.shutdown();
    let answered = inflight
        .join()
        .expect("in-flight thread")
        .expect("in-flight request must be answered during a drain");
    assert!(
        answered.0 == 200 || answered.0 == 503,
        "drained request got status {}",
        answered.0
    );
    // The listener is gone: new connections are refused outright.
    assert!(
        http_request(&addr, "GET", "/healthz", "").is_err(),
        "daemon must not accept connections after shutdown"
    );

    // ---- Plane-wide postconditions. ----
    // No handler/acceptor leaks: thread count back to the pre-server
    // baseline once both servers are down. A joined thread can still be
    // listed for a moment while the kernel reaps it, so poll to a
    // deadline.
    if let Some(before) = baseline_threads {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut after = os_thread_count();
        while after.is_some_and(|n| n > before) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            after = os_thread_count();
        }
        if let Some(after) = after {
            assert!(
                after <= before,
                "thread leak: {before} threads before the servers, {after} after shutdown"
            );
        }
    }
    // And the watchdog never read pinned/idle connections as stalls.
    let wd = svt_exec::watchdog::status();
    assert!(
        wd.healthy() && wd.stall_events == 0,
        "watchdog must stay green through loris pinning and drains: {wd:?}"
    );
}
