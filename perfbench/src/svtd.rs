//! `svtd_mixed`: the real `svtd` binary under open-loop traffic.
//!
//! The daemon boots with its shipped flags and environment (profiler,
//! sampler and allocation attribution on; `SVT_THREADS` unset, so its
//! worker pools are as wide as its CPUs) serving c3540 and c432, both
//! warmed during set-up. One generator process runs two threads with one
//! keep-alive connection each. On a host with two CPUs or more the
//! daemon runs on one CPU and the generator on another (see
//! [`DAEMON_CPU`]), so there the daemon's pools have one worker. Every
//! latency is timed from when its request was due.
//!
//! The traffic is synthetic: the repository holds no recorded client
//! session of `svtd`, and the gate-sizing optimizer its roadmap plans is
//! not built yet. Each thread stands for one kind of client, and its
//! rate is set by that client:
//!
//! * The reader stands for independent interactive clients (a design
//!   team's dashboards and report scripts) polling the timing of both
//!   designs: `GET /designs/c3540/timing` and `GET /designs/c432/timing`
//!   alternately, [`NOMINAL_RPS`] in all. That is a light load; the
//!   daemon is idle between most reads, so a read's latency includes
//!   waking it, as it does for such a client. A coarse ladder of higher
//!   rates follows, up to past what one connection sustains.
//! * The writer stands for one gate-sizing optimizer trying candidate
//!   moves on c3540: each `POST /designs/c3540/eco` upsizes one `INVX1`
//!   instance and reverts it in one atomic batch, whose reply carries
//!   the upsizing's timing deltas. Its candidates are every c3540
//!   `INVX1` instance whose upsizing is legal on a local `warm_session`
//!   mirror (160 of 344), in an order the seed draws. It is paced like
//!   a background job that leaves the design to its readers most of the
//!   time: one pass over its candidates in the nominal phase (about 13
//!   trials a second in a 15 s run), which holds the design's write lock
//!   about a tenth of the time. Every run thus times every candidate
//!   once, whatever the seed.
//!
//! Reads on the design being written, against reads on the other
//! design, isolate the wait for the design lock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use svt_eco::EcoEdit;
use svt_obs::json::JsonValue;
use svt_serve::{DesignSpec, RequestParser, ServerOptions, ServiceState};

use crate::rng::Rng;
use crate::stats::{self, ms_since};
use crate::trace::Tracer;
use crate::{Config, Named, Outcome};

/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 3;
/// Reads per second of the interactive clients, both designs together.
const NOMINAL_RPS: f64 = 200.0;
/// Share of the run spent at the nominal rate; the ladder follows.
const NOMINAL_SHARE: f64 = 0.8;
/// Ladder rates are the nominal rate times these factors, one step each
/// while a step passes. The last is past what one connection sustains
/// on a 2-vCPU host.
const LADDER_FACTORS: [f64; 4] = [4.0, 16.0, 64.0, 256.0];
const STEP_S: f64 = 0.5;
/// Attempts per ladder step: one stall of a shared host does not end
/// the ladder, a rate the daemon cannot sustain fails both.
const STEP_ATTEMPTS: usize = 2;
/// A read meets the limit within this many milliseconds of being due.
const READ_LIMIT_MS: f64 = 25.0;
/// Requests of each kind replayed in-process for the serving splits.
const SPLIT_READS: usize = 2_000;

const DESIGNS: [&str; 2] = ["c3540", "c432"];
const ECO_PATH: &str = "/designs/c3540/eco";

/// A child process that is killed and reaped however the run ends.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn boot(svtd: &std::path::Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(svtd);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--design",
            "c3540",
            "--design",
            "c432",
        ])
        .env_remove(svt_exec::pool::THREADS_ENV)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        #[cfg(unix)]
        if let Some(mask) = cpu_mask(DAEMON_CPU) {
            use std::os::unix::process::CommandExt;
            // SAFETY: the hook runs in the forked child before exec and
            // makes one system call, which is async-signal-safe; the mask
            // was computed before the fork.
            unsafe {
                cmd.pre_exec(move || {
                    set_affinity(&mask);
                    Ok(())
                });
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("starting {}: {e}", svtd.display()))?;
        let stdout = child.stdout.take().ok_or("svtd stdout not captured")?;
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("svtd exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("svtd: listening on http://") {
                        break addr
                            .parse()
                            .map_err(|e| format!("svtd address {addr}: {e}"))?;
                    }
                }
            }
        };
        // Keep draining stdout so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        Ok(Daemon {
            child,
            addr,
            stdout: Some(drain),
        })
    }

    /// Graceful drain through the API, then a kill if it does not exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = Conn::new(self.addr)
            .request("POST", "/shutdown", "")
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if asked && status.success() {
                    Ok(())
                } else {
                    Err(format!("svtd exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err("svtd did not exit after /shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}

/// A minimal keep-alive HTTP/1.1 client, independent of the program's
/// own client so the generator's cost never changes with the program.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    connects: u64,
}

struct Reply {
    status: u16,
    body: String,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
            connects: 0,
        }
    }

    /// Connections opened after the first one.
    fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    fn stream(&mut self) -> Result<&mut TcpStream, String> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
                .map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| format!("timeout: {e}"))?;
            self.buf.clear();
            self.connects += 1;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one request and reads its reply. The connection is dropped
    /// after a `Connection: close` reply or an error; the next request
    /// reconnects.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        match self.exchange(method, path, body) {
            Ok((reply, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Result<(Reply, bool), String> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let stream = self.stream()?;
        stream
            .write_all(wire.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self
                .stream
                .as_mut()
                .expect("connected")
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before the reply".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| format!("bad length {v}"))?;
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + length {
            let n = self
                .stream
                .as_mut()
                .expect("connected")
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).to_string();
        self.buf.drain(..head_end + length);
        Ok((Reply { status, body }, close))
    }
}

/// One request as the generator saw it.
#[derive(Clone, Copy)]
struct Sample {
    /// Ladder step (0 = nominal phase) or, for writes, 0.
    step: usize,
    design: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// Generator lateness: send time past the later of due time and the
    /// previous reply on the connection.
    late_ms: f64,
    ok: bool,
    refused: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    fn service_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// The daemon runs on CPU 0 and the generator's threads on CPU 1, when
/// there are two: every request then crosses between the same two CPUs,
/// instead of sometimes staying on one, which made the latency of a read
/// flip between two levels from run to run.
const DAEMON_CPU: usize = 0;
const GENERATOR_CPU: usize = 1;

/// The affinity mask of `cpu`, or `None` on a machine with too few CPUs
/// to pin anything.
fn cpu_mask(cpu: usize) -> Option<[u64; 16]> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    (cpus > GENERATOR_CPU).then(|| {
        // A cpu_set_t: 1024 bits.
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    })
}

/// Restricts the calling thread, and threads and processes it starts
/// later, to the CPUs in `mask`. One system call, so it is safe between
/// fork and exec.
fn set_affinity(mask: &[u64; 16]) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // SAFETY: `mask` is a live, initialised 128-byte cpu_set_t and
        // `size` is its length; pid 0 names the calling thread. A failure
        // leaves the thread unpinned, which only adds noise.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = mask;
}

/// How long before a request is due the generator stops sleeping and
/// spins. A sleeping thread on a shared host wakes tenths of a
/// millisecond late at times; that lateness would count as the daemon's
/// latency, which is timed from the due time.
const SPIN: Duration = Duration::from_millis(1);

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

fn timing_path(design: usize) -> String {
    format!("/designs/{}/timing", DESIGNS[design])
}

/// A timing body without its edit counter, for before/after comparison.
fn timing_state(body: &str) -> Option<String> {
    let at = body.find(",\"edits_applied\"")?;
    Some(body[..at].to_string())
}

fn read_ok(reply: &Reply, design: usize) -> bool {
    reply.status == 200
        && JsonValue::parse(&reply.body).is_ok_and(|v| {
            v.get("testcase").and_then(JsonValue::as_str) == Some(DESIGNS[design])
                && v.get("aware").is_some()
        })
}

fn write_ok(reply: &Reply) -> bool {
    reply.status == 200
        && JsonValue::parse(&reply.body)
            .is_ok_and(|v| v.get("edits").and_then(JsonValue::as_u64) == Some(2))
}

/// One write: resize `instance` up to `INVX2` and back, atomically.
fn pair_body(instance: &str) -> String {
    let edit = |cell: &str| {
        format!("{{\"type\":\"resize_cell\",\"instance\":\"{instance}\",\"new_cell\":\"{cell}\"}}")
    };
    format!("[{},{}]", edit("INVX2"), edit("INVX1"))
}

/// The writer's bodies: an upsizing and revert of every c3540 `INVX1`
/// instance for which both are legal on a local mirror of the daemon's
/// design, in the seed's order.
fn write_edits(seed: u64) -> Result<Vec<String>, String> {
    let mut mirror = svt_serve::warm_session(&DesignSpec::Iscas("c3540".into()))?;
    let candidates: Vec<String> = mirror
        .netlist()
        .instances()
        .iter()
        .filter(|i| i.cell == "INVX1")
        .map(|i| i.name.clone())
        .collect();
    let mut legal = Vec::new();
    for name in candidates {
        let resize = |cell: &str| EcoEdit::ResizeCell {
            instance: name.clone(),
            new_cell: cell.into(),
        };
        // An illegal upsizing leaves the mirror as it was.
        if mirror.apply(&resize("INVX2")).is_err() {
            continue;
        }
        mirror
            .apply(&resize("INVX1"))
            .map_err(|e| format!("mirror revert of {name}: {e}"))?;
        legal.push(pair_body(&name));
    }
    if legal.is_empty() {
        return Err("no c3540 INVX1 instance can be resized up".to_string());
    }
    Rng::new(seed).shuffle(&mut legal);
    Ok(legal)
}

/// One generator thread: its connection, spans and samples.
struct Client {
    conn: Conn,
    tr: Tracer,
    samples: Vec<Sample>,
    prev_done: Instant,
    /// Request ids of this client start here.
    id_base: u64,
}

impl Client {
    fn new(addr: SocketAddr, epoch: Instant, id_base: u64) -> Client {
        if let Some(mask) = cpu_mask(GENERATOR_CPU) {
            set_affinity(&mask);
        }
        Client {
            conn: Conn::new(addr),
            tr: Tracer::new(epoch),
            samples: Vec::new(),
            prev_done: epoch,
            id_base,
        }
    }

    /// Sends `(method, path, body)` once it is due and records the
    /// exchange; `check` judges the reply. The span, when the tracer is
    /// on, is recorded after the reply's time is taken.
    fn send(
        &mut self,
        due: Instant,
        step: usize,
        design: usize,
        (method, path, body): (&str, &str, &str),
        check: impl Fn(&Reply) -> bool,
    ) {
        sleep_until(due);
        let sent = Instant::now();
        let reply = self.conn.request(method, path, body);
        let done = Instant::now();
        let name = if method == "GET" {
            "serve.read"
        } else {
            "serve.write"
        };
        self.tr.record(
            name,
            sent,
            done,
            Some(self.id_base + self.samples.len() as u64),
        );
        let (ok, refused) = match &reply {
            Ok(r) => (check(r), r.status == 429 || r.status == 503),
            Err(_) => (false, false),
        };
        let late = sent.saturating_duration_since(due.max(self.prev_done));
        self.samples.push(Sample {
            step,
            design,
            due,
            sent,
            done,
            late_ms: late.as_secs_f64() * 1e3,
            ok,
            refused,
        });
        self.prev_done = done;
    }

    /// Reads at `rps` for `seconds`, alternating the designs, and returns
    /// where this phase's samples start. Stops early once a reply is far
    /// past the read limit: a backlog the rate cannot drain.
    fn read_phase(&mut self, step: usize, rps: f64, seconds: f64) -> usize {
        let from = self.samples.len();
        let start = Instant::now();
        for i in 0..(rps * seconds).round() as usize {
            let due = start + Duration::from_secs_f64(i as f64 / rps);
            let design = i % 2;
            let path = timing_path(design);
            self.send(due, step, design, ("GET", &path, ""), |r| {
                read_ok(r, design)
            });
            if self
                .samples
                .last()
                .is_some_and(|s| s.latency_ms() > 20.0 * READ_LIMIT_MS)
            {
                break;
            }
        }
        from
    }
}

/// Whether a step met the read limit at p99 with no growing backlog:
/// every planned request was sent, and the median latency of the last
/// tenth stayed within the limit (a backlog delays every later request,
/// one stall of the host only a few).
fn step_passes(samples: &[Sample], planned: usize) -> bool {
    if samples.is_empty() || samples.len() < planned {
        return false;
    }
    let lat: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { s.latency_ms() } else { f64::INFINITY })
        .collect();
    let tail = &lat[lat.len() - lat.len().div_ceil(10)..];
    stats::quantile(&lat, 0.99) <= READ_LIMIT_MS && stats::median(tail) <= READ_LIMIT_MS
}

/// Parse, route and write times of the same request mix, served
/// in-process by a local service state over a loopback socket.
fn serving_splits(
    edits: &[String],
    layers: &mut std::collections::BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let specs: Vec<DesignSpec> = DESIGNS
        .iter()
        .map(|d| DesignSpec::Iscas((*d).into()))
        .collect();
    let state = ServiceState::new(&specs, ServerOptions::default())?;
    for d in DESIGNS {
        state
            .warm(d)
            .map_err(|e| format!("warming {d} in-process: {e}"))?;
    }
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let mut sink = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut server_side, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let drain = std::thread::spawn(move || {
        let _ = std::io::copy(&mut sink, &mut std::io::sink());
    });
    let mut parse_us = Vec::new();
    let mut route_read_us = Vec::new();
    let mut route_eco_ms = Vec::new();
    let mut write_us = Vec::new();
    let reads = (0..SPLIT_READS).map(|i| ("GET".to_string(), timing_path(i % 2), String::new()));
    let writes = edits
        .iter()
        .map(|body| ("POST".to_string(), ECO_PATH.to_string(), body.clone()));
    for (method, path, body) in reads.chain(writes) {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let t = Instant::now();
        let mut parser = RequestParser::new();
        parser.push(wire.as_bytes());
        let req = parser
            .next_request()
            .map_err(|e| format!("parse: {}", e.message))?
            .ok_or("parser wanted more bytes")?;
        parse_us.push(ms_since(t) * 1e3);
        let t = Instant::now();
        let response = svt_serve::route(&state, &req);
        let routed = ms_since(t);
        if response.status != 200 {
            return Err(format!(
                "in-process {method} {path}: status {}",
                response.status
            ));
        }
        if method == "GET" {
            route_read_us.push(routed * 1e3);
        } else {
            route_eco_ms.push(routed);
        }
        let t = Instant::now();
        svt_serve::http::write_response(&mut server_side, &response, false)?;
        write_us.push(ms_since(t) * 1e3);
    }
    drop(server_side);
    let _ = drain.join();
    layers.insert("serve.parse_us", stats::median(&parse_us));
    layers.insert("serve.route_read_us", stats::median(&route_read_us));
    layers.insert("serve.route_eco_ms", stats::median(&route_eco_ms));
    layers.insert("serve.write_us", stats::median(&write_us));
    Ok(())
}

/// `(gauges.proc.rss_peak_kb, queue-wait count, queue-wait sum ns)` from
/// the daemon's own `/snapshot.json`.
fn daemon_snapshot(addr: SocketAddr) -> Result<(f64, f64, f64), String> {
    let reply = Conn::new(addr)
        .request("GET", "/snapshot.json", "")
        .map_err(|e| format!("/snapshot.json: {e}"))?;
    let v = JsonValue::parse(&reply.body).map_err(|e| format!("/snapshot.json: {e}"))?;
    let peak = v
        .get("gauges")
        .and_then(|g| g.get("proc.rss_peak_kb"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let hist = v
        .get("histograms")
        .and_then(|h| h.get("serve.pool.queue_wait_ns"));
    let field = |k: &str| {
        hist.and_then(|h| h.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    Ok((peak, field("count"), field("sum")))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The daemon's pools take their width from its CPUs. Read before the
    // generator's threads, this one among them, are pinned.
    let svtd_cpus = match cpu_mask(DAEMON_CPU) {
        Some(_) => "1 (pinned)".to_string(),
        None => std::thread::available_parallelism()
            .map_or(1, usize::from)
            .to_string(),
    };
    let mut setup_s = Vec::with_capacity(BOOTS);
    let mut daemon = None;
    for boot in 0..BOOTS {
        let t = Instant::now();
        let d = Daemon::boot(&cfg.svtd)?;
        let warm = Conn::new(d.addr)
            .request("POST", "/designs/c432/warm", "")
            .map_err(|e| format!("warming c432: {e}"))?;
        if warm.status != 200 {
            return Err(format!("warming c432: status {}", warm.status));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if boot + 1 < BOOTS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no daemon")?;
    let addr = daemon.addr;
    let edits = write_edits(cfg.seed)?;

    // Fresh connections: the daemon reaps keep-alive connections idle
    // past its timeout.
    let before = Conn::new(addr)
        .request("GET", &timing_path(0), "")
        .map_err(|e| format!("c3540 timing before the run: {e}"))?;
    let before_state = timing_state(&before.body).ok_or("c3540 timing has no edit counter")?;
    let (_, qc0, qs0) = daemon_snapshot(addr)?;

    // A traced run records a span per request of the nominal phase and
    // of the writer; the ladder is never traced.
    let epoch = Instant::now();
    let nominal_s = cfg.seconds * NOMINAL_SHARE;
    // One pass over the candidates in the nominal phase; the writer
    // carries on at the same rate through the ladder.
    let write_rps = edits.len() as f64 / nominal_s;
    let stop_writer = AtomicBool::new(false);
    let (reader, writer, max_rps) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut c = Client::new(addr, epoch, 1 << 32);
            c.tr.set_on(cfg.trace);
            let mut i = 0usize;
            while !stop_writer.load(Ordering::SeqCst) {
                let due = epoch + Duration::from_secs_f64(i as f64 / write_rps);
                let body = &edits[i % edits.len()];
                c.send(due, 0, 0, ("POST", ECO_PATH, body), write_ok);
                i += 1;
            }
            c
        });
        let mut reader = Client::new(addr, epoch, 0);
        reader.tr.set_on(cfg.trace);
        reader.read_phase(0, NOMINAL_RPS, nominal_s);
        reader.tr.set_on(false);
        // The highest rate that passed, as the completed-read rate of its
        // step; the nominal phase is the first step.
        let achieved = |s: &[Sample]| {
            let span = s[s.len() - 1].done.saturating_duration_since(s[0].due);
            s.len() as f64 / span.as_secs_f64()
        };
        let mut max_rps = 0.0;
        if step_passes(&reader.samples, (NOMINAL_RPS * nominal_s).round() as usize) {
            max_rps = achieved(&reader.samples);
            'ladder: for (k, factor) in LADDER_FACTORS.iter().enumerate() {
                let rps = NOMINAL_RPS * factor;
                for _ in 0..STEP_ATTEMPTS {
                    let from = reader.read_phase(k + 1, rps, STEP_S);
                    let step = &reader.samples[from..];
                    if step_passes(step, (rps * STEP_S).round() as usize) {
                        max_rps = achieved(step);
                        continue 'ladder;
                    }
                }
                break;
            }
        }
        stop_writer.store(true, Ordering::SeqCst);
        let writer = writer.join().expect("writer thread panicked");
        (reader, writer, max_rps)
    });
    let reconnects = reader.conn.reconnects() + writer.conn.reconnects();
    let (reads, writes) = (&reader.samples, &writer.samples);

    let after = Conn::new(addr)
        .request("GET", &timing_path(0), "")
        .map_err(|e| format!("c3540 timing after the run: {e}"))?;
    let after_state = timing_state(&after.body).ok_or("c3540 timing has no edit counter")?;
    let (peak_kb, qc1, qs1) = daemon_snapshot(addr)?;
    daemon.stop()?;

    // Checks: every reply a 200 that parses; c3540 back where it began.
    let all = reads.iter().chain(writes);
    let attempted = reads.len() + writes.len();
    let failed = all.clone().filter(|s| !s.ok).count();
    let refused = all.filter(|s| s.refused).count();
    out.attempted = attempted as u64 + 1;
    out.failed = failed as u64;
    out.check(failed == 0, || {
        format!("{failed} of {attempted} replies were not a 200 that parses")
    });
    let same = before.status == 200 && after.status == 200 && before_state == after_state;
    if !same {
        out.failed += 1;
    }
    out.check(same, || {
        "c3540 timing after the run differs from before".to_string()
    });

    // Failed and refused requests miss every limit.
    let latency = |s: &Sample| if s.ok { s.latency_ms() } else { f64::INFINITY };
    let read_ms: Vec<f64> = reads.iter().filter(|s| s.step == 0).map(latency).collect();
    let within = read_ms.iter().filter(|&&l| l <= READ_LIMIT_MS).count() as f64;
    // The same reads from send to reply: the read path's own latency,
    // without the wait behind earlier requests on the connection.
    let read_service_ms: Vec<f64> = reads
        .iter()
        .filter(|s| s.step == 0)
        .map(|s| if s.ok { s.service_ms() } else { f64::INFINITY })
        .collect();
    // Writes due in the nominal phase, before the ladder loads the daemon.
    let nominal_end = epoch + Duration::from_secs_f64(nominal_s);
    let write_ms: Vec<f64> = writes
        .iter()
        .filter(|s| s.due < nominal_end)
        .map(latency)
        .collect();
    let read_p99 = stats::quantile(&read_ms, 0.99);
    let peak_rss_mb = peak_kb / 1024.0;
    out.set_e2e(&setup_s, peak_rss_mb, &read_ms, &write_ms);
    out.named = vec![
        Named::median("setup_s", "s", &setup_s),
        Named::value("peak_rss_mb", "MB", peak_rss_mb, 1),
        Named::value(
            "fail_pct",
            "%",
            100.0 - out.ok_pct(),
            out.attempted as usize,
        ),
        Named::median("read_p50_ms", "ms", &read_ms),
        Named::median("read_service_p50_ms", "ms", &read_service_ms),
        Named::value(
            "read_p90_ms",
            "ms",
            stats::quantile(&read_ms, 0.9),
            read_ms.len(),
        ),
        Named::value("read_p99_ms", "ms", read_p99, read_ms.len()),
        Named::value(
            "read_within_limit_pct",
            "%",
            stats::pct(within, read_ms.len() as f64),
            read_ms.len(),
        ),
        Named::median("write_p50_ms", "ms", &write_ms),
        Named::value(
            "max_read_rps",
            "1/s",
            max_rps,
            reads.iter().filter(|s| s.step > 0).count(),
        ),
    ];
    let workers = ServerOptions::default().workers;
    out.context
        .push(("svtd_workers", format!("{workers} (default)")));
    out.context
        .push(("svtd_SVT_THREADS", "unset (default)".to_string()));
    out.context.push(("svtd_cpus", svtd_cpus));
    out.context.push(("write_rps", format!("{write_rps:.2}")));
    out.context
        .push(("write_candidates", edits.len().to_string()));
    out.context.push(("generator_threads", "2".to_string()));
    out.context.push(("connections", "2".to_string()));
    out.context
        .push(("read_limit_ms", READ_LIMIT_MS.to_string()));

    if cfg.trace {
        let nominal: Vec<&Sample> = reads.iter().filter(|s| s.step == 0).collect();
        let service = |d: usize| {
            stats::mean(
                &nominal
                    .iter()
                    .filter(|s| s.design == d)
                    .map(|s| s.service_ms())
                    .collect::<Vec<_>>(),
            )
        };
        let late: Vec<f64> = reads
            .iter()
            .chain(writes)
            .filter(|s| s.step == 0)
            .map(|s| s.late_ms)
            .collect();
        let l = &mut out.layers;
        l.insert("serve.service_ms.c3540", service(0));
        l.insert("serve.service_ms.c432", service(1));
        l.insert("serve.lock_wait_ms", service(0) - service(1));
        let qc = qc1 - qc0;
        l.insert(
            "serve.queue_wait_ms",
            if qc > 0.0 {
                (qs1 - qs0) / qc / 1e6
            } else {
                0.0
            },
        );
        l.insert("serve.reconnects", reconnects as f64);
        l.insert(
            "serve.refused_pct",
            stats::pct(refused as f64, attempted as f64),
        );
        // 0 by construction: tracing changes nothing the daemon does, and
        // the generator records a request's span after taking its reply
        // time, so no measured latency can include it.
        l.insert("obs.trace_overhead_pct", 0.0);
        l.insert("gen.late_p99_ms", stats::quantile(&late, 0.99));
        l.insert("gen.late_max_ms", late.iter().copied().fold(0.0, f64::max));
        serving_splits(&edits, &mut out.layers)?;
        let mut tr = reader.tr;
        tr.absorb(writer.tr);
        out.spans = tr.reduce();
        std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
        tr.write_json(&cfg.out.join(format!("spans-svtd_mixed-{}.json", cfg.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}
