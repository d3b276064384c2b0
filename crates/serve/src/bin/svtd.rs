//! `svtd` — the svt pipeline daemon.
//!
//! Server mode (default): registers every `--design`, warms the first
//! one eagerly (the rest warm lazily, or via `POST /designs/{name}/warm`),
//! arms the pool watchdog, switches allocation attribution on, and
//! serves the multi-tenant service plane until `SIGTERM` / `SIGINT` /
//! `POST /shutdown`, each of which drains gracefully — in-flight
//! requests finish, new work is refused with `503`:
//!
//! ```text
//! svtd [--addr HOST:PORT] [--design builtin|c432|...]...
//!      [--workers N] [--queue-depth N]
//!      [--keep-alive-requests N] [--idle-timeout-ms N] [--watchdog-ms N]
//!      [--access-log PATH] [--access-log-rotate N] [--slow-ms N]
//!      [--post-mortem PATH] [--snapshot PATH]
//!      [--sample-ms N] [--slo route=PATH,p99_ms=N,err_pct=N,window=N]...
//! ```
//!
//! `--snapshot PATH` enables millisecond warm starts: the daemon tries
//! to restore the expanded-library stack from `PATH` (validated by
//! magic, version, checksum, and build fingerprint — any failure is a
//! logged cold rebuild, counted on `snap_restore_fallback_total`), and
//! after a cold warm-up writes `PATH` so the *next* boot restores. The
//! wire format is specified in `docs/SNAPSHOT_FORMAT.md`;
//! `POST /snapshot/save` re-captures on demand.
//!
//! `--access-log` writes one structured JSONL line per request
//! (rotating at 10 MiB, keeping `--access-log-rotate` generations);
//! `--slow-ms` arms the flight recorder — requests at or above the
//! threshold are captured as capsules served at `GET /debug/requests`
//! (`--slow-ms 0` captures everything); `--post-mortem` configures
//! where a watchdog stall, a handler panic, an SLO breach, or the
//! final drain dumps every capsule plus a metrics snapshot.
//!
//! The daemon always runs the long-horizon observability plane: a
//! sampler thread scrapes the metric registry every `--sample-ms`
//! (default 1000) into the embedded tiered time-series store behind
//! `GET /query` and `GET /dashboard`, and
//! `GET /debug/profile?format=collapsed|json|svg` renders the span
//! registry — each path's time and the bytes its thread allocated — as
//! a flame graph. `--slo` declares burn-rate objectives evaluated from
//! those rings each tick; a breach degrades `/healthz` to 503 and
//! triggers the post-mortem dump.
//!
//! Smoke mode: a pure-Rust client that runs the CI smoke sequence
//! against an already-running fresh daemon and exits non-zero on the
//! first failed check. `--smoke-deep` adds the backpressure (requires a
//! daemon booted with `--workers 1 --queue-depth 1`) and
//! graceful-shutdown checks; the daemon exits afterwards:
//!
//! `--smoke-recorder` adds the flight-recorder walk (requires a daemon
//! booted with `--slow-ms 0` so every smoke request leaves a capsule):
//!
//! `--smoke-obs` adds the long-horizon observability walk (dashboard,
//! profile formats, `/query` tier population and rate); `--smoke-slo` runs the
//! deliberate SLO-breach scenario *instead of* the regular walk
//! (requires a daemon booted with an unmeetable `--slo`):
//!
//! ```text
//! svtd --smoke HOST:PORT [--design NAME]... [--smoke-deep] [--smoke-recorder]
//!      [--smoke-obs] [--smoke-slo]
//! ```

use std::process::ExitCode;
use std::time::{Duration, Instant};

use svt_obs::alloc::CountingAlloc;
use svt_serve::server::{DesignSpec, Server, ServerOptions, ServiceState};
use svt_serve::smoke::{run_smoke_full, run_smoke_slo, SmokeOptions};

// Count every allocation in the daemon, per thread, so each span
// records the bytes allocated while it was open; the hook is inert
// until `alloc::set_active(true)` below.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

const DEFAULT_ADDR: &str = "127.0.0.1:9290";
const DEFAULT_WATCHDOG_MS: u64 = 30_000;

const DEFAULT_SAMPLE_MS: u64 = 1_000;

const USAGE: &str =
    "usage: svtd [--addr HOST:PORT] [--design builtin|c432|c880|c1355|c1908|c3540]... \
[--workers N] [--queue-depth N] [--keep-alive-requests N] [--idle-timeout-ms N] [--watchdog-ms N] \
[--access-log PATH] [--access-log-rotate N] [--slow-ms N] [--post-mortem PATH] [--snapshot PATH] \
[--sample-ms N] [--slo route=PATH,p99_ms=N,err_pct=N,window=N]... \
[--smoke HOST:PORT [--smoke-deep] [--smoke-recorder] [--smoke-obs] [--smoke-slo]]";

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Routes `SIGTERM`/`SIGINT` into a flag the main loop polls, so a
    /// `kill` drains the plane instead of dropping in-flight requests.
    /// `std` links libc, so the raw `signal(2)` binding needs no new
    /// dependency.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

struct Args {
    addr: String,
    designs: Vec<DesignSpec>,
    options: ServerOptions,
    watchdog_ms: u64,
    sample_ms: u64,
    post_mortem: Option<String>,
    snapshot: Option<String>,
    smoke: Option<String>,
    smoke_deep: bool,
    smoke_recorder: bool,
    smoke_obs: bool,
    smoke_slo: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: DEFAULT_ADDR.to_string(),
        designs: Vec::new(),
        options: ServerOptions::default(),
        watchdog_ms: DEFAULT_WATCHDOG_MS,
        sample_ms: DEFAULT_SAMPLE_MS,
        post_mortem: None,
        snapshot: None,
        smoke: None,
        smoke_deep: false,
        smoke_recorder: false,
        smoke_obs: false,
        smoke_slo: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        let number = |name: &str, raw: &str| {
            raw.parse::<u64>()
                .map_err(|_| format!("{name}: `{raw}` is not a number"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--design" => args.designs.push(DesignSpec::parse(&value("--design")?)?),
            "--workers" => {
                args.options.workers = number("--workers", &value("--workers")?)?.max(1) as usize;
            }
            "--queue-depth" => {
                args.options.queue_capacity =
                    number("--queue-depth", &value("--queue-depth")?)?.max(1) as usize;
            }
            "--keep-alive-requests" => {
                args.options.keep_alive_max_requests =
                    number("--keep-alive-requests", &value("--keep-alive-requests")?)?.max(1)
                        as usize;
            }
            "--idle-timeout-ms" => {
                args.options.idle_timeout = Duration::from_millis(
                    number("--idle-timeout-ms", &value("--idle-timeout-ms")?)?.max(1),
                );
            }
            "--watchdog-ms" => {
                args.watchdog_ms = number("--watchdog-ms", &value("--watchdog-ms")?)?;
            }
            "--access-log" => {
                args.options.access_log_path = Some(value("--access-log")?);
            }
            "--access-log-rotate" => {
                args.options.access_log_rotate =
                    number("--access-log-rotate", &value("--access-log-rotate")?)?.max(1) as usize;
            }
            "--slow-ms" => {
                args.options.slow_ms = Some(number("--slow-ms", &value("--slow-ms")?)?);
            }
            "--sample-ms" => {
                args.sample_ms = number("--sample-ms", &value("--sample-ms")?)?.max(10);
            }
            "--slo" => {
                args.options
                    .slo_specs
                    .push(svt_serve::slo::SloSpec::parse(&value("--slo")?)?);
            }
            "--post-mortem" => args.post_mortem = Some(value("--post-mortem")?),
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--smoke" => args.smoke = Some(value("--smoke")?),
            "--smoke-deep" => args.smoke_deep = true,
            "--smoke-recorder" => args.smoke_recorder = true,
            "--smoke-obs" => args.smoke_obs = true,
            "--smoke-slo" => args.smoke_slo = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.designs.is_empty() {
        args.designs.push(DesignSpec::Builtin);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(target) = &args.smoke {
        // The SLO breach scenario is its own sequence: it drives the
        // daemon into degradation, which would fail every healthz check
        // in the regular walk.
        if args.smoke_slo {
            return match run_smoke_slo(target) {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("smoke FAILED: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        let opts = SmokeOptions {
            designs: args.designs.clone(),
            backpressure: args.smoke_deep,
            shutdown: args.smoke_deep,
            recorder: args.smoke_recorder,
            observability: args.smoke_obs,
        };
        return match run_smoke_full(target, &opts) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // A daemon wants span recording and the live timeline on by default
    // so /timeline.json and /debug/profile have content; an explicit
    // SVT_TRACE still wins.
    if std::env::var_os("SVT_TRACE").is_none() {
        svt_obs::set_mode(svt_obs::TraceMode::Chrome);
    }
    svt_obs::alloc::set_active(true);
    if args.watchdog_ms > 0 {
        svt_exec::watchdog::arm(Duration::from_millis(args.watchdog_ms));
    }
    // Arm the black box before serving: stalls, handler panics, and the
    // final drain all dump here once a path is configured.
    if let Some(path) = &args.post_mortem {
        svt_obs::recorder::set_post_mortem_path(path);
    }
    sig::install();
    // The snapshot path must be configured before anything warms the
    // process-wide stack.
    svt_serve::server::configure_snapshot(args.snapshot.clone());

    let state = match ServiceState::new(&args.designs, args.options.clone()) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("svtd: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Pay the default design's sign-off before announcing readiness;
    // the other designs stay cold until asked for.
    let warm_start = Instant::now();
    eprintln!("svtd: warming design `{}` ...", args.designs[0].name());
    if let Err(e) = state.warm(args.designs[0].name()) {
        eprintln!("svtd: warm-up failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "svtd: warm in {:.2}s ({} designs registered, {} workers, queue {})",
        warm_start.elapsed().as_secs_f64(),
        args.designs.len(),
        args.options.workers,
        args.options.queue_capacity
    );
    let snapshot = svt_serve::server::snapshot_status();
    match snapshot.mode {
        "restored" => eprintln!(
            "svtd: stack restored from snapshot in {:.1}ms ({} bytes)",
            snapshot.restore_ms, snapshot.size_bytes
        ),
        // A configured path with a cold boot (first run, stale
        // fingerprint, corruption): save now so the next boot is warm.
        "cold" => match svt_serve::server::save_snapshot() {
            Ok((path, size)) => eprintln!("svtd: snapshot saved to {path} ({size} bytes)"),
            Err(e) => eprintln!("svtd: snapshot save failed: {e}"),
        },
        _ => {}
    }

    let server = match Server::spawn(&args.addr, state) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("svtd: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Long-horizon observability: one sampler thread scrapes the
    // registry into the tiered time-series store every tick, refreshing
    // the pull-style gauges first and evaluating the SLO burn rates
    // from the rings it just wrote.
    let sampler_state = server.state().clone();
    let sampler = svt_obs::tsdb::Sampler::spawn(
        svt_obs::tsdb::global(),
        Duration::from_millis(args.sample_ms),
        vec![
            Box::new(svt_obs::alloc::publish_gauges),
            Box::new(|| {
                let _ = svt_obs::rss::publish_gauges();
            }),
            Box::new(svt_exec::watchdog::publish_status_gauges),
            Box::new(move || {
                sampler_state
                    .slo()
                    .tick(svt_obs::tsdb::global(), svt_obs::tsdb::unix_ms());
            }),
        ],
    );
    if !server.state().slo().is_empty() {
        for spec in server.state().slo().specs() {
            eprintln!(
                "svtd: SLO armed: route {} p99<={}ms budget {}% window {}s",
                spec.route, spec.p99_ms, spec.err_pct, spec.window_s
            );
        }
    }

    // The one line scripts wait for before curling the endpoints.
    println!("svtd: listening on http://{}", server.addr());

    // Serve until a drain is requested over HTTP or by signal, then
    // shut down gracefully: every accepted request is answered first.
    while !server.state().draining() && !sig::received() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("svtd: draining ...");
    sampler.stop();
    server.shutdown();
    if let Some(path) = svt_obs::recorder::post_mortem("drain") {
        eprintln!("svtd: post-mortem written to {path}");
    }
    eprintln!("svtd: drained, exiting");
    ExitCode::SUCCESS
}
