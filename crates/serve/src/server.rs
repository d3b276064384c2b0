//! The warm pipeline state, the request router, and the concurrent
//! connection plane.
//!
//! Startup pays the library expansion once (process-wide, `Box::leak`ed
//! behind a `OnceLock`); every design registered with the daemon then
//! warms lazily — map, place, sign off into an
//! [`EcoSession`] — on first use or an explicit
//! `POST /designs/{name}/warm`. Requests are served by a fixed pool of
//! persistent handler threads ([`svt_exec::service::ServicePool`])
//! behind a bounded accept queue: when the queue is full the accept
//! loop answers `429 Too Many Requests` + `Retry-After` immediately
//! instead of buffering unboundedly, and a drain
//! (`POST /shutdown` / SIGTERM) finishes every accepted request while
//! refusing new ones with `503`.
//!
//! Connections are HTTP/1.1 keep-alive: one handler thread owns a
//! connection for its lifetime, serving up to
//! [`ServerOptions::keep_alive_max_requests`] requests (pipelining
//! included) with an idle timeout between them.
//!
//! [`route`] resolves every request once against one route table, which
//! yields its handler, its route class and design labels, and its
//! in-flight gauge. The request gets a fresh trace id, is measured into
//! labeled metric families (`serve.requests{route,design,status}`,
//! `serve.latency_ns{route,design}`, `serve.response_bytes{route,design}`),
//! optionally logged as one JSONL line ([`crate::access_log`]), and —
//! when it exceeds [`ServerOptions::slow_ms`] — captured into the
//! [`svt_obs::recorder`] flight-recorder ring served at
//! `GET /debug/requests`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::path::Path;

use svt_core::snapshot::{restore_or_fallback, stack_fingerprint, PipelineSnapshot};
use svt_core::{SignoffFlow, SignoffOptions};
use svt_eco::{DeltaReport, EcoEdit, EcoError, EcoSession};
use svt_exec::service::ServicePool;
use svt_litho::Process;
use svt_netlist::{bench, technology_map};
use svt_obs::json::{escape_json, JsonValue};
use svt_place::{place, PlacementOptions};
use svt_stdcell::{expand_library, ExpandOptions, ExpandedLibrary, Library};

use crate::access_log::{AccessEntry, AccessLog};
use crate::http::{write_response, Request, RequestParser, Response};
use crate::registry::{RegistryError, SessionRegistry, SlotStatus};

/// The built-in warm-up design: small enough to sign off in well under a
/// second, rich enough to have multi-corner endpoint deltas. The smoke
/// client rebuilds its mirror session from this same source, so the text
/// here is part of the differential contract.
pub const BUILTIN_NETLIST: &str = "# svtd warm design\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\nc = NAND(a, b)\nd = NOT(c)\nz = NOT(d)\ny = NAND(c, d)\n";

/// Name reported for the built-in design.
pub const BUILTIN_NAME: &str = "builtin";

/// Which design the daemon keeps warm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignSpec {
    /// The tiny [`BUILTIN_NETLIST`].
    Builtin,
    /// One of the paper's ISCAS85 testcases (`c432` …).
    Iscas(String),
}

impl DesignSpec {
    /// Parses a `--design` argument: `builtin` or a paper testcase name.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted names on anything else.
    pub fn parse(name: &str) -> Result<DesignSpec, String> {
        if name == BUILTIN_NAME {
            return Ok(DesignSpec::Builtin);
        }
        if svt_bench::PAPER_TESTCASES.contains(&name) {
            return Ok(DesignSpec::Iscas(name.to_string()));
        }
        Err(format!(
            "unknown design `{name}`; expected `{BUILTIN_NAME}` or one of {:?}",
            svt_bench::PAPER_TESTCASES
        ))
    }

    /// The design name used in routes and reports.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            DesignSpec::Builtin => BUILTIN_NAME,
            DesignSpec::Iscas(n) => n,
        }
    }
}

/// The leaked library/expanded/flow stack shared by every session in
/// this process (daemon sessions, test mirrors, smoke mirrors).
struct WarmStack {
    library: &'static Library,
    expanded: &'static ExpandedLibrary,
    flow: &'static SignoffFlow<'static>,
    /// [`stack_fingerprint`] of this process's engines/options — the
    /// gate every snapshot load and save goes through.
    fingerprint: u64,
}

/// How this process's warm stack came to be, surfaced on `/healthz` and
/// as the `svt_snapshot_info` metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotStatus {
    /// `"disabled"` (no `--snapshot`), `"restored"` (warm boot from the
    /// file), or `"cold"` (configured but rebuilt — first boot, stale
    /// fingerprint, or corruption; the fallback reason is on the
    /// `snap.restore_fallback{reason}` counter family).
    pub mode: &'static str,
    /// Configured snapshot path, when any.
    pub path: Option<String>,
    /// Milliseconds spent restoring (parse + preload), `0.0` unless
    /// `mode == "restored"`.
    pub restore_ms: f64,
    /// Size of the snapshot file consumed or produced, when known.
    pub size_bytes: u64,
    /// The stack fingerprint of this process (0 until the stack warms).
    pub fingerprint: u64,
}

fn snapshot_path_slot() -> &'static OnceLock<Option<String>> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    &PATH
}

fn snapshot_status_slot() -> &'static Mutex<SnapshotStatus> {
    static STATUS: OnceLock<Mutex<SnapshotStatus>> = OnceLock::new();
    STATUS.get_or_init(|| {
        Mutex::new(SnapshotStatus {
            mode: "disabled",
            path: None,
            restore_ms: 0.0,
            size_bytes: 0,
            fingerprint: 0,
        })
    })
}

/// Configures the warm-start snapshot path (`svtd --snapshot PATH`).
/// Must be called before the first session warms; once the stack is
/// built the path is frozen. Returns whether this call set the path.
pub fn configure_snapshot(path: Option<String>) -> bool {
    snapshot_path_slot().set(path).is_ok()
}

/// The current snapshot status (mode, path, restore time, size).
#[must_use]
pub fn snapshot_status() -> SnapshotStatus {
    snapshot_status_slot()
        .lock()
        .expect("snapshot status poisoned")
        .clone()
}

fn warm_stack() -> &'static WarmStack {
    static STACK: OnceLock<WarmStack> = OnceLock::new();
    STACK.get_or_init(|| {
        let _span = svt_obs::span("serve.warmup.library");
        let library: &'static Library = Box::leak(Box::new(Library::svt90()));
        let sim = Process::nm90().simulator();
        let options = ExpandOptions::fast();
        let fingerprint = stack_fingerprint(&sim, library, &options);
        let path = snapshot_path_slot().get_or_init(|| None).clone();

        let mut status = SnapshotStatus {
            mode: "disabled",
            path: path.clone(),
            restore_ms: 0.0,
            size_bytes: 0,
            fingerprint,
        };
        let mut restored: Option<PipelineSnapshot> = None;
        if let Some(p) = &path {
            status.mode = "cold";
            let t0 = Instant::now();
            if let Some(snap) = restore_or_fallback(Path::new(p), fingerprint) {
                snap.preload_expand_caches();
                status.mode = "restored";
                status.restore_ms = t0.elapsed().as_secs_f64() * 1e3;
                status.size_bytes = std::fs::metadata(p).map_or(0, |m| m.len());
                restored = Some(snap);
            }
        }

        let expanded = match &restored {
            Some(snap) => snap.expanded.clone(),
            None => expand_library(library, &sim, &options)
                .expect("expanding the svt90 library with the calibrated simulator succeeds"),
        };
        let expanded = Box::leak(Box::new(expanded));
        let flow = Box::leak(Box::new(SignoffFlow::new(
            library,
            expanded,
            SignoffOptions::default(),
        )));
        if let Some(snap) = &restored {
            let t0 = Instant::now();
            snap.preload_flow(flow);
            status.restore_ms += t0.elapsed().as_secs_f64() * 1e3;
        }
        *snapshot_status_slot()
            .lock()
            .expect("snapshot status poisoned") = status;
        WarmStack {
            library,
            expanded,
            flow,
            fingerprint,
        }
    })
}

/// Captures the current warm stack (expanded library plus both memo
/// cache layers) into the configured snapshot file. Called by `svtd`
/// after a cold warm-up and by `POST /snapshot/save`.
///
/// # Errors
///
/// Returns a message when no `--snapshot` path is configured or the
/// write fails; the daemon keeps serving either way.
pub fn save_snapshot() -> Result<(String, u64), String> {
    let Some(path) = snapshot_path_slot().get_or_init(|| None).clone() else {
        return Err("no snapshot path configured (start svtd with --snapshot PATH)".to_string());
    };
    let _span = svt_obs::span("serve.snapshot.save");
    let stack = warm_stack();
    let snap = PipelineSnapshot::capture(stack.expanded, None, Some(stack.flow));
    let size = snap
        .write_file(Path::new(&path), stack.fingerprint)
        .map_err(|e| format!("writing snapshot `{path}`: {e}"))?;
    snapshot_status_slot()
        .lock()
        .expect("snapshot status poisoned")
        .size_bytes = size;
    svt_obs::counter!("snap.saves").incr();
    Ok((path, size))
}

/// Builds a fully signed-off session for the given design.
///
/// The expensive library expansion is shared process-wide; only the
/// per-design mapping, placement, and sign-off run per call, so a test
/// or smoke mirror is much cheaper than the first warm-up.
///
/// # Errors
///
/// Returns a message when parsing, mapping, placement, or the initial
/// sign-off fails.
///
/// # Panics
///
/// Panics if the one-time svt90 library expansion itself fails — that is
/// a broken build, not a recoverable request error.
pub fn warm_session(spec: &DesignSpec) -> Result<EcoSession<'static>, String> {
    let _span = svt_obs::span("serve.warmup.session");
    let stack = warm_stack();
    let (mapped, placement) = match spec {
        DesignSpec::Builtin => {
            let netlist =
                bench::parse(BUILTIN_NETLIST).map_err(|e| format!("builtin netlist: {e}"))?;
            let mapped = technology_map(&netlist, stack.library)
                .map_err(|e| format!("mapping builtin design: {e}"))?;
            let placement = place(&mapped, stack.library, &PlacementOptions::default())
                .map_err(|e| format!("placing builtin design: {e}"))?;
            (mapped, placement)
        }
        DesignSpec::Iscas(name) => {
            let design = svt_bench::build_design(stack.library, name);
            (design.mapped, design.placement)
        }
    };
    EcoSession::new(stack.flow, &mapped, &placement)
        .map_err(|e| format!("initial sign-off of `{}`: {e}", spec.name()))
}

/// Tunables of the connection plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerOptions {
    /// Persistent handler threads.
    pub workers: usize,
    /// Bounded accept-queue capacity; a full queue answers `429`.
    pub queue_capacity: usize,
    /// Requests served on one keep-alive connection before it is closed.
    pub keep_alive_max_requests: usize,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// Fault injection for the stress tests: an artificial delay before
    /// each request is handled. `None` in production.
    pub fault_delay: Option<Duration>,
    /// Structured JSONL access log path (`--access-log`); `None`
    /// disables request logging.
    pub access_log_path: Option<String>,
    /// Flight-recorder threshold (`--slow-ms`): requests at or above
    /// this latency are captured as [`svt_obs::recorder`] capsules.
    /// `Some(0)` captures every request; `None` disables the recorder.
    pub slow_ms: Option<u64>,
    /// Rotated access-log generations kept on disk
    /// (`--access-log-rotate`).
    pub access_log_rotate: usize,
    /// Declarative objectives (`--slo`, repeatable) evaluated by the
    /// [`crate::slo::SloEngine`] against the embedded TSDB.
    pub slo_specs: Vec<crate::slo::SloSpec>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            workers: 4,
            queue_capacity: 64,
            keep_alive_max_requests: 100,
            idle_timeout: Duration::from_secs(5),
            fault_delay: None,
            access_log_path: None,
            slow_ms: None,
            access_log_rotate: crate::access_log::DEFAULT_GENERATIONS,
            slo_specs: Vec::new(),
        }
    }
}

/// Shared state behind the router: the design registry, the drain
/// flag, the access log, and the SLO engine.
pub struct ServiceState {
    registry: SessionRegistry,
    default_design: String,
    started: Instant,
    draining: AtomicBool,
    options: ServerOptions,
    access_log: Option<AccessLog>,
    slo: crate::slo::SloEngine,
}

impl ServiceState {
    /// Registers `specs` (all cold — warm-up is lazy, or explicit via
    /// [`ServiceState::warm`] / `POST /designs/{name}/warm`). The first
    /// spec becomes the default design that bare `POST /eco` targets.
    ///
    /// # Errors
    ///
    /// Returns a message when `specs` is empty or the configured access
    /// log cannot be opened.
    pub fn new(specs: &[DesignSpec], options: ServerOptions) -> Result<ServiceState, String> {
        let first = specs.first().ok_or("at least one design is required")?;
        let registry = SessionRegistry::new();
        for spec in specs {
            registry.register(spec);
        }
        let access_log = match &options.access_log_path {
            Some(path) => Some(AccessLog::open_with_generations(
                path,
                crate::access_log::DEFAULT_MAX_BYTES,
                options.access_log_rotate,
            )?),
            None => None,
        };
        let slo = crate::slo::SloEngine::new(options.slo_specs.clone());
        Ok(ServiceState {
            registry,
            default_design: first.name().to_string(),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            options,
            access_log,
            slo,
        })
    }

    /// Warms one design eagerly, returning its warm-up seconds when this
    /// call paid them.
    ///
    /// # Errors
    ///
    /// Propagates registry lookup / warm-up failures.
    pub fn warm(&self, name: &str) -> Result<Option<f64>, RegistryError> {
        self.registry.entry(name)?.warm()
    }

    /// The design registry.
    #[must_use]
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Name of the default (first registered) design.
    #[must_use]
    pub fn default_design(&self) -> &str {
        &self.default_design
    }

    /// The connection-plane tunables.
    #[must_use]
    pub fn options(&self) -> &ServerOptions {
        &self.options
    }

    /// The SLO evaluator. The request path feeds it; the sampler
    /// thread calls [`crate::slo::SloEngine::tick`] through this.
    #[must_use]
    pub fn slo(&self) -> &crate::slo::SloEngine {
        &self.slo
    }

    /// Whether a graceful shutdown is in progress.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: new work is refused with `503`, current
    /// work completes. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

/// Formats an `f64` so it survives a JSON round-trip bit-exactly: `{:?}`
/// is Rust's shortest-round-trip form and the shared
/// [`svt_obs::json`] parser reads exponent notation. Non-finite values
/// (never produced by the flow) degrade to `null`.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Renders a [`DeltaReport`] as the single-edit `POST /eco` response
/// body. Floats are serialized in shortest-round-trip form, so they
/// parse back bit-exactly; the differential smoke check relies on that.
#[must_use]
pub fn render_delta_report(report: &DeltaReport) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"edit\":\"");
    out.push_str(&escape_json(&report.edit));
    out.push_str("\",\"rows_extracted\":[");
    for (i, row) in report.rows_extracted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&row.to_string());
    }
    out.push_str("],\"recharacterized\":");
    out.push_str(&report.recharacterized.len().to_string());
    out.push_str(",\"pitch_rows_invalidated\":");
    out.push_str(&report.pitch_rows_invalidated.to_string());
    out.push_str(",\"forward_instances\":");
    out.push_str(&report.forward_instances.to_string());
    out.push_str(",\"backward_nets\":");
    out.push_str(&report.backward_nets.to_string());
    out.push_str(",\"spread_gap_delta_ns\":");
    out.push_str(&fmt_f64(report.spread_gap_delta_ns()));
    out.push_str(",\"uncertainty_reduction_delta_pct\":");
    out.push_str(&fmt_f64(report.uncertainty_reduction_delta_pct()));
    out.push_str(",\"timing_noop\":");
    out.push_str(if report.is_timing_noop() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"endpoint_deltas\":[");
    for (i, d) in report.endpoint_deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"endpoint\":\"");
        out.push_str(&escape_json(&d.endpoint));
        out.push_str("\",\"corner\":\"");
        out.push_str(&escape_json(&d.corner));
        out.push_str("\",\"arrival_before_ns\":");
        out.push_str(&fmt_f64(d.arrival_before_ns));
        out.push_str(",\"arrival_after_ns\":");
        out.push_str(&fmt_f64(d.arrival_after_ns));
        out.push_str(",\"slack_delta_ns\":");
        out.push_str(&fmt_f64(d.slack_delta_ns()));
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders a batched `POST /eco` response: the per-edit reports plus
/// the batch-level endpoint deltas (first-seen `before` to last-seen
/// `after` per endpoint/corner, in first-appearance order). Bit-exact
/// float serialization, same as [`render_delta_report`] — the
/// concurrency differential test replays batches through a local
/// session and compares these bodies byte-for-byte.
#[must_use]
pub fn render_batch_report(reports: &[DeltaReport]) -> String {
    let mut merged: Vec<(String, String, f64, f64)> = Vec::new();
    for report in reports {
        for d in &report.endpoint_deltas {
            if let Some(slot) = merged
                .iter_mut()
                .find(|(e, c, _, _)| *e == d.endpoint && *c == d.corner)
            {
                slot.3 = d.arrival_after_ns;
            } else {
                merged.push((
                    d.endpoint.clone(),
                    d.corner.clone(),
                    d.arrival_before_ns,
                    d.arrival_after_ns,
                ));
            }
        }
    }
    let mut out = String::with_capacity(1024);
    out.push_str("{\"edits\":");
    out.push_str(&reports.len().to_string());
    out.push_str(",\"reports\":[");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_delta_report(report));
    }
    out.push_str("],\"endpoint_deltas\":[");
    for (i, (endpoint, corner, before, after)) in merged.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"endpoint\":\"");
        out.push_str(&escape_json(endpoint));
        out.push_str("\",\"corner\":\"");
        out.push_str(&escape_json(corner));
        out.push_str("\",\"arrival_before_ns\":");
        out.push_str(&fmt_f64(*before));
        out.push_str(",\"arrival_after_ns\":");
        out.push_str(&fmt_f64(*after));
        out.push_str(",\"slack_delta_ns\":");
        out.push_str(&fmt_f64(before - after));
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn edit_from_json(v: &JsonValue) -> Result<EcoEdit, String> {
    let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field `{name}`"));
    let string_field = |name: &str| {
        field(name).and_then(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field `{name}` must be a string"))
        })
    };
    let number_field = |name: &str| {
        field(name).and_then(|f| {
            f.as_f64()
                .ok_or_else(|| format!("field `{name}` must be a number"))
        })
    };
    let kind = string_field("type")?;
    match kind.as_str() {
        "swap_cell" => Ok(EcoEdit::SwapCell {
            instance: string_field("instance")?,
            new_cell: string_field("new_cell")?,
        }),
        "resize_cell" => Ok(EcoEdit::ResizeCell {
            instance: string_field("instance")?,
            new_cell: string_field("new_cell")?,
        }),
        "adjust_spacing" => Ok(EcoEdit::AdjustSpacing {
            instance: string_field("instance")?,
            dx_nm: number_field("dx_nm")?,
        }),
        "move_instance" => Ok(EcoEdit::MoveInstance {
            instance: string_field("instance")?,
            row: field("row")?
                .as_u64()
                .ok_or("field `row` must be a non-negative integer")?
                as usize,
            x_nm: number_field("x_nm")?,
        }),
        other => Err(format!(
            "unknown edit type `{other}`; expected swap_cell, resize_cell, adjust_spacing, or move_instance"
        )),
    }
}

/// Parses a single-edit `POST /eco` body into a typed edit.
///
/// The shape is one flat object selected by `type`:
///
/// ```json
/// {"type": "resize_cell",    "instance": "g3", "new_cell": "INVX2"}
/// {"type": "swap_cell",      "instance": "g3", "new_cell": "INVX2"}
/// {"type": "adjust_spacing", "instance": "g3", "dx_nm": -120.0}
/// {"type": "move_instance",  "instance": "g3", "row": 1, "x_nm": 940.0}
/// ```
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn parse_edit(body: &str) -> Result<EcoEdit, String> {
    let v = JsonValue::parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    edit_from_json(&v)
}

/// How a `POST /eco` body was shaped, so single-edit responses keep
/// their original schema while batches get the batch schema.
#[derive(Debug, Clone, PartialEq)]
pub enum EcoRequest {
    /// A single flat edit object.
    Single(EcoEdit),
    /// A JSON array of edit objects, applied atomically under one write
    /// lock hold.
    Batch(Vec<EcoEdit>),
}

/// Parses a `POST /eco` body: one flat edit object, or a JSON array of
/// them (the batched form).
///
/// # Errors
///
/// Returns a message naming the offending element/field; an empty batch
/// is rejected.
pub fn parse_eco_request(body: &str) -> Result<EcoRequest, String> {
    let v = JsonValue::parse(body).map_err(|e| format!("body is not JSON: {e}"))?;
    if let Some(items) = v.as_array() {
        if items.is_empty() {
            return Err("edit batch is empty".to_string());
        }
        let edits = items
            .iter()
            .enumerate()
            .map(|(i, item)| edit_from_json(item).map_err(|e| format!("edit[{i}]: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(EcoRequest::Batch(edits))
    } else {
        Ok(EcoRequest::Single(edit_from_json(&v)?))
    }
}

fn registry_error_response(e: &RegistryError) -> Response {
    match e {
        RegistryError::UnknownDesign(_) => Response::error(404, &e.to_string()),
        RegistryError::WarmupFailed(_) => Response::error(503, &e.to_string()),
    }
}

fn eco_error_response(e: &EcoError) -> Response {
    match e {
        EcoError::InvalidEdit { .. } | EcoError::Netlist(_) | EcoError::Place(_) => {
            Response::error(400, &e.to_string())
        }
        _ => Response::error(500, &e.to_string()),
    }
}

fn healthz(state: &ServiceState) -> Response {
    let wd = svt_exec::watchdog::status();
    let mut designs = String::new();
    let mut total_edits = 0usize;
    for (i, entry) in state.registry.entries().iter().enumerate() {
        if i > 0 {
            designs.push(',');
        }
        let edits = entry.edits_applied();
        total_edits += edits;
        designs.push_str(&format!(
            "{{\"name\":\"{}\",\"status\":\"{}\",\"edits_applied\":{edits}}}",
            escape_json(entry.name()),
            entry.status().as_str()
        ));
    }
    let slo_breached = state.slo.any_breached();
    let status = if !wd.healthy() {
        "stalled"
    } else if slo_breached {
        "degraded"
    } else if state.draining() {
        "draining"
    } else {
        "ok"
    };
    let slo_block = state
        .slo
        .statuses()
        .iter()
        .map(crate::slo::SloStatus::to_json)
        .collect::<Vec<_>>()
        .join(",");
    let occ = svt_obs::tsdb::global().occupancy();
    let tsdb_tiers = occ
        .tiers
        .iter()
        .map(|(width, cap, len)| format!("{{\"width_ms\":{width},\"cap\":{cap},\"points\":{len}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let snap = snapshot_status();
    let snap_path = snap
        .path
        .as_ref()
        .map_or_else(|| "null".to_string(), |p| format!("\"{}\"", escape_json(p)));
    let body = format!(
        "{{\"status\":\"{status}\",\"design\":\"{}\",\"designs\":[{designs}],\"uptime_seconds\":{},\"edits_applied\":{total_edits},\"queue_depth\":{},\"in_flight\":{},\"snapshot\":{{\"mode\":\"{}\",\"path\":{snap_path},\"restore_ms\":{},\"size_bytes\":{}}},\"watchdog\":{{\"armed\":{},\"deadline_ms\":{},\"stalled_now\":{},\"stall_events\":{},\"healthy\":{}}},\"slo\":[{slo_block}],\"tsdb\":{{\"series\":{},\"memory_bound_bytes\":{},\"tiers\":[{tsdb_tiers}]}}}}",
        escape_json(&state.default_design),
        fmt_f64(state.started.elapsed().as_secs_f64()),
        svt_obs::registry().gauge("serve.pool.queue_depth").get(),
        svt_obs::registry().gauge("serve.pool.in_flight").get(),
        snap.mode,
        fmt_f64(snap.restore_ms),
        snap.size_bytes,
        wd.armed,
        wd.deadline.as_millis(),
        wd.stalled_now,
        wd.stall_events,
        wd.healthy(),
        occ.series,
        occ.memory_bound_bytes
    );
    Response {
        status: if wd.healthy() && !slo_breached {
            200
        } else {
            503
        },
        content_type: "application/json",
        body,
        retry_after: None,
    }
}

/// `GET /metrics`: the cumulative Prometheus exposition. Rates come
/// from Prometheus' `rate()` over these counters, or from the embedded
/// TSDB's `.rate` series at `GET /query`.
fn metrics(state: &ServiceState) -> Response {
    // Refresh the pull-style sources right before snapshotting so the
    // scrape reflects this instant, not the last request.
    svt_obs::alloc::publish_gauges();
    svt_obs::rss::publish_gauges();
    let mut body = svt_obs::build_info_prometheus(state.started.elapsed().as_secs_f64());
    body.push_str(&snapshot_info_prometheus());
    body.push_str(&state.slo.to_prometheus());
    body.push_str(&svt_obs::registry().snapshot().to_prometheus());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body,
        retry_after: None,
    }
}

/// The `svt_snapshot_info` exposition block: one always-1 gauge whose
/// labels carry the warm-start mode and path (the `svt_build_info`
/// idiom), plus the restore time as its own series when a restore
/// happened.
#[must_use]
pub fn snapshot_info_prometheus() -> String {
    let snap = snapshot_status();
    let path = snap
        .path
        .as_deref()
        .unwrap_or("")
        .replace('\\', "\\\\")
        .replace('"', "\\\"");
    let mut out = format!(
        "# HELP svt_snapshot_info Warm-start snapshot status of this process (value is always 1).\n\
         # TYPE svt_snapshot_info gauge\n\
         svt_snapshot_info{{mode=\"{}\",path=\"{path}\",fingerprint=\"{:016x}\"}} 1\n",
        snap.mode, snap.fingerprint
    );
    if snap.mode == "restored" {
        out.push_str(&format!(
            "# HELP svt_snapshot_restore_ms Milliseconds the warm boot spent restoring the snapshot.\n\
             # TYPE svt_snapshot_restore_ms gauge\n\
             svt_snapshot_restore_ms {}\n",
            fmt_f64(snap.restore_ms)
        ));
    }
    out
}

fn snapshot_json() -> Response {
    Response::json(svt_obs::registry().snapshot().to_json())
}

fn timeline_json() -> Response {
    Response::json(svt_obs::chrome::render_chrome_trace(
        &svt_obs::timeline::snapshot_all(),
    ))
}

fn shutdown(state: &ServiceState) -> Response {
    state.begin_drain();
    Response::json("{\"status\":\"draining\"}".to_string())
}

fn snapshot_save(state: &ServiceState) -> Response {
    if state.draining() {
        return Response::error(503, "draining");
    }
    match save_snapshot() {
        Ok((path, size)) => Response::json(format!(
            "{{\"status\":\"saved\",\"path\":\"{}\",\"size_bytes\":{size}}}",
            escape_json(&path)
        )),
        Err(e) if e.starts_with("no snapshot path") => Response::error(409, &e),
        Err(e) => Response::error(500, &e),
    }
}

fn designs_index(state: &ServiceState) -> Response {
    let mut out = String::from("{\"default\":\"");
    out.push_str(&escape_json(&state.default_design));
    out.push_str("\",\"designs\":[");
    for (i, entry) in state.registry.entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let status = entry.status();
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"status\":\"{}\",\"edits_applied\":{}",
            escape_json(entry.name()),
            status.as_str(),
            entry.edits_applied()
        ));
        if let SlotStatus::Failed(e) = &status {
            out.push_str(&format!(",\"error\":\"{}\"", escape_json(e)));
        }
        out.push('}');
    }
    out.push_str("]}");
    Response::json(out)
}

fn design_detail(state: &ServiceState, name: &str) -> Response {
    let entry = match state.registry.entry(name) {
        Ok(entry) => entry,
        Err(e) => return registry_error_response(&e),
    };
    let status = entry.status();
    let mut out = format!(
        "{{\"name\":\"{}\",\"status\":\"{}\",\"edits_applied\":{}",
        escape_json(entry.name()),
        status.as_str(),
        entry.edits_applied()
    );
    if let SlotStatus::Failed(e) = &status {
        out.push_str(&format!(",\"error\":\"{}\"", escape_json(e)));
    }
    out.push('}');
    Response::json(out)
}

fn design_warm(state: &ServiceState, name: &str) -> Response {
    let entry = match state.registry.entry(name) {
        Ok(entry) => entry,
        Err(e) => return registry_error_response(&e),
    };
    match entry.warm() {
        Ok(seconds) => Response::json(format!(
            "{{\"name\":\"{}\",\"status\":\"warm\",\"warmed_now\":{},\"warm_seconds\":{}}}",
            escape_json(name),
            seconds.is_some(),
            seconds.map_or("null".to_string(), fmt_f64)
        )),
        Err(e) => registry_error_response(&e),
    }
}

/// Renders the read-path timing summary of one design (served under the
/// design's read lock, so it never waits on other designs' writes).
#[must_use]
pub fn render_timing(session: &EcoSession<'_>) -> String {
    let c = session.comparison();
    let corners = |t: &svt_core::CornerTiming| {
        format!(
            "{{\"bc_ns\":{},\"nom_ns\":{},\"wc_ns\":{},\"spread_ns\":{}}}",
            fmt_f64(t.bc_ns),
            fmt_f64(t.nom_ns),
            fmt_f64(t.wc_ns),
            fmt_f64(t.spread_ns())
        )
    };
    format!(
        "{{\"testcase\":\"{}\",\"gates\":{},\"traditional\":{},\"aware\":{},\"uncertainty_reduction_pct\":{},\"edits_applied\":{}}}",
        escape_json(&c.testcase),
        c.gates,
        corners(&c.traditional),
        corners(&c.aware),
        fmt_f64(c.uncertainty_reduction_pct()),
        session.edits().len()
    )
}

fn design_timing(state: &ServiceState, name: &str) -> Response {
    let entry = match state.registry.entry(name) {
        Ok(entry) => entry,
        Err(e) => return registry_error_response(&e),
    };
    match entry.read(|session| render_timing(session)) {
        Ok(body) => Response::json(body),
        Err(e) => registry_error_response(&e),
    }
}

fn design_eco(state: &ServiceState, name: &str, req: &Request) -> Response {
    let request = match parse_eco_request(&req.body) {
        Ok(request) => request,
        Err(e) => return Response::error(400, &e),
    };
    let entry = match state.registry.entry(name) {
        Ok(entry) => entry,
        Err(e) => return registry_error_response(&e),
    };
    let _span = svt_obs::span("serve.eco");
    let applied = entry.write(|session| match &request {
        EcoRequest::Single(edit) => session.apply(edit).map(|report| vec![report]),
        EcoRequest::Batch(edits) => {
            // The whole batch applies under this one write-lock hold:
            // readers see pre- or post-batch state, nothing in between.
            // Edits validate before they mutate, so a rejected edit
            // leaves the session exactly at the previous edit's state;
            // the error names how many were applied.
            let mut reports = Vec::with_capacity(edits.len());
            for (i, edit) in edits.iter().enumerate() {
                match session.apply(edit) {
                    Ok(report) => reports.push(report),
                    Err(e) => {
                        return Err(EcoError::InvalidEdit {
                            reason: format!(
                                "edit[{i}] failed after {} applied: {e}",
                                reports.len()
                            ),
                        })
                    }
                }
            }
            Ok(reports)
        }
    });
    match applied {
        Ok(Ok(reports)) => match request {
            EcoRequest::Single(_) => Response::json(render_delta_report(&reports[0])),
            EcoRequest::Batch(_) => Response::json(render_batch_report(&reports)),
        },
        Ok(Err(e)) => eco_error_response(&e),
        Err(e) => registry_error_response(&e),
    }
}

/// Serves the flight-recorder surface under `/debug/requests`:
/// the capsule index, one capsule by trace id, or its per-request
/// Chrome trace (`.../{trace_id}/trace.json`).
fn debug_requests(rest: &str) -> Response {
    if rest.is_empty() {
        return Response::json(svt_obs::recorder::render_index(
            &svt_obs::recorder::capsules(),
        ));
    }
    let (id, want_trace) = match rest.strip_suffix("/trace.json") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Ok(trace_id) = id.parse::<u64>() else {
        return Response::error(404, &format!("`{id}` is not a trace id"));
    };
    let Some(capsule) = svt_obs::recorder::find(trace_id) else {
        return Response::error(
            404,
            &format!("no capsule for trace id {trace_id} (evicted, or never slow enough)"),
        );
    };
    if want_trace {
        Response::json(svt_obs::recorder::chrome_trace(&capsule))
    } else {
        Response::json(svt_obs::recorder::render_capsule(&capsule))
    }
}

/// One query-string parameter from a raw request path, or `None` when
/// absent/empty. Values are taken verbatim (no percent-decoding): every
/// value this server accepts — metric names, ranges, formats — is
/// URL-safe already.
fn query_param(req_path: &str, key: &str) -> Option<String> {
    let (_, query) = req_path.split_once('?')?;
    for pair in query.split('&') {
        if let Some((k, v)) = pair.split_once('=') {
            if k == key && !v.is_empty() {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// An optional whole-seconds query parameter: `default` when absent, a
/// `400` naming the parameter when present but not a non-negative
/// integer.
fn seconds_param(req_path: &str, key: &str, default: u64) -> Result<u64, Response> {
    match query_param(req_path, key) {
        None => Ok(default),
        Some(v) => v.parse::<u64>().map_err(|_| {
            Response::error(
                400,
                &format!("`{key}` must be a whole number of seconds, got `{v}`"),
            )
        }),
    }
}

/// `GET /query?metric=NAME[&range=SECS][&step=SECS]`: a range query
/// against the embedded TSDB. `range` defaults to 300 s; `step=0` (the
/// default) returns the answering tier's native resolution.
fn tsdb_query(req_path: &str) -> Response {
    let Some(metric) = query_param(req_path, "metric") else {
        return Response::error(400, "missing ?metric= parameter");
    };
    let range_s = match seconds_param(req_path, "range", 300) {
        Ok(v) => v,
        Err(bad) => return bad,
    };
    let step_s = match seconds_param(req_path, "step", 0) {
        Ok(v) => v,
        Err(bad) => return bad,
    };
    let store = svt_obs::tsdb::global();
    match store.query(
        &metric,
        range_s.saturating_mul(1000),
        step_s.saturating_mul(1000),
        svt_obs::tsdb::unix_ms(),
    ) {
        Some(result) => Response::json(result.to_json()),
        None => Response::error(
            404,
            &format!(
                "no series named `{metric}` (the sampler names {} series; try /dashboard)",
                store.names().len()
            ),
        ),
    }
}

/// `GET /debug/profile?format=collapsed|json|svg`: the span registry's
/// aggregates read as a profile — folded stacks (default), JSON, or a
/// self-contained flame-graph SVG. Spans record only while `SVT_TRACE`
/// is on; `svtd` defaults it to `chrome`.
fn debug_profile(req_path: &str) -> Response {
    let format = query_param(req_path, "format").unwrap_or_else(|| "collapsed".to_string());
    if !svt_obs::enabled() {
        return Response::error(
            503,
            "span recording is off (set SVT_TRACE=summary or chrome; svtd defaults to chrome)",
        );
    }
    let spans = svt_obs::registry().snapshot().spans;
    match format.as_str() {
        "collapsed" => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: svt_obs::profile::render_collapsed(&spans),
            retry_after: None,
        },
        "json" => Response::json(svt_obs::profile::to_json(&spans)),
        "svg" => Response {
            status: 200,
            content_type: "image/svg+xml",
            body: svt_obs::profile::render_flame_svg(&spans),
            retry_after: None,
        },
        other => Response::error(
            400,
            &format!("unknown format `{other}` (collapsed|json|svg)"),
        ),
    }
}

/// Picks a display value per point for the dashboard sparklines: the
/// bin average, which is exact at raw resolution and the
/// count-weighted mean after downsampling.
fn series_values(store: &svt_obs::tsdb::Tsdb, metric: &str, range_s: u64) -> Vec<(u64, f64)> {
    store
        .query(
            metric,
            range_s.saturating_mul(1000),
            0,
            svt_obs::tsdb::unix_ms(),
        )
        .map(|r| r.points.iter().map(|p| (p.ts_ms, p.bin.avg())).collect())
        .unwrap_or_default()
}

/// Successive-difference transform for cumulative series (alloc bytes),
/// yielding a per-second rate between neighbouring samples.
fn rate_of(values: &[(u64, f64)]) -> Vec<(u64, f64)> {
    values
        .windows(2)
        .map(|w| {
            #[allow(clippy::cast_precision_loss)]
            let dt = (w[1].0.saturating_sub(w[0].0) as f64 / 1e3).max(1e-6);
            (w[1].0, ((w[1].1 - w[0].1) / dt).max(0.0))
        })
        .collect()
}

/// Compact human form for sparkline value labels.
fn fmt_compact(v: f64) -> String {
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// A dependency-free inline-SVG sparkline for one series.
fn sparkline_svg(values: &[(u64, f64)]) -> String {
    const W: f64 = 560.0;
    const H: f64 = 64.0;
    const PAD: f64 = 4.0;
    if values.len() < 2 {
        return "<p class=\"empty\">collecting\u{2026}</p>".to_string();
    }
    let t0 = values[0].0;
    let t1 = values[values.len() - 1].0;
    #[allow(clippy::cast_precision_loss)]
    let t_span = (t1.saturating_sub(t0) as f64).max(1.0);
    let v_min = values.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    let v_max = values
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let v_span = (v_max - v_min).max(1e-12);
    let mut pts = String::with_capacity(values.len() * 12);
    for (t, v) in values {
        #[allow(clippy::cast_precision_loss)]
        let x = PAD + (t.saturating_sub(t0) as f64) / t_span * (W - 2.0 * PAD);
        let y = H - PAD - (v - v_min) / v_span * (H - 2.0 * PAD);
        if !pts.is_empty() {
            pts.push(' ');
        }
        pts.push_str(&format!("{x:.1},{y:.1}"));
    }
    let last = values[values.len() - 1].1;
    format!(
        "<svg width=\"{W:.0}\" height=\"{H:.0}\" viewBox=\"0 0 {W:.0} {H:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\
         <polyline points=\"{pts}\" fill=\"none\" stroke=\"#2a6f97\" stroke-width=\"1.5\"/>\
         <text x=\"{:.0}\" y=\"12\" font-size=\"11\" fill=\"#444\" text-anchor=\"end\" \
         font-family=\"monospace\">now {} \u{00b7} min {} \u{00b7} max {}</text></svg>",
        W - PAD,
        fmt_compact(last),
        fmt_compact(v_min),
        fmt_compact(v_max)
    )
}

/// `GET /dashboard`: a self-contained HTML page — no scripts, no
/// external assets — with sparklines for the headline series, the SLO
/// table, and the TSDB's ring occupancy. Everything is rendered
/// server-side from the same rings `/query` serves.
fn dashboard(state: &ServiceState) -> Response {
    const RANGE_S: u64 = 600;
    let store = svt_obs::tsdb::global();
    let mut panels = String::new();
    let mut panel = |title: &str, svg: String| {
        panels.push_str(&format!("<div class=\"panel\"><h2>{title}</h2>{svg}</div>"));
    };
    panel(
        "requests / s",
        sparkline_svg(&series_values(store, "serve.requests.rate", RANGE_S)),
    );
    let p99_ms: Vec<(u64, f64)> = series_values(store, "serve.latency_all_ns.p99", RANGE_S)
        .into_iter()
        .map(|(t, v)| (t, v / 1e6))
        .collect();
    panel("p99 latency (ms)", sparkline_svg(&p99_ms));
    panel(
        "queue depth",
        sparkline_svg(&series_values(store, "serve.pool.queue_depth", RANGE_S)),
    );
    let rss_mib: Vec<(u64, f64)> = series_values(store, "proc.rss_kb", RANGE_S)
        .into_iter()
        .map(|(t, v)| (t, v / 1024.0))
        .collect();
    panel("RSS (MiB)", sparkline_svg(&rss_mib));
    let alloc_rate: Vec<(u64, f64)> = rate_of(&series_values(store, "alloc.total.bytes", RANGE_S))
        .into_iter()
        .map(|(t, v)| (t, v / (1024.0 * 1024.0)))
        .collect();
    panel("alloc rate (MiB/s)", sparkline_svg(&alloc_rate));
    panel(
        "pool stalls / s",
        sparkline_svg(&series_values(store, "pool.stall_events.rate", RANGE_S)),
    );
    panel(
        "reaped connections / s",
        sparkline_svg(&series_values(store, "serve.conn_reaped.rate", RANGE_S)),
    );
    let mut slo_rows = String::new();
    for s in state.slo.statuses() {
        slo_rows.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}%</td><td>{}s</td>\
             <td>{:.2}</td><td>{:.2}</td><td class=\"{}\">{}</td><td>{}</td></tr>",
            html_escape(&s.spec.route),
            s.spec.p99_ms,
            s.spec.err_pct,
            s.spec.window_s,
            s.fast_burn,
            s.slow_burn,
            if s.breached { "bad" } else { "ok" },
            if s.breached { "BREACHED" } else { "ok" },
            s.breaches
        ));
    }
    let slo_table = if slo_rows.is_empty() {
        "<p class=\"empty\">no objectives configured (start svtd with --slo \
         route=...,p99_ms=...,err_pct=...,window=...)</p>"
            .to_string()
    } else {
        format!(
            "<table><tr><th>route</th><th>p99 bound (ms)</th><th>budget</th><th>window</th>\
             <th>fast burn</th><th>slow burn</th><th>state</th><th>breaches</th></tr>{slo_rows}</table>"
        )
    };
    let occ = store.occupancy();
    let mut tier_rows = String::new();
    for (width, cap, len) in &occ.tiers {
        tier_rows.push_str(&format!(
            "<tr><td>{}</td><td>{len} / {cap}</td></tr>",
            if *width == 0 {
                "raw".to_string()
            } else {
                format!("{width} ms")
            }
        ));
    }
    let body = format!(
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>svtd dashboard</title><style>\
         body{{font-family:system-ui,sans-serif;margin:24px;color:#222;max-width:1200px}}\
         h1{{font-size:20px}}h2{{font-size:13px;margin:2px 0;color:#555;font-weight:600}}\
         .panel{{display:inline-block;margin:8px 16px 8px 0;vertical-align:top}}\
         table{{border-collapse:collapse;font-size:13px}}\
         td,th{{border:1px solid #ccc;padding:3px 8px;text-align:left}}\
         .bad{{color:#b00;font-weight:700}}.ok{{color:#2a7}}\
         .empty{{color:#999;font-size:12px}}\
         a{{color:#2a6f97}}</style></head><body>\
         <h1>svtd \u{2014} long-horizon observability</h1>\
         <p>design <code>{}</code> \u{00b7} trailing {RANGE_S}s at the finest covering tier \u{00b7} \
         <a href=\"/healthz\">healthz</a> \u{00b7} <a href=\"/metrics\">metrics</a> \u{00b7} \
         <a href=\"/debug/profile?format=svg\">flame graph</a> \u{00b7} \
         <a href=\"/query?metric=serve.requests.rate&range=600\">query API</a></p>\
         {panels}\
         <h2>service-level objectives</h2>{slo_table}\
         <h2>time-series store</h2>\
         <p class=\"empty\">{} series \u{00b7} resident bound {} KiB</p>\
         <table><tr><th>tier</th><th>points</th></tr>{tier_rows}</table>\
         </body></html>",
        html_escape(&state.default_design),
        occ.series,
        occ.memory_bound_bytes / 1024,
    );
    Response {
        status: 200,
        content_type: "text/html; charset=utf-8",
        body,
        retry_after: None,
    }
}

/// Minimal HTML text escaping for server-rendered dashboard strings.
fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// One row of the route table: the route template (the `route` label of
/// metrics, access-log lines, capsules and SLOs, where concrete design
/// names collapse into `{name}`), the one method it answers, the
/// `serve.inflight.*` gauge its requests count in, and the handler, given
/// the path's design name or `/debug/requests/` remainder.
struct Route(
    &'static str,
    &'static str,
    &'static str,
    fn(&ServiceState, &Request, &str) -> Response,
);

/// Every route `svtd` serves.
#[rustfmt::skip]
const ROUTES: [Route; 16] = [
    Route("/healthz",               "GET",  "serve.inflight.healthz",   |s, _, _| healthz(s)),
    Route("/metrics",               "GET",  "serve.inflight.metrics",   |s, _, _| metrics(s)),
    Route("/snapshot.json",         "GET",  "serve.inflight.snapshot",  |_, _, _| snapshot_json()),
    Route("/timeline.json",         "GET",  "serve.inflight.timeline",  |_, _, _| timeline_json()),
    Route("/designs",               "GET",  "serve.inflight.designs",   |s, _, _| designs_index(s)),
    Route("/query",                 "GET",  "serve.inflight.query",     |_, r, _| tsdb_query(&r.path)),
    Route("/dashboard",             "GET",  "serve.inflight.dashboard", |s, _, _| dashboard(s)),
    Route("/debug/profile",         "GET",  "serve.inflight.profile",   |_, r, _| debug_profile(&r.path)),
    Route("/debug/requests",        "GET",  "serve.inflight.other",     |_, _, rest| debug_requests(rest)),
    Route("/eco",                   "POST", "serve.inflight.eco",       |s, r, n| design_eco(s, n, r)),
    Route("/snapshot/save",         "POST", "serve.inflight.other",     |s, _, _| snapshot_save(s)),
    Route("/shutdown",              "POST", "serve.inflight.other",     |s, _, _| shutdown(s)),
    Route("/designs/{name}",        "GET",  "serve.inflight.designs",   |s, _, n| design_detail(s, n)),
    Route("/designs/{name}/warm",   "POST", "serve.inflight.warm",      |s, _, n| design_warm(s, n)),
    Route("/designs/{name}/timing", "GET",  "serve.inflight.timing",    |s, _, n| design_timing(s, n)),
    Route("/designs/{name}/eco",    "POST", "serve.inflight.eco",       |s, r, n| design_eco(s, n, r)),
];

/// The class of every path that names no route: its handler answers
/// `404` with the reason [`resolve`] gives.
const OTHER: Route = Route("other", "", "serve.inflight.other", |_, _, why| {
    Response::error(404, why)
});

/// A request resolved once against [`ROUTES`]: dispatch, the metric
/// labels, the in-flight gauge, the access-log line, the capsule and the
/// SLO engine all read this one value.
struct Resolved<'r> {
    route: &'static Route,
    /// The registered design the path names (the default one for `/eco`),
    /// else `-`: unregistered names never mint labels.
    design: &'r str,
    /// The handler's argument; `None` (answered `405`) under another method.
    arg: Option<&'r str>,
}

/// Resolves `method` and the query-free `path` against [`ROUTES`].
///
/// A request the router refuses itself is labelled by its path alone: a
/// path that names a route keeps that route's class, design label and
/// gauge and is answered `405` under any other method; a path that
/// names none is class `other`, design `-`, gauge
/// `serve.inflight.other`, and is answered `404`.
fn resolve<'r>(state: &'r ServiceState, method: &str, path: &'r str) -> Resolved<'r> {
    let unknown = |why| Resolved {
        route: &OTHER,
        design: "-",
        arg: Some(why),
    };
    let (class, arg, design) = if let Some(rest) = path.strip_prefix("/designs/") {
        let (name, action) = rest.split_once('/').unwrap_or((rest, ""));
        if name.is_empty() {
            return unknown("missing design name");
        }
        let class = match action {
            "" => "/designs/{name}",
            "warm" => "/designs/{name}/warm",
            "timing" => "/designs/{name}/timing",
            "eco" => "/designs/{name}/eco",
            _ => return unknown("no such design endpoint"),
        };
        let registered = state.registry.entry(name).is_ok();
        (class, name, if registered { name } else { "-" })
    } else if path == "/eco" {
        (path, state.default_design(), state.default_design())
    } else if let Some(rest) = path.strip_prefix("/debug/requests/") {
        ("/debug/requests", rest, "-")
    } else {
        (path, "", "-")
    };
    let Some(route) = ROUTES.iter().find(|Route(template, ..)| *template == class) else {
        return unknown("no such endpoint");
    };
    let Route(_, allowed, ..) = route;
    Resolved {
        route,
        design,
        arg: (method == *allowed).then_some(arg),
    }
}

/// Routes one request. Pure with respect to the connection: all I/O
/// stays in the caller, which keeps every endpoint unit-testable without
/// sockets. The request is resolved once, and that one resolution
/// drives the dispatch and the per-request observability:
///
/// 1. a fresh trace id ([`svt_obs::recorder::next_trace_id`]) for the
///    access-log line and the capsule;
/// 2. the route's `serve.inflight.*` gauge, the `serve.request` span, and
///    the labeled metric families `serve.requests{route,design,status}`,
///    `serve.latency_ns{route,design}`, and
///    `serve.response_bytes{route,design}`;
/// 3. one JSONL access-log line when the state carries a log;
/// 4. a flight-recorder capsule (this thread's timeline slice over the
///    request window, alloc delta, queue wait) when latency reaches
///    [`ServerOptions::slow_ms`].
#[must_use]
pub fn route(state: &ServiceState, req: &Request) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    let resolved = resolve(state, &req.method, path);
    let &Route(class, _, gauge, handler) = resolved.route;
    let design = resolved.design;
    let _inflight = svt_obs::registry().gauge(gauge).inflight();
    let trace_id = svt_obs::recorder::next_trace_id();
    let started = Instant::now();
    let start_ns = svt_obs::timeline::now_ns();
    let (alloc_count_0, alloc_bytes_0) = svt_obs::alloc::totals();
    let response = {
        let _span = svt_obs::span("serve.request");
        match resolved.arg {
            Some(arg) => handler(state, req, arg),
            None => Response::error(405, "method not allowed"),
        }
    };
    let latency = started.elapsed();
    let latency_ns = latency.as_nanos() as u64;
    let end_ns = svt_obs::timeline::now_ns();
    let (alloc_count_1, alloc_bytes_1) = svt_obs::alloc::totals();
    let labels = [class, design];
    svt_obs::family_counter!("serve.requests", &["route", "design", "status"])
        .with(&[class, design, status_class(response.status)])
        .incr();
    svt_obs::family_histogram!("serve.latency_ns", &["route", "design"])
        .with(&labels)
        .record(latency_ns);
    // Plain (unlabeled) latency histogram: the sampler derives the
    // dashboard's p50/p99 series from its bucket deltas.
    svt_obs::histogram!("serve.latency_all_ns").record(latency_ns);
    state.slo.observe(class, response.status, latency_ns);
    svt_obs::family_histogram!("serve.response_bytes", &["route", "design"])
        .with(&labels)
        .record(response.body.len() as u64);
    let queue_wait_ns = svt_exec::service::current_queue_wait_ns();
    if let Some(log) = &state.access_log {
        log.log(&AccessEntry {
            ts_ms: crate::access_log::unix_ms(),
            trace_id,
            method: req.method.clone(),
            path: req.path.clone(),
            route: class.to_string(),
            design: design.to_string(),
            status: response.status,
            latency_us: latency.as_micros() as u64,
            queue_wait_us: queue_wait_ns / 1_000,
            alloc_bytes: alloc_bytes_1.saturating_sub(alloc_bytes_0),
            bytes_out: response.body.len() as u64,
        });
    }
    if state
        .options
        .slow_ms
        .is_some_and(|slow| latency >= Duration::from_millis(slow))
    {
        // Outside Chrome trace mode there is no per-thread ring; the
        // capsule still records identity, latency, and alloc deltas.
        let timeline = svt_obs::timeline::snapshot_current().map_or(
            svt_obs::timeline::ThreadTimeline {
                tid: 0,
                events: Vec::new(),
                dropped: 0,
            },
            |tl| svt_obs::recorder::slice_window(&tl, start_ns, end_ns),
        );
        svt_obs::recorder::record(svt_obs::RequestCapsule {
            trace_id,
            method: req.method.clone(),
            path: req.path.clone(),
            route: class.to_string(),
            design: design.to_string(),
            status: response.status,
            latency_ns,
            queue_wait_ns,
            alloc_count: alloc_count_1.saturating_sub(alloc_count_0),
            alloc_bytes: alloc_bytes_1.saturating_sub(alloc_bytes_0),
            start_ns,
            end_ns,
            timeline,
        });
    }
    response
}

/// Collapses status codes into the bounded label set `2xx`/`3xx`/`4xx`/
/// `5xx` so the status axis cannot grow past four values.
fn status_class(status: u16) -> &'static str {
    match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        _ => "5xx",
    }
}

/// Serves one connection: a keep-alive loop feeding the incremental
/// parser, bounded by the request cap and the idle timeout, responsive
/// to drain within one poll tick.
fn serve_connection(mut stream: TcpStream, state: &ServiceState) {
    let opts = state.options();
    // Poll in short ticks so drains are noticed promptly even while the
    // connection idles between keep-alive requests.
    let tick = opts
        .idle_timeout
        .clamp(Duration::from_millis(1), Duration::from_millis(100));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let mut parser = RequestParser::new();
    let mut chunk = [0u8; 8192];
    let mut served = 0usize;
    let mut idled = Duration::ZERO;
    loop {
        // Drain everything already buffered (pipelined requests) before
        // touching the socket again.
        match parser.next_request() {
            Ok(Some(req)) => {
                idled = Duration::ZERO;
                served += 1;
                if let Some(delay) = opts.fault_delay {
                    std::thread::sleep(delay);
                }
                let draining = state.draining();
                let response = if draining {
                    svt_obs::registry().counter("serve.drained_refusals").incr();
                    Response::error(503, "server is draining, no new work accepted")
                } else {
                    // Heartbeat only the bounded handler section — idle
                    // keep-alive reads are not stalls.
                    svt_exec::watchdog::task_begin();
                    let response = route(state, &req);
                    svt_exec::watchdog::task_end();
                    response
                };
                let close = draining || !req.keep_alive || served >= opts.keep_alive_max_requests;
                if write_response(&mut stream, &response, close).is_err() {
                    svt_obs::registry().counter("serve.write_errors").incr();
                    return;
                }
                if close {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                svt_obs::registry().counter("serve.bad_requests").incr();
                let _ = write_response(&mut stream, &Response::error(e.status, &e.message), true);
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => {
                idled = Duration::ZERO;
                parser.push(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idled += tick;
                // Mid-drain, idle connections close immediately; a
                // half-received request gets until the idle timeout.
                if state.draining() && parser.buffered() == 0 {
                    return;
                }
                if idled >= opts.idle_timeout {
                    svt_obs::registry().counter("serve.idle_closes").incr();
                    // A reap with bytes buffered means a half-sent head
                    // never completed — the slow-loris signature; an
                    // empty buffer is ordinary keep-alive idleness.
                    let reason = if parser.buffered() > 0 {
                        "slow_loris"
                    } else {
                        "idle"
                    };
                    svt_obs::family_counter!("serve.conn_reaped", &["reason"])
                        .with(&[reason])
                        .incr();
                    svt_obs::instant("serve.conn_reaped");
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

use std::io::Read;

/// A running daemon: the bound address plus the accept loop feeding the
/// persistent handler pool.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), starts
    /// [`ServerOptions::workers`] persistent handler threads behind a
    /// bounded queue of [`ServerOptions::queue_capacity`] connections,
    /// and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Returns a message when the bind fails.
    pub fn spawn(addr: &str, state: ServiceState) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let state = Arc::new(state);
        let stop = Arc::new(AtomicBool::new(false));
        let loop_state = Arc::clone(&state);
        let loop_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("svtd-accept".into())
            .spawn(move || accept_loop(&listener, &loop_state, &loop_stop))
            .map_err(|e| format!("spawn accept loop: {e}"))?;
        Ok(Server {
            addr: local,
            state,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process differential checks and drain
    /// polling.
    #[must_use]
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Graceful shutdown: begins the drain (current requests finish,
    /// new ones are refused with `503`), stops the accept loop, waits
    /// for every accepted connection to be answered, and joins all
    /// threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.state.begin_drain();
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServiceState>, stop: &AtomicBool) {
    let opts = state.options().clone();
    let handler_state = Arc::clone(state);
    // The pool is owned by this loop: when the loop exits, dropping the
    // pool drains it — every accepted connection is answered first.
    let pool: ServicePool<TcpStream> = ServicePool::spawn(
        "serve.pool",
        opts.workers,
        opts.queue_capacity,
        move |stream| serve_connection(stream, &handler_state),
    );
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        svt_obs::registry().counter("serve.connections").incr();
        if state.draining() {
            svt_obs::registry().counter("serve.drained_refusals").incr();
            let _ = write_response(
                &mut stream,
                &Response::error(503, "server is draining, no new connections accepted"),
                true,
            );
            continue;
        }
        if let Err(rejected) = pool.try_submit(stream) {
            let full = rejected.is_full();
            let mut stream = rejected.into_job();
            let response = if full {
                svt_obs::registry().counter("serve.rejected_busy").incr();
                Response::too_busy(1)
            } else {
                Response::error(503, "server is draining, no new connections accepted")
            };
            let _ = write_response(&mut stream, &response, true);
        }
    }
    pool.drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_bodies_parse_into_each_typed_variant() {
        assert_eq!(
            parse_edit("{\"type\":\"resize_cell\",\"instance\":\"g1\",\"new_cell\":\"INVX2\"}")
                .unwrap(),
            EcoEdit::ResizeCell {
                instance: "g1".into(),
                new_cell: "INVX2".into()
            }
        );
        assert_eq!(
            parse_edit("{\"type\":\"swap_cell\",\"instance\":\"g1\",\"new_cell\":\"NAND2X2\"}")
                .unwrap(),
            EcoEdit::SwapCell {
                instance: "g1".into(),
                new_cell: "NAND2X2".into()
            }
        );
        assert_eq!(
            parse_edit("{\"type\":\"adjust_spacing\",\"instance\":\"g1\",\"dx_nm\":-120.5}")
                .unwrap(),
            EcoEdit::AdjustSpacing {
                instance: "g1".into(),
                dx_nm: -120.5
            }
        );
        assert_eq!(
            parse_edit("{\"type\":\"move_instance\",\"instance\":\"g1\",\"row\":2,\"x_nm\":940.0}")
                .unwrap(),
            EcoEdit::MoveInstance {
                instance: "g1".into(),
                row: 2,
                x_nm: 940.0
            }
        );
    }

    #[test]
    fn malformed_edits_name_the_offending_field() {
        assert!(parse_edit("not json").unwrap_err().contains("not JSON"));
        assert!(parse_edit("{\"instance\":\"g1\"}")
            .unwrap_err()
            .contains("`type`"));
        assert!(parse_edit("{\"type\":\"resize_cell\",\"instance\":\"g1\"}")
            .unwrap_err()
            .contains("`new_cell`"));
        assert!(parse_edit(
            "{\"type\":\"move_instance\",\"instance\":\"g1\",\"row\":-1,\"x_nm\":0}"
        )
        .unwrap_err()
        .contains("`row`"));
        assert!(parse_edit("{\"type\":\"delete_all\"}")
            .unwrap_err()
            .contains("unknown edit type"));
    }

    #[test]
    fn batched_bodies_parse_into_ordered_edit_lists() {
        let batch = parse_eco_request(
            "[{\"type\":\"resize_cell\",\"instance\":\"g1\",\"new_cell\":\"INVX2\"},\
             {\"type\":\"adjust_spacing\",\"instance\":\"g2\",\"dx_nm\":-40.0}]",
        )
        .unwrap();
        let EcoRequest::Batch(edits) = batch else {
            panic!("array bodies parse as batches");
        };
        assert_eq!(edits.len(), 2);
        assert_eq!(
            edits[1],
            EcoEdit::AdjustSpacing {
                instance: "g2".into(),
                dx_nm: -40.0
            }
        );

        // Element errors carry their index; empty batches are rejected.
        let err = parse_eco_request("[{\"type\":\"resize_cell\"}]").unwrap_err();
        assert!(err.contains("edit[0]"), "{err}");
        assert!(parse_eco_request("[]").unwrap_err().contains("empty"));

        // Objects still parse as singles.
        assert!(matches!(
            parse_eco_request(
                "{\"type\":\"resize_cell\",\"instance\":\"g1\",\"new_cell\":\"INVX2\"}"
            ),
            Ok(EcoRequest::Single(_))
        ));
    }

    #[test]
    fn design_specs_accept_builtin_and_paper_testcases_only() {
        assert_eq!(DesignSpec::parse("builtin").unwrap(), DesignSpec::Builtin);
        assert_eq!(
            DesignSpec::parse("c432").unwrap(),
            DesignSpec::Iscas("c432".into())
        );
        assert!(DesignSpec::parse("c17").is_err());
    }

    #[test]
    fn floats_render_shortest_round_trip_and_nonfinite_degrade_to_null() {
        for x in [0.1 + 0.2, 1.0e-7, -0.0, 12345.678901234567] {
            let rendered = fmt_f64(x);
            let parsed = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "round-trip of {rendered}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    // The recorder ring and telemetry registry are process-global;
    // tests that assert on ring contents serialize here.
    fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn test_state(options: ServerOptions) -> ServiceState {
        ServiceState::new(&[DesignSpec::Builtin], options).expect("state")
    }

    /// The newest capsule, `req`'s own under [`recorder_lock`] with
    /// `slow_ms: Some(0)`.
    fn capsule_of(req: &Request) -> svt_obs::RequestCapsule {
        let capsule = svt_obs::recorder::capsules().pop().expect("captured");
        assert_eq!((&capsule.method, &capsule.path), (&req.method, &req.path));
        capsule
    }

    /// Every `serve.inflight.*` gauge that is not back at 0.
    fn raised_inflight_gauges() -> Vec<(String, i64)> {
        let gauges = svt_obs::registry().snapshot().gauges.into_iter();
        gauges
            .filter(|(name, value)| name.starts_with("serve.inflight.") && *value != 0)
            .collect()
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.into(),
            keep_alive: true,
        }
    }

    #[test]
    fn one_resolution_drives_status_labels_and_inflight_gauge() {
        let _guard = recorder_lock();
        svt_obs::recorder::clear();
        let state = test_state(ServerOptions {
            slow_ms: Some(0),
            ..ServerOptions::default()
        });
        // Span recording decides `/debug/profile`'s answer.
        svt_obs::set_mode(svt_obs::TraceMode::Off);
        // Method, path, body (`_`: empty), status, route label, design
        // label, in-flight gauge. Unregistered names mint no design
        // label. The router's own answers: a known path keeps its labels
        // and gauge under a wrong method, an unknown path is `other`.
        // `/shutdown` runs last: the drain it starts changes answers.
        let cases = "
            GET    /healthz                      _   200 /healthz               -       healthz
            GET    /metrics                      _   200 /metrics               -       metrics
            GET    /snapshot.json                _   200 /snapshot.json         -       snapshot
            GET    /timeline.json                _   200 /timeline.json         -       timeline
            GET    /designs                      _   200 /designs               -       designs
            GET    /query                        _   400 /query                 -       query
            GET    /dashboard                    _   200 /dashboard             -       dashboard
            GET    /debug/profile                _   503 /debug/profile         -       profile
            GET    /debug/requests               _   200 /debug/requests        -       other
            GET    /debug/requests/0/trace.json  _   404 /debug/requests        -       other
            POST   /eco                          {   400 /eco                   builtin eco
            POST   /snapshot/save                _   409 /snapshot/save         -       other
            GET    /designs/builtin              _   200 /designs/{name}        builtin designs
            POST   /designs/builtin/warm         _   200 /designs/{name}/warm   builtin warm
            GET    /designs/builtin/timing       _   200 /designs/{name}/timing builtin timing
            POST   /designs/builtin/eco          []  400 /designs/{name}/eco    builtin eco
            GET    /designs/nope/timing          _   404 /designs/{name}/timing -       timing
            DELETE /healthz                      _   405 /healthz               -       healthz
            POST   /debug/requests               _   405 /debug/requests        -       other
            GET    /eco                          _   405 /eco                   builtin eco
            DELETE /designs/builtin/eco          _   405 /designs/{name}/eco    builtin eco
            GET    /nope/timing                  _   404 other                  -       other
            GET    /made/up/path                 _   404 other                  -       other
            GET    /designs/                     _   404 other                  -       other
            GET    /designs/builtin/bogus        _   404 other                  -       other
            POST   /shutdown                     _   200 /shutdown              -       other";
        let mut handled = Vec::new();
        for case in cases.lines().skip(1) {
            let f: Vec<&str> = case.split_whitespace().collect();
            let req = request(f[0], f[1], if f[2] == "_" { "" } else { f[2] });
            let gauge = resolve(&state, f[0], f[1]).route.2;
            let status = route(&state, &req).status;
            let capsule = capsule_of(&req);
            let (class, design) = (capsule.route, capsule.design);
            let gauge = &gauge["serve.inflight.".len()..];
            let seen = format!("{status} {class} {design} {gauge}");
            assert_eq!(seen, f[3..].join(" "), "{case}");
            assert_eq!(raised_inflight_gauges(), vec![], "{case}");
            if status != 405 {
                handled.push(class);
            }
        }
        assert!(ROUTES.iter().all(|r| handled.iter().any(|c| c == r.0)));
        svt_obs::recorder::clear();
    }

    /// Byte soup for the router fuzz.
    const SOUP: &[u8] = b"az09/-_.~%?=&+:@{}";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Hostile requests (a route template or nothing, then table
        /// segments, empty segments or byte soup; an empty, garbage or
        /// deeply nested body) never panic the router, carry a table class
        /// or `other` and a registered design or `-`, and leave every
        /// in-flight gauge at 0.
        #[test]
        fn fuzzed_requests_keep_labels_bounded_and_gauges_balanced(
            method in 0usize..4,
            base in 0usize..ROUTES.len() + 1,
            name in 0usize..3,
            parts in proptest::prop::collection::vec(
                (0usize..48, proptest::prop::collection::vec(0usize..SOUP.len(), 0..6)),
                0..3,
            ),
            body in 0usize..3,
        ) {
            let mut segments: Vec<&str> = ROUTES.iter().flat_map(|r| r.0.split('/')).collect();
            segments.push("");
            let template = ROUTES.get(base).map_or("", |r| r.0);
            let mut path = template.replace("{name}", ["builtin", "nope", ""][name]);
            for (pick, soup) in parts {
                path.push('/');
                match segments.get(pick) {
                    Some(segment) => path.push_str(segment),
                    None => path.extend(soup.into_iter().map(|i| char::from(SOUP[i]))),
                }
            }
            let deep = "[".repeat(100_000);
            let req = request(["GET", "POST", "PUT", "DELETE"][method], &path, ["", "{", &deep][body]);
            let state = test_state(ServerOptions { slow_ms: Some(0), ..ServerOptions::default() });
            let _guard = recorder_lock();
            let _ = route(&state, &req);
            let capsule = capsule_of(&req);
            proptest::prop_assert!(
                capsule.route == "other" || ROUTES.iter().any(|r| r.0 == capsule.route),
                "{path}: route label {}", capsule.route
            );
            proptest::prop_assert!(["builtin", "-"].contains(&capsule.design.as_str()), "{path}");
            proptest::prop_assert_eq!(raised_inflight_gauges(), vec![], "{path}");
        }
    }

    #[test]
    fn status_classes_are_a_closed_set() {
        assert_eq!(status_class(200), "2xx");
        assert_eq!(status_class(301), "3xx");
        assert_eq!(status_class(404), "4xx");
        assert_eq!(status_class(429), "4xx");
        assert_eq!(status_class(500), "5xx");
        assert_eq!(status_class(503), "5xx");
    }

    #[test]
    fn query_rejects_malformed_range_and_step_by_name() {
        for (path, param) in [
            ("/query?metric=serve.requests&range=abc", "`range`"),
            ("/query?metric=serve.requests&range=-5", "`range`"),
            ("/query?metric=serve.requests&step=1.5", "`step`"),
            ("/query?metric=no.such.series&step=x", "`step`"),
        ] {
            let response = tsdb_query(path);
            assert_eq!(response.status, 400, "{path}: {}", response.body);
            assert!(response.body.contains(param), "{path}: {}", response.body);
        }
        assert_eq!(tsdb_query("/query?range=60").status, 400, "metric missing");
        assert_eq!(
            tsdb_query("/query?metric=no.such.series&range=60&step=0").status,
            404,
            "well-formed parameters reach the store"
        );
    }

    #[test]
    fn profile_without_span_recording_is_a_503_naming_svt_trace() {
        svt_obs::set_mode(svt_obs::TraceMode::Off);
        let response = debug_profile("/debug/profile?format=svg");
        assert_eq!(response.status, 503);
        assert!(response.body.contains("SVT_TRACE"), "{}", response.body);
    }

    #[test]
    fn metrics_exposition_carries_build_info_and_uptime() {
        let state = test_state(ServerOptions::default());
        let body = metrics(&state).body;
        let samples = svt_obs::parse_prometheus(&body).expect("scrape parses");
        let build = samples
            .iter()
            .find(|s| s.name == "svt_build_info")
            .expect("svt_build_info gauge");
        assert_eq!(build.value, 1.0);
        assert!(build.labels.iter().any(|(k, _)| k == "version"));
        assert!(samples.iter().any(|s| s.name == "svt_uptime_seconds"));
    }

    #[test]
    fn slow_requests_are_captured_as_capsules_with_the_request_trace_id() {
        let _guard = recorder_lock();
        svt_obs::recorder::clear();
        let log_path = std::env::temp_dir()
            .join(format!("svt_server_access_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .to_string();
        let _ = std::fs::remove_file(&log_path);
        let state = test_state(ServerOptions {
            slow_ms: Some(0),
            access_log_path: Some(log_path.clone()),
            ..ServerOptions::default()
        });
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            body: String::new(),
            keep_alive: true,
        };
        let response = route(&state, &req);
        assert_eq!(response.status, 200);
        let capsule = svt_obs::recorder::capsules()
            .pop()
            .expect("slow-ms 0 captures every request");
        assert_eq!(capsule.route, "/healthz");
        assert_eq!(capsule.status, 200);
        assert!(capsule.latency_ns > 0);
        // The capsule is addressable through the debug surface…
        let index = debug_requests("");
        assert!(index
            .body
            .contains(&format!("\"trace_id\": {}", capsule.trace_id)));
        let one = debug_requests(&capsule.trace_id.to_string());
        assert_eq!(one.status, 200);
        let trace = debug_requests(&format!("{}/trace.json", capsule.trace_id));
        assert_eq!(trace.status, 200);
        let stats =
            svt_obs::chrome::validate_chrome_trace(&trace.body).expect("capsule trace validates");
        assert!(stats
            .events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "B" | "E" | "i"))
            .all(|e| e.trace_id == Some(capsule.trace_id)));
        // …and the access log line carries the same trace id.
        let log = std::fs::read_to_string(&log_path).expect("access log written");
        let line = log.lines().last().expect("one line per request");
        let doc = JsonValue::parse(line).expect("JSONL line parses");
        assert_eq!(
            doc.get("trace_id").and_then(JsonValue::as_u64),
            Some(capsule.trace_id)
        );
        assert_eq!(
            doc.get("route").and_then(JsonValue::as_str),
            Some("/healthz")
        );
        let _ = std::fs::remove_file(&log_path);
        svt_obs::recorder::clear();
    }

    #[test]
    fn debug_requests_unknown_ids_are_404s() {
        let _guard = recorder_lock();
        svt_obs::recorder::clear();
        assert_eq!(debug_requests("not-a-number").status, 404);
        assert_eq!(debug_requests("12345").status, 404);
        assert_eq!(debug_requests("12345/trace.json").status, 404);
        let index = debug_requests("");
        assert_eq!(index.status, 200);
        let doc = JsonValue::parse(&index.body).expect("index parses");
        assert_eq!(doc.get("count").and_then(JsonValue::as_u64), Some(0));
    }

    #[test]
    fn batch_render_merges_endpoint_deltas_first_before_last_after() {
        use svt_core::CornerTiming;
        let comparison = svt_core::SignoffComparison {
            testcase: "t".into(),
            gates: 1,
            traditional: CornerTiming {
                bc_ns: 1.0,
                nom_ns: 2.0,
                wc_ns: 3.0,
            },
            aware: CornerTiming {
                bc_ns: 1.5,
                nom_ns: 2.0,
                wc_ns: 2.5,
            },
        };
        let report = |before: f64, after: f64| DeltaReport {
            edit: "e".into(),
            rows_extracted: vec![],
            recharacterized: vec![],
            pitch_rows_invalidated: 0,
            forward_instances: 0,
            backward_nets: 0,
            endpoint_deltas: vec![svt_eco::EndpointDelta {
                endpoint: "z".into(),
                corner: "aware-wc".into(),
                arrival_before_ns: before,
                arrival_after_ns: after,
            }],
            before: comparison.clone(),
            after: comparison.clone(),
            delta_audit: svt_obs::audit::DeltaAudit {
                testcase: "t".into(),
                baseline_instances: 0,
                baseline_paths: 0,
                edits: vec![],
                corner_delays: vec![],
                changed_instances: vec![],
                changed_paths: vec![],
            },
        };
        let rendered = render_batch_report(&[report(1.25, 1.5), report(1.5, 1.125)]);
        let parsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(parsed.get("edits").and_then(JsonValue::as_u64), Some(2));
        let merged = parsed
            .get("endpoint_deltas")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(merged.len(), 1, "same endpoint/corner merges");
        let delta = &merged[0];
        assert_eq!(
            delta.get("arrival_before_ns").and_then(JsonValue::as_f64),
            Some(1.25),
            "before comes from the first report"
        );
        assert_eq!(
            delta.get("arrival_after_ns").and_then(JsonValue::as_f64),
            Some(1.125),
            "after comes from the last report"
        );
    }
}
