//! Live service plane for the svt pipeline.
//!
//! Everything upstream of this crate runs batch: expand the library,
//! sign off, print a table, exit. `svt-serve` keeps that state *warm*
//! inside a long-lived daemon (`svtd`) and exposes it over a
//! dependency-free HTTP/1.1 server. The daemon is **multi-tenant**: it
//! holds many designs in a [`registry::SessionRegistry`], each behind
//! its own `RwLock`, so ECO traffic on one design never blocks timing
//! reads on another. Connections are served by a fixed pool of
//! persistent handler threads ([`svt_exec::service::ServicePool`])
//! behind a bounded accept queue — saturation answers `429` +
//! `Retry-After` instead of buffering unboundedly — and keep-alive is
//! the default, with pipelining, a per-connection request cap, and an
//! idle timeout.
//!
//! | Endpoint          | Serves |
//! |-------------------|--------|
//! | `GET /healthz`    | readiness, per-design warmth, queue depth, and the pool watchdog verdict (`503` when stalled) |
//! | `GET /metrics`    | cumulative Prometheus exposition of the global registry (labeled families, per-span time and allocated bytes, build info); rates come from Prometheus `rate()` or `GET /query` |
//! | `GET /snapshot.json` | the full aggregate [`svt_obs::Snapshot`] as JSON |
//! | `GET /timeline.json` | the live per-thread event rings as a Chrome `trace_event` document |
//! | `GET /query?metric=NAME[&range=S][&step=S]` | a range query against the embedded time-series store, including derived `NAME.rate` series (`400` names a malformed parameter) |
//! | `GET /dashboard`  | a self-contained HTML page of sparklines over the time-series store |
//! | `GET /debug/profile?format=collapsed\|json\|svg` | the span registry as folded stacks, JSON, or a flame-graph SVG (`503` while `SVT_TRACE` is off) |
//! | `GET /designs`    | every registered design with warmth and edit count |
//! | `GET /designs/{name}` | one design's status |
//! | `POST /designs/{name}/warm` | eager warm-up (lazy otherwise) |
//! | `GET /designs/{name}/timing` | the design's multi-corner sign-off summary (read lock — never waits on other designs) |
//! | `POST /designs/{name}/eco` | one typed [`svt_eco::EcoEdit`] *or* a JSON array applied atomically as a batch |
//! | `POST /eco`       | same, against the default (first registered) design |
//! | `GET /debug/requests` | the flight recorder's retained slow-request capsules (index JSON) |
//! | `GET /debug/requests/{trace_id}` | one capsule: identity, latency, queue wait, alloc delta, timeline slice |
//! | `GET /debug/requests/{trace_id}/trace.json` | the capsule's window as a per-request Chrome trace, every event tagged with the trace id |
//! | `POST /snapshot/save` | capture the warm stack into the `--snapshot` file (`409` when no path is configured) |
//! | `POST /shutdown`  | graceful drain: in-flight requests finish, new work gets `503` |
//!
//! [`route`] resolves every request once against one route table, gives
//! it a fresh trace id, and measures it into labeled metric families;
//! `--access-log` adds one structured JSONL line per request
//! ([`access_log`]), and `--slow-ms` arms the flight recorder behind the
//! `/debug/requests` surface.
//!
//! The HTTP layer is hand-rolled ([`http`]) because the build
//! environment is offline and the workspace vendors its few external
//! stand-ins; the incremental [`http::RequestParser`] is
//! property-fuzzed in `tests/http_props.rs`. The [`smoke`] module is
//! the CI gate: a pure-Rust client that validates every endpoint with
//! the workspace's own parsers, replays ECO edits through a local
//! [`svt_eco::EcoSession`] to prove the served slack deltas bit-exact,
//! and exercises the 429 backpressure and graceful-shutdown paths.
#![warn(missing_docs)]

pub mod access_log;
pub mod http;
pub mod registry;
pub mod server;
pub mod slo;
pub mod smoke;

pub use access_log::{AccessEntry, AccessLog};
pub use http::{
    http_request, HttpClient, HttpResponse, ParseError, Request, RequestParser, Response,
};
pub use registry::{DesignEntry, RegistryError, SessionRegistry, SlotStatus};
pub use server::{
    configure_snapshot, parse_eco_request, parse_edit, render_batch_report, render_delta_report,
    render_timing, route, save_snapshot, snapshot_info_prometheus, snapshot_status, warm_session,
    DesignSpec, EcoRequest, Server, ServerOptions, ServiceState, SnapshotStatus, BUILTIN_NETLIST,
};
pub use slo::{SloEngine, SloSpec, SloStatus};
pub use smoke::{pick_smoke_edit, run_smoke};
