//! Declarative service-level objectives evaluated as multi-window
//! burn rates.
//!
//! An operator states an objective per route class on the command line
//! (`--slo route=/designs/{name}/eco,p99_ms=5,err_pct=1,window=60`):
//! over any `window`-second interval, at most `err_pct` percent of
//! requests may fail (5xx) **or** exceed the `p99_ms` latency bound.
//! The request path feeds cheap relaxed counters per objective
//! ([`SloEngine::observe`]); the sampler thread drains them once per
//! tick into the embedded TSDB ([`SloEngine::tick`]) and evaluates the
//! classic two-window burn rate from the rings it just wrote:
//!
//! * **burn rate** = (bad-request fraction) / (error budget fraction).
//!   A burn of 1.0 spends the budget exactly at the window boundary;
//!   2.0 exhausts it in half the window.
//! * **fast window** = `window / 12` (floored at 5 s) catches sharp
//!   regressions quickly; the **slow window** = `window` confirms the
//!   regression is sustained, so a single bad scrape cannot page.
//! * A spec is **breached** only while *both* burns exceed 1.0. The
//!   transition into breach increments `serve.slo.breaches` and drops
//!   a flight-recorder post-mortem (reason `slo_breach ...`) so the
//!   capsules from the bad window survive the incident.
//!
//! Current state is surfaced three ways: an `slo` block in `/healthz`
//! (any breach degrades the service to 503), hand-rolled `svt_slo_*`
//! Prometheus families appended to `/metrics`, and the per-tick
//! `slo.<route>.{total,errors,slow}` series queryable via `/query`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use svt_obs::json::escape_json;
use svt_obs::tsdb::{Tsdb, TsdbConfig};

/// Longest `window` the embedded store can evaluate: the coarsest
/// default tier's width times its capacity (288 × 10 min = 172,800 s).
/// Bounding windows here also keeps `window_s * 1000` in range.
fn max_window_s() -> u64 {
    TsdbConfig::default()
        .tiers
        .last()
        .map_or(0, |t| t.width_ms.saturating_mul(t.cap as u64) / 1000)
}

/// One parsed `--slo` objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Route class template the objective applies to (e.g.
    /// `/designs/{name}/eco`), or `*` for every route.
    pub route: String,
    /// Latency bound: a request slower than this is "slow" and spends
    /// error budget.
    pub p99_ms: f64,
    /// Error budget: percent of requests in the window allowed to be
    /// bad (5xx or slow).
    pub err_pct: f64,
    /// Slow (confirming) evaluation window, seconds.
    pub window_s: u64,
}

impl SloSpec {
    /// Parses the `--slo` argument syntax:
    /// `route=PATH[,p99_ms=N][,err_pct=N][,window=N]`.
    /// Unspecified fields default to `p99_ms=50`, `err_pct=1`,
    /// `window=60`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field for an unknown
    /// key, an unparseable number, a non-positive bound, a window
    /// longer than the store's coarsest ring holds, or a missing
    /// `route`.
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut route: Option<String> = None;
        let mut p99_ms = 50.0f64;
        let mut err_pct = 1.0f64;
        let mut window_s = 60u64;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("slo spec `{s}`: `{part}` is not key=value"))?;
            match key.trim() {
                "route" => route = Some(value.trim().to_string()),
                "p99_ms" => {
                    p99_ms = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|e| format!("slo spec `{s}`: p99_ms: {e}"))?;
                }
                "err_pct" => {
                    err_pct = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|e| format!("slo spec `{s}`: err_pct: {e}"))?;
                }
                "window" => {
                    window_s = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|e| format!("slo spec `{s}`: window: {e}"))?;
                }
                other => return Err(format!("slo spec `{s}`: unknown key `{other}`")),
            }
        }
        let route = route.ok_or_else(|| format!("slo spec `{s}`: missing route="))?;
        if route.is_empty() {
            return Err(format!("slo spec `{s}`: empty route"));
        }
        if !p99_ms.is_finite() || p99_ms <= 0.0 || !err_pct.is_finite() || err_pct <= 0.0 {
            return Err(format!("slo spec `{s}`: p99_ms and err_pct must be > 0"));
        }
        if window_s == 0 {
            return Err(format!("slo spec `{s}`: window must be > 0 seconds"));
        }
        let max_window = max_window_s();
        if window_s > max_window {
            return Err(format!(
                "slo spec `{s}`: window must be at most {max_window} seconds \
                 (the longest history the time-series store keeps)"
            ));
        }
        Ok(SloSpec {
            route,
            p99_ms,
            err_pct,
            window_s,
        })
    }

    /// The fast (paging) window: `window / 12`, floored at 5 s so a
    /// short objective still averages over a few sampler ticks.
    #[must_use]
    pub fn fast_window_s(&self) -> u64 {
        (self.window_s / 12).max(5)
    }

    /// TSDB series stem for this objective: the route template with
    /// every non-alphanumeric run collapsed to one `_`.
    #[must_use]
    pub fn metric_slug(&self) -> String {
        let mut slug = String::with_capacity(self.route.len());
        for c in self.route.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('_') && !slug.is_empty() {
                slug.push('_');
            }
        }
        while slug.ends_with('_') {
            slug.pop();
        }
        if slug.is_empty() {
            slug.push_str("all");
        }
        slug
    }
}

/// Point-in-time evaluation of one objective, for `/healthz` and
/// `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The objective evaluated.
    pub spec: SloSpec,
    /// Requests observed since boot.
    pub total: u64,
    /// 5xx responses since boot.
    pub errors: u64,
    /// Responses over the latency bound since boot.
    pub slow: u64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow (full) window.
    pub slow_burn: f64,
    /// Whether both burns currently exceed 1.0.
    pub breached: bool,
    /// Breach transitions since boot.
    pub breaches: u64,
}

impl SloStatus {
    /// Renders the status as one `/healthz` `slo` array element.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"route\":\"{}\",\"p99_ms\":{},\"err_pct\":{},\"window_s\":{},\
             \"total\":{},\"errors\":{},\"slow\":{},\
             \"fast_burn\":{:.4},\"slow_burn\":{:.4},\"breached\":{},\"breaches\":{}}}",
            escape_json(&self.spec.route),
            self.spec.p99_ms,
            self.spec.err_pct,
            self.spec.window_s,
            self.total,
            self.errors,
            self.slow,
            self.fast_burn,
            self.slow_burn,
            self.breached,
            self.breaches
        )
    }
}

struct SloRuntime {
    spec: SloSpec,
    slug: String,
    total: AtomicU64,
    errors: AtomicU64,
    slow: AtomicU64,
    /// Cumulative counts at the previous tick, so each tick ingests
    /// deltas into the TSDB.
    prev: Mutex<(u64, u64, u64)>,
    breached: AtomicBool,
    breaches: AtomicU64,
    burns: Mutex<(f64, f64)>,
}

/// The evaluator shared by the request path (hot, lock-free) and the
/// sampler thread (cold, once per tick).
pub struct SloEngine {
    slos: Vec<SloRuntime>,
    dump_on_breach: bool,
}

impl SloEngine {
    /// Builds the engine from parsed `--slo` specs.
    #[must_use]
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine {
            slos: specs
                .into_iter()
                .map(|spec| SloRuntime {
                    slug: spec.metric_slug(),
                    spec,
                    total: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                    slow: AtomicU64::new(0),
                    prev: Mutex::new((0, 0, 0)),
                    breached: AtomicBool::new(false),
                    breaches: AtomicU64::new(0),
                    burns: Mutex::new((0.0, 0.0)),
                })
                .collect(),
            dump_on_breach: true,
        }
    }

    /// Disables the breach-triggered post-mortem dump (tests share one
    /// process-global dump path; production keeps the default on).
    pub fn set_dump_on_breach(&mut self, on: bool) {
        self.dump_on_breach = on;
    }

    /// True when no objectives are configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Configured objectives, in declaration order.
    #[must_use]
    pub fn specs(&self) -> Vec<SloSpec> {
        self.slos.iter().map(|s| s.spec.clone()).collect()
    }

    /// Request-path hook: three relaxed increments per matching
    /// objective, nothing else. `route` is the class template from the
    /// router; a spec with route `*` matches everything.
    pub fn observe(&self, route: &str, status: u16, latency_ns: u64) {
        for slo in &self.slos {
            if slo.spec.route != "*" && slo.spec.route != route {
                continue;
            }
            slo.total.fetch_add(1, Ordering::Relaxed);
            if status >= 500 {
                slo.errors.fetch_add(1, Ordering::Relaxed);
            }
            let bound_ns = slo.spec.p99_ms * 1e6;
            if latency_ns as f64 > bound_ns {
                slo.slow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Sampler hook: drains the per-objective counters into the TSDB
    /// as `slo.<route>.{total,errors,slow}` deltas, then re-evaluates
    /// both burn windows from the rings. Returns `true` when any
    /// objective transitioned into breach this tick.
    pub fn tick(&self, store: &Tsdb, now_ms: u64) -> bool {
        let mut newly_breached = false;
        for slo in &self.slos {
            let total = slo.total.load(Ordering::Relaxed);
            let errors = slo.errors.load(Ordering::Relaxed);
            let slow = slo.slow.load(Ordering::Relaxed);
            {
                let mut prev = slo
                    .prev
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let (dt, de, ds) = (
                    total.saturating_sub(prev.0),
                    errors.saturating_sub(prev.1),
                    slow.saturating_sub(prev.2),
                );
                *prev = (total, errors, slow);
                #[allow(clippy::cast_precision_loss)]
                {
                    store.ingest(&format!("slo.{}.total", slo.slug), now_ms, dt as f64);
                    store.ingest(&format!("slo.{}.errors", slo.slug), now_ms, de as f64);
                    store.ingest(&format!("slo.{}.slow", slo.slug), now_ms, ds as f64);
                }
            }
            let budget = slo.spec.err_pct / 100.0;
            let fast = burn_over(
                store,
                &slo.slug,
                slo.spec.fast_window_s() * 1000,
                now_ms,
                budget,
            );
            let slow_burn = burn_over(store, &slo.slug, slo.spec.window_s * 1000, now_ms, budget);
            *slo.burns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = (fast, slow_burn);
            let breached = fast > 1.0 && slow_burn > 1.0;
            let was = slo.breached.swap(breached, Ordering::Relaxed);
            if breached && !was {
                newly_breached = true;
                slo.breaches.fetch_add(1, Ordering::Relaxed);
                svt_obs::counter!("serve.slo.breaches").incr();
                eprintln!(
                    "svtd: SLO breach on {} (fast_burn {fast:.2}, slow_burn {slow_burn:.2})",
                    slo.spec.route
                );
                if self.dump_on_breach {
                    let _ = svt_obs::recorder::post_mortem(&format!(
                        "slo_breach route={} fast_burn={fast:.2} slow_burn={slow_burn:.2}",
                        slo.spec.route
                    ));
                }
            }
        }
        newly_breached
    }

    /// Snapshot of every objective's current evaluation.
    #[must_use]
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.slos
            .iter()
            .map(|slo| {
                let (fast_burn, slow_burn) = *slo
                    .burns
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                SloStatus {
                    spec: slo.spec.clone(),
                    total: slo.total.load(Ordering::Relaxed),
                    errors: slo.errors.load(Ordering::Relaxed),
                    slow: slo.slow.load(Ordering::Relaxed),
                    fast_burn,
                    slow_burn,
                    breached: slo.breached.load(Ordering::Relaxed),
                    breaches: slo.breaches.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// True while any objective is breached — `/healthz` degrades to
    /// 503 on this.
    #[must_use]
    pub fn any_breached(&self) -> bool {
        self.slos.iter().any(|s| s.breached.load(Ordering::Relaxed))
    }

    /// Renders the `svt_slo_*` Prometheus families appended to
    /// `/metrics`: burn rates and breach state as gauges, request
    /// classes and breach transitions as counters.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        if self.slos.is_empty() {
            return String::new();
        }
        let statuses = self.statuses();
        let mut out = String::with_capacity(512);
        out.push_str("# HELP svt_slo_burn_rate Error-budget burn rate per objective window.\n");
        out.push_str("# TYPE svt_slo_burn_rate gauge\n");
        for s in &statuses {
            let route = &s.spec.route;
            out.push_str(&format!(
                "svt_slo_burn_rate{{route=\"{route}\",window=\"fast\"}} {:.6}\n",
                s.fast_burn
            ));
            out.push_str(&format!(
                "svt_slo_burn_rate{{route=\"{route}\",window=\"slow\"}} {:.6}\n",
                s.slow_burn
            ));
        }
        out.push_str("# HELP svt_slo_breached 1 while both burn windows exceed 1.0.\n");
        out.push_str("# TYPE svt_slo_breached gauge\n");
        for s in &statuses {
            out.push_str(&format!(
                "svt_slo_breached{{route=\"{}\"}} {}\n",
                s.spec.route,
                u8::from(s.breached)
            ));
        }
        out.push_str("# HELP svt_slo_requests_total Requests observed per objective and class.\n");
        out.push_str("# TYPE svt_slo_requests_total counter\n");
        for s in &statuses {
            let route = &s.spec.route;
            out.push_str(&format!(
                "svt_slo_requests_total{{route=\"{route}\",class=\"total\"}} {}\n",
                s.total
            ));
            out.push_str(&format!(
                "svt_slo_requests_total{{route=\"{route}\",class=\"error\"}} {}\n",
                s.errors
            ));
            out.push_str(&format!(
                "svt_slo_requests_total{{route=\"{route}\",class=\"slow\"}} {}\n",
                s.slow
            ));
        }
        out.push_str("# HELP svt_slo_breaches_total Breach transitions since boot.\n");
        out.push_str("# TYPE svt_slo_breaches_total counter\n");
        for s in &statuses {
            out.push_str(&format!(
                "svt_slo_breaches_total{{route=\"{}\"}} {}\n",
                s.spec.route, s.breaches
            ));
        }
        out
    }
}

/// Bad-request fraction over the trailing window, divided by the
/// budget fraction. Reads the `slo.<slug>.*` rings the tick just
/// wrote; an empty window burns nothing.
fn burn_over(store: &Tsdb, slug: &str, range_ms: u64, now_ms: u64, budget: f64) -> f64 {
    let sum_of = |metric: &str| -> f64 {
        store
            .query(metric, range_ms, 0, now_ms)
            .map(|r| r.points.iter().map(|p| p.bin.sum).sum())
            .unwrap_or(0.0)
    };
    let total = sum_of(&format!("slo.{slug}.total"));
    if total <= 0.0 {
        return 0.0;
    }
    let bad = sum_of(&format!("slo.{slug}.errors")) + sum_of(&format!("slo.{slug}.slow"));
    (bad / total) / budget.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use svt_obs::tsdb::TierSpec;

    fn test_store() -> Tsdb {
        Tsdb::new(TsdbConfig {
            tiers: vec![
                TierSpec {
                    width_ms: 0,
                    cap: 512,
                },
                TierSpec {
                    width_ms: 60_000,
                    cap: 64,
                },
            ],
        })
    }

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let spec = SloSpec::parse("route=/designs/{name}/eco,p99_ms=5,err_pct=1,window=60")
            .expect("parses");
        assert_eq!(spec.route, "/designs/{name}/eco");
        assert!((spec.p99_ms - 5.0).abs() < 1e-9);
        assert!((spec.err_pct - 1.0).abs() < 1e-9);
        assert_eq!(spec.window_s, 60);
        assert_eq!(spec.fast_window_s(), 5);
        assert_eq!(spec.metric_slug(), "designs_name_eco");
    }

    #[test]
    fn parse_defaults_and_rejects_garbage() {
        let spec = SloSpec::parse("route=*").expect("route alone parses");
        assert!((spec.p99_ms - 50.0).abs() < 1e-9);
        assert!((spec.err_pct - 1.0).abs() < 1e-9);
        assert_eq!(spec.window_s, 60);
        assert_eq!(spec.metric_slug(), "all");
        assert!(SloSpec::parse("p99_ms=5").is_err(), "route is required");
        assert!(SloSpec::parse("route=/x,p99_ms=abc").is_err());
        assert!(SloSpec::parse("route=/x,latency=5").is_err(), "unknown key");
        assert!(SloSpec::parse("route=/x,window=0").is_err());
        assert!(
            SloSpec::parse("route=*,window=18446744073709551615").is_err(),
            "u64::MAX seconds overflows the millisecond window"
        );
        assert!(
            SloSpec::parse("route=*,window=172801").is_err(),
            "longer than the coarsest ring holds"
        );
        assert_eq!(
            SloSpec::parse("route=*,window=172800").map(|s| s.window_s),
            Ok(172_800),
            "the full 48 h ring is a valid window"
        );
        assert!(SloSpec::parse("route=/x,err_pct=0").is_err());
        assert!(SloSpec::parse("route").is_err(), "not key=value");
    }

    #[test]
    fn observe_classifies_errors_and_slow_requests() {
        let engine = SloEngine::new(vec![SloSpec::parse(
            "route=/designs/{name}/timing,p99_ms=1",
        )
        .expect("spec")]);
        engine.observe("/designs/{name}/timing", 200, 500_000); // fast ok
        engine.observe("/designs/{name}/timing", 200, 2_000_000); // slow
        engine.observe("/designs/{name}/timing", 503, 500_000); // error
        engine.observe("/other", 503, 500_000); // different route: ignored
        let s = &engine.statuses()[0];
        assert_eq!((s.total, s.errors, s.slow), (3, 1, 1));
    }

    #[test]
    fn wildcard_route_matches_everything() {
        let engine = SloEngine::new(vec![SloSpec::parse("route=*").expect("spec")]);
        engine.observe("/a", 200, 0);
        engine.observe("/b", 200, 0);
        assert_eq!(engine.statuses()[0].total, 2);
    }

    #[test]
    fn tick_breaches_on_sustained_burn_and_recovers() {
        let store = test_store();
        let mut engine = SloEngine::new(vec![SloSpec::parse(
            "route=*,p99_ms=1,err_pct=10,window=60",
        )
        .expect("spec")]);
        engine.set_dump_on_breach(false);
        let mut now = 1_000_000u64;
        // Healthy traffic: no budget spent.
        for _ in 0..5 {
            for _ in 0..20 {
                engine.observe("/x", 200, 100_000);
            }
            assert!(!engine.tick(&store, now), "healthy traffic never breaches");
            now += 1_000;
        }
        assert!(!engine.any_breached());
        // 50% errors against a 10% budget: burn 5x on both windows.
        let mut transitions = 0;
        for _ in 0..5 {
            for i in 0..20 {
                engine.observe("/x", if i % 2 == 0 { 500 } else { 200 }, 100_000);
            }
            if engine.tick(&store, now) {
                transitions += 1;
            }
            now += 1_000;
        }
        assert_eq!(transitions, 1, "breach transition fires exactly once");
        assert!(engine.any_breached());
        let s = &engine.statuses()[0];
        assert!(s.breached && s.breaches == 1);
        assert!(s.fast_burn > 1.0, "fast burn {}", s.fast_burn);
        assert!(s.slow_burn > 1.0, "slow burn {}", s.slow_burn);
        // Long healthy stretch: the fast window clears first, then the
        // slow window; either clears the breach flag.
        for _ in 0..70 {
            for _ in 0..50 {
                engine.observe("/x", 200, 100_000);
            }
            engine.tick(&store, now);
            now += 1_000;
        }
        assert!(
            !engine.any_breached(),
            "burns decay once traffic is healthy"
        );
        assert_eq!(
            engine.statuses()[0].breaches,
            1,
            "recovery does not re-count the old breach"
        );
    }

    #[test]
    fn prometheus_rendering_names_every_family() {
        let store = test_store();
        let mut engine = SloEngine::new(vec![
            SloSpec::parse("route=/healthz,p99_ms=5").expect("spec")
        ]);
        engine.set_dump_on_breach(false);
        engine.observe("/healthz", 200, 1_000);
        engine.tick(&store, 1_000_000);
        let prom = engine.to_prometheus();
        for family in [
            "svt_slo_burn_rate{route=\"/healthz\",window=\"fast\"}",
            "svt_slo_burn_rate{route=\"/healthz\",window=\"slow\"}",
            "svt_slo_breached{route=\"/healthz\"} 0",
            "svt_slo_requests_total{route=\"/healthz\",class=\"total\"} 1",
            "svt_slo_breaches_total{route=\"/healthz\"} 0",
        ] {
            assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
        }
        assert!(
            SloEngine::new(vec![]).to_prometheus().is_empty(),
            "no objectives, no families"
        );
    }

    #[test]
    fn status_json_is_parseable() {
        let engine = SloEngine::new(vec![SloSpec::parse("route=*").expect("spec")]);
        let json = engine.statuses()[0].to_json();
        let doc = svt_obs::json::JsonValue::parse(&json).expect("healthz slo element parses");
        assert_eq!(
            doc.get("route").and_then(svt_obs::json::JsonValue::as_str),
            Some("*")
        );
        assert_eq!(
            doc.get("breached")
                .and_then(svt_obs::json::JsonValue::as_bool),
            Some(false)
        );
    }

    // Characters of the `--slo` grammar plus a little noise, for the
    // byte-soup property below.
    const SPEC_CHARS: &[char] = &[
        'r', 'o', 'u', 't', 'e', 'p', '9', '_', 'm', 's', 'w', 'i', 'n', 'd', 'a', 'c', '=', ',',
        '*', '/', '{', '}', '0', '1', '7', '.', '-', '+', ' ', 'é',
    ];
    const ROUTES: &[&str] = &["*", "/healthz", "/designs/{name}/eco", "", "/x,y"];
    const NUMBERS: &[&str] = &[
        "5", "0.001", "0", "-1", "1e308", "1e309", "nan", "inf", "abc", "",
    ];

    fn soup() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..SPEC_CHARS.len(), 0..60)
            .prop_map(|idx| idx.into_iter().map(|i| SPEC_CHARS[i]).collect())
    }

    fn window() -> impl Strategy<Value = u64> {
        (0u8..3, 0u64..200_000, 0u64..u64::MAX).prop_map(|(pick, near, any)| match pick {
            0 => near,
            1 => max_window_s() + near % 3 - 1,
            _ => any,
        })
    }

    /// Well-formed field layouts with hostile values: every key, some
    /// omitted, windows around and far beyond the ring bound.
    fn fields() -> impl Strategy<Value = String> {
        (
            0usize..ROUTES.len(),
            prop::option::of(0usize..NUMBERS.len()),
            prop::option::of(0usize..NUMBERS.len()),
            prop::option::of(window()),
        )
            .prop_map(|(route, p99, err, window)| {
                let mut spec = format!("route={}", ROUTES[route]);
                if let Some(i) = p99 {
                    spec.push_str(&format!(",p99_ms={}", NUMBERS[i]));
                }
                if let Some(i) = err {
                    spec.push_str(&format!(",err_pct={}", NUMBERS[i]));
                }
                if let Some(w) = window {
                    spec.push_str(&format!(",window={w}"));
                }
                spec
            })
    }

    /// Runs an accepted spec through the sampler path: observe, tick
    /// twice, render. Any overflow or panic fails the property.
    fn exercise(spec: &SloSpec) {
        let store = Tsdb::new(TsdbConfig::default());
        let mut engine = SloEngine::new(vec![spec.clone()]);
        engine.set_dump_on_breach(false);
        let now = 1_700_000_000_000u64;
        engine.observe(&spec.route, 503, u64::MAX);
        engine.observe("/elsewhere", 200, 0);
        engine.tick(&store, now);
        engine.observe(&spec.route, 200, 1);
        engine.tick(&store, now + 1_000);
        let status = &engine.statuses()[0];
        assert!(status.fast_burn.is_finite() && status.slow_burn.is_finite());
        assert!(!engine.to_prometheus().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_never_panics_and_accepted_specs_survive_tick(
            soup in soup(),
            fields in fields(),
        ) {
            for raw in [&soup, &fields] {
                if let Ok(spec) = SloSpec::parse(raw) {
                    prop_assert!(spec.window_s > 0 && spec.window_s <= max_window_s());
                    exercise(&spec);
                }
            }
        }
    }
}
