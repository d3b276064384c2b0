//! Embedded fixed-memory time-series store for long-horizon telemetry.
//!
//! `svtd`'s `/metrics` endpoint answers "what is happening now"; this
//! module answers "what happened over the last hours" without any
//! external TSDB. A [`Sampler`] thread scrapes the live registry
//! [`crate::Snapshot`] every N ms and ingests each series into a small
//! set of **tiered rings**: a raw tier holding one [`Bin`] per sample,
//! plus downsample tiers (1 min, 10 min by default) whose bins merge
//! every sample landing in the same time bucket. Each bin carries
//! `count`/`sum`/`min`/`max`, and [`Bin::merge`] conserves counts, so a
//! coarse tier is an exact aggregate of the fine samples it absorbed —
//! never a lossy re-sampling.
//!
//! Memory is bounded by construction: every tier is a capped ring
//! (oldest point evicted first), so the store's worst case is
//! `series × Σ tier_cap × sizeof(point)` and is reported on `/healthz`.
//! Ingest and query take one mutex on the series map — both run on
//! sampler/scrape cadence, never on the request hot path.
//!
//! Tier geometry is a [`TsdbConfig`]: the process-global store uses the
//! default tiers, and tests build small configurations directly to
//! exercise multi-tier behaviour in milliseconds instead of minutes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One aggregated observation bucket. Merging two bins adds counts and
/// sums and widens the min/max envelope, so downsampling conserves the
/// sample count and never invents values outside the observed range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Samples aggregated into this bin.
    pub count: u64,
    /// Sum of the aggregated values.
    pub sum: f64,
    /// Smallest aggregated value.
    pub min: f64,
    /// Largest aggregated value.
    pub max: f64,
}

impl Bin {
    /// A bin holding the single value `v`.
    #[must_use]
    pub fn of(v: f64) -> Bin {
        Bin {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    /// Folds `other` into `self`: counts and sums add, the min/max
    /// envelope widens. Empty bins are identity elements.
    pub fn merge(&mut self, other: &Bin) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the aggregated values, or 0 when empty.
    #[must_use]
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let avg = self.sum / self.count as f64;
            avg
        }
    }
}

/// One retained point: the start of its time bucket plus the bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Bucket start, unix milliseconds (raw tier: the sample instant).
    pub ts_ms: u64,
    /// Aggregated observations of the bucket.
    pub bin: Bin,
}

/// Geometry of one ring: bucket width (0 = raw, one point per sample)
/// and point capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Bucket width in milliseconds; 0 keeps every sample as its own
    /// point.
    pub width_ms: u64,
    /// Ring capacity in points; the oldest point evicts first.
    pub cap: usize,
}

/// Ring geometry of the whole store, finest tier first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsdbConfig {
    /// Tier geometry, finest (raw) first.
    pub tiers: Vec<TierSpec>,
}

impl Default for TsdbConfig {
    /// Raw ring of 512 samples, a 1-minute tier covering 6 h, and a
    /// 10-minute tier covering 48 h.
    fn default() -> TsdbConfig {
        TsdbConfig {
            tiers: vec![
                TierSpec {
                    width_ms: 0,
                    cap: 512,
                },
                TierSpec {
                    width_ms: 60_000,
                    cap: 360,
                },
                TierSpec {
                    width_ms: 600_000,
                    cap: 288,
                },
            ],
        }
    }
}

/// One capped ring of [`Point`]s at a fixed bucket width.
#[derive(Debug)]
struct Tier {
    spec: TierSpec,
    points: VecDeque<Point>,
}

impl Tier {
    fn bucket_of(&self, ts_ms: u64) -> u64 {
        match ts_ms.checked_div(self.spec.width_ms) {
            // Raw tier (width 0): every sample keeps its own timestamp.
            None => ts_ms,
            Some(bucket) => bucket * self.spec.width_ms,
        }
    }

    fn ingest(&mut self, ts_ms: u64, bin: &Bin) {
        let bucket = self.bucket_of(ts_ms);
        if let Some(tail) = self.points.back_mut() {
            if tail.ts_ms == bucket {
                tail.bin.merge(bin);
                return;
            }
        }
        if self.points.len() >= self.spec.cap {
            self.points.pop_front();
        }
        self.points.push_back(Point {
            ts_ms: bucket,
            bin: *bin,
        });
    }
}

/// All tiers of one metric.
#[derive(Debug)]
struct Series {
    tiers: Vec<Tier>,
}

impl Series {
    fn new(config: &TsdbConfig) -> Series {
        Series {
            tiers: config
                .tiers
                .iter()
                .map(|spec| Tier {
                    spec: *spec,
                    points: VecDeque::new(),
                })
                .collect(),
        }
    }
}

/// Result of one [`Tsdb::query`]: the selected tier's points, aggregated
/// to the requested step, plus the per-tier occupancy of the series so
/// clients can see how deep each ring reaches.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Queried metric name.
    pub metric: String,
    /// Bucket width of the tier that answered (0 = raw).
    pub tier_width_ms: u64,
    /// Points within the range, oldest first, merged to the step width.
    pub points: Vec<Point>,
    /// Every tier of the series as `(width_ms, cap, resident points)`.
    pub tiers: Vec<(u64, usize, usize)>,
}

impl QueryResult {
    /// Renders the result as the `/query` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.points.len() * 96);
        out.push_str("{\"metric\":\"");
        out.push_str(&crate::json::escape_json(&self.metric));
        out.push_str(&format!(
            "\",\"tier_width_ms\":{},\"tiers\":[",
            self.tier_width_ms
        ));
        for (i, (width, cap, len)) in self.tiers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"width_ms\":{width},\"cap\":{cap},\"points\":{len}}}"
            ));
        }
        out.push_str("],\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ts_ms\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"avg\":{}}}",
                p.ts_ms,
                p.bin.count,
                fmt_json_f64(p.bin.sum),
                fmt_json_f64(p.bin.min),
                fmt_json_f64(p.bin.max),
                fmt_json_f64(p.bin.avg())
            ));
        }
        out.push_str("]}");
        out
    }
}

fn fmt_json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Resident footprint of the store, for `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsdbOccupancy {
    /// Distinct series names.
    pub series: usize,
    /// Worst-case bytes if every ring of every series fills.
    pub memory_bound_bytes: u64,
    /// Per-tier `(width_ms, capacity across series, resident points)`.
    pub tiers: Vec<(u64, usize, usize)>,
}

/// The embedded store: a map from series name to tiered rings.
pub struct Tsdb {
    config: TsdbConfig,
    series: Mutex<BTreeMap<String, Series>>,
}

impl Tsdb {
    /// An empty store with the given ring geometry.
    #[must_use]
    pub fn new(config: TsdbConfig) -> Tsdb {
        Tsdb {
            config,
            series: Mutex::new(BTreeMap::new()),
        }
    }

    /// The ring geometry.
    #[must_use]
    pub fn config(&self) -> &TsdbConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Series>> {
        self.series.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ingests one scalar observation at `ts_ms` into every tier of
    /// `metric`.
    pub fn ingest(&self, metric: &str, ts_ms: u64, value: f64) {
        self.ingest_bin(metric, ts_ms, &Bin::of(value));
    }

    /// Ingests a pre-aggregated bin (e.g. a re-merge from another store)
    /// into every tier of `metric`.
    pub fn ingest_bin(&self, metric: &str, ts_ms: u64, bin: &Bin) {
        if bin.count == 0 {
            return;
        }
        let mut map = self.lock();
        let series = map
            .entry(metric.to_string())
            .or_insert_with(|| Series::new(&self.config));
        for tier in &mut series.tiers {
            tier.ingest(ts_ms, bin);
        }
    }

    /// Every series name currently resident, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Answers a range query: picks the **finest tier whose retained
    /// history covers the range start** (falling back to the deepest
    /// tier when none reaches that far), filters to `[now - range, now]`,
    /// and — when `step_ms` is coarser than the tier's bucket — merges
    /// neighbouring points into step-aligned bins (count-conserving).
    /// Returns `None` for an unknown metric.
    #[must_use]
    pub fn query(
        &self,
        metric: &str,
        range_ms: u64,
        step_ms: u64,
        now_ms: u64,
    ) -> Option<QueryResult> {
        let map = self.lock();
        let series = map.get(metric)?;
        let start = now_ms.saturating_sub(range_ms);
        let tiers: Vec<(u64, usize, usize)> = series
            .tiers
            .iter()
            .map(|t| (t.spec.width_ms, t.spec.cap, t.points.len()))
            .collect();
        let covering = series
            .tiers
            .iter()
            .find(|t| t.points.front().is_some_and(|p| p.ts_ms <= start));
        let deepest = series
            .tiers
            .iter()
            .filter(|t| !t.points.is_empty())
            .min_by_key(|t| t.points.front().map_or(u64::MAX, |p| p.ts_ms));
        let tier = covering.or(deepest)?;
        let mut points: Vec<Point> = Vec::new();
        for p in tier.points.iter().filter(|p| p.ts_ms >= start) {
            if step_ms > tier.spec.width_ms.max(1) {
                let bucket = p.ts_ms / step_ms * step_ms;
                if let Some(last) = points.last_mut() {
                    if last.ts_ms == bucket {
                        last.bin.merge(&p.bin);
                        continue;
                    }
                }
                points.push(Point {
                    ts_ms: bucket,
                    bin: p.bin,
                });
            } else {
                points.push(*p);
            }
        }
        Some(QueryResult {
            metric: metric.to_string(),
            tier_width_ms: tier.spec.width_ms,
            points,
            tiers,
        })
    }

    /// The store's memory bound and per-tier occupancy.
    #[must_use]
    pub fn occupancy(&self) -> TsdbOccupancy {
        let map = self.lock();
        let series = map.len();
        let point_bytes = std::mem::size_of::<Point>() as u64;
        let per_series: u64 = self.config.tiers.iter().map(|t| t.cap as u64).sum();
        let mut tiers: Vec<(u64, usize, usize)> = self
            .config
            .tiers
            .iter()
            .map(|t| (t.width_ms, t.cap * series, 0))
            .collect();
        for s in map.values() {
            for (slot, tier) in tiers.iter_mut().zip(&s.tiers) {
                slot.2 += tier.points.len();
            }
        }
        TsdbOccupancy {
            series,
            memory_bound_bytes: series as u64 * per_series * point_bytes,
            tiers,
        }
    }
}

/// The process-global store, with the [`TsdbConfig::default`] tiers.
/// `svtd`'s sampler writes here and `/query`, `/dashboard`, and
/// `/healthz` read it.
pub fn global() -> &'static Tsdb {
    static GLOBAL: OnceLock<Tsdb> = OnceLock::new();
    GLOBAL.get_or_init(|| Tsdb::new(TsdbConfig::default()))
}

/// Milliseconds since the unix epoch (wall clock — the query time axis).
#[must_use]
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// A callback run at the start of every sampler tick, before the
/// registry scrape — publish pull-style gauges (RSS, pool stats) here so
/// the scrape sees fresh values.
pub type SamplerHook = Box<dyn Fn() + Send>;

/// The background thread scraping the registry into a [`Tsdb`] every
/// interval. Owns no request-path state: a daemon without a sampler pays
/// nothing.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the sampler at `interval`, ingesting into `store`. Each
    /// tick runs every `hook`, scrapes [`crate::registry()`], and
    /// ingests:
    ///
    /// * every counter as its cumulative value plus a `<name>.rate`
    ///   series (per-second delta against the previous tick);
    /// * every gauge as its value;
    /// * every histogram as `<name>.rate` (sample arrivals per second)
    ///   plus `<name>.p50` / `<name>.p99` estimated from the bucket
    ///   deltas of the tick window.
    #[must_use]
    pub fn spawn(store: &'static Tsdb, interval: Duration, hooks: Vec<SamplerHook>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("svt-sampler".into())
            .spawn(move || {
                let mut prev: Option<(u64, crate::Snapshot)> = None;
                while !thread_stop.load(Ordering::Relaxed) {
                    for hook in &hooks {
                        hook();
                    }
                    let now = unix_ms();
                    let snap = crate::registry().snapshot();
                    sample_once(store, now, &snap, prev.as_ref());
                    prev = Some((now, snap));
                    crate::counter!("tsdb.sampler.ticks").incr();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn svt-sampler");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One sampler tick against an explicit snapshot pair — factored out so
/// tests (and the smoke driver) can step the ingest deterministically
/// without a thread.
pub fn sample_once(
    store: &Tsdb,
    now_ms: u64,
    snap: &crate::Snapshot,
    prev: Option<&(u64, crate::Snapshot)>,
) {
    let dt_secs = prev.map(|(t, _)| {
        #[allow(clippy::cast_precision_loss)]
        let dt = now_ms.saturating_sub(*t) as f64 / 1e3;
        dt.max(1e-6)
    });
    #[allow(clippy::cast_precision_loss)]
    for (name, value) in &snap.counters {
        store.ingest(name, now_ms, *value as f64);
        if let (Some(dt), Some((_, p))) = (dt_secs, prev) {
            if let Ok(i) = p.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                let delta = value.saturating_sub(p.counters[i].1);
                store.ingest(&format!("{name}.rate"), now_ms, delta as f64 / dt);
            }
        }
    }
    // Labeled counter families ingest summed across their label sets —
    // the per-label breakdown stays in `/metrics`, the TSDB keeps the
    // headline total (e.g. `serve.conn_reaped.rate` across reasons).
    #[allow(clippy::cast_precision_loss)]
    for family in &snap.counter_families {
        let total: u64 = family.series.iter().map(|(_, n)| n).sum();
        store.ingest(&family.name, now_ms, total as f64);
        if let (Some(dt), Some((_, p))) = (dt_secs, prev) {
            if let Ok(i) = p
                .counter_families
                .binary_search_by(|f| f.name.as_str().cmp(&family.name))
            {
                let before: u64 = p.counter_families[i].series.iter().map(|(_, n)| n).sum();
                let delta = total.saturating_sub(before);
                store.ingest(&format!("{}.rate", family.name), now_ms, delta as f64 / dt);
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    for (name, value) in &snap.gauges {
        store.ingest(name, now_ms, *value as f64);
    }
    #[allow(clippy::cast_precision_loss)]
    for h in &snap.histograms {
        let prev_entry = prev.and_then(|(_, p)| p.histograms.iter().find(|e| e.name == h.name));
        let (prev_count, prev_buckets): (u64, &[(u64, u64)]) =
            prev_entry.map_or((0, &[]), |e| (e.count, &e.buckets));
        let delta_count = h.count.saturating_sub(prev_count);
        if let Some(dt) = dt_secs {
            store.ingest(&format!("{}.rate", h.name), now_ms, delta_count as f64 / dt);
        }
        if delta_count > 0 {
            let deltas: Vec<(u64, u64)> = h
                .buckets
                .iter()
                .map(|(lb, n)| {
                    let before = prev_buckets
                        .iter()
                        .find(|(plb, _)| plb == lb)
                        .map_or(0, |(_, pn)| *pn);
                    (*lb, n.saturating_sub(before))
                })
                .filter(|(_, n)| *n > 0)
                .collect();
            store.ingest(
                &format!("{}.p50", h.name),
                now_ms,
                crate::metrics::quantile_from_buckets(&deltas, 0.5),
            );
            store.ingest(
                &format!("{}.p99", h.name),
                now_ms,
                crate::metrics::quantile_from_buckets(&deltas, 0.99),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> TsdbConfig {
        TsdbConfig {
            tiers: vec![
                TierSpec {
                    width_ms: 0,
                    cap: 8,
                },
                TierSpec {
                    width_ms: 100,
                    cap: 8,
                },
                TierSpec {
                    width_ms: 1000,
                    cap: 4,
                },
            ],
        }
    }

    #[test]
    fn bins_merge_conserving_counts_and_envelope() {
        let mut a = Bin::of(10.0);
        a.merge(&Bin::of(2.0));
        a.merge(&Bin::of(30.0));
        assert_eq!(a.count, 3);
        assert!((a.sum - 42.0).abs() < 1e-12);
        assert!((a.min - 2.0).abs() < 1e-12);
        assert!((a.max - 30.0).abs() < 1e-12);
        assert!((a.avg() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn every_tier_sees_every_sample() {
        let db = Tsdb::new(test_config());
        for i in 0..20u64 {
            db.ingest("m", 1_000 + i * 50, 1.0);
        }
        let occ = db.occupancy();
        assert_eq!(occ.series, 1);
        // Raw tier capped at 8; the 100 ms tier merged pairs; the 1 s
        // tier merged everything into two buckets (1000..2000, 2000..).
        assert_eq!(occ.tiers[0].2, 8, "raw ring caps at its capacity");
        let total_in_1s_tier: u64 = db
            .query("m", u64::MAX, 1, 3_000)
            .unwrap()
            .points
            .iter()
            .map(|p| p.bin.count)
            .sum();
        // Raw ring evicted, but the coarse tier conserved all 20 counts.
        let coarse = db.query("m", u64::MAX, 1_000, 3_000).unwrap();
        let coarse_total: u64 = coarse.points.iter().map(|p| p.bin.count).sum();
        assert_eq!(coarse_total, 20, "coarse tier conserves every sample");
        assert!(total_in_1s_tier <= 20);
    }

    #[test]
    fn query_picks_the_finest_covering_tier() {
        let db = Tsdb::new(test_config());
        for i in 0..40u64 {
            db.ingest("m", i * 100, f64::from(u32::try_from(i).unwrap()));
        }
        // Raw tier holds only the last 8 samples (3200..3900); a short
        // range query uses it.
        let fine = db.query("m", 500, 1, 3_900).unwrap();
        assert_eq!(fine.tier_width_ms, 0);
        // A range reaching past raw retention falls to the 100 ms tier,
        // and past that to the 1 s tier.
        let deep = db.query("m", 4_000, 1, 3_900).unwrap();
        assert!(deep.tier_width_ms >= 100);
        assert!(deep.points.first().unwrap().ts_ms <= 1_000);
    }

    #[test]
    fn query_respects_step_merging() {
        let db = Tsdb::new(test_config());
        for i in 0..8u64 {
            db.ingest("m", i * 100, 1.0);
        }
        let merged = db.query("m", 10_000, 400, 800).unwrap();
        assert!(merged.points.len() < 8, "step merging coalesces points");
        let total: u64 = merged.points.iter().map(|p| p.bin.count).sum();
        assert_eq!(total, 8, "step merging conserves counts");
    }

    #[test]
    fn unknown_metrics_query_to_none() {
        let db = Tsdb::new(test_config());
        assert!(db.query("nope", 1_000, 1, 0).is_none());
    }

    #[test]
    fn occupancy_reports_bound_and_residency() {
        let db = Tsdb::new(test_config());
        db.ingest("a", 0, 1.0);
        db.ingest("b", 0, 1.0);
        let occ = db.occupancy();
        assert_eq!(occ.series, 2);
        assert_eq!(
            occ.memory_bound_bytes,
            2 * 20 * std::mem::size_of::<Point>() as u64
        );
        assert!(occ.tiers.iter().all(|(_, _, len)| *len == 2));
    }

    #[test]
    fn sample_once_derives_rates_and_quantiles() {
        let db = Tsdb::new(test_config());
        let mut snap0 = crate::Snapshot::default();
        snap0.counters.push(("t.req".to_string(), 100));
        let mut snap1 = crate::Snapshot::default();
        snap1.counters.push(("t.req".to_string(), 150));
        snap1.histograms.push(crate::HistogramEntry {
            name: "t.lat".to_string(),
            count: 10,
            sum: 10_240,
            buckets: vec![(1024, 10)],
        });
        sample_once(&db, 1_000, &snap0, None);
        sample_once(&db, 2_000, &snap1, Some(&(1_000, snap0)));
        let rate = db.query("t.req.rate", u64::MAX, 1, 2_000).unwrap();
        assert!((rate.points.last().unwrap().bin.max - 50.0).abs() < 1e-9);
        let p99 = db.query("t.lat.p99", u64::MAX, 1, 2_000).unwrap();
        let v = p99.points.last().unwrap().bin.max;
        assert!((1024.0..=2048.0).contains(&v), "p99 {v} inside the bucket");
    }

    #[test]
    fn query_json_is_well_formed() {
        let db = Tsdb::new(test_config());
        db.ingest("m", 1_000, 2.5);
        let json = db.query("m", u64::MAX, 1, 1_000).unwrap().to_json();
        let doc = crate::json::JsonValue::parse(&json).expect("query JSON parses");
        assert_eq!(
            doc.get("metric").and_then(crate::json::JsonValue::as_str),
            Some("m")
        );
        assert_eq!(
            doc.get("tiers")
                .and_then(crate::json::JsonValue::as_array)
                .map(<[crate::json::JsonValue]>::len),
            Some(3)
        );
    }
}
