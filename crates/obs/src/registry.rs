//! The global metric registry.
//!
//! Metric storage is sharded over lock-striped `HashMap`s exactly like
//! `svt-exec`'s memo cache, so registration from concurrent workers rarely
//! contends. Registration is the *cold* path: call sites cache the returned
//! `&'static` handle (the [`crate::counter!`]/[`crate::histogram!`] macros
//! do this with a per-site `OnceLock`), after which every update is a plain
//! atomic on the handle — no lock, no lookup.
//!
//! Handles are leaked `Box`es. The set of metric names is a small static
//! property of the instrumented code, so the leak is bounded and the
//! `&'static` lifetime is what makes the hot path lock-free.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::family::{CounterFamily, HistogramFamily};
use crate::metrics::{Counter, Gauge, Histogram, SpanStat};

/// Shard count; power of two so hash bits select shards evenly.
const SHARDS: usize = 16;

/// A registered metric of any kind.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    Span(&'static SpanStat),
    CounterFamily(&'static CounterFamily),
    HistogramFamily(&'static HistogramFamily),
}

/// Point-in-time cache activity, reported by a registered cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries dropped by capacity resets.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheCounters {
    /// Hit fraction in `[0, 1]`; 0 when untouched.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let rate = self.hits as f64 / total as f64;
            rate
        }
    }
}

/// A callback reading a cache's live counters at snapshot time. Cache
/// telemetry costs the instrumented cache nothing: its own hit/miss atomics
/// are read only when a snapshot is taken.
type CacheProbe = Box<dyn Fn() -> CacheCounters + Send + Sync>;

type Shard = Mutex<HashMap<String, Metric>>;

/// The process-wide metric registry.
pub struct Registry {
    shards: Vec<Shard>,
    caches: Mutex<Vec<(String, CacheProbe)>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        caches: Mutex::new(Vec::new()),
    })
}

/// Locks a mutex, recovering from poisoning: metric maps stay consistent
/// across the panics that can occur while a shard is held (kind-mismatch
/// registration), so a poisoned lock carries valid data.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    fn shard_for(&self, name: &str) -> &Shard {
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(name);
        // High bits pick the shard; low bits pick the bucket inside it.
        let idx = (hash >> 32) as usize & (SHARDS - 1);
        &self.shards[idx]
    }

    fn get_or_leak<T: Default, F>(
        &self,
        name: &str,
        wrap: F,
        unwrap: fn(&Metric) -> Option<&'static T>,
    ) -> &'static T
    where
        F: FnOnce(&'static T) -> Metric,
    {
        let mut shard = lock_recovering(self.shard_for(name));
        if let Some(existing) = shard.get(name) {
            return unwrap(existing).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different kind")
            });
        }
        let leaked: &'static T = Box::leak(Box::default());
        shard.insert(name.to_string(), wrap(leaked));
        leaked
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> &'static Counter {
        self.get_or_leak(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        self.get_or_leak(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        self.get_or_leak(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// The span aggregate for a `/`-separated span path, registering it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn span_stat(&self, path: &str) -> &'static SpanStat {
        self.get_or_leak(path, Metric::Span, |m| match m {
            Metric::Span(s) => Some(s),
            _ => None,
        })
    }

    /// The labeled counter family named `name` with label keys `keys`,
    /// registering it on first use. See [`crate::family`] for the
    /// cardinality budget.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// or with different label keys.
    pub fn counter_family(&self, name: &str, keys: &[&str]) -> &'static CounterFamily {
        let fam = self.get_or_leak(name, Metric::CounterFamily, |m| match m {
            Metric::CounterFamily(f) => Some(f),
            _ => None,
        });
        fam.bind(name, keys);
        fam
    }

    /// The labeled histogram family named `name` with label keys `keys`,
    /// registering it on first use. See [`crate::family`] for the
    /// cardinality budget.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// or with different label keys.
    pub fn histogram_family(&self, name: &str, keys: &[&str]) -> &'static HistogramFamily {
        let fam = self.get_or_leak(name, Metric::HistogramFamily, |m| match m {
            Metric::HistogramFamily(f) => Some(f),
            _ => None,
        });
        fam.bind(name, keys);
        fam
    }

    /// Registers a named cache probe. Re-registering a name replaces the
    /// probe (the latest cache instance wins), so idempotent registration
    /// from `OnceLock` initializers is safe.
    pub fn register_cache<F>(&self, name: &str, probe: F)
    where
        F: Fn() -> CacheCounters + Send + Sync + 'static,
    {
        let mut caches = lock_recovering(&self.caches);
        if let Some(slot) = caches.iter_mut().find(|(n, _)| n == name) {
            slot.1 = Box::new(probe);
        } else {
            caches.push((name.to_string(), Box::new(probe)));
        }
    }

    /// Takes a point-in-time snapshot of every metric and cache probe,
    /// sorted by name so output is deterministic.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut spans = Vec::new();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let mut counter_families = Vec::new();
        let mut histogram_families = Vec::new();
        for shard in &self.shards {
            for (name, metric) in lock_recovering(shard).iter() {
                match metric {
                    Metric::Counter(c) => counters.push((name.clone(), c.get())),
                    Metric::Gauge(g) => gauges.push((name.clone(), g.get())),
                    Metric::Histogram(h) => histograms.push(HistogramEntry {
                        name: name.clone(),
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.nonzero_buckets(),
                    }),
                    Metric::Span(s) => spans.push(SpanEntry {
                        path: name.clone(),
                        count: s.count(),
                        total_ns: s.total_ns(),
                        min_ns: s.min_ns(),
                        max_ns: s.max_ns(),
                        alloc_bytes: s.alloc_bytes(),
                    }),
                    Metric::CounterFamily(f) => counter_families.push(CounterFamilyEntry {
                        name: name.clone(),
                        keys: f.keys().to_vec(),
                        series: f.collect(),
                    }),
                    Metric::HistogramFamily(f) => histogram_families.push(HistogramFamilyEntry {
                        name: name.clone(),
                        keys: f.keys().to_vec(),
                        series: f.collect(),
                    }),
                }
            }
        }
        let mut caches: Vec<(String, CacheCounters)> = lock_recovering(&self.caches)
            .iter()
            .map(|(name, probe)| (name.clone(), probe()))
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        counters.sort();
        gauges.sort();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        counter_families.sort_by(|a, b| a.name.cmp(&b.name));
        histogram_families.sort_by(|a, b| a.name.cmp(&b.name));
        caches.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            spans,
            counters,
            gauges,
            histograms,
            counter_families,
            histogram_families,
            caches,
        }
    }
}

/// One span path in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// `/`-separated span path.
    pub path: String,
    /// Completed span count.
    pub count: u64,
    /// Total nanoseconds.
    pub total_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
    /// Heap bytes allocated on the span's own thread while it was open,
    /// children included (0 unless allocation attribution was active).
    pub alloc_bytes: u64,
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Non-empty `(bucket lower bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramEntry {
    /// Estimates the `q`-quantile of the snapshotted samples; same
    /// log2-bucket interpolation as [`Histogram::quantile`]
    /// (`crate::metrics::quantile_from_buckets`), so live handles and
    /// snapshots agree.
    ///
    /// [`Histogram::quantile`]: crate::Histogram::quantile
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        crate::metrics::quantile_from_buckets(&self.buckets, q)
    }
}

/// One labeled counter family in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterFamilyEntry {
    /// Family name.
    pub name: String,
    /// Label keys in registration order.
    pub keys: Vec<String>,
    /// `(label values, count)` rows sorted by label values; an overflow
    /// row (every value [`crate::family::OVERFLOW_LABEL`]) appears last
    /// when the cardinality cap was hit.
    pub series: Vec<(Vec<String>, u64)>,
}

/// One labeled histogram family in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramFamilyEntry {
    /// Family name.
    pub name: String,
    /// Label keys in registration order.
    pub keys: Vec<String>,
    /// `(label values, count, sum)` rows sorted by label values; an
    /// overflow row appears last when the cardinality cap was hit.
    pub series: Vec<(Vec<String>, u64, u64)>,
}

/// A deterministic, name-sorted view of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Span aggregates by path.
    pub spans: Vec<SpanEntry>,
    /// Counters by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms by name.
    pub histograms: Vec<HistogramEntry>,
    /// Labeled counter families by name.
    pub counter_families: Vec<CounterFamilyEntry>,
    /// Labeled histogram families by name.
    pub histogram_families: Vec<HistogramFamilyEntry>,
    /// Cache probes by name.
    pub caches: Vec<(String, CacheCounters)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_typed() {
        let r = registry();
        let a = r.counter("test.reg.counter");
        let b = r.counter("test.reg.counter");
        assert!(std::ptr::eq(a, b), "same name must return the same handle");
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_is_rejected() {
        let r = registry();
        let _ = r.counter("test.reg.mismatch");
        let _ = r.gauge("test.reg.mismatch");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = registry();
        r.counter("test.snap.b").add(2);
        r.counter("test.snap.a").add(1);
        r.gauge("test.snap.g").set(-4);
        r.histogram("test.snap.h").record(100);
        r.span_stat("test.snap/span").record(50, 0);
        r.register_cache("test.snap.cache", || CacheCounters {
            hits: 9,
            misses: 1,
            inserts: 1,
            evictions: 0,
            entries: 1,
        });
        let snap = r.snapshot();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("test.snap."))
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["test.snap.a", "test.snap.b"]);
        let cache = snap
            .caches
            .iter()
            .find(|(n, _)| n == "test.snap.cache")
            .expect("cache probe present");
        assert!((cache.1.hit_rate() - 0.9).abs() < 1e-12);
        assert!(snap.spans.iter().any(|s| s.path == "test.snap/span"));
    }

    #[test]
    fn family_registration_is_idempotent_and_snapshotted() {
        let r = registry();
        let f = r.counter_family("test.reg.family", &["route", "status"]);
        let again = r.counter_family("test.reg.family", &["route", "status"]);
        assert!(std::ptr::eq(f, again), "same name returns the same family");
        f.with(&["/eco", "200"]).incr();
        r.histogram_family("test.reg.hfamily", &["route"])
            .with(&["/eco"])
            .record(40);
        let snap = r.snapshot();
        let entry = snap
            .counter_families
            .iter()
            .find(|e| e.name == "test.reg.family")
            .expect("family in snapshot");
        assert_eq!(entry.keys, vec!["route", "status"]);
        assert!(entry
            .series
            .iter()
            .any(|(vs, n)| vs == &["/eco", "200"] && *n >= 1));
        let hentry = snap
            .histogram_families
            .iter()
            .find(|e| e.name == "test.reg.hfamily")
            .expect("histogram family in snapshot");
        assert!(hentry
            .series
            .iter()
            .any(|(vs, n, s)| vs == &["/eco"] && *n >= 1 && *s >= 40));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn family_kind_mismatch_is_rejected() {
        let r = registry();
        let _ = r.counter("test.reg.fam_mismatch");
        let _ = r.counter_family("test.reg.fam_mismatch", &["k"]);
    }

    #[test]
    fn cache_reregistration_replaces_probe() {
        let r = registry();
        r.register_cache("test.reg.cache", CacheCounters::default);
        r.register_cache("test.reg.cache", || CacheCounters {
            hits: 7,
            ..CacheCounters::default()
        });
        let snap = r.snapshot();
        let hits = snap
            .caches
            .iter()
            .filter(|(n, _)| n == "test.reg.cache")
            .map(|(_, c)| c.hits)
            .collect::<Vec<_>>();
        assert_eq!(hits, vec![7], "latest probe wins, no duplicates");
    }
}
