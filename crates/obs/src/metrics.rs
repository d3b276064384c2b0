//! Lock-free metric primitives.
//!
//! Every primitive is a bundle of atomics updated with `Relaxed` ordering:
//! observability must never serialize the hot path it watches. Readers
//! (snapshots) tolerate the resulting minor skew between related fields —
//! a snapshot taken mid-update may see a count without its nanoseconds,
//! which is irrelevant for aggregate reporting.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (pool sizes, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Increments the gauge and returns a guard that decrements it on
    /// drop — panic-safe in-flight tracking for request handlers and
    /// queue consumers.
    ///
    /// # Examples
    ///
    /// ```
    /// let gauge = svt_obs::registry().gauge("doc.inflight");
    /// {
    ///     let _guard = gauge.inflight();
    ///     assert_eq!(gauge.get(), 1);
    /// }
    /// assert_eq!(gauge.get(), 0);
    /// ```
    pub fn inflight(&'static self) -> InflightGuard {
        self.add(1);
        InflightGuard { gauge: self }
    }
}

/// RAII guard from [`Gauge::inflight`]: decrements the gauge when
/// dropped, including on unwind.
#[derive(Debug)]
pub struct InflightGuard {
    gauge: &'static Gauge,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.gauge.add(-1);
    }
}

/// Number of power-of-two histogram buckets: bucket `i` counts values `v`
/// with `floor(log2(v)) == i` (bucket 0 additionally holds 0). 2^47 ns is
/// about 39 hours, beyond any span this pipeline produces; larger values
/// saturate into the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Index of the bucket holding `v`.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (63 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Lower bound of bucket `i` (its values are `< lower_bound(i + 1)`).
    #[must_use]
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total sample count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let mean = self.sum() as f64 / n as f64;
            mean
        }
    }

    /// Upper bound (exclusive) of bucket with lower bound `lower`:
    /// bucket 0 holds `{0, 1}`, every other log2 bucket spans
    /// `[l, 2l)`. The saturating last bucket reuses the same rule as an
    /// estimate.
    #[must_use]
    pub fn bucket_upper_bound(lower: u64) -> u64 {
        if lower == 0 {
            2
        } else {
            lower.saturating_mul(2)
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) of the recorded
    /// samples by walking the cumulative bucket counts to the target
    /// rank and interpolating linearly inside the landing log2 bucket.
    /// Registry-wide single implementation — snapshot histogram entries
    /// and the TSDB sampler's derived quantile series both use it.
    /// Returns 0 with no samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.nonzero_buckets(), q)
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_lower_bound(i), n))
            })
            .collect()
    }
}

/// Estimates the `q`-quantile from `(bucket lower bound, count)` pairs
/// (the [`Histogram::nonzero_buckets`] shape, also carried by snapshot
/// [`crate::HistogramEntry`]s and per-tick bucket deltas). The target
/// rank is `q · n` clamped to `[1, n]`; within the landing bucket the
/// estimate interpolates linearly between the log2 bounds, which keeps
/// the error within one bucket width (≤ 2× at the top of a bucket).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn quantile_from_buckets(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0);
    let mut cum = 0u64;
    for (lower, n) in buckets {
        let (cum_before, here) = (cum as f64, *n as f64);
        cum += n;
        if cum as f64 >= target {
            let frac = ((target - cum_before) / here).clamp(0.0, 1.0);
            let lo = *lower as f64;
            let hi = Histogram::bucket_upper_bound(*lower) as f64;
            return lo + (hi - lo) * frac;
        }
    }
    buckets.last().map_or(0.0, |(lower, _)| {
        Histogram::bucket_upper_bound(*lower) as f64
    })
}

/// Aggregate of one span path: call count, total/min/max duration, and
/// the heap bytes allocated on the span's own thread while it was open
/// (children included).
#[derive(Debug)]
pub struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl Default for SpanStat {
    fn default() -> SpanStat {
        SpanStat {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
        }
    }
}

impl SpanStat {
    /// Records one completed span of `ns` nanoseconds that allocated
    /// `alloc_bytes` heap bytes.
    #[inline]
    pub fn record(&self, ns: u64, alloc_bytes: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        if alloc_bytes > 0 {
            self.alloc_bytes.fetch_add(alloc_bytes, Ordering::Relaxed);
        }
    }

    /// Number of completed spans.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across all spans.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Shortest recorded span, or 0 with no spans.
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min_ns.load(Ordering::Relaxed)
        }
    }

    /// Longest recorded span.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Heap bytes allocated across all spans, children included (0
    /// unless allocation attribution was active).
    #[must_use]
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes.load(Ordering::Relaxed)
    }

    /// Mean span duration in nanoseconds, or 0 with no spans.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let mean = self.total_ns() as f64 / n as f64;
            mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_arithmetic() {
        let c = Counter::default();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);

        let g = Gauge::default();
        g.set(5);
        g.add(-7);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1024, 1025] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2055);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets, vec![(0, 2), (2, 2), (1024, 2)]);
        assert!((h.mean() - 2055.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram quantiles to 0");
        // 100 samples of exactly 1000 ns land in bucket [512, 1024).
        for _ in 0..100 {
            h.record(1000);
        }
        let p50 = h.quantile(0.5);
        assert!(
            (512.0..1024.0).contains(&p50),
            "p50 {p50} inside the sample's bucket"
        );
        assert!(h.quantile(0.99) >= p50, "quantiles are monotone in q");
        // A bimodal distribution: p99 must land in the slow mode's bucket.
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let p99 = h.quantile(0.99);
        assert!(p99 < 256.0, "99 of 100 samples are fast: {p99}");
        let p999 = h.quantile(0.999);
        assert!(
            (524_288.0..2_097_152.0).contains(&p999),
            "tail quantile {p999} reaches the slow bucket"
        );
        // The free-function form matches the method on the same buckets.
        let direct = quantile_from_buckets(&h.nonzero_buckets(), 0.99);
        assert!((direct - p99).abs() < 1e-9);
    }

    #[test]
    fn span_stat_tracks_extremes() {
        let s = SpanStat::default();
        assert_eq!(s.min_ns(), 0, "empty stat has no minimum");
        s.record(10, 0);
        s.record(30, 64);
        s.record(20, 8);
        assert_eq!(s.count(), 3);
        assert_eq!(s.total_ns(), 60);
        assert_eq!(s.min_ns(), 10);
        assert_eq!(s.max_ns(), 30);
        assert_eq!(s.alloc_bytes(), 72);
        assert!((s.mean_ns() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let c = Counter::default();
        let h = Histogram::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000 {
                        c.incr();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
