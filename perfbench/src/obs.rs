//! Reads of the program's own metric registry, for layers that run
//! hidden inside one public call (OPC under `expand_library`, the worker
//! pool under every sign-off). The registry records only while tracing
//! is on, so these reads are made in traced runs only.

use std::collections::BTreeMap;

use svt_obs::Snapshot;

/// Count and total nanoseconds of every span whose innermost name is
/// `name`, counting only the outermost such span on a path.
#[must_use]
pub fn span(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|s| {
            let mut segs = s.path.rsplit('/');
            segs.next() == Some(name) && segs.all(|seg| seg != name)
        })
        .fold((0, 0), |(c, t), s| (c + s.count, t + s.total_ns))
}

#[must_use]
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// The growth of the registry between two snapshots.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    #[must_use]
    pub fn span(&self, name: &str) -> (u64, u64) {
        let (c0, t0) = span(self.before, name);
        let (c1, t1) = span(self.after, name);
        (c1.saturating_sub(c0), t1.saturating_sub(t0))
    }

    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        counter(self.after, name).saturating_sub(counter(self.before, name))
    }
}

/// The layers that run hidden inside `expand_library`, summed over the
/// intervals [`Expansion::add`] is given.
#[derive(Default)]
pub struct Expansion {
    opc_calls: u64,
    opc_ns: u64,
    pitch_table_ns: u64,
    characterize_ns: u64,
    aerial_images: u64,
}

impl Expansion {
    pub fn add(&mut self, d: &Delta<'_>) {
        let (calls, ns) = d.span("opc.correct");
        self.opc_calls += calls;
        self.opc_ns += ns;
        self.pitch_table_ns += d.span("stdcell.pitch_table.build").1;
        self.characterize_ns += d.span("stdcell.expand.characterize").1;
        self.aerial_images += d.counter("litho.aerial_images");
    }

    /// Inserts the OPC, pitch-table, characterization and aerial-image
    /// metrics, each per expansion of the `expansions` summed.
    pub fn insert(&self, layers: &mut BTreeMap<&'static str, f64>, expansions: f64) {
        let ms = |ns: u64| ns as f64 / 1e6 / expansions;
        layers.insert(
            "litho.aerial_images",
            self.aerial_images as f64 / expansions,
        );
        layers.insert("opc.correct_ms", ms(self.opc_ns));
        layers.insert("opc.correct_calls", self.opc_calls as f64 / expansions);
        layers.insert("stdcell.pitch_table_ms", ms(self.pitch_table_ns));
        layers.insert("stdcell.characterize_ms", ms(self.characterize_ns));
    }
}

/// The worker pool's counters over the calls [`pool_probe`] made.
#[derive(Default)]
pub struct Pool {
    calls: u64,
    tasks: u64,
    busy_ns: u64,
    idle_ns: u64,
}

impl Pool {
    /// Inserts `exec.pool_tasks` (per probed call) and
    /// `exec.pool_busy_pct` (the workers' time spent in tasks).
    pub fn insert(&self, layers: &mut BTreeMap<&'static str, f64>) {
        layers.insert(
            "exec.pool_tasks",
            self.tasks as f64 / self.calls.max(1) as f64,
        );
        layers.insert(
            "exec.pool_busy_pct",
            crate::stats::pct(self.busy_ns as f64, (self.busy_ns + self.idle_ns) as f64),
        );
    }
}

/// Workers of the probed pools: the host's CPUs, and at least two, so
/// the pool's multi-worker dispatch runs on any host.
#[must_use]
pub fn probe_threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
}

/// Runs `f` with the program's worker pools [`probe_threads`] wide and
/// its registry recording, adds the pool's counters over the call to
/// `pool`, and returns what `f` returned. The measured runs keep one
/// worker per pool (see `main`); this is where the traced run measures
/// the pool's multi-worker dispatch (thread spawns, shared index, result
/// slots).
pub fn pool_probe<R>(pool: &mut Pool, f: impl FnOnce() -> R) -> R {
    let env = svt_exec::pool::THREADS_ENV;
    let saved = std::env::var_os(env);
    // The process runs no other thread when the variable changes, here
    // or after `f`.
    std::env::set_var(env, probe_threads().to_string());
    set_recording(true);
    let before = svt_obs::registry().snapshot();
    let out = f();
    let after = svt_obs::registry().snapshot();
    set_recording(false);
    match saved {
        Some(v) => std::env::set_var(env, v),
        None => std::env::remove_var(env),
    }
    let d = Delta {
        before: &before,
        after: &after,
    };
    pool.calls += 1;
    pool.tasks += d.counter("exec.pool.tasks");
    pool.busy_ns += d.counter("exec.pool.busy_ns");
    pool.idle_ns += d.counter("exec.pool.idle_ns");
    out
}

/// Turns the program's registry recording on or off.
pub fn set_recording(on: bool) {
    svt_obs::set_mode(if on {
        svt_obs::TraceMode::Summary
    } else {
        svt_obs::TraceMode::Off
    });
}

/// The litho and expansion memo caches' counters, read through their
/// crates' public stat functions.
#[derive(Clone, Copy)]
pub struct Caches([svt_exec::CacheStats; 4]);

impl Caches {
    /// Reads transfer tables, CDs, pitch pairs and OPC rows, in that order.
    #[must_use]
    pub fn read() -> Caches {
        let (pairs, rows) = svt_stdcell::expand_cache_stats();
        Caches([
            svt_litho::transfer_cache_stats(),
            svt_litho::cd_cache_stats(),
            pairs,
            rows,
        ])
    }
}

/// Hits and misses of each cache in [`Caches`], summed over intervals.
#[derive(Default)]
pub struct Lookups([(u64, u64); 4]);

impl Lookups {
    pub fn add(&mut self, before: &Caches, after: &Caches) {
        for ((hits, misses), (b, a)) in self.0.iter_mut().zip(before.0.iter().zip(&after.0)) {
            *hits += a.hits.saturating_sub(b.hits);
            *misses += a.misses.saturating_sub(b.misses);
        }
    }

    /// Hit share of cache `i`'s lookups, in percent.
    #[must_use]
    pub fn hit_pct(&self, i: usize) -> f64 {
        let (hits, misses) = self.0[i];
        crate::stats::pct(hits as f64, (hits + misses) as f64)
    }
}

/// Peak resident set size of this process, MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    svt_obs::rss::sample().map_or(0.0, |s| s.peak_kb as f64 / 1024.0)
}
