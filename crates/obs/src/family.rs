//! Labeled metric families: one logical metric fanned out over a small,
//! bounded set of label values.
//!
//! A family is registered once with a fixed set of **label keys** (e.g.
//! `{route, design, status}`); each distinct combination of label
//! *values* lazily materializes a child [`Counter`] or [`Histogram`].
//! Children are leaked `&'static` handles exactly like plain registry
//! metrics, so once a call site holds a child the update path is the
//! same relaxed atomic — the family lookup itself takes a short mutex
//! and a linear scan, which is fine at request rate (the macros in the
//! crate root cache the *family* handle per call site; callers on a true
//! hot loop should also cache the child).
//!
//! # Cardinality budget
//!
//! Label values must come from small closed sets (route classes, design
//! names, status codes) — never from unbounded input like raw paths.
//! As a backstop each family holds at most [`MAX_SERIES`] distinct
//! label-value sets; combinations beyond the cap share one **overflow**
//! child whose labels all render as `"overflow"`, so a cardinality bug
//! shows up in `/metrics` as an `overflow` series instead of unbounded
//! memory growth.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::metrics::{Counter, Histogram};

/// Maximum distinct label-value sets per family before new combinations
/// collapse into the shared overflow child.
pub const MAX_SERIES: usize = 64;

/// Rendered label value for series beyond the cardinality cap.
pub const OVERFLOW_LABEL: &str = "overflow";

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared family plumbing: the label keys plus the series table of one
/// metric kind `T`.
struct FamilyCore<T: 'static> {
    keys: OnceLock<Vec<String>>,
    series: Mutex<Vec<(Vec<String>, &'static T)>>,
    overflow: T,
}

impl<T: Default> Default for FamilyCore<T> {
    fn default() -> FamilyCore<T> {
        FamilyCore {
            keys: OnceLock::new(),
            series: Mutex::new(Vec::new()),
            overflow: T::default(),
        }
    }
}

impl<T: Default> FamilyCore<T> {
    /// Binds the label keys on first registration; later registrations
    /// must agree (same contract as a metric-kind mismatch).
    fn bind_keys(&self, name: &str, keys: &[&str]) {
        let bound = self
            .keys
            .get_or_init(|| keys.iter().map(|k| (*k).to_string()).collect());
        if bound.len() != keys.len() || !bound.iter().zip(keys).all(|(a, b)| a == b) {
            panic!(
                "metric family `{name}` already registered with label keys \
                 {bound:?}, not {keys:?}"
            );
        }
    }

    fn keys(&self) -> &[String] {
        self.keys.get().map_or(&[], Vec::as_slice)
    }

    /// The child for `values`, creating it while under the cap; beyond
    /// the cap, the shared overflow child.
    fn child(&'static self, name: &str, values: &[&str]) -> &'static T {
        let keys = self.keys();
        assert_eq!(
            values.len(),
            keys.len(),
            "metric family `{name}` takes {} label value(s), got {}",
            keys.len(),
            values.len()
        );
        let mut series = lock_recovering(&self.series);
        if let Some((_, child)) = series
            .iter()
            .find(|(vs, _)| vs.len() == values.len() && vs.iter().zip(values).all(|(a, b)| a == b))
        {
            return child;
        }
        if series.len() >= MAX_SERIES {
            return &self.overflow;
        }
        let leaked: &'static T = Box::leak(Box::default());
        series.push((values.iter().map(|v| (*v).to_string()).collect(), leaked));
        leaked
    }

    /// Name-sorted `(label values, child)` view for snapshots.
    fn collect(&self) -> Vec<(Vec<String>, &'static T)> {
        let mut out: Vec<(Vec<String>, &'static T)> = lock_recovering(&self.series)
            .iter()
            .map(|(vs, c)| (vs.clone(), *c))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn cardinality(&self) -> usize {
        lock_recovering(&self.series).len()
    }
}

/// A counter fanned out over label values.
#[derive(Default)]
pub struct CounterFamily {
    core: FamilyCore<Counter>,
    name: OnceLock<String>,
}

impl CounterFamily {
    pub(crate) fn bind(&self, name: &str, keys: &[&str]) {
        let _ = self.name.get_or_init(|| name.to_string());
        self.core.bind_keys(name, keys);
    }

    fn name(&self) -> &str {
        self.name.get().map_or("?", String::as_str)
    }

    /// The label keys this family was registered with.
    #[must_use]
    pub fn keys(&self) -> &[String] {
        self.core.keys()
    }

    /// The child counter for one set of label values, creating it on
    /// first use. Past [`MAX_SERIES`] distinct sets, returns the shared
    /// overflow child.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the registered key count.
    pub fn with(&'static self, values: &[&str]) -> &'static Counter {
        self.core.child(self.name(), values)
    }

    /// Number of real (non-overflow) series.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.core.cardinality()
    }

    /// Count accumulated by the overflow child.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.core.overflow.get()
    }

    pub(crate) fn collect(&self) -> Vec<(Vec<String>, u64)> {
        let mut out: Vec<(Vec<String>, u64)> = self
            .core
            .collect()
            .into_iter()
            .map(|(vs, c)| (vs, c.get()))
            .collect();
        if self.overflow_count() > 0 {
            let vs = vec![OVERFLOW_LABEL.to_string(); self.keys().len()];
            out.push((vs, self.overflow_count()));
        }
        out
    }
}

/// A histogram fanned out over label values.
#[derive(Default)]
pub struct HistogramFamily {
    core: FamilyCore<Histogram>,
    name: OnceLock<String>,
}

impl HistogramFamily {
    pub(crate) fn bind(&self, name: &str, keys: &[&str]) {
        let _ = self.name.get_or_init(|| name.to_string());
        self.core.bind_keys(name, keys);
    }

    fn name(&self) -> &str {
        self.name.get().map_or("?", String::as_str)
    }

    /// The label keys this family was registered with.
    #[must_use]
    pub fn keys(&self) -> &[String] {
        self.core.keys()
    }

    /// The child histogram for one set of label values, creating it on
    /// first use. Past [`MAX_SERIES`] distinct sets, returns the shared
    /// overflow child.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the registered key count.
    pub fn with(&'static self, values: &[&str]) -> &'static Histogram {
        self.core.child(self.name(), values)
    }

    /// Number of real (non-overflow) series.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.core.cardinality()
    }

    pub(crate) fn collect(&self) -> Vec<(Vec<String>, u64, u64)> {
        let mut out: Vec<(Vec<String>, u64, u64)> = self
            .core
            .collect()
            .into_iter()
            .map(|(vs, h)| (vs, h.count(), h.sum()))
            .collect();
        if self.core.overflow.count() > 0 {
            let vs = vec![OVERFLOW_LABEL.to_string(); self.keys().len()];
            out.push((vs, self.core.overflow.count(), self.core.overflow.sum()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_counter_family(name: &str, keys: &[&str]) -> &'static CounterFamily {
        let fam: &'static CounterFamily = Box::leak(Box::default());
        fam.bind(name, keys);
        fam
    }

    #[test]
    fn children_are_cached_per_label_set() {
        let fam = leaked_counter_family("test.fam.cache", &["route", "status"]);
        let a = fam.with(&["/eco", "200"]);
        let b = fam.with(&["/eco", "200"]);
        assert!(std::ptr::eq(a, b), "same labels, same child");
        let c = fam.with(&["/eco", "500"]);
        assert!(!std::ptr::eq(a, c), "different labels, different child");
        a.add(2);
        c.incr();
        assert_eq!(fam.cardinality(), 2);
        let series = fam.collect();
        assert_eq!(
            series,
            vec![
                (vec!["/eco".to_string(), "200".to_string()], 2),
                (vec!["/eco".to_string(), "500".to_string()], 1),
            ]
        );
    }

    #[test]
    fn cardinality_cap_routes_to_overflow() {
        let fam = leaked_counter_family("test.fam.cap", &["k"]);
        for i in 0..MAX_SERIES {
            fam.with(&[&format!("v{i}")]).incr();
        }
        assert_eq!(fam.cardinality(), MAX_SERIES);
        // Exactly at the cap: the next *new* set overflows, but existing
        // sets still resolve to their own children.
        let over = fam.with(&["one-too-many"]);
        over.incr();
        let over2 = fam.with(&["another"]);
        over2.add(2);
        assert!(std::ptr::eq(over, over2), "all overflow sets share a child");
        assert_eq!(fam.cardinality(), MAX_SERIES, "cap holds");
        assert_eq!(fam.overflow_count(), 3);
        let known = fam.with(&["v0"]);
        known.incr();
        assert_eq!(known.get(), 2, "pre-cap series keep their own child");
        let series = fam.collect();
        let overflow_row = series.last().expect("overflow row present");
        assert_eq!(overflow_row.0, vec![OVERFLOW_LABEL.to_string()]);
        assert_eq!(overflow_row.1, 3);
    }

    #[test]
    #[should_panic(expected = "label value")]
    fn wrong_value_count_panics() {
        let fam = leaked_counter_family("test.fam.arity", &["a", "b"]);
        let _ = fam.with(&["only-one"]);
    }

    #[test]
    #[should_panic(expected = "already registered with label keys")]
    fn key_mismatch_panics() {
        let fam = leaked_counter_family("test.fam.keys", &["a"]);
        fam.bind("test.fam.keys", &["b"]);
    }

    #[test]
    fn histogram_family_collects_count_and_sum() {
        let fam: &'static HistogramFamily = Box::leak(Box::default());
        fam.bind("test.fam.hist", &["route"]);
        fam.with(&["/eco"]).record(100);
        fam.with(&["/eco"]).record(50);
        fam.with(&["/timing"]).record(7);
        let series = fam.collect();
        assert_eq!(
            series,
            vec![
                (vec!["/eco".to_string()], 2, 150),
                (vec!["/timing".to_string()], 1, 7),
            ]
        );
    }
}
