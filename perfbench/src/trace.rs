//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into each layer's public API, from
//! the benchmark's side of the call: name, start, end, the enclosing span
//! and, for requests sent to `svtd`, a request id. They stay in memory
//! while the workload runs, are reduced to self times for the per-layer
//! metrics, and are written out as JSON when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// Per-name reduction of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    #[must_use]
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Mean span duration in milliseconds; 0 when nothing was recorded.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e6 / self.count as f64
        }
    }
}

/// One thread's span recorder. When off, [`Tracer::span`] is a plain
/// call: no clock read, no allocation.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span of this recorder.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: None,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span whose bounds were measured by the caller (a request
    /// timed on the wire), nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: Option<u64>) {
        if !self.on {
            return;
        }
        self.spans.push(SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            req,
        });
    }

    /// Appends another recorder's spans (another thread's), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Reduces the spans to per-name counts, total and self times. A
    /// span's self time is its duration minus the part its direct
    /// children cover.
    #[must_use]
    pub fn reduce(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file write failure.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push('}');
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_on(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.span("off", |_| ());
        let r = t.reduce();
        let (outer, inner) = (r["outer"], r["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        t.set_on(false);
        t.span("skipped", |_| ());
        assert!(!t.reduce().contains_key("skipped"));
    }
}
