//! Renderers for [`Snapshot`]: a human-readable tree summary, a
//! machine-readable JSON document, and a Prometheus-style text exposition.
//!
//! All output is built from the name-sorted snapshot, so two snapshots of
//! identical state render byte-identically.

use std::fmt::Write as _;

use crate::registry::Snapshot;

/// Renders one `key="value",...` label body from parallel key/value
/// slices, with Prometheus escaping applied to the values.
fn label_body(keys: &[String], values: &[String]) -> String {
    keys.iter()
        .zip(values)
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), escape(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ns_f = ns as f64;
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns_f / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns_f / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns_f / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Escapes a string for a JSON or Prometheus label value. The three
/// escapes (`\\`, `\"`, `\n`) are exactly the set the Prometheus text
/// format defines for label values, and [`parse_labels`] reverses them.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Sanitizes a metric name into a Prometheus identifier.
fn prom_name(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl Snapshot {
    /// Renders the human-readable summary: the span tree (indented by `/`
    /// path depth), then counters, gauges, histograms, and per-cache
    /// hit/miss statistics.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::from("== svt trace summary ==\n");
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let depth = s.path.matches('/').count();
                let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
                let indent = "  ".repeat(depth + 1);
                let label = format!("{indent}{leaf}");
                let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{label:<38} {:>8} calls  total {:>12}  mean {:>12}  max {:>12}",
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(mean),
                    fmt_ns(s.max_ns),
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<36} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<36} {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {:<36} {:>8} samples  mean {:>12}",
                    h.name,
                    h.count,
                    fmt_ns(mean)
                );
            }
        }
        if !self.counter_families.is_empty() || !self.histogram_families.is_empty() {
            out.push_str("families:\n");
            for f in &self.counter_families {
                for (values, v) in &f.series {
                    let label = format!("{}{{{}}}", f.name, label_body(&f.keys, values));
                    let _ = writeln!(out, "  {label:<48} {v:>14}");
                }
            }
            for f in &self.histogram_families {
                for (values, count, sum) in &f.series {
                    let label = format!("{}{{{}}}", f.name, label_body(&f.keys, values));
                    let mean = sum.checked_div(*count).unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "  {label:<48} {count:>8} samples  mean {:>12}",
                        fmt_ns(mean)
                    );
                }
            }
        }
        if !self.caches.is_empty() {
            out.push_str("caches:\n");
            for (name, c) in &self.caches {
                let _ = writeln!(
                    out,
                    "  {name:<24} hits {:>10}  misses {:>8}  hit-rate {:>6.1}%  inserts {:>8}  evicted {:>8}  resident {:>8}",
                    c.hits,
                    c.misses,
                    100.0 * c.hit_rate(),
                    c.inserts,
                    c.evictions,
                    c.entries,
                );
            }
        }
        out
    }

    /// Renders the snapshot as a self-contained JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"alloc_bytes\": {} }}",
                escape(&s.path),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                s.alloc_bytes
            );
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(lo, n)| format!("[{lo}, {n}]"))
                .collect();
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [{}] }}",
                escape(&h.name),
                h.count,
                h.sum,
                buckets.join(", ")
            );
        }
        out.push_str("\n  },\n  \"counter_families\": {");
        for (i, f) in self.counter_families.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let keys: Vec<String> = f
                .keys
                .iter()
                .map(|k| format!("\"{}\"", escape(k)))
                .collect();
            let series: Vec<String> = f
                .series
                .iter()
                .map(|(vs, n)| {
                    let vals: Vec<String> =
                        vs.iter().map(|v| format!("\"{}\"", escape(v))).collect();
                    format!("{{ \"labels\": [{}], \"value\": {n} }}", vals.join(", "))
                })
                .collect();
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"keys\": [{}], \"series\": [{}] }}",
                escape(&f.name),
                keys.join(", "),
                series.join(", ")
            );
        }
        out.push_str("\n  },\n  \"histogram_families\": {");
        for (i, f) in self.histogram_families.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let keys: Vec<String> = f
                .keys
                .iter()
                .map(|k| format!("\"{}\"", escape(k)))
                .collect();
            let series: Vec<String> = f
                .series
                .iter()
                .map(|(vs, count, sum)| {
                    let vals: Vec<String> =
                        vs.iter().map(|v| format!("\"{}\"", escape(v))).collect();
                    format!(
                        "{{ \"labels\": [{}], \"count\": {count}, \"sum\": {sum} }}",
                        vals.join(", ")
                    )
                })
                .collect();
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"keys\": [{}], \"series\": [{}] }}",
                escape(&f.name),
                keys.join(", "),
                series.join(", ")
            );
        }
        out.push_str("\n  },\n  \"caches\": {");
        for (i, (name, c)) in self.caches.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"hits\": {}, \"misses\": {}, \"inserts\": {}, \"evictions\": {}, \"entries\": {} }}",
                escape(name),
                c.hits,
                c.misses,
                c.inserts,
                c.evictions,
                c.entries
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders a Prometheus-style text exposition (counters, gauges, span
    /// and histogram aggregates, cache counters). Every series is
    /// cumulative, so rates come from Prometheus' `rate()` (or from the
    /// embedded TSDB's `.rate` series).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE svt_{n}_total counter\nsvt_{n}_total {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE svt_{n} gauge\nsvt_{n} {v}");
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE svt_span_count_total counter\n");
            out.push_str("# TYPE svt_span_total_ns counter\n");
            out.push_str("# TYPE svt_span_alloc_bytes counter\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "svt_span_count_total{{span=\"{0}\"}} {1}\nsvt_span_total_ns{{span=\"{0}\"}} {2}\nsvt_span_alloc_bytes{{span=\"{0}\"}} {3}",
                    escape(&s.path),
                    s.count,
                    s.total_ns,
                    s.alloc_bytes
                );
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("# TYPE svt_hist_count_total counter\n");
            out.push_str("# TYPE svt_hist_sum_total counter\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "svt_hist_count_total{{hist=\"{0}\"}} {1}\nsvt_hist_sum_total{{hist=\"{0}\"}} {2}",
                    escape(&h.name),
                    h.count,
                    h.sum
                );
            }
        }
        for f in &self.counter_families {
            let n = prom_name(&f.name);
            let _ = writeln!(out, "# TYPE svt_{n}_total counter");
            for (values, v) in &f.series {
                let _ = writeln!(out, "svt_{n}_total{{{}}} {v}", label_body(&f.keys, values));
            }
        }
        for f in &self.histogram_families {
            let n = prom_name(&f.name);
            let _ = writeln!(out, "# TYPE svt_{n}_count_total counter");
            let _ = writeln!(out, "# TYPE svt_{n}_sum_total counter");
            for (values, count, sum) in &f.series {
                let body = label_body(&f.keys, values);
                let _ = writeln!(
                    out,
                    "svt_{n}_count_total{{{body}}} {count}\nsvt_{n}_sum_total{{{body}}} {sum}"
                );
            }
        }
        if !self.caches.is_empty() {
            for field in ["hits", "misses", "inserts", "evictions"] {
                let _ = writeln!(out, "# TYPE svt_cache_{field}_total counter");
            }
            out.push_str("# TYPE svt_cache_entries gauge\n");
            for (name, c) in &self.caches {
                let n = escape(name);
                let _ = writeln!(
                    out,
                    "svt_cache_hits_total{{cache=\"{n}\"}} {}\nsvt_cache_misses_total{{cache=\"{n}\"}} {}\nsvt_cache_inserts_total{{cache=\"{n}\"}} {}\nsvt_cache_evictions_total{{cache=\"{n}\"}} {}\nsvt_cache_entries{{cache=\"{n}\"}} {}",
                    c.hits, c.misses, c.inserts, c.evictions, c.entries
                );
            }
        }
        out
    }
}

/// Renders the static identity block served at the top of `/metrics`:
/// `svt_build_info{version, profile}` (always 1, labels carry the
/// payload, the standard Prometheus build-info idiom) plus
/// `svt_uptime_seconds` so dashboards can spot restarts.
#[must_use]
pub fn build_info_prometheus(uptime_seconds: f64) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# TYPE svt_build_info gauge\nsvt_build_info{{version=\"{}\",profile=\"{profile}\"}} 1",
        escape(env!("CARGO_PKG_VERSION"))
    );
    let _ = writeln!(
        out,
        "# TYPE svt_uptime_seconds gauge\nsvt_uptime_seconds {uptime_seconds}"
    );
    out
}

/// One parsed sample of a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, document order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of a label, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses a Prometheus text exposition back into samples — the round-trip
/// counterpart of [`Snapshot::to_prometheus`]. `# TYPE`/`# HELP` comment
/// lines are skipped; samples keep document order.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: `{line}`", lineno + 1);
        let (ident, value_text) = match line.find('{') {
            Some(brace) => {
                let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
                if close < brace {
                    return Err(err("malformed label set"));
                }
                (&line[..close + 1], line[close + 1..].trim())
            }
            None => {
                let space = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| err("missing value"))?;
                (&line[..space], line[space..].trim())
            }
        };
        let value: f64 = value_text
            .split_whitespace()
            .next()
            .ok_or_else(|| err("missing value"))?
            .parse()
            .map_err(|_| err("non-numeric value"))?;
        let (name, labels) = match ident.find('{') {
            None => (ident.to_string(), Vec::new()),
            Some(brace) => {
                let name = ident[..brace].to_string();
                let body = &ident[brace + 1..ident.len() - 1];
                (name, parse_labels(body).map_err(|e| err(&e))?)
            }
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("invalid metric name"));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Parses `key="value",key2="value2"` with `\\` and `\"` escapes.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let bytes = body.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let eq = body[pos..]
            .find('=')
            .map(|i| pos + i)
            .ok_or("label without `=`")?;
        let key = body[pos..eq].trim().to_string();
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err("label value must be quoted".into());
        }
        let mut value = String::new();
        let mut i = eq + 2;
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("invalid escape in label value".into()),
                    }
                    i += 2;
                }
                Some(_) => {
                    let ch = body[i..].chars().next().ok_or("invalid UTF-8")?;
                    value.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        labels.push((key, value));
        pos = i + 1;
        if bytes.get(pos) == Some(&b',') {
            pos += 1;
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{
        CacheCounters, CounterFamilyEntry, HistogramEntry, HistogramFamilyEntry, SpanEntry,
    };

    fn sample() -> Snapshot {
        Snapshot {
            spans: vec![
                SpanEntry {
                    path: "flow".into(),
                    count: 1,
                    total_ns: 2_500_000,
                    min_ns: 2_500_000,
                    max_ns: 2_500_000,
                    alloc_bytes: 4096,
                },
                SpanEntry {
                    path: "flow/corner".into(),
                    count: 3,
                    total_ns: 1_500_000,
                    min_ns: 400_000,
                    max_ns: 600_000,
                    alloc_bytes: 1024,
                },
            ],
            counters: vec![("exec.pool.tasks".into(), 42)],
            gauges: vec![("exec.pool.workers".into(), 8)],
            histograms: vec![HistogramEntry {
                name: "exec.pool.task_ns".into(),
                count: 42,
                sum: 84_000,
                buckets: vec![(1024, 42)],
            }],
            counter_families: vec![CounterFamilyEntry {
                name: "serve.requests".into(),
                keys: vec!["route".into(), "status".into()],
                series: vec![
                    (vec!["/eco".into(), "200".into()], 4),
                    (vec!["/eco".into(), "503".into()], 1),
                ],
            }],
            histogram_families: vec![HistogramFamilyEntry {
                name: "serve.latency_ns".into(),
                keys: vec!["route".into()],
                series: vec![(vec!["/eco".into()], 5, 12_000_000)],
            }],
            caches: vec![(
                "litho.cd".into(),
                CacheCounters {
                    hits: 90,
                    misses: 10,
                    inserts: 10,
                    evictions: 0,
                    entries: 10,
                },
            )],
        }
    }

    #[test]
    fn summary_contains_every_section() {
        let text = sample().render_summary();
        for needle in [
            "spans:",
            "flow",
            "corner",
            "counters:",
            "exec.pool.tasks",
            "gauges:",
            "histograms:",
            "families:",
            "serve.requests{route=\"/eco\",status=\"200\"}",
            "caches:",
            "litho.cd",
            "90.0%",
        ] {
            assert!(text.contains(needle), "summary missing `{needle}`:\n{text}");
        }
        // Child spans indent one level deeper than their parent.
        let parent = text.lines().find(|l| l.contains("flow ")).unwrap();
        let child = text.lines().find(|l| l.contains("corner")).unwrap();
        let lead = |l: &str| l.len() - l.trim_start().len();
        assert!(lead(child) > lead(parent), "child must be indented");
    }

    #[test]
    fn json_is_structured_and_escaped() {
        let mut snap = sample();
        snap.counters.push(("weird\"name".into(), 1));
        snap.counters.sort();
        let json = snap.to_json();
        assert!(json.contains("\"flow/corner\": { \"count\": 3"));
        assert!(json.contains("\"max_ns\": 600000, \"alloc_bytes\": 1024 }"));
        assert!(json.contains("\"exec.pool.tasks\": 42"));
        assert!(json.contains("weird\\\"name"));
        assert!(json.contains("\"buckets\": [[1024, 42]]"));
        assert!(json.contains("\"hits\": 90"));
        assert!(json.contains(
            "\"serve.requests\": { \"keys\": [\"route\", \"status\"], \"series\": [{ \"labels\": [\"/eco\", \"200\"], \"value\": 4 }"
        ));
        assert!(json.contains("\"serve.latency_ns\""));
        assert_eq!(json.matches("\"spans\"").count(), 1);
    }

    #[test]
    fn prometheus_exposition_has_types_and_labels() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE svt_exec_pool_tasks_total counter"));
        assert!(text.contains("svt_exec_pool_tasks_total 42"));
        assert!(text.contains("svt_span_total_ns{span=\"flow/corner\"} 1500000"));
        assert!(text.contains("svt_span_alloc_bytes{span=\"flow/corner\"} 1024"));
        assert!(text.contains("svt_cache_hits_total{cache=\"litho.cd\"} 90"));
        assert!(text.contains("svt_cache_entries{cache=\"litho.cd\"} 10"));
    }

    #[test]
    fn family_exposition_renders_prometheus_labels() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE svt_serve_requests_total counter"));
        assert!(text.contains("svt_serve_requests_total{route=\"/eco\",status=\"200\"} 4"));
        assert!(text.contains("svt_serve_requests_total{route=\"/eco\",status=\"503\"} 1"));
        assert!(text.contains("svt_serve_latency_ns_count_total{route=\"/eco\"} 5"));
        assert!(text.contains("svt_serve_latency_ns_sum_total{route=\"/eco\"} 12000000"));
    }

    #[test]
    fn family_labels_round_trip_with_escapes() {
        // The full Prometheus escape set (`\\`, `\"`, `\n`) in family
        // label *values*, alone and mixed, across multiple labels.
        for odd in [
            "back\\slash",
            "qu\"ote",
            "line\nbreak",
            "all\\three\"here\n",
            "trailing\\",
            "\n",
        ] {
            let mut snap = sample();
            snap.counter_families.push(CounterFamilyEntry {
                name: "odd.family".into(),
                keys: vec!["a".into(), "b".into(), "c".into()],
                series: vec![(vec![odd.into(), "plain".into(), odd.into()], 3)],
            });
            let text = snap.to_prometheus();
            let samples = parse_prometheus(&text)
                .unwrap_or_else(|e| panic!("family exposition with {odd:?} fails to parse: {e}"));
            let got = samples
                .iter()
                .find(|s| s.name == "svt_odd_family_total")
                .unwrap_or_else(|| panic!("family sample missing in:\n{text}"));
            assert_eq!(got.label("a"), Some(odd), "label a did not round-trip");
            assert_eq!(got.label("b"), Some("plain"));
            assert_eq!(got.label("c"), Some(odd), "label c did not round-trip");
            assert_eq!(got.value, 3.0);
        }
    }

    #[test]
    fn family_cardinality_cap_surfaces_as_overflow_series() {
        // End to end through the live registry: fill a family to the cap,
        // spill past it, and check the overflow series in the exposition.
        let fam = crate::registry().counter_family("test.render.capfam", &["k"]);
        for i in 0..crate::family::MAX_SERIES {
            fam.with(&[&format!("v{i}")]).incr();
        }
        fam.with(&["past-the-cap"]).add(7);
        let snap = crate::registry().snapshot();
        let text = snap.to_prometheus();
        let samples = parse_prometheus(&text).expect("exposition parses");
        let rows: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "svt_test_render_capfam_total")
            .collect();
        assert_eq!(
            rows.len(),
            crate::family::MAX_SERIES + 1,
            "cap series plus one overflow row"
        );
        let overflow = rows
            .iter()
            .find(|s| s.label("k") == Some(crate::family::OVERFLOW_LABEL))
            .expect("overflow series present");
        assert_eq!(overflow.value, 7.0);
    }

    #[test]
    fn build_info_renders_and_round_trips() {
        let text = build_info_prometheus(12.5);
        let samples = parse_prometheus(&text).expect("build info parses");
        let info = samples
            .iter()
            .find(|s| s.name == "svt_build_info")
            .expect("svt_build_info present");
        assert_eq!(info.value, 1.0);
        assert_eq!(info.label("version"), Some(env!("CARGO_PKG_VERSION")));
        assert!(matches!(info.label("profile"), Some("debug" | "release")));
        let uptime = samples
            .iter()
            .find(|s| s.name == "svt_uptime_seconds")
            .expect("svt_uptime_seconds present");
        assert_eq!(uptime.value, 12.5);
    }

    #[test]
    fn prometheus_round_trips_through_the_parser() {
        let mut snap = sample();
        // Names with quotes and backslashes must survive the trip.
        snap.caches.push((
            "odd\"cache\\name".into(),
            CacheCounters {
                hits: 7,
                misses: 3,
                inserts: 3,
                evictions: 1,
                entries: 2,
            },
        ));
        let text = snap.to_prometheus();
        let samples = parse_prometheus(&text).expect("exposition parses");
        let find = |name: &str, label: Option<(&str, &str)>| {
            samples
                .iter()
                .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
                .unwrap_or_else(|| panic!("missing {name} {label:?} in:\n{text}"))
        };
        assert_eq!(find("svt_exec_pool_tasks_total", None).value, 42.0);
        assert_eq!(find("svt_exec_pool_workers", None).value, 8.0);
        assert_eq!(
            find("svt_span_total_ns", Some(("span", "flow/corner"))).value,
            1_500_000.0
        );
        assert_eq!(
            find("svt_hist_count_total", Some(("hist", "exec.pool.task_ns"))).value,
            42.0
        );
        assert_eq!(
            find("svt_cache_hits_total", Some(("cache", "litho.cd"))).value,
            90.0
        );
        assert_eq!(
            find("svt_cache_entries", Some(("cache", "odd\"cache\\name"))).value,
            2.0
        );
        // Every non-comment line parsed into exactly one sample.
        let payload_lines = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count();
        assert_eq!(samples.len(), payload_lines);
    }

    #[test]
    fn prometheus_round_trips_every_escaped_label_form() {
        // `\\`, `\"`, and `\n` are the full escape set of the Prometheus
        // text format — each must survive render → parse, alone and mixed.
        for odd in [
            "back\\slash",
            "qu\"ote",
            "line\nbreak",
            "all\\three\"here\n",
            "trailing\\",
            "\n",
        ] {
            let mut snap = sample();
            snap.spans.push(SpanEntry {
                path: odd.into(),
                count: 5,
                total_ns: 50,
                min_ns: 10,
                max_ns: 10,
                alloc_bytes: 0,
            });
            snap.spans.sort_by(|a, b| a.path.cmp(&b.path));
            let text = snap.to_prometheus();
            let samples = parse_prometheus(&text)
                .unwrap_or_else(|e| panic!("exposition with {odd:?} fails to parse: {e}"));
            let got = samples
                .iter()
                .find(|s| s.name == "svt_span_count_total" && s.label("span") == Some(odd));
            assert!(got.is_some(), "label {odd:?} did not round-trip:\n{text}");
            assert_eq!(got.unwrap().value, 5.0);
        }
    }

    #[test]
    fn prometheus_parser_rejects_malformed_lines() {
        assert!(parse_prometheus("svt_x_total").is_err(), "missing value");
        assert!(parse_prometheus("svt_x_total abc").is_err(), "non-numeric");
        assert!(
            parse_prometheus("svt_x{span=\"a\" 1").is_err(),
            "unclosed label set"
        );
        assert!(
            parse_prometheus("sv t{span=\"a\"} 1").is_err(),
            "invalid name"
        );
        assert!(parse_prometheus("").unwrap().is_empty());
        assert!(parse_prometheus("# TYPE x counter\n").unwrap().is_empty());
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let empty = Snapshot::default();
        assert!(empty
            .render_summary()
            .starts_with("== svt trace summary =="));
        assert!(empty.to_json().contains("\"spans\": {"));
        assert!(empty.to_prometheus().is_empty());
    }
}
