//! Flame-graph views of the registry's span aggregates: collapsed
//! stacks, JSON, and a hand-rolled SVG.
//!
//! Every [`crate::Span`] drop already records its `/`-joined path,
//! duration, and allocated bytes into the registry's
//! [`crate::SpanStat`], so a profile is just
//! `registry().snapshot().spans` read as stacks: a span path is a stack,
//! its `total_ns` the stack's inclusive wall time. The renderers derive
//! self time as `inclusive − Σ direct children`. Nothing is recorded
//! here, so the profile costs nothing beyond span collection itself
//! (`SVT_TRACE`).

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use crate::SpanEntry;

/// Self wall-ns of `entry` within `entries`: inclusive time minus the
/// inclusive time of its direct children (clamped at zero — relaxed
/// counters can skew a few ns between parent and child).
#[must_use]
pub fn self_ns(entry: &SpanEntry, entries: &[SpanEntry]) -> u64 {
    let prefix = format!("{}/", entry.path);
    let children: u64 = entries
        .iter()
        .filter(|e| e.path.starts_with(&prefix) && !e.path[prefix.len()..].contains('/'))
        .map(|e| e.total_ns)
        .sum();
    entry.total_ns.saturating_sub(children)
}

/// Renders the profile in Brendan-Gregg collapsed form — one
/// `seg;seg;seg self_wall_ns` line per stack, the format every flame
/// graph tool ingests. Stacks whose self time rounds to zero still
/// print (count carries information), in the order given (snapshots
/// sort by path).
#[must_use]
pub fn render_collapsed(entries: &[SpanEntry]) -> String {
    let mut out = String::with_capacity(entries.len() * 48);
    for entry in entries {
        out.push_str(&entry.path.replace('/', ";"));
        out.push(' ');
        out.push_str(&self_ns(entry, entries).to_string());
        out.push('\n');
    }
    out
}

/// Renders the profile as a JSON array of stack objects: `stack` (the
/// span path), `count`, inclusive `wall_ns`, `self_ns`, and inclusive
/// `alloc_bytes`.
#[must_use]
pub fn to_json(entries: &[SpanEntry]) -> String {
    let mut out = String::from("{\"stacks\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stack\":\"{}\",\"count\":{},\"wall_ns\":{},\"self_ns\":{},\"alloc_bytes\":{}}}",
            crate::json::escape_json(&e.path),
            e.count,
            e.total_ns,
            self_ns(e, entries),
            e.alloc_bytes
        ));
    }
    out.push_str("]}");
    out
}

/// A node of the flame tree built from collapsed stacks.
struct Node {
    name: String,
    /// Inclusive ns: the recorded value for this exact stack (when any)
    /// widened to at least the sum of its children.
    value: u64,
    count: u64,
    alloc_bytes: u64,
    children: Vec<Node>,
}

fn build_tree(entries: &[SpanEntry]) -> Node {
    let mut root = Node {
        name: "all".to_string(),
        value: 0,
        count: 0,
        alloc_bytes: 0,
        children: Vec::new(),
    };
    for entry in entries {
        let mut node = &mut root;
        for seg in entry.path.split('/') {
            let pos = node.children.iter().position(|c| c.name == seg);
            let idx = match pos {
                Some(idx) => idx,
                None => {
                    node.children.push(Node {
                        name: seg.to_string(),
                        value: 0,
                        count: 0,
                        alloc_bytes: 0,
                        children: Vec::new(),
                    });
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx];
        }
        node.value += entry.total_ns;
        node.count += entry.count;
        node.alloc_bytes += entry.alloc_bytes;
    }
    fn widen(node: &mut Node) -> u64 {
        let child_sum: u64 = node.children.iter_mut().map(widen).sum();
        node.value = node.value.max(child_sum);
        node.value
    }
    widen(&mut root);
    root
}

/// Deterministic warm palette: the hue derives from the frame name, so
/// the same span is the same colour across captures.
fn frame_color(name: &str) -> String {
    let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(name);
    let r = 205 + hash % 50;
    let g = 80 + ((hash >> 8) % 110);
    let b = (hash >> 16) % 55;
    format!("rgb({r},{g},{b})")
}

const FRAME_H: f64 = 17.0;
const SVG_W: f64 = 1200.0;

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders the profile as a self-contained flame-graph SVG: nested
/// frames, width proportional to inclusive wall time, hover titles with
/// exact ns/count/alloc figures. No scripts, no external assets. Every
/// non-empty frame is emitted however narrow, so a microsecond request
/// span stays findable by name next to a second-long warm-up (the frame
/// count is bounded by the registry's span paths).
#[must_use]
pub fn render_flame_svg(entries: &[SpanEntry]) -> String {
    let root = build_tree(entries);
    fn depth_of(node: &Node) -> usize {
        1 + node.children.iter().map(depth_of).max().unwrap_or(0)
    }
    let depth = depth_of(&root);
    #[allow(clippy::cast_precision_loss)]
    let height = (depth as f64) * FRAME_H + 40.0;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{SVG_W}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#f8f8f8\"/>\n\
         <text x=\"8\" y=\"16\">svt span profile — {} stacks, {} ns total</text>\n",
        entries.len(),
        root.value
    );
    #[allow(clippy::cast_precision_loss)]
    fn emit(node: &Node, x: f64, y: f64, scale: f64, svg: &mut String) {
        if node.value == 0 {
            return;
        }
        let w = node.value as f64 * scale;
        let name = xml_escape(&node.name);
        svg.push_str(&format!(
            "<g><title>{name}: {} ns, {} calls, {} alloc bytes</title>\
             <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.1}\" \
             fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
            node.value,
            node.count,
            node.alloc_bytes,
            FRAME_H - 1.0,
            frame_color(&node.name)
        ));
        if w > 28.0 {
            let max_chars = ((w - 6.0) / 6.6) as usize;
            let label: String = node.name.chars().take(max_chars).collect();
            svg.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" fill=\"#111\">{}</text>",
                x + 3.0,
                y + FRAME_H - 5.0,
                xml_escape(&label)
            ));
        }
        svg.push_str("</g>\n");
        let mut cx = x;
        for child in &node.children {
            emit(child, cx, y + FRAME_H, scale, svg);
            cx += child.value as f64 * scale;
        }
    }
    if root.value > 0 {
        #[allow(clippy::cast_precision_loss)]
        let scale = (SVG_W - 16.0) / root.value as f64;
        emit(&root, 8.0, 28.0, scale, &mut svg);
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn entry(path: &str, count: u64, total_ns: u64, alloc_bytes: u64) -> SpanEntry {
        SpanEntry {
            path: path.to_string(),
            count,
            total_ns,
            min_ns: 0,
            max_ns: 0,
            alloc_bytes,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let entries = vec![
            entry("a", 1, 100, 10),
            entry("a/b", 2, 100, 6),
            entry("a/b/c", 1, 30, 0),
            entry("a/d", 1, 10, 0),
        ];
        assert_eq!(self_ns(&entries[0], &entries), 0, "clamped at zero");
        assert_eq!(self_ns(&entries[1], &entries), 70, "grandchild excluded");
        let collapsed = render_collapsed(&entries);
        assert!(collapsed.contains("a;b 70\n"));
        assert!(collapsed.contains("a;b;c 30\n"));
        assert!(collapsed.contains("a;d 10\n"));
    }

    #[test]
    fn flame_svg_nests_frames_and_is_well_formed() {
        let entries = vec![
            entry("blip", 1, 1, 0),
            entry("root", 1, 1_000_000_000, 0),
            entry("root/work", 1, 800_000_000, 128),
            entry("root/work/inner", 1, 500_000_000, 64),
        ];
        let svg = render_flame_svg(&entries);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains(">root:"), "hover title present");
        assert!(svg.contains("inner"), "deep frame rendered");
        assert!(svg.contains("128 alloc bytes"), "alloc bytes in the title");
        assert!(svg.contains(">blip:"), "a sub-pixel frame is still emitted");
        assert_eq!(
            svg.matches("<rect").count() - 1, // minus the background
            5,                                // all + blip + root + work + inner
            "one frame rect per tree node"
        );
    }

    /// A fixed nested workload recorded through real spans: every stack
    /// the renderers emit carries exactly the registry's count and
    /// total_ns for that path, and self time is inclusive time minus the
    /// direct children.
    #[test]
    fn rendered_stacks_equal_the_registry_spans() {
        let _guard = crate::tests::mode_lock();
        crate::set_mode(crate::TraceMode::Summary);
        // 25 roots with two children; the second recurses one level
        // deeper on even rounds. The checksum loops keep wall times
        // non-zero.
        let mut checksum = 0u64;
        for round in 0..25u64 {
            let _root = crate::span("profile.view.root");
            {
                let _a = crate::span("profile.view.parse");
                for i in 0..200 {
                    checksum = checksum
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(i);
                }
            }
            {
                let _b = crate::span("profile.view.solve");
                for i in 0..400 {
                    checksum = checksum
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(i);
                }
                if round % 2 == 0 {
                    let _c = crate::span("profile.view.refine");
                    for i in 0..100u64 {
                        checksum ^= i.wrapping_mul(round);
                    }
                }
            }
        }
        crate::set_mode(crate::TraceMode::Off);
        assert_ne!(checksum, 0, "workload optimized away");

        let root = "profile.view.root";
        let parse = "profile.view.root/profile.view.parse";
        let solve = "profile.view.root/profile.view.solve";
        let refine = "profile.view.root/profile.view.solve/profile.view.refine";
        let spans: Vec<SpanEntry> = crate::registry()
            .snapshot()
            .spans
            .into_iter()
            .filter(|s| s.path.starts_with(root))
            .collect();
        let counts: Vec<(&str, u64)> = spans.iter().map(|s| (s.path.as_str(), s.count)).collect();
        assert_eq!(
            counts,
            vec![(root, 25), (parse, 25), (solve, 25), (refine, 13)],
            "counts follow the loop structure"
        );
        let total = |path: &str| spans.iter().find(|s| s.path == path).unwrap().total_ns;
        assert!(total(root) >= total(parse) + total(solve));
        assert!(total(solve) >= total(refine), "child wider than parent");
        let want_self = |path: &str| match path {
            p if p == root => total(root) - total(parse) - total(solve),
            p if p == solve => total(solve) - total(refine),
            p => total(p),
        };

        let doc = JsonValue::parse(&to_json(&spans)).expect("profile JSON parses");
        let stacks = doc
            .get("stacks")
            .and_then(JsonValue::as_array)
            .expect("stacks array");
        assert_eq!(stacks.len(), spans.len());
        for (stack, span) in stacks.iter().zip(&spans) {
            let field = |key: &str| stack.get(key).and_then(JsonValue::as_u64);
            assert_eq!(
                stack.get("stack").and_then(JsonValue::as_str),
                Some(span.path.as_str())
            );
            assert_eq!(field("count"), Some(span.count), "count of {}", span.path);
            assert_eq!(
                field("wall_ns"),
                Some(span.total_ns),
                "wall_ns of {}",
                span.path
            );
            assert_eq!(
                field("self_ns"),
                Some(want_self(&span.path)),
                "self_ns of {}",
                span.path
            );
        }
        let collapsed = render_collapsed(&spans);
        for span in &spans {
            let line = format!(
                "{} {}\n",
                span.path.replace('/', ";"),
                want_self(&span.path)
            );
            assert!(
                collapsed.contains(&line),
                "missing `{line}` in:\n{collapsed}"
            );
        }
    }
}
