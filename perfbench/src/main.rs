//! End-to-end and per-layer benchmark of the svt flow, its incremental
//! ECO engine and the `svtd` daemon.
//!
//! ```text
//! svt-perfbench --workload table2|large_signoff_eco|svtd_mixed
//!               --seed N --seconds S --trace 0|1 [--svtd PATH] [--out DIR]
//! ```
//!
//! The program is driven only through its public functions (and, for
//! `svtd_mixed`, through the real `svtd` binary over loopback). Every
//! workload checks its outputs; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end set, measured with all
//! tracing off; with `--trace 1` they are the per-layer set, measured on
//! alternate iterations with the benchmark's spans and the program's
//! metric registry on, the other iterations giving the tracing overhead
//! (`svtd_mixed` traces every request of its nominal phase instead; see
//! there). Spans of a traced run are written to
//! `DIR/spans-<workload>-<seed>.json`.
//!
//! The end-to-end keys are shared by all workloads, each of which
//! measures its own operations under them; the human-readable lines
//! before the JSON give every metric under its own name, with its unit
//! and sample count:
//!
//! | key           | `table2`                      | `large_signoff_eco`          | `svtd_mixed` |
//! |---------------|-------------------------------|------------------------------|--------------|
//! | `setup_s`     | library, simulator, first pass | expansion, design, baseline session | daemon boot to both designs warm |
//! | `peak_rss_mb` | process VmHWM                 | process VmHWM                | daemon VmHWM |
//! | `ok_pct`      | rows passing every check      | sign-offs and edits that succeeded | 200 replies that parse |
//! | `op_p50_ms`   | `table2_warm_ms`              | `eco_p50_ms`                 | `read_p50_ms` |
//! | `long_op_ms`  | `table2_cold_s`, in ms        | `signoff_s`, in ms           | `write_p50_ms` |
//!
//! The in-process workloads run with `SVT_THREADS=1`: on a two-vCPU
//! host shared with other machines, two-worker parallel sections waiting
//! on a descheduled vCPU made run-to-run spreads several times larger
//! than the effects the benchmark must resolve. Their traced runs measure
//! the pool's multi-worker dispatch in probes of their own
//! (`obs::pool_probe`). The daemon gets the shipped default.

mod design;
mod eco;
mod obs;
mod rng;
mod stats;
mod svtd;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, every workload: `(key, unit)`.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("op_p50_ms", "ms"),
    ("long_op_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(key, unit)`. A layer a
/// workload bypasses reports 0.
pub const LAYERS: [(&str, &str); 39] = [
    ("litho.transfer_hit_pct", "%"),
    ("litho.cd_hit_pct", "%"),
    ("litho.aerial_images", "count"),
    ("opc.correct_ms", "ms"),
    ("opc.correct_calls", "count"),
    ("stdcell.expand_ms", "ms"),
    ("stdcell.pitch_table_ms", "ms"),
    ("stdcell.characterize_ms", "ms"),
    ("stdcell.pitch_pair_hit_pct", "%"),
    ("stdcell.opc_row_hit_pct", "%"),
    ("netlist.generate_ms", "ms"),
    ("netlist.techmap_ms", "ms"),
    ("place.place_ms", "ms"),
    ("place.extract_ms", "ms"),
    ("core.signoff_ms", "ms"),
    ("core.audit_ms", "ms"),
    ("sta.trad_corners_ms", "ms"),
    ("exec.pool_tasks", "count"),
    ("exec.pool_busy_pct", "%"),
    ("eco.apply_ms.swap", "ms"),
    ("eco.apply_ms.resize", "ms"),
    ("eco.apply_ms.spacing", "ms"),
    ("eco.apply_ms.move", "ms"),
    ("eco.recharacterized", "count"),
    ("eco.cone_instances", "count"),
    ("eco.legal_pct", "%"),
    ("serve.parse_us", "us"),
    ("serve.route_read_us", "us"),
    ("serve.route_eco_ms", "ms"),
    ("serve.write_us", "us"),
    ("serve.service_ms.c3540", "ms"),
    ("serve.service_ms.c432", "ms"),
    ("serve.lock_wait_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.reconnects", "count"),
    ("serve.refused_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
];

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub svtd: PathBuf,
    pub out: PathBuf,
}

/// A metric under the issue's own name, for the human-readable report:
/// value, unit, the samples it summarises, and their quartiles.
pub struct Named {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q: Option<(f64, f64)>,
}

impl Named {
    /// The median of `samples`, with their quartiles.
    #[must_use]
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Named {
        Named {
            name,
            unit,
            value: stats::median(samples),
            n: samples.len(),
            q: Some((
                stats::quantile(samples, 0.25),
                stats::quantile(samples, 0.75),
            )),
        }
    }

    #[must_use]
    pub fn value(name: &'static str, unit: &'static str, value: f64, n: usize) -> Named {
        Named {
            name,
            unit,
            value,
            n,
            q: None,
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub named: Vec<Named>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Run context printed with the results.
    pub context: Vec<(&'static str, String)>,
    /// The traced run's spans, reduced per name.
    pub spans: BTreeMap<&'static str, trace::Agg>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Operations that succeeded, as a share of those attempted.
    #[must_use]
    pub fn ok_pct(&self) -> f64 {
        stats::pct(
            self.attempted.saturating_sub(self.failed) as f64,
            self.attempted as f64,
        )
    }

    /// The end-to-end metrics from a workload's samples: medians of its
    /// set-ups, its short operations and its long operations.
    pub fn set_e2e(&mut self, setup_s: &[f64], peak_rss_mb: f64, op_ms: &[f64], long_ms: &[f64]) {
        self.e2e = BTreeMap::from([
            ("setup_s", stats::median(setup_s)),
            ("peak_rss_mb", peak_rss_mb),
            ("ok_pct", self.ok_pct()),
            ("op_p50_ms", stats::median(op_ms)),
            ("long_op_ms", stats::median(long_ms)),
        ]);
    }
}

fn usage() -> String {
    "usage: svt-perfbench --workload table2|large_signoff_eco|svtd_mixed --seed N \
     --seconds S --trace 0|1 [--svtd PATH] [--out DIR]"
        .to_string()
}

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        svtd: PathBuf::from(".bench_build/release/svtd"),
        out: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--svtd" => cfg.svtd = PathBuf::from(&value),
            "--out" => cfg.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, cfg))
}

/// JSON number text; non-finite values (never produced by a sound
/// measurement) become 0 so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let (set, values): (&[(&str, &str)], _) = if trace {
        (&LAYERS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in set.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The program's registry records only when asked to; an inherited
    // SVT_TRACE must not switch it on behind the untraced measurement.
    obs::set_recording(false);
    // Before a workload pins any thread of this process.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    // One worker per pool in this process, set before anything reads
    // it; the daemon is started without it.
    std::env::set_var(svt_exec::pool::THREADS_ENV, "1");
    let run = match workload.as_str() {
        "table2" => table2::run(&cfg),
        "large_signoff_eco" => eco::run(&cfg),
        "svtd_mixed" => svtd::run(&cfg),
        other => Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("svt-perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# svt-perfbench workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let svt_threads = std::env::var("SVT_THREADS").unwrap_or_else(|_| "unset".to_string());
    let mut context = format!("# threads_available={threads} SVT_THREADS={svt_threads}");
    for (k, v) in &out.context {
        let _ = write!(context, " {k}={v}");
    }
    println!("{context}");
    for m in &out.named {
        let spread =
            m.q.map_or(String::new(), |(q1, q3)| format!("  q1={q1:.4} q3={q3:.4}"));
        println!(
            "{:<24} {:>14.4} {:<6} n={}{spread}",
            m.name, m.value, m.unit, m.n
        );
    }
    if cfg.trace {
        println!("# span                          count   total_ms    self_ms");
        for (name, a) in &out.spans {
            println!(
                "# {name:<28} {:>6} {:>10.3} {:>10.3}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ms()
            );
        }
        for (name, unit) in LAYERS {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            println!("{name:<28} {v:>14.4} {unit}");
        }
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", result_line(&out, cfg.trace));
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
