//! `table2`: the paper's flow from cell layouts to the Table-2 report,
//! cold and warm, in a closed loop.
//!
//! Each pass clears the litho and expansion caches, expands the
//! 81-context library, builds c432…c3540 and signs each off on a fresh
//! `SignoffFlow` (the cold pass). The same five sign-offs are then
//! repeated on fresh flows over the already-expanded library (the warm
//! sets) — what a user with the library in memory, or restored from a
//! snapshot, pays. The seed permutes the design order of every pass;
//! the designs themselves are the paper's fixed profiles, so each row
//! can be checked against the paper's claims.

use std::time::Instant;

use svt_core::{SignoffComparison, SignoffFlow, SignoffOptions};
use svt_litho::{clear_litho_caches, LithoSimulator, Process};
use svt_netlist::BenchmarkProfile;
use svt_stdcell::{clear_expand_caches, expand_library, ExpandOptions, ExpandedLibrary, Library};

use crate::design::{self, Design, TABLE2_DESIGNS};
use crate::obs::{self, Delta};
use crate::rng::Rng;
use crate::stats::{self, ms_since};
use crate::trace::Tracer;
use crate::{Config, Named, Outcome};

/// Warm sets after each cold pass, so the warm median rests on more
/// samples than the cold one.
const WARM_SETS_PER_PASS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Pass {
    expanded: ExpandedLibrary,
    designs: Vec<Design>,
    rows: Vec<SignoffComparison>,
}

fn rows_bits(rows: &[SignoffComparison]) -> Vec<u64> {
    rows.iter()
        .flat_map(|r| {
            [
                r.traditional.bc_ns,
                r.traditional.nom_ns,
                r.traditional.wc_ns,
                r.aware.bc_ns,
                r.aware.nom_ns,
                r.aware.wc_ns,
            ]
        })
        .map(f64::to_bits)
        .collect()
}

/// Rows in the paper's design order, whatever order they ran in.
fn canonical(mut rows: Vec<SignoffComparison>) -> Vec<SignoffComparison> {
    rows.sort_by_key(|r| TABLE2_DESIGNS.iter().position(|d| *d == r.testcase));
    rows
}

fn cold_pass(
    lib: &Library,
    sim: &LithoSimulator,
    order: &[&str],
    tr: &mut Tracer,
) -> Result<Pass, String> {
    tr.span("table2.pass", |tr| {
        clear_litho_caches();
        clear_expand_caches();
        let expanded = tr
            .span("stdcell.expand_library", |_| {
                expand_library(lib, sim, &ExpandOptions::default())
            })
            .map_err(|e| format!("expand_library: {e}"))?;
        let mut designs = Vec::with_capacity(order.len());
        for name in order {
            let profile =
                BenchmarkProfile::iscas85(name).ok_or_else(|| format!("no profile {name}"))?;
            let options = design::placement_options(&profile);
            designs.push(design::build(lib, &profile, &options, tr)?);
        }
        let flow = SignoffFlow::new(lib, &expanded, SignoffOptions::default());
        let mut rows = Vec::with_capacity(designs.len());
        for d in &designs {
            let row = tr
                .span("core.signoff", |_| flow.run(&d.mapped, &d.placement))
                .map_err(|e| format!("{}: sign-off: {e}", d.name))?;
            rows.push(row);
        }
        drop(flow);
        Ok(Pass {
            expanded,
            designs,
            rows: canonical(rows),
        })
    })
}

fn warm_set(lib: &Library, pass: &Pass, tr: &mut Tracer) -> Result<Vec<SignoffComparison>, String> {
    tr.span("table2.warm", |tr| {
        let flow = SignoffFlow::new(lib, &pass.expanded, SignoffOptions::default());
        let mut rows = Vec::with_capacity(pass.designs.len());
        for d in &pass.designs {
            let row = tr
                .span("core.signoff.warm", |_| flow.run(&d.mapped, &d.placement))
                .map_err(|e| format!("{}: warm sign-off: {e}", d.name))?;
            rows.push(row);
        }
        Ok(canonical(rows))
    })
}

/// The paper's Table-2 claims, per row.
fn check_row(out: &mut Outcome, r: &SignoffComparison) -> bool {
    let red = r.uncertainty_reduction_pct();
    let checks = [
        ((28.0..=40.0).contains(&red), "reduction outside 28-40 %"),
        (
            r.aware.nom_ns < r.traditional.nom_ns,
            "aware nominal not below traditional",
        ),
        (
            r.aware.bc_ns >= r.traditional.bc_ns,
            "aware BC below traditional BC",
        ),
        (
            r.aware.wc_ns <= r.traditional.wc_ns,
            "aware WC above traditional WC",
        ),
    ];
    let mut ok = true;
    for (pass, what) in checks {
        out.check(pass, || {
            format!("{}: {what} (reduction {red:.2} %)", r.testcase)
        });
        ok &= pass;
    }
    ok
}

/// Splits in a traced pass that the sign-off performs internally:
/// placement-context extraction, the traditional corners, and the audit
/// that `run_with_provenance` adds over `run`. Each runs on a fresh flow,
/// as the cold pass's sign-off did, and outside the timed pass. Then one
/// warm set on a multi-worker pool, whose rows must equal the reference.
fn probe_layers(
    lib: &Library,
    pass: &Pass,
    pool: &mut obs::Pool,
    tr: &mut Tracer,
) -> Result<Vec<SignoffComparison>, String> {
    for d in &pass.designs {
        design::extract(lib, &d.mapped, &d.placement, tr)?;
    }
    let flow = SignoffFlow::new(lib, &pass.expanded, SignoffOptions::default());
    for d in &pass.designs {
        tr.span("sta.traditional_analyses", |_| {
            flow.traditional_analyses(&d.mapped)
        })
        .map_err(|e| format!("{}: traditional analyses: {e}", d.name))?;
    }
    let flow = SignoffFlow::new(lib, &pass.expanded, SignoffOptions::default());
    for d in &pass.designs {
        tr.span("core.run_with_provenance", |_| {
            flow.run_with_provenance(&d.mapped, &d.placement)
        })
        .map_err(|e| format!("{}: provenance sign-off: {e}", d.name))?;
    }
    obs::pool_probe(pool, || {
        tr.span("exec.pool_probe", |tr| warm_set(lib, pass, tr))
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);
    let mut tr = Tracer::new(Instant::now());

    // Set-up: the library and the calibrated simulator, then one cold
    // pass to finish the process's lazy one-time work (FFT plans, pool
    // threads, allocator arenas); its rows are the reference every later
    // pass must reproduce bit for bit.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut reference: Option<Vec<SignoffComparison>> = None;
    let mut lib_sim = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let lib = Library::svt90();
        let sim = Process::nm90().simulator();
        let pass = cold_pass(&lib, &sim, &TABLE2_DESIGNS, &mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        reference.get_or_insert(pass.rows);
        lib_sim = Some((lib, sim));
    }
    let (lib, sim) = lib_sim.expect("at least one set-up");
    let reference = reference.expect("at least one set-up");
    let reference_bits = rows_bits(&reference);
    for r in &reference {
        out.attempted += 1;
        if !check_row(&mut out, r) {
            out.failed += 1;
        }
    }

    let mut cold_ms = [Vec::new(), Vec::new()];
    let mut warm_ms = [Vec::new(), Vec::new()];
    let mut expansion = obs::Expansion::default();
    let mut pool = obs::Pool::default();
    let mut lookups = obs::Lookups::default();
    let mut traced_passes = 0usize;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        // Traced runs alternate: odd passes traced, even passes plain.
        let traced = cfg.trace && i % 2 == 1;
        i += 1;
        let mut order = TABLE2_DESIGNS;
        rng.shuffle(&mut order);

        tr.set_on(traced);
        obs::set_recording(traced);
        let snap0 = traced.then(|| svt_obs::registry().snapshot());
        let caches0 = obs::Caches::read();
        let t = Instant::now();
        let pass = cold_pass(&lib, &sim, &order, &mut tr)?;
        cold_ms[usize::from(traced)].push(ms_since(t));
        let mut warm_rows = Vec::with_capacity(WARM_SETS_PER_PASS);
        for _ in 0..WARM_SETS_PER_PASS {
            let t = Instant::now();
            let rows = warm_set(&lib, &pass, &mut tr)?;
            warm_ms[usize::from(traced)].push(ms_since(t));
            warm_rows.push(rows);
        }
        if let Some(snap0) = snap0 {
            let snap1 = svt_obs::registry().snapshot();
            lookups.add(&caches0, &obs::Caches::read());
            obs::set_recording(false);
            expansion.add(&Delta {
                before: &snap0,
                after: &snap1,
            });
            warm_rows.push(probe_layers(&lib, &pass, &mut pool, &mut tr)?);
            traced_passes += 1;
        }
        tr.set_on(false);
        obs::set_recording(false);

        // Every pass, cold and warm, must reproduce the reference rows.
        for rows in std::iter::once(&pass.rows).chain(&warm_rows) {
            out.attempted += rows.len() as u64;
            if rows_bits(rows) != reference_bits {
                out.failed += rows.len() as u64;
                out.check(false, || {
                    format!("pass {i}: rows differ from the first pass's")
                });
            }
        }
    }
    let peak_rss_mb = obs::peak_rss_mb();

    let cold = &cold_ms[0];
    let warm = &warm_ms[0];
    out.set_e2e(&setup_s, peak_rss_mb, warm, cold);
    out.named = vec![
        Named::median("setup_s", "s", &setup_s),
        Named::value("peak_rss_mb", "MB", peak_rss_mb, 1),
        Named::value(
            "fail_pct",
            "%",
            100.0 - out.ok_pct(),
            out.attempted as usize,
        ),
        Named::median(
            "table2_cold_s",
            "s",
            &cold.iter().map(|m| m / 1e3).collect::<Vec<_>>(),
        ),
        Named::median("table2_warm_ms", "ms", warm),
        Named::value(
            "table2_warm_p90_ms",
            "ms",
            stats::quantile(warm, 0.9),
            warm.len(),
        ),
    ];
    out.context.push(("passes", cold.len().to_string()));
    out.context.push(("warm_sets", warm.len().to_string()));
    if cfg.trace {
        out.context
            .push(("pool_probe_threads", obs::probe_threads().to_string()));
    }

    if cfg.trace {
        if traced_passes == 0 {
            return Err("no traced pass completed".to_string());
        }
        let spans = tr.reduce();
        let mean = |name: &str| spans.get(name).map_or(0.0, |a| a.mean_ms());
        let l = &mut out.layers;
        l.insert("litho.transfer_hit_pct", lookups.hit_pct(0));
        l.insert("litho.cd_hit_pct", lookups.hit_pct(1));
        expansion.insert(l, traced_passes as f64);
        l.insert("stdcell.expand_ms", mean("stdcell.expand_library"));
        l.insert("stdcell.pitch_pair_hit_pct", lookups.hit_pct(2));
        l.insert("stdcell.opc_row_hit_pct", lookups.hit_pct(3));
        l.insert("netlist.generate_ms", mean("netlist.generate"));
        l.insert("netlist.techmap_ms", mean("netlist.techmap"));
        l.insert("place.place_ms", mean("place.place"));
        l.insert("place.extract_ms", mean("place.extract"));
        l.insert("core.signoff_ms", mean("core.signoff"));
        l.insert(
            "core.audit_ms",
            mean("core.run_with_provenance") - mean("core.signoff"),
        );
        l.insert("sta.trad_corners_ms", mean("sta.traditional_analyses"));
        pool.insert(l);
        l.insert(
            "obs.trace_overhead_pct",
            stats::overhead_pct(&cold_ms[0], &cold_ms[1]),
        );
        out.spans = spans;
        std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
        tr.write_json(&cfg.out.join(format!("spans-table2-{}.json", cfg.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}
