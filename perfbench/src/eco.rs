//! `large_signoff_eco`: warm full sign-offs and a seeded stream of ECO
//! edits on a design with s100k's shape (~210k mapped instances), in a
//! closed loop.
//!
//! Cost grows faster than design size, and memory-layout changes and
//! ECO costs that grow with the design show only here. Litho and OPC do
//! their work during set-up (the library expansion) and none after it.

use std::time::{Duration, Instant};

use svt_core::{SignoffComparison, SignoffFlow, SignoffOptions};
use svt_eco::{EcoEdit, EcoError, EcoSession};
use svt_litho::{clear_litho_caches, Process};
use svt_netlist::{BenchmarkProfile, SCALING_PROFILES};
use svt_place::PlacementOptions;
use svt_stdcell::{clear_expand_caches, expand_library, ExpandOptions, ExpandedLibrary, Library};

use crate::design::{self, Design};
use crate::obs::{self, Delta};
use crate::rng::Rng;
use crate::stats::{self, ms_since};
use crate::trace::Tracer;
use crate::{Config, Named, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Legal edits between warm full sign-offs.
const SIGNOFF_EVERY: usize = 25;
/// Legal edits per run, at least: the p90 then has ten samples beyond
/// it, and the median rests on enough edits to be steady.
const MIN_EDITS: usize = 100;
const MAX_EDITS: usize = 1000;

/// Per-kind apply-time metrics, indexed by [`kind`].
const KIND_KEYS: [&str; 4] = [
    "eco.apply_ms.swap",
    "eco.apply_ms.resize",
    "eco.apply_ms.spacing",
    "eco.apply_ms.move",
];

fn kind(edit: &EcoEdit) -> usize {
    match edit {
        EcoEdit::SwapCell { .. } => 0,
        EcoEdit::ResizeCell { .. } => 1,
        EcoEdit::AdjustSpacing { .. } => 2,
        EcoEdit::MoveInstance { .. } => 3,
    }
}

/// Mapped-instance window of the workload's design: s100k's size.
const INSTANCES: std::ops::RangeInclusive<usize> = 205_000..=215_000;
const MAX_DRAWS: u64 = 64;

/// The seed's design: s100k's shape (primary inputs, outputs and gates),
/// with a netlist seed drawn from the run seed. The generator's gate mix
/// makes mapped sizes differ by up to half between netlist seeds, so
/// consecutive candidates are drawn until one maps into [`INSTANCES`];
/// every run then times a design of the same size.
fn profile(seed: u64, lib: &Library) -> Result<BenchmarkProfile, String> {
    let (_, inputs, outputs, gates) = SCALING_PROFILES
        .iter()
        .copied()
        .find(|p| p.0 == "s100k")
        .ok_or("s100k is not a scaling profile")?;
    let first = Rng::new(seed).next_u64();
    for k in 0..MAX_DRAWS {
        let profile = BenchmarkProfile::custom(
            &format!("s100k-{seed}"),
            inputs,
            outputs,
            gates,
            first.wrapping_add(k),
        );
        let mapped = svt_netlist::technology_map(&svt_netlist::generate_benchmark(&profile), lib)
            .map_err(|e| format!("{}: technology mapping: {e}", profile.name))?;
        if INSTANCES.contains(&mapped.instances().len()) {
            return Ok(profile);
        }
    }
    Err(format!(
        "no netlist seed of {MAX_DRAWS} maps into {INSTANCES:?} instances"
    ))
}

/// Pin-name-compatible masters of each library cell, excluding itself:
/// the legal swap targets, and the same-family subset for resizes.
struct Masters(Vec<(String, Vec<String>, Vec<String>)>);

impl Masters {
    fn new(library: &Library) -> Masters {
        let pins = |name: &str| {
            let mut p: Vec<String> = library
                .cells()
                .iter()
                .find(|c| c.name() == name)
                .map(|c| c.pins().iter().map(|p| p.name.clone()).collect())
                .unwrap_or_default();
            p.sort_unstable();
            p
        };
        let family = |c: &str| c.rfind('X').map_or(c, |i| &c[..i]).to_string();
        let names: Vec<String> = library
            .cells()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        Masters(
            names
                .iter()
                .map(|cell| {
                    let swaps: Vec<String> = names
                        .iter()
                        .filter(|o| *o != cell && pins(o) == pins(cell))
                        .cloned()
                        .collect();
                    let resizes = swaps
                        .iter()
                        .filter(|o| family(o) == family(cell))
                        .cloned()
                        .collect();
                    (cell.clone(), swaps, resizes)
                })
                .collect(),
        )
    }

    fn of(&self, cell: &str) -> (&[String], &[String]) {
        self.0
            .iter()
            .find(|(c, _, _)| c == cell)
            .map_or((&[][..], &[][..]), |(_, s, r)| (&s[..], &r[..]))
    }
}

/// The `j`-th draw of the edit stream, in the shape of the ECO crate's
/// differential test: an instance, and one of swap, resize, spacing or
/// move (swap and resize fall back to a spacing change when the cell has
/// no candidate). Not every draw is legal; the session rejects overlaps
/// without mutating.
///
/// The draws are stratified rather than independent: kinds rotate, and
/// instances follow a golden-ratio sequence from the seed's `offset`, so
/// every run covers the design's depth (and so its timing-cone sizes)
/// evenly and runs differ only in which instances they hit.
fn draw_edit(
    rng: &mut Rng,
    j: u64,
    offset: f64,
    session: &EcoSession<'_>,
    masters: &Masters,
) -> EcoEdit {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let instances = session.netlist().instances();
    let at = (offset + j as f64 * GOLDEN).fract();
    let inst = &instances[((at * instances.len() as f64) as usize).min(instances.len() - 1)];
    let instance = inst.name.clone();
    let spacing = |rng: &mut Rng, instance: String| EcoEdit::AdjustSpacing {
        instance,
        dx_nm: rng.range(-40, 121) as f64 * 10.0,
    };
    let (swaps, resizes) = masters.of(&inst.cell);
    match j % 4 {
        0 if !swaps.is_empty() => EcoEdit::SwapCell {
            instance,
            new_cell: swaps[rng.below(swaps.len())].clone(),
        },
        1 if !resizes.is_empty() => EcoEdit::ResizeCell {
            instance,
            new_cell: resizes[rng.below(resizes.len())].clone(),
        },
        0..=2 => spacing(rng, instance),
        _ => EcoEdit::MoveInstance {
            instance,
            row: rng.below(session.placement().rows().len()),
            x_nm: rng.range(0, 1501) as f64 * 10.0,
        },
    }
}

fn corner_bits(c: &SignoffComparison) -> [u64; 6] {
    [
        c.traditional.bc_ns,
        c.traditional.nom_ns,
        c.traditional.wc_ns,
        c.aware.bc_ns,
        c.aware.nom_ns,
        c.aware.wc_ns,
    ]
    .map(f64::to_bits)
}

/// Expansion and design build of one set-up, from cold caches.
fn prepare(
    lib: &Library,
    profile: &BenchmarkProfile,
    tr: &mut Tracer,
) -> Result<(ExpandedLibrary, Design), String> {
    clear_litho_caches();
    clear_expand_caches();
    let sim = Process::nm90().simulator();
    let expanded = tr
        .span("stdcell.expand_library", |_| {
            expand_library(lib, &sim, &ExpandOptions::default())
        })
        .map_err(|e| format!("expand_library: {e}"))?;
    let options = PlacementOptions {
        seed: profile.seed,
        ..PlacementOptions::default()
    };
    let design = design::build(lib, profile, &options, tr)?;
    Ok((expanded, design))
}

fn open_session<'a>(
    flow: &'a SignoffFlow<'a>,
    design: &Design,
    tr: &mut Tracer,
) -> Result<EcoSession<'a>, String> {
    tr.span("eco.session_new", |_| {
        EcoSession::new(flow, &design.mapped, &design.placement)
    })
    .map_err(|e| format!("baseline session: {e}"))
}

struct EditStats {
    ms: [Vec<f64>; 2],
    by_kind: [Vec<f64>; 4],
    recharacterized: Vec<f64>,
    cones: Vec<f64>,
    draws: u64,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lib = Library::svt90();
    let profile = profile(cfg.seed, &lib)?;
    let masters = Masters::new(&lib);
    let mut tr = Tracer::new(Instant::now());
    // Traced runs trace the set-ups: that is where litho, OPC and the
    // expansion do their work in this workload.
    tr.set_on(cfg.trace);
    obs::set_recording(cfg.trace);
    let snap_setup = cfg.trace.then(|| svt_obs::registry().snapshot());
    let caches0 = obs::Caches::read();

    // Set-up: expansion, design build and the baseline session. All but
    // the last are dropped again; each starts from cold caches.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let t = Instant::now();
        let (expanded, design) = prepare(&lib, &profile, &mut tr)?;
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let session = open_session(&flow, &design, &mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(session);
    }
    let t = Instant::now();
    let (expanded, design) = prepare(&lib, &profile, &mut tr)?;
    let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
    let mut session = open_session(&flow, &design, &mut tr)?;
    setup_s.push(t.elapsed().as_secs_f64());
    drop(design);
    let mut lookups = obs::Lookups::default();
    lookups.add(&caches0, &obs::Caches::read());
    let setup_snap = snap_setup.map(|s0| (s0, svt_obs::registry().snapshot()));
    let instances = session.netlist().instances().len();
    tr.set_on(false);
    obs::set_recording(false);

    let start = Instant::now();
    let run_for = Duration::from_secs_f64(cfg.seconds);

    // The seeded edit stream, with a warm full re-sign-off before it and
    // after every SIGNOFF_EVERY legal edits, so both kinds of sample span
    // the whole run. Each sign-off must equal the session's incrementally
    // maintained state; illegal draws are skipped and counted.
    let mut rng = Rng::new(cfg.seed.wrapping_mul(0x9e37_79b9));
    let offset = rng.next_u64() as f64 / u64::MAX as f64;
    let mut edits = EditStats {
        ms: [Vec::new(), Vec::new()],
        by_kind: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
        recharacterized: Vec::new(),
        cones: Vec::new(),
        draws: 0,
    };
    let mut signoff_ms = [Vec::new(), Vec::new()];
    let mut legal = 0usize;
    let mut signed_at = None;
    loop {
        if legal.is_multiple_of(SIGNOFF_EVERY) && signed_at != Some(legal) {
            signed_at = Some(legal);
            let traced = cfg.trace && (signoff_ms[0].len() + signoff_ms[1].len()) % 2 == 1;
            tr.set_on(traced);
            obs::set_recording(traced);
            let t = Instant::now();
            let cmp = tr.span("core.signoff", |_| {
                flow.run(session.netlist(), session.placement())
            });
            signoff_ms[usize::from(traced)].push(ms_since(t));
            obs::set_recording(false);
            out.attempted += 1;
            let expected = corner_bits(session.comparison());
            match cmp {
                Ok(cmp) if corner_bits(&cmp) == expected => {}
                Ok(_) => {
                    out.failed += 1;
                    out.check(false, || {
                        format!("after {legal} edits a full sign-off differs from the session")
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("warm sign-off failed: {e}"));
                }
            }
            if traced {
                tr.span("sta.traditional_analyses", |_| {
                    flow.traditional_analyses(session.netlist())
                })
                .map_err(|e| format!("traditional analyses: {e}"))?;
                design::extract(&lib, session.netlist(), session.placement(), &mut tr)?;
            }
            tr.set_on(false);
            if legal >= MAX_EDITS || (legal >= MIN_EDITS && start.elapsed() >= run_for) {
                break;
            }
        }
        let traced = cfg.trace && legal % 2 == 1;
        let edit = draw_edit(&mut rng, edits.draws, offset, &session, &masters);
        edits.draws += 1;
        tr.set_on(traced);
        obs::set_recording(traced);
        let t = Instant::now();
        let applied = tr.span("eco.apply", |_| session.apply(&edit));
        let ms = ms_since(t);
        obs::set_recording(false);
        tr.set_on(false);
        match applied {
            Ok(delta) => {
                legal += 1;
                out.attempted += 1;
                edits.ms[usize::from(traced)].push(ms);
                if traced {
                    edits.by_kind[kind(&edit)].push(ms);
                    edits
                        .recharacterized
                        .push(delta.recharacterized.len() as f64);
                    edits.cones.push(delta.forward_instances as f64);
                }
            }
            Err(EcoError::InvalidEdit { .. }) => {}
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.check(false, || format!("{}: {e}", edit.describe()));
            }
        }
    }
    let peak_rss_mb = obs::peak_rss_mb();

    // The edited session must equal a from-scratch sign-off, bit for bit.
    tr.set_on(cfg.trace);
    let fresh = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
    let scratch = tr
        .span("core.run_with_provenance", |_| {
            fresh.run_with_provenance(session.netlist(), session.placement())
        })
        .map_err(|e| format!("from-scratch sign-off: {e}"))?;
    out.attempted += 1;
    if scratch.comparison != *session.comparison()
        || corner_bits(&scratch.comparison) != corner_bits(session.comparison())
    {
        out.failed += 1;
        out.check(false, || {
            format!("after {legal} edits the session differs from a from-scratch sign-off")
        });
    }
    drop(scratch);
    let mut pool = obs::Pool::default();
    if cfg.trace {
        let fresh = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        tr.span("core.signoff.fresh", |_| {
            fresh.run(session.netlist(), session.placement())
        })
        .map_err(|e| format!("fresh sign-off: {e}"))?;
        // One warm sign-off on a multi-worker pool, which must equal the
        // session too.
        let cmp = obs::pool_probe(&mut pool, || {
            tr.span("exec.pool_probe", |_| {
                flow.run(session.netlist(), session.placement())
            })
        })
        .map_err(|e| format!("multi-worker sign-off: {e}"))?;
        out.attempted += 1;
        if corner_bits(&cmp) != corner_bits(session.comparison()) {
            out.failed += 1;
            out.check(false, || {
                "a multi-worker sign-off differs from the session".to_string()
            });
        }
        out.context
            .push(("pool_probe_threads", obs::probe_threads().to_string()));
    }
    tr.set_on(false);

    let signoffs = &signoff_ms[0];
    let eco = &edits.ms[0];
    out.set_e2e(&setup_s, peak_rss_mb, eco, signoffs);
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
            "signoff_s",
            "s",
            &signoffs.iter().map(|m| m / 1e3).collect::<Vec<_>>(),
        ),
        Named::median("eco_p50_ms", "ms", eco),
        Named::value("eco_p90_ms", "ms", stats::quantile(eco, 0.9), eco.len()),
    ];
    out.context.push(("design", profile.name.clone()));
    out.context.push(("instances", instances.to_string()));
    out.context.push(("draws", edits.draws.to_string()));
    out.context.push(("legal_edits", legal.to_string()));

    if cfg.trace {
        let spans = tr.reduce();
        let mean = |name: &str| spans.get(name).map_or(0.0, |a| a.mean_ms());
        let (s0, s1) = setup_snap.ok_or("no set-up snapshot")?;
        let setup = Delta {
            before: &s0,
            after: &s1,
        };
        let mut expansion = obs::Expansion::default();
        expansion.add(&setup);
        let l = &mut out.layers;
        l.insert("litho.transfer_hit_pct", lookups.hit_pct(0));
        l.insert("litho.cd_hit_pct", lookups.hit_pct(1));
        expansion.insert(l, SETUPS as f64);
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
            mean("core.run_with_provenance") - mean("core.signoff.fresh"),
        );
        l.insert("sta.trad_corners_ms", mean("sta.traditional_analyses"));
        pool.insert(l);
        for (key, samples) in KIND_KEYS.iter().zip(&edits.by_kind) {
            l.insert(key, stats::median(samples));
        }
        l.insert("eco.recharacterized", stats::mean(&edits.recharacterized));
        l.insert("eco.cone_instances", stats::mean(&edits.cones));
        l.insert(
            "eco.legal_pct",
            stats::pct(legal as f64, edits.draws as f64),
        );
        l.insert(
            "obs.trace_overhead_pct",
            stats::overhead_pct(&edits.ms[0], &edits.ms[1]),
        );
        out.spans = spans;
        std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
        tr.write_json(
            &cfg.out
                .join(format!("spans-large_signoff_eco-{}.json", cfg.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}
