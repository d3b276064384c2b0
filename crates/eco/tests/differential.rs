//! Differential proof of incremental/full equivalence.
//!
//! The ECO engine's core contract: after *any* legal edit sequence, the
//! session's state is bit-identical to throwing everything away and
//! re-running [`SignoffFlow::run_with_provenance`] on the edited netlist
//! and placement. This test applies a seeded random sequence of swaps,
//! resizes, spacing adjustments, and moves to a c432-scale design and,
//! after every successful edit, asserts
//!
//! * the six corner delays match bit-for-bit (`f64::to_bits`),
//! * all six corner analyses match as whole states — every arrival,
//!   slew, required time, load and arc delay, including internal ones no
//!   endpoint sees — and so do their bindings (`==` is bit-exact on both),
//! * `uncertainty_reduction_pct` matches bit-for-bit,
//! * the audit trail renders to byte-identical text *and* JSON,
//! * the [`DeltaReport`]'s delta audit splices into the pre-edit audit
//!   to exactly the post-edit full audit, and
//! * the edit stayed local: at most two rows re-extracted and at most a
//!   tenth of the design re-characterized.
//!
//! The whole scenario runs under `SVT_THREADS` ∈ {1, default} — thread
//! count is a performance knob, never a result knob, incremental or not.
//! All environment mutation lives in this single `#[test]` because
//! sibling tests in one binary share the process environment.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svt_core::{CornerAnalysis, FlowProvenance, SignoffFlow, SignoffOptions};
use svt_eco::{EcoEdit, EcoError, EcoSession};
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
use svt_place::{place, PlacementOptions};
use svt_stdcell::{expand_library, ExpandOptions, Library};

/// Edits to land per scenario (invalid draws are skipped, not counted).
const EDITS: usize = 5;
/// Draw budget per scenario before giving up (never hit in practice).
const MAX_ATTEMPTS: usize = 200;

/// Pin-name-compatible masters of `cell`, excluding itself — the legal
/// `SwapCell` targets.
fn swap_candidates(library: &Library, cell: &str) -> Vec<String> {
    let mut pins: Vec<&str> = library
        .cells()
        .iter()
        .find(|c| c.name() == cell)
        .map(|c| c.pins().iter().map(|p| p.name.as_str()).collect())
        .unwrap_or_default();
    pins.sort_unstable();
    library
        .cells()
        .iter()
        .filter(|c| c.name() != cell)
        .filter(|c| {
            let mut other: Vec<&str> = c.pins().iter().map(|p| p.name.as_str()).collect();
            other.sort_unstable();
            other == pins
        })
        .map(|c| c.name().to_string())
        .collect()
}

/// Draws one random edit against the session's current state. Not every
/// draw is legal (moves may overlap); the caller skips `InvalidEdit`.
fn random_edit(rng: &mut SmallRng, session: &EcoSession<'_>, library: &Library) -> EcoEdit {
    let instances = session.netlist().instances();
    let idx = rng.gen_range(0..instances.len());
    let name = instances[idx].name.clone();
    let cell = instances[idx].cell.clone();
    match rng.gen_range(0..4u8) {
        0 => {
            let cands = swap_candidates(library, &cell);
            if cands.is_empty() {
                EcoEdit::AdjustSpacing {
                    instance: name,
                    dx_nm: f64::from(rng.gen_range(-40..121)) * 10.0,
                }
            } else {
                EcoEdit::SwapCell {
                    instance: name,
                    new_cell: cands[rng.gen_range(0..cands.len())].clone(),
                }
            }
        }
        1 => {
            // Same-family candidates only (resize semantics).
            let family = |c: &str| c.rfind('X').map_or(c.to_string(), |i| c[..i].to_string());
            let cands: Vec<String> = swap_candidates(library, &cell)
                .into_iter()
                .filter(|c| family(c) == family(&cell))
                .collect();
            if cands.is_empty() {
                EcoEdit::AdjustSpacing {
                    instance: name,
                    dx_nm: f64::from(rng.gen_range(-40..121)) * 10.0,
                }
            } else {
                EcoEdit::ResizeCell {
                    instance: name,
                    new_cell: cands[rng.gen_range(0..cands.len())].clone(),
                }
            }
        }
        2 => EcoEdit::AdjustSpacing {
            instance: name,
            dx_nm: f64::from(rng.gen_range(-40..121)) * 10.0,
        },
        _ => EcoEdit::MoveInstance {
            instance: name,
            row: rng.gen_range(0..session.placement().rows().len()),
            x_nm: f64::from(rng.gen_range(0..1_501)) * 10.0,
        },
    }
}

/// The six corner analyses in audit slot order: traditional, then aware.
fn corners(p: &FlowProvenance) -> impl Iterator<Item = &CornerAnalysis> {
    p.traditional.iter().chain(&p.aware)
}

/// Runs one full random-edit scenario and cross-checks every edit
/// against a from-scratch rebuild.
fn run_scenario(seed: u64, label: &str) {
    let lib = Library::svt90();
    let sim = svt_litho::Process::nm90().simulator();
    let expanded = expand_library(&lib, &sim, &ExpandOptions::fast()).expect("expansion");
    let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").expect("profile"));
    let mapped = technology_map(&netlist, &lib).expect("techmap");
    let placement = place(&mapped, &lib, &PlacementOptions::default()).expect("place");
    let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
    let mut session = EcoSession::new(&flow, &mapped, &placement).expect("baseline");

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut applied = 0;
    let mut attempts = 0;
    while applied < EDITS {
        attempts += 1;
        assert!(
            attempts < MAX_ATTEMPTS,
            "[{label}] could not draw {EDITS} legal edits"
        );
        let edit = random_edit(&mut rng, &session, &lib);
        let pre_audit = session.audit().clone();
        let delta = match session.apply(&edit) {
            Ok(delta) => delta,
            Err(EcoError::InvalidEdit { .. }) => continue,
            Err(e) => panic!("[{label}] edit {} failed: {e}", edit.describe()),
        };
        applied += 1;
        // Where the incremental path saves its time: an edit re-extracts
        // only the rows it touches and re-characterizes only its radius of
        // influence. The wall-clock ratio is perfbench's to measure.
        let instances = session.netlist().instances().len();
        assert!(
            delta.rows_extracted.len() <= 2 && delta.recharacterized.len() * 10 <= instances,
            "[{label}] {} re-extracted {} rows and re-characterized {} of {instances} instances",
            delta.edit,
            delta.rows_extracted.len(),
            delta.recharacterized.len()
        );

        let full = flow
            .run_with_provenance(session.netlist(), session.placement())
            .expect("full rebuild");
        let ctx = format!("[{label}] after edit {applied} ({})", delta.edit);
        for (which, (inc, fresh)) in [
            (
                session.comparison().traditional.bc_ns,
                full.comparison.traditional.bc_ns,
            ),
            (
                session.comparison().traditional.nom_ns,
                full.comparison.traditional.nom_ns,
            ),
            (
                session.comparison().traditional.wc_ns,
                full.comparison.traditional.wc_ns,
            ),
            (
                session.comparison().aware.bc_ns,
                full.comparison.aware.bc_ns,
            ),
            (
                session.comparison().aware.nom_ns,
                full.comparison.aware.nom_ns,
            ),
            (
                session.comparison().aware.wc_ns,
                full.comparison.aware.wc_ns,
            ),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(
                inc.to_bits(),
                fresh.to_bits(),
                "{ctx}: corner slot {which} diverged ({inc} vs {fresh})"
            );
        }
        // `assert!`, not `assert_eq!`: a failure should name the slot, not
        // print two whole states.
        for (slot, (inc, fresh)) in corners(session.provenance())
            .zip(corners(&full))
            .enumerate()
        {
            assert!(
                inc.state == fresh.state,
                "{ctx}: corner slot {slot} timing state diverged"
            );
            assert!(
                inc.binding == fresh.binding,
                "{ctx}: corner slot {slot} binding diverged"
            );
        }
        assert_eq!(
            session.comparison().uncertainty_reduction_pct().to_bits(),
            full.comparison.uncertainty_reduction_pct().to_bits(),
            "{ctx}: uncertainty reduction diverged"
        );
        assert_eq!(
            session.audit().render_text(),
            full.audit.render_text(),
            "{ctx}: audit text diverged"
        );
        assert_eq!(
            session.audit().render_json(),
            full.audit.render_json(),
            "{ctx}: audit json diverged"
        );
        assert_eq!(
            delta.delta_audit.splice_into(&pre_audit),
            full.audit,
            "{ctx}: delta audit does not splice to the full audit"
        );
    }
    assert_eq!(session.edits().len(), EDITS);
}

#[test]
fn incremental_state_is_bit_identical_to_full_rebuild_across_threads() {
    let restore = std::env::var("SVT_THREADS").ok();

    for threads in [Some("1"), None] {
        match threads {
            Some(v) => std::env::set_var("SVT_THREADS", v),
            None => std::env::remove_var("SVT_THREADS"),
        }
        let label = format!("SVT_THREADS={}", threads.unwrap_or("default"));
        run_scenario(0xEC0, &label);
    }

    match restore {
        Some(v) => std::env::set_var("SVT_THREADS", v),
        None => std::env::remove_var("SVT_THREADS"),
    }
}
