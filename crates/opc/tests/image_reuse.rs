//! Oracle for OPC's image reuse.
//!
//! `ModelOpc::correct` images a mask only when an edge moved since its last
//! image, and `LibraryOpc::correct_cell` measures its gates on the image
//! `correct` verified with. The test-only copies below image every sweep,
//! the verification and every gate afresh; both sides must return the same
//! reports, mask widths and printed CDs, bit for bit, and the same errors.

use proptest::prelude::*;

use svt_litho::{AerialImage, LithoError, LithoSimulator, MaskCutline, Process};
use svt_opc::{
    CorrectedCutline, CutlinePattern, LibraryOpc, LineKind, ModelOpc, OpcError, OpcLine,
    OpcOptions, OpcReport,
};

/// The correction model's image of the pattern's current mask, taken anew.
fn image(model: &LithoSimulator, pattern: &CutlinePattern) -> Result<AerialImage, OpcError> {
    let mask = MaskCutline::from_lines(
        pattern.x0(),
        pattern.length(),
        model.config().grid_nm(),
        &pattern.chrome(),
    )?;
    Ok(model.aerial_image(&mask, 0.0))
}

fn device_cd(model: &LithoSimulator, image: &AerialImage, center: f64) -> Result<f64, LithoError> {
    svt_litho::measure_cd_at(image, center, model.resist(), 1.0).and_then(|p| model.device_cd(p))
}

/// The mask rules of a width update: snapped to the grid, at least the
/// minimum width, and no wider than the neighbor spaces allow.
fn apply_width(opts: OpcOptions, pattern: &mut CutlinePattern, i: usize, new_width: f64) {
    let line = pattern.lines()[i];
    let (l, r) = pattern.neighbor_spaces(i);
    let slack_l = l.map_or(f64::INFINITY, |s| s - opts.min_mask_space_nm);
    let slack_r = r.map_or(f64::INFINITY, |s| s - opts.min_mask_space_nm);
    let max_width = line.mask_width + 2.0 * slack_l.min(slack_r).max(0.0);
    let step = 2.0 * opts.mask_grid_nm;
    let snapped = (new_width / step).round() * step;
    let max_snapped = (max_width / step).floor() * step;
    pattern.lines_mut()[i].mask_width = snapped.clamp(
        opts.min_mask_width_nm,
        max_snapped.max(opts.min_mask_width_nm),
    );
}

/// `ModelOpc::correct`, imaging every sweep and the verification.
fn reference_correct(opc: &ModelOpc, pattern: &mut CutlinePattern) -> Result<OpcReport, OpcError> {
    let (opts, model) = (opc.options(), opc.model());
    pattern.validate(opts.min_mask_space_nm)?;
    let gates = pattern.gate_indices();
    if gates.is_empty() {
        return Ok(OpcReport {
            sweeps: 0,
            max_error_nm: 0.0,
            converged: true,
        });
    }
    let mut max_error = f64::INFINITY;
    let mut sweeps = 0;
    for _ in 0..opts.max_sweeps {
        sweeps += 1;
        let image = image(model, pattern)?;
        max_error = 0.0f64;
        for &i in &gates {
            let line = pattern.lines()[i];
            let cd = match device_cd(model, &image, line.center) {
                Ok(cd) => cd,
                Err(LithoError::FeatureNotPrinted { .. }) => {
                    apply_width(opts, pattern, i, line.mask_width + 10.0);
                    max_error = max_error.max(line.target_cd);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let error = line.target_cd - cd;
            max_error = max_error.max(error.abs());
            apply_width(opts, pattern, i, line.mask_width + opts.damping * error);
        }
        if max_error < opts.tolerance_nm {
            break;
        }
    }
    let image = image(model, pattern)?;
    for &i in &gates {
        let center = pattern.lines()[i].center;
        if let Err(LithoError::FeatureNotPrinted { .. }) = device_cd(model, &image, center) {
            return Err(OpcError::UncorrectableLine { center });
        }
    }
    Ok(OpcReport {
        sweeps,
        max_error_nm: max_error,
        converged: max_error < opts.tolerance_nm,
    })
}

/// `LibraryOpc::correct_cell` with a 150 nm / 90 nm dummy environment,
/// correcting through [`reference_correct`] and imaging every gate again.
fn reference_correct_cell(
    opc: &ModelOpc,
    gates: &[(f64, f64)],
    cell_lo: f64,
    cell_hi: f64,
) -> Result<CorrectedCutline, OpcError> {
    let (space, width, margin) = (150.0, 90.0, 1600.0);
    let mut pattern = CutlinePattern::new(cell_lo - margin, cell_hi - cell_lo + 2.0 * margin);
    for &(center, drawn) in gates {
        pattern.push(OpcLine::gate(center, drawn));
    }
    pattern.push(OpcLine::dummy(cell_lo - space - width / 2.0, width));
    pattern.push(OpcLine::dummy(cell_hi + space + width / 2.0, width));
    let report = reference_correct(opc, &mut pattern)?;
    let mut out = CorrectedCutline {
        gates: Vec::new(),
        printed_cd_nm: Vec::new(),
        report,
    };
    for line in pattern.lines().iter().filter(|l| l.kind == LineKind::Gate) {
        let image = image(opc.model(), &pattern)?;
        out.printed_cd_nm
            .push(device_cd(opc.model(), &image, line.center)?);
        out.gates.push(*line);
    }
    Ok(out)
}

fn report_bits(r: &OpcReport) -> (usize, u64, bool) {
    (r.sweeps, r.max_error_nm.to_bits(), r.converged)
}

fn width_bits(lines: &[OpcLine]) -> Vec<u64> {
    lines.iter().map(|l| l.mask_width.to_bits()).collect()
}

/// Correction engines over both models and option sets that converge,
/// stall on the mask grid (a tolerance no 2 nm step can meet, so sweeps
/// repeat on an unchanged mask), or run out of sweeps.
fn engine(index: usize) -> ModelOpc {
    let signoff = Process::nm90().simulator();
    let options = match index / 2 {
        0 => OpcOptions::default(),
        1 => OpcOptions {
            tolerance_nm: 0.05,
            ..OpcOptions::default()
        },
        2 => OpcOptions {
            mask_grid_nm: 2.0,
            damping: 1.0,
            ..OpcOptions::default()
        },
        _ => OpcOptions {
            max_sweeps: 2,
            ..OpcOptions::default()
        },
    };
    if index.is_multiple_of(2) {
        ModelOpc::new(signoff, options)
    } else {
        ModelOpc::with_production_model(&signoff, options)
    }
}

/// Gate `(center, drawn)` pairs laid out from 0 by `(drawn, space)`
/// segments.
fn gates_of(segments: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut x = 0.0;
    segments
        .iter()
        .map(|&(drawn, space)| {
            let gate = (x + drawn / 2.0, drawn);
            x += drawn + space;
            gate
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn correct_matches_imaging_every_sweep(
        engine_index in 0usize..8,
        segments in prop::collection::vec((70.0f64..140.0, 70.0f64..700.0), 1..6),
        dummy_gap in 80.0f64..400.0,
    ) {
        let opc = engine(engine_index);
        let mut pattern = CutlinePattern::new(-2048.0, 4096.0);
        let gates = gates_of(&segments);
        for &(center, drawn) in &gates {
            pattern.push(OpcLine::gate(center - 600.0, drawn));
        }
        pattern.push(OpcLine::dummy(-600.0 - dummy_gap - 45.0, 90.0));
        let mut reference = pattern.clone();
        let got = opc.correct(&mut pattern);
        let want = reference_correct(&opc, &mut reference);
        match (&got, &want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(report_bits(g), report_bits(w)),
            _ => prop_assert_eq!(&got, &want),
        }
        prop_assert_eq!(width_bits(pattern.lines()), width_bits(reference.lines()));
    }

    #[test]
    fn correct_cell_matches_imaging_every_gate(
        engine_index in 0usize..8,
        segments in prop::collection::vec((70.0f64..140.0, 120.0f64..500.0), 1..5),
        margin in 40.0f64..200.0,
    ) {
        let opc = engine(engine_index);
        let gates: Vec<(f64, f64)> = gates_of(&segments)
            .into_iter()
            .map(|(c, d)| (c + margin, d))
            .collect();
        let (last_center, last_drawn) = gates[gates.len() - 1];
        let cell_hi = last_center + last_drawn / 2.0 + margin;
        let lib = LibraryOpc::new(opc.clone(), 150.0, 90.0);
        let got = lib.correct_cell(&gates, 0.0, cell_hi);
        let want = reference_correct_cell(&opc, &gates, 0.0, cell_hi);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                prop_assert_eq!(report_bits(&g.report), report_bits(&w.report));
                prop_assert_eq!(width_bits(&g.gates), width_bits(&w.gates));
                let cd_bits = |c: &CorrectedCutline| {
                    c.printed_cd_nm.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                prop_assert_eq!(cd_bits(g), cd_bits(w));
            }
            _ => prop_assert_eq!(&got, &want),
        }
    }
}

/// A gateless cell is never imaged, and still corrects to nothing.
#[test]
fn gateless_cell_corrects_to_nothing() {
    let lib = LibraryOpc::new(engine(0), 150.0, 90.0);
    let corrected = lib.correct_cell(&[], 0.0, 400.0).unwrap();
    assert!(corrected.gates.is_empty() && corrected.printed_cd_nm.is_empty());
    assert_eq!(corrected.report.sweeps, 0);
}
