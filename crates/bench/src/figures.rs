//! Shared data builders for the figure-regeneration binaries.
//!
//! Each `figN()` function computes exactly the numbers its binary prints,
//! so the binaries stay thin formatting shells and the golden-snapshot
//! tests (`tests/golden.rs`) pin the same values the user sees. Every
//! struct also flattens to an ordered `(key, value)` list via `scalars()`,
//! which is the unit of comparison for the golden fixtures.

use std::time::Duration;

use svt_core::{
    classify_sites, compare_opc_flows, label_arc, ArcLabel, ArcLabelPolicy, DeviceClass,
    FlowComparison, FullChipOpc, FullChipResult, LibraryAssembledOpc, SignoffComparison,
    SignoffFlow, SignoffOptions, VariationBudget,
};
use svt_litho::{bossung, pitch_sweep, BossungFamily, FocusExposureMatrix, PitchCdCurve, Process};
use svt_opc::{CorrectedCutline, LibraryOpc, ModelOpc, OpcOptions};
use svt_stdcell::{expand_library, ExpandOptions, Library, PitchCdTable, Region};

use crate::{build_design, signoff_simulator, PAPER_TESTCASES};

/// Fig. 1 — printed CD vs pitch at drawn 130 nm on the 130 nm process.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Drawn linewidth of the sweep, nm.
    pub drawn_nm: f64,
    /// The through-pitch CD curve.
    pub curve: PitchCdCurve,
    /// CD range over points with spacing < 600 nm.
    pub near_range: f64,
    /// CD range over points with spacing >= 600 nm (beyond the radius of
    /// influence).
    pub far_range: f64,
}

/// Builds the Fig. 1 dataset: a 25-point pitch sweep from 300 nm to
/// 1800 nm at nominal focus and dose.
///
/// # Errors
///
/// Propagates the first lithography simulation failure.
pub fn fig1() -> Result<Fig1, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.fig1");
    let sim = Process::nm130().simulator();
    let drawn = 130.0;
    let pitches: Vec<f64> = (0..=24).map(|i| 300.0 + 62.5 * f64::from(i)).collect();
    let curve = pitch_sweep(&sim, drawn, &pitches, 0.0, 1.0)?;
    let range = |v: &[f64]| -> f64 {
        let hi = v.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let lo = v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        if v.is_empty() {
            0.0
        } else {
            hi - lo
        }
    };
    let near: Vec<f64> = curve
        .points()
        .iter()
        .filter(|p| p.pitch_nm - drawn < 600.0)
        .map(|p| p.cd_nm)
        .collect();
    let far: Vec<f64> = curve
        .points()
        .iter()
        .filter(|p| p.pitch_nm - drawn >= 600.0)
        .map(|p| p.cd_nm)
        .collect();
    Ok(Fig1 {
        drawn_nm: drawn,
        near_range: range(&near),
        far_range: range(&far),
        curve,
    })
}

impl Fig1 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots.
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for p in self.curve.points() {
            out.push((format!("cd[pitch={:.1}]", p.pitch_nm), p.cd_nm));
        }
        out.push(("cd_range".to_string(), self.curve.cd_range()));
        out.push(("near_range".to_string(), self.near_range));
        out.push(("far_range".to_string(), self.far_range));
        out
    }
}

/// Fig. 2 — Bossung families for dense and isolated 90 nm lines.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Dense 90 nm lines at 240 nm pitch (150 nm space): smiling curves.
    pub dense: BossungFamily,
    /// Isolated 90 nm lines: frowning curves.
    pub isolated: BossungFamily,
}

/// Builds the Fig. 2 dataset: CD through ±300 nm focus for five doses,
/// dense and isolated.
///
/// # Errors
///
/// Propagates lithography failures (a dose whose every focus point fails
/// to print).
pub fn fig2() -> Result<Fig2, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.fig2");
    let sim = Process::nm90().simulator();
    let focus: Vec<f64> = (-6..=6).map(|i| f64::from(i) * 50.0).collect();
    let doses = [0.94, 0.97, 1.0, 1.03, 1.06];
    Ok(Fig2 {
        dense: bossung(&sim, 90.0, Some(240.0), &focus, &doses)?,
        isolated: bossung(&sim, 90.0, None, &focus, &doses)?,
    })
}

impl Fig2 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots.
    /// Smile/frown shape is encoded as 1.0 / 0.0 so the fixture also pins
    /// the qualitative signature the paper cares about.
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (label, family) in [("dense", &self.dense), ("iso", &self.isolated)] {
            for curve in &family.curves {
                for &(z, cd) in &curve.samples {
                    out.push((
                        format!("{label}.dose={:.2}.cd[focus={z:.0}]", curve.dose),
                        cd,
                    ));
                }
                out.push((
                    format!("{label}.dose={:.2}.smiling", curve.dose),
                    f64::from(u8::from(curve.is_smiling())),
                ));
            }
        }
        out
    }
}

/// Fig. 3 — library-based OPC of NAND2X1 in its dummy-poly environment.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The corrected cutline of each diffusion row, P first.
    pub rows: Vec<(Region, CorrectedCutline)>,
}

/// Builds the Fig. 3 dataset: both NAND2X1 row cutlines corrected with the
/// production model between dummy poly lines 150 nm outside the outline.
///
/// # Errors
///
/// Propagates OPC and lithography failures.
pub fn fig3() -> Result<Fig3, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.fig3");
    let library = Library::svt90();
    let layout = library.cell("NAND2X1").ok_or("NAND2X1 missing")?.layout();
    let opc = ModelOpc::with_production_model(&signoff_simulator(), OpcOptions::default());
    let lib_opc = LibraryOpc::new(opc, 150.0, 90.0);
    let rows = [Region::P, Region::N]
        .into_iter()
        .map(|region| {
            let gates: Vec<(f64, f64)> = layout
                .row_spans(region)
                .iter()
                .map(|&(_, (lo, hi))| ((lo + hi) / 2.0, hi - lo))
                .collect();
            Ok((
                region,
                lib_opc.correct_cell(&gates, 0.0, layout.width_nm())?,
            ))
        })
        .collect::<Result<Vec<_>, svt_opc::OpcError>>()?;
    Ok(Fig3 { rows })
}

impl Fig3 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots: per
    /// row, each gate's center, mask width and printed CD, then the sweep
    /// count and the correction model's residual.
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (region, row) in &self.rows {
            for (i, (g, cd)) in row.gates.iter().zip(&row.printed_cd_nm).enumerate() {
                out.push((format!("{region:?}.gate[{i}].center"), g.center));
                out.push((format!("{region:?}.gate[{i}].mask"), g.mask_width));
                out.push((format!("{region:?}.gate[{i}].printed"), *cd));
            }
            out.push((format!("{region:?}.sweeps"), row.report.sweeps as f64));
            out.push((format!("{region:?}.residual"), row.report.max_error_nm));
        }
        out
    }
}

/// Fig. 5 — device classes and timing-arc labels of a placed design.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Devices per class: isolated, dense, self-compensated.
    pub devices: [usize; 3],
    /// Arcs per majority-policy label: smile, frown, self-compensated.
    pub arcs: [usize; 3],
}

/// Builds the Fig. 5 dataset: every device of the placed benchmark
/// classified from its neighbor spacings (300 nm threshold), and every
/// timing arc labeled from its devices' classes by the majority policy.
///
/// # Errors
///
/// Propagates placement-query failures.
pub fn fig5(name: &str) -> Result<Fig5, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.fig5");
    let library = Library::svt90();
    let design = build_design(&library, name);
    let sites = design.placement.device_sites(&design.mapped, &library)?;
    let classes = classify_sites(&sites, 300.0);
    let class_index = |c: DeviceClass| match c {
        DeviceClass::Isolated => 0,
        DeviceClass::Dense => 1,
        DeviceClass::SelfCompensated => 2,
    };
    let mut devices = [0usize; 3];
    for &c in &classes {
        devices[class_index(c)] += 1;
    }

    let mut per_device: Vec<Vec<DeviceClass>> = design
        .mapped
        .instances()
        .iter()
        .map(|inst| {
            let n = library
                .cell(&inst.cell)
                .map(|c| c.layout().devices().len())
                .unwrap_or(0);
            vec![DeviceClass::Isolated; n]
        })
        .collect();
    for (site, class) in sites.iter().zip(&classes) {
        per_device[site.instance][site.device.0] = *class;
    }
    let mut arcs = [0usize; 3];
    for (idx, inst) in design.mapped.instances().iter().enumerate() {
        let cell = library.cell(&inst.cell).ok_or("mapped cell missing")?;
        for arc in cell.arcs() {
            let arc_classes: Vec<DeviceClass> =
                arc.devices.iter().map(|d| per_device[idx][d.0]).collect();
            let slot = match label_arc(&arc_classes, ArcLabelPolicy::Majority) {
                ArcLabel::Smile => 0,
                ArcLabel::Frown => 1,
                ArcLabel::SelfCompensated => 2,
            };
            arcs[slot] += 1;
        }
    }
    Ok(Fig5 { devices, arcs })
}

impl Fig5 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots: the
    /// three device-class counts, then the three arc-label counts.
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (label, n) in ["isolated", "dense", "self_compensated"]
            .iter()
            .zip(self.devices)
        {
            out.push((format!("devices.{label}"), n as f64));
        }
        for (label, n) in ["smile", "frown", "self_compensated"].iter().zip(self.arcs) {
            out.push((format!("arcs.{label}"), n as f64));
        }
        out
    }
}

/// Fig. 6 — measured systematic components and the corner-span
/// decomposition they imply.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Drawn CD, nm.
    pub drawn_nm: f64,
    /// Post-OPC through-pitch CD half-range.
    pub lvar_pitch: f64,
    /// FEM through-focus excursion.
    pub lvar_focus: f64,
    /// Per-pitch smile signature (`None` when the FEM lacks that pitch).
    pub smiles: Vec<(f64, Option<bool>)>,
    /// Pitch share of the variation budget.
    pub pitch_fraction: f64,
    /// Focus share of the variation budget.
    pub focus_fraction: f64,
    /// `(label, bc_nm, wc_nm, span_nm)` for the traditional corner model
    /// and the three aware arcs.
    pub corners: Vec<(&'static str, f64, f64, f64)>,
}

/// Builds the Fig. 6 dataset from the sign-off simulator: `lvar_pitch`
/// from a post-OPC pitch table, `lvar_focus` from a three-pitch FEM, and
/// the traditional-vs-aware corner spans under the resulting budget.
///
/// # Errors
///
/// Propagates OPC or lithography failures.
pub fn fig6() -> Result<Fig6, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.fig6");
    let sim = signoff_simulator();
    let drawn = 90.0;

    let opc = ModelOpc::with_production_model(&sim, OpcOptions::default());
    let table = PitchCdTable::build(
        &sim,
        &opc,
        drawn,
        &[150.0, 200.0, 250.0, 300.0, 400.0, 500.0, 700.0],
    )?;
    let lvar_pitch = table.lvar_pitch();

    let focus: Vec<f64> = (-4..=4).map(|i| f64::from(i) * 75.0).collect();
    let fem = FocusExposureMatrix::build(&sim, drawn, &[240.0, 280.0, 320.0], &focus, &[1.0])?;
    let lvar_focus = fem.lvar_focus();
    let smiles = [240.0, 280.0, 320.0]
        .iter()
        .map(|&p| (p, fem.smiles_at(p)))
        .collect();

    let delta = 0.15 * drawn;
    let budget = VariationBudget::new(
        0.15,
        (lvar_pitch / delta).min(0.5),
        (lvar_focus / delta).min(0.5),
    );
    let naive = budget.traditional_corners(drawn);
    let mut corners = vec![("traditional", naive.bc_nm, naive.wc_nm, naive.spread_nm())];
    for (name, label) in [
        ("aware_smile", ArcLabel::Smile),
        ("aware_frown", ArcLabel::Frown),
        ("aware_selfcomp", ArcLabel::SelfCompensated),
    ] {
        let c = budget.aware_corners(drawn, label);
        corners.push((name, c.bc_nm, c.wc_nm, c.spread_nm()));
    }

    Ok(Fig6 {
        drawn_nm: drawn,
        lvar_pitch,
        lvar_focus,
        smiles,
        pitch_fraction: budget.pitch_fraction,
        focus_fraction: budget.focus_fraction,
        corners,
    })
}

impl Fig6 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots.
    /// Smile signatures encode as 1.0 / 0.0 / -1.0 (smile / frown /
    /// pitch absent from the FEM).
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("lvar_pitch".to_string(), self.lvar_pitch),
            ("lvar_focus".to_string(), self.lvar_focus),
            ("pitch_fraction".to_string(), self.pitch_fraction),
            ("focus_fraction".to_string(), self.focus_fraction),
        ];
        for &(pitch, smiles) in &self.smiles {
            let v = match smiles {
                Some(true) => 1.0,
                Some(false) => 0.0,
                None => -1.0,
            };
            out.push((format!("smiles[pitch={pitch:.0}]"), v));
        }
        for &(name, bc, wc, span) in &self.corners {
            out.push((format!("{name}.bc"), bc));
            out.push((format!("{name}.wc"), wc));
            out.push((format!("{name}.span"), span));
        }
        out
    }
}

/// Table 1 — library-based vs full-chip OPC on one placed design.
#[derive(Debug, Clone)]
pub struct Tab1 {
    /// Benchmark name.
    pub testcase: String,
    /// Full-chip OPC: every row cutline corrected in context, then audited
    /// with the sign-off simulator.
    pub full: FullChipResult,
    /// Library OPC: corrected masters assembled into the chip mask and
    /// audited the same way.
    pub library: FullChipResult,
    /// Device-by-device agreement of the two flows.
    pub comparison: FlowComparison,
    /// Time spent correcting the masters the design uses.
    pub master_time: Duration,
}

/// Builds one Table 1 row: full-chip OPC and library OPC of the placed
/// benchmark, and their device-by-device comparison.
///
/// # Errors
///
/// Propagates OPC, lithography and placement-query failures.
pub fn tab1(name: &str) -> Result<Tab1, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.tab1");
    let library = Library::svt90();
    let sim = signoff_simulator();
    let design = build_design(&library, name);
    let full = FullChipOpc::new(&sim, OpcOptions::default()).run(
        &design.mapped,
        &design.placement,
        &library,
    )?;
    let assembler = LibraryAssembledOpc::new(&sim, OpcOptions::default());
    let (masks, master_time) = assembler.correct_masters(&design.mapped, &library)?;
    let lib_flow = assembler.run(&design.mapped, &design.placement, &library, &masks)?;
    let comparison = compare_opc_flows(&full, &lib_flow)?;
    Ok(Tab1 {
        testcase: name.to_string(),
        full,
        library: lib_flow,
        comparison,
        master_time,
    })
}

/// Fig. 7's summary of a percent-error population: the mean and the
/// largest magnitude (both 0 for an empty population).
#[must_use]
pub fn error_summary(errors: &[f64]) -> (f64, f64) {
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    let worst = errors.iter().map(|e| e.abs()).fold(0.0, f64::max);
    (mean, worst)
}

impl Tab1 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots: the
    /// device count, the N-1/N-3/N-6 counts, and the full-chip run's Fig. 7
    /// mean and worst % error against the 90 nm target. Runtimes are left
    /// out.
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let c = &self.comparison;
        let (mean, worst) = error_summary(&self.full.percent_errors(90.0));
        let case = &self.testcase;
        vec![
            (format!("{case}.devices"), c.total as f64),
            (format!("{case}.n1"), c.within_1pct as f64),
            (format!("{case}.n3"), c.within_3pct as f64),
            (format!("{case}.n6"), c.within_6pct as f64),
            (format!("{case}.fig7.mean_pct"), mean),
            (format!("{case}.fig7.worst_pct"), worst),
        ]
    }
}

/// Table 2 — traditional vs systematic-variation aware corner delays of
/// the paper's five testcases.
#[derive(Debug, Clone)]
pub struct Tab2 {
    /// One comparison per testcase, in [`PAPER_TESTCASES`] order.
    pub rows: Vec<SignoffComparison>,
}

/// Builds the Table 2 dataset: the full aware flow (context library on)
/// over c432…c3540 — the rows `tab2_timing` prints without arguments.
///
/// # Errors
///
/// Propagates library-expansion and sign-off failures.
pub fn tab2() -> Result<Tab2, Box<dyn std::error::Error>> {
    let _span = svt_obs::span("bench.tab2");
    let library = Library::svt90();
    let expanded = expand_library(&library, &signoff_simulator(), &ExpandOptions::default())?;
    let flow = SignoffFlow::new(&library, &expanded, SignoffOptions::default());
    let rows = PAPER_TESTCASES
        .iter()
        .map(|name| {
            let design = build_design(&library, name);
            flow.run(&design.mapped, &design.placement)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Tab2 { rows })
}

impl Tab2 {
    /// Flattens to ordered `(key, value)` pairs for golden snapshots: per
    /// testcase the six corner delays (ns) and the BC→WC uncertainty
    /// reduction (%).
    #[must_use]
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for row in &self.rows {
            let case = &row.testcase;
            for (method, t) in [("traditional", &row.traditional), ("aware", &row.aware)] {
                out.push((format!("{case}.{method}.nom"), t.nom_ns));
                out.push((format!("{case}.{method}.bc"), t.bc_ns));
                out.push((format!("{case}.{method}.wc"), t.wc_ns));
            }
            out.push((
                format!("{case}.reduction_pct"),
                row.uncertainty_reduction_pct(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_scalars_are_ordered_and_finite() {
        let data = fig1().expect("fig1 builds");
        let scalars = data.scalars();
        assert_eq!(scalars.len(), 25 + 3);
        assert!(scalars.iter().all(|(_, v)| v.is_finite()));
        assert_eq!(scalars[0].0, "cd[pitch=300.0]");
    }

    #[test]
    fn fig2_has_opposite_signatures() {
        let data = fig2().expect("fig2 builds");
        let nominal_dense = data
            .dense
            .curves
            .iter()
            .find(|c| (c.dose - 1.0).abs() < 1e-9)
            .expect("nominal dose present");
        let nominal_iso = data
            .isolated
            .curves
            .iter()
            .find(|c| (c.dose - 1.0).abs() < 1e-9)
            .expect("nominal dose present");
        assert_ne!(nominal_dense.is_smiling(), nominal_iso.is_smiling());
    }
}
