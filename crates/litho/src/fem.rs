use serde::{Deserialize, Serialize};
use svt_exec::try_par_map;

use crate::bossung::{bossung, BossungFamily};
use crate::{LithoError, LithoSimulator};

/// One entry of a focus-exposure matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FemPoint {
    /// Pitch in nanometres (`f64::INFINITY` encodes an isolated line).
    pub pitch_nm: f64,
    /// Defocus in nanometres.
    pub defocus_nm: f64,
    /// Relative dose.
    pub dose: f64,
    /// Printed CD in nanometres.
    pub cd_nm: f64,
}

/// A focus-exposure matrix (FEM) over a set of pitches.
///
/// The paper builds its `lvar_focus` corner contribution "using the FEM
/// curves built from fabrication of test structures … for a number of
/// pitches ranging from minimum pitch to a pitch slightly larger than the
/// contacted pitch" (§3.3). Here the matrix is built by simulation instead
/// of fabrication; its consumers are identical.
///
/// # Examples
///
/// ```
/// use svt_litho::{FocusExposureMatrix, LithoSimulator, Process};
///
/// let p = Process::nm90();
/// let sim = p.simulator();
/// let fem = FocusExposureMatrix::build(
///     &sim, 90.0, &[240.0, 320.0], &[-200.0, 0.0, 200.0], &[1.0],
/// )?;
/// assert!(fem.lvar_focus() > 0.0);
/// # Ok::<(), svt_litho::LithoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FocusExposureMatrix {
    drawn_width_nm: f64,
    families: Vec<BossungFamily>,
}

impl FocusExposureMatrix {
    /// Builds the matrix by simulating a Bossung family for every pitch,
    /// with pitches distributed across the worker pool. Use
    /// `f64::INFINITY` in `pitches_nm` to include an isolated line.
    ///
    /// # Errors
    ///
    /// Propagates the first simulation failure (by pitch order, matching
    /// the sequential loop).
    pub fn build(
        sim: &LithoSimulator,
        width_nm: f64,
        pitches_nm: &[f64],
        focus_nm: &[f64],
        doses: &[f64],
    ) -> Result<FocusExposureMatrix, LithoError> {
        let _build = svt_obs::span("litho.fem.build");
        let families = try_par_map(pitches_nm, |&pitch| {
            // Worker threads root their own span stack, so this aggregates
            // under "litho.fem.pitch" rather than under the build span.
            let _pitch = svt_obs::span("litho.fem.pitch");
            let p = if pitch.is_finite() { Some(pitch) } else { None };
            bossung(sim, width_nm, p, focus_nm, doses)
        })?;
        Ok(FocusExposureMatrix {
            drawn_width_nm: width_nm,
            families,
        })
    }

    /// Drawn line width of the matrix.
    #[must_use]
    pub fn drawn_width_nm(&self) -> f64 {
        self.drawn_width_nm
    }

    /// The Bossung family for each characterized pitch.
    #[must_use]
    pub fn families(&self) -> &[BossungFamily] {
        &self.families
    }

    /// All matrix entries flattened.
    #[must_use]
    pub fn points(&self) -> Vec<FemPoint> {
        let mut out = Vec::new();
        for fam in &self.families {
            let pitch_nm = fam.pitch_nm.unwrap_or(f64::INFINITY);
            for curve in &fam.curves {
                for &(defocus_nm, cd_nm) in &curve.samples {
                    out.push(FemPoint {
                        pitch_nm,
                        defocus_nm,
                        dose: curve.dose,
                        cd_nm,
                    });
                }
            }
        }
        out
    }

    /// The through-focus linewidth-variation half-range `lvar_focus`: the
    /// worst CD excursion from the in-focus CD over all pitches and doses
    /// (paper §3.3).
    #[must_use]
    pub fn lvar_focus(&self) -> f64 {
        self.families
            .iter()
            .flat_map(|f| f.curves.iter())
            .map(|c| c.max_focus_excursion())
            .fold(0.0, f64::max)
    }

    /// Whether the pattern at a given pitch smiles through focus (nominal
    /// dose curve). Isolated queries use `f64::INFINITY`. Returns `None` if
    /// the pitch was not characterized.
    #[must_use]
    pub fn smiles_at(&self, pitch_nm: f64) -> Option<bool> {
        self.smiles_at_dose(pitch_nm, 1.0)
    }

    /// Whether the pattern at a given pitch smiles through focus at the
    /// characterized dose closest to `dose`. Exposure variation can move a
    /// pattern across its isofocal dose and flip the curvature — the
    /// effect the paper's §6 flags as future work ("exposure variation can
    /// alter the nature of devices").
    #[must_use]
    pub fn smiles_at_dose(&self, pitch_nm: f64, dose: f64) -> Option<bool> {
        self.family_at(pitch_nm).and_then(|f| {
            f.curves
                .iter()
                .min_by(|a, b| (a.dose - dose).abs().total_cmp(&(b.dose - dose).abs()))
                .map(|c| c.is_smiling())
        })
    }

    /// CD sensitivity to dose at focus, `dCD/d(dose)` in nm per unit
    /// relative dose, estimated from the extreme characterized doses of the
    /// given pitch. Returns `None` if the pitch is unknown or only one dose
    /// was characterized.
    #[must_use]
    pub fn dose_sensitivity(&self, pitch_nm: f64) -> Option<f64> {
        let family = self.family_at(pitch_nm)?;
        if family.curves.len() < 2 {
            return None;
        }
        let lo = family
            .curves
            .iter()
            .min_by(|a, b| a.dose.total_cmp(&b.dose))
            .expect("nonempty");
        let hi = family
            .curves
            .iter()
            .max_by(|a, b| a.dose.total_cmp(&b.dose))
            .expect("nonempty");
        Some((hi.cd_at_focus() - lo.cd_at_focus()) / (hi.dose - lo.dose))
    }

    fn family_at(&self, pitch_nm: f64) -> Option<&BossungFamily> {
        self.families.iter().find(|f| match f.pitch_nm {
            Some(p) => (p - pitch_nm).abs() < 1e-9,
            None => pitch_nm.is_infinite(),
        })
    }
}

impl svt_snap::Serialize for FocusExposureMatrix {
    fn serialize(&self, out: &mut svt_snap::Serializer) {
        self.drawn_width_nm.serialize(out);
        self.families.serialize(out);
    }
}

impl svt_snap::Deserialize for FocusExposureMatrix {
    fn deserialize(
        input: &mut svt_snap::Deserializer<'_>,
    ) -> Result<FocusExposureMatrix, svt_snap::SnapError> {
        Ok(FocusExposureMatrix {
            drawn_width_nm: svt_snap::Deserialize::deserialize(input)?,
            families: svt_snap::Deserialize::deserialize(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Process;

    fn fem() -> FocusExposureMatrix {
        let p = Process::nm90();
        let sim = p.simulator();
        let focus: Vec<f64> = (-4..=4).map(|i| i as f64 * 75.0).collect();
        FocusExposureMatrix::build(
            &sim,
            90.0,
            &[240.0, 320.0, f64::INFINITY],
            &focus,
            &[0.95, 1.0, 1.05],
        )
        .unwrap()
    }

    #[test]
    fn matrix_covers_all_cells() {
        let m = fem();
        assert_eq!(m.families().len(), 3);
        let pts = m.points();
        // 3 pitches × 3 doses × up to 9 focus points.
        assert!(pts.len() > 3 * 3 * 5, "only {} FEM points", pts.len());
        assert!(pts.iter().any(|p| p.pitch_nm.is_infinite()));
        // A rebuild reads every CD from the memo and must not change one.
        assert_eq!(fem(), m, "warm FEM rebuild diverged");
    }

    #[test]
    fn lvar_focus_is_positive_and_bounded() {
        let m = fem();
        let v = m.lvar_focus();
        assert!(v > 0.5, "lvar_focus {v} too small");
        assert!(v < 80.0, "lvar_focus {v} implausibly large for 90 nm lines");
    }

    #[test]
    fn smile_lookup_distinguishes_dense_from_iso() {
        let m = fem();
        let dense = m.smiles_at(240.0).unwrap();
        let iso = m.smiles_at(f64::INFINITY).unwrap();
        assert_ne!(dense, iso, "dense and iso must disagree in curvature");
        assert_eq!(m.smiles_at(1234.0), None);
    }

    #[test]
    fn dose_queries_are_consistent() {
        let m = fem();
        // The nominal-dose query is the dose-1.0 query.
        assert_eq!(m.smiles_at(240.0), m.smiles_at_dose(240.0, 1.0));
        assert_eq!(m.smiles_at_dose(1234.0, 1.0), None);
        // Higher dose prints thinner lines, so dCD/ddose is negative.
        let s = m.dose_sensitivity(240.0).unwrap();
        assert!(s < 0.0, "dose sensitivity {s} should be negative");
        assert!(s.abs() > 10.0, "a 10% dose swing moves CD by several nm");
        assert_eq!(m.dose_sensitivity(1234.0), None);
    }

    #[test]
    fn single_dose_matrices_have_no_sensitivity() {
        let p = Process::nm90();
        let sim = p.simulator();
        let focus: Vec<f64> = vec![-150.0, 0.0, 150.0];
        let m = FocusExposureMatrix::build(&sim, 90.0, &[240.0], &focus, &[1.0]).unwrap();
        assert_eq!(m.dose_sensitivity(240.0), None);
    }
}
