use serde::{Deserialize, Serialize};

use svt_exec::qf64;
use svt_litho::{AerialImage, LithoError, LithoSimulator, MaskCutline};

use crate::{CutlinePattern, OpcError};

/// Mask-rule and convergence knobs of the model-based OPC engine.
///
/// The constraints are deliberately realistic: mask writers quantize edges
/// (`mask_grid_nm`), masks have minimum feature and space rules, and
/// production runtimes cap the sweep count. These are the exact mechanisms
/// the paper cites for why post-OPC printing still carries systematic
/// through-pitch error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpcOptions {
    /// Maximum Gauss–Seidel sweeps over the pattern.
    pub max_sweeps: usize,
    /// Fraction of the measured CD error applied per sweep (stabilizes the
    /// coupled-neighbor iteration).
    pub damping: f64,
    /// Mask edge quantization grid in nanometres (each edge snaps to this
    /// grid, so widths move in `2 × mask_grid_nm` steps).
    pub mask_grid_nm: f64,
    /// Minimum manufacturable mask line width.
    pub min_mask_width_nm: f64,
    /// Minimum manufacturable mask space.
    pub min_mask_space_nm: f64,
    /// Convergence tolerance on the worst gate CD error.
    pub tolerance_nm: f64,
}

impl Default for OpcOptions {
    fn default() -> OpcOptions {
        OpcOptions {
            max_sweeps: 8,
            damping: 0.7,
            mask_grid_nm: 1.0,
            min_mask_width_nm: 40.0,
            min_mask_space_nm: 60.0,
            tolerance_nm: 1.5,
        }
    }
}

/// Outcome of one OPC run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpcReport {
    /// Sweeps actually executed.
    pub sweeps: usize,
    /// Worst remaining gate CD error (nm) as seen by the *correction*
    /// model — sign-off audits may still see more.
    pub max_error_nm: f64,
    /// Whether the worst error fell below the tolerance.
    pub converged: bool,
}

/// Model-based OPC: iterative symmetric edge biasing of gate lines.
///
/// Each sweep simulates the full pattern once with the correction model and
/// updates every gate's mask width by the damped CD error, subject to the
/// mask rules. Gates interact optically, so the sweep is repeated until the
/// worst error converges or the sweep cap is hit.
///
/// The *correction model* is typically cheaper than the sign-off simulator
/// (see [`ModelOpc::with_production_model`]); the residual between the two
/// is the systematic post-OPC error the timing methodology then accounts
/// for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelOpc {
    model: LithoSimulator,
    options: OpcOptions,
}

impl ModelOpc {
    /// Creates an OPC engine correcting against the given model.
    #[must_use]
    pub fn new(model: LithoSimulator, options: OpcOptions) -> ModelOpc {
        ModelOpc { model, options }
    }

    /// Creates an engine with a miscalibrated "production" correction model
    /// derived from the sign-off simulator: the annular source is slightly
    /// off (0.575/0.825 instead of the true 0.55/0.85) and the resist
    /// threshold carries a +0.008 calibration error. The resulting smooth,
    /// pitch-systematic model-fidelity gap (a few nm) is exactly the
    /// mechanism the paper cites for residual post-OPC error ("model
    /// fidelity … and idiosyncrasies of the OPC algorithm").
    ///
    /// # Panics
    ///
    /// Never panics: the perturbed parameters are valid by construction.
    #[must_use]
    pub fn with_production_model(signoff: &LithoSimulator, options: OpcOptions) -> ModelOpc {
        let miscalibrated_source = svt_litho::Illumination::annular(0.575, 0.825)
            .expect("production-model annulus is valid");
        let config = signoff.config().clone().with_source(miscalibrated_source);
        let threshold = (signoff.resist().threshold() + 0.008).min(0.95);
        let model = LithoSimulator::new(config)
            .with_resist(svt_litho::ThresholdResist::new(threshold))
            .with_etch_bias(signoff.etch_bias_nm());
        ModelOpc::new(model, options)
    }

    /// The correction options.
    #[must_use]
    pub fn options(&self) -> OpcOptions {
        self.options
    }

    /// The correction model simulator.
    #[must_use]
    pub fn model(&self) -> &LithoSimulator {
        &self.model
    }

    /// Exact fingerprint of the correction model and every option that
    /// influences a corrected mask, for embedding in downstream memo-cache
    /// keys (engines with any differing parameter never share an entry).
    #[must_use]
    pub fn identity(&self) -> [u64; 15] {
        let mut id = [0u64; 15];
        id[..9].copy_from_slice(&self.model.identity());
        id[9] = self.options.max_sweeps as u64;
        id[10] = qf64(self.options.damping);
        id[11] = qf64(self.options.mask_grid_nm);
        id[12] = qf64(self.options.min_mask_width_nm);
        id[13] = qf64(self.options.min_mask_space_nm);
        id[14] = qf64(self.options.tolerance_nm);
        id
    }

    /// Runs model-based OPC on the pattern in place at nominal focus and
    /// dose, returning the convergence report.
    ///
    /// Each sweep measures every gate on one image of the current mask, and
    /// a final verification image checks that every gate still prints. One
    /// call keeps its last image together with the exact bits of the mask
    /// widths it was taken from, and images again only when a width
    /// changed: after a sweep that moved no edge (a damped correction that
    /// rounds to the same mask-grid step, e.g. a residual under 1.43 nm at
    /// the default 0.7 damping and 2 nm step), the next sweep and the
    /// verification reuse that sweep's image. Imaging is deterministic, so
    /// the result is the same as imaging every time.
    ///
    /// # Errors
    ///
    /// * [`OpcError::InvalidPattern`] if the input violates the mask rules
    ///   before any correction.
    /// * [`OpcError::UncorrectableLine`] if a gate cannot be brought onto a
    ///   printable operating point.
    /// * [`OpcError::Litho`] on simulator failures.
    pub fn correct(&self, pattern: &mut CutlinePattern) -> Result<OpcReport, OpcError> {
        self.correct_imaged(pattern).map(|(report, _)| report)
    }

    /// [`ModelOpc::correct`], also handing back the verification image of
    /// the corrected mask (`None` for a pattern without gates, which is
    /// never imaged).
    pub(crate) fn correct_imaged(
        &self,
        pattern: &mut CutlinePattern,
    ) -> Result<(OpcReport, Option<AerialImage>), OpcError> {
        let _span = svt_obs::span("opc.correct");
        pattern.validate(self.options.min_mask_space_nm)?;
        let gates = pattern.gate_indices();
        if gates.is_empty() {
            let report = OpcReport {
                sweeps: 0,
                max_error_nm: 0.0,
                converged: true,
            };
            return Ok((report, None));
        }

        let mut last = None;
        let mut max_error = f64::INFINITY;
        let mut sweeps = 0;
        for _ in 0..self.options.max_sweeps {
            sweeps += 1;
            let image = self.image_of(pattern, &mut last)?;
            max_error = 0.0f64;
            for &i in &gates {
                let line = pattern.lines()[i];
                let printed =
                    svt_litho::measure_cd_at(image, line.center, self.model.resist(), 1.0)
                        .and_then(|p| self.model.device_cd(p));
                let cd = match printed {
                    Ok(cd) => cd,
                    Err(LithoError::FeatureNotPrinted { .. }) => {
                        // Washed away: grow the mask aggressively and retry
                        // next sweep rather than failing outright.
                        self.apply_width(pattern, i, line.mask_width + 10.0);
                        max_error = max_error.max(line.target_cd);
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                let error = line.target_cd - cd;
                max_error = max_error.max(error.abs());
                let new_width = line.mask_width + self.options.damping * error;
                self.apply_width(pattern, i, new_width);
            }
            if max_error < self.options.tolerance_nm {
                break;
            }
        }

        // A gate still failing to print after all sweeps is uncorrectable.
        let image = self.image_of(pattern, &mut last)?;
        for &i in &gates {
            let line = pattern.lines()[i];
            let printed = svt_litho::measure_cd_at(image, line.center, self.model.resist(), 1.0)
                .and_then(|p| self.model.device_cd(p));
            if matches!(printed, Err(LithoError::FeatureNotPrinted { .. })) {
                return Err(OpcError::UncorrectableLine {
                    center: line.center,
                });
            }
        }

        let report = OpcReport {
            sweeps,
            max_error_nm: max_error,
            converged: max_error < self.options.tolerance_nm,
        };
        Ok((report, last.map(|l| l.image)))
    }

    /// Applies a new mask width to line `i` subject to the mask rules:
    /// width snapped to the mask grid, clamped to the minimum width, and
    /// clamped so the spaces to both neighbors stay legal.
    fn apply_width(&self, pattern: &mut CutlinePattern, i: usize, new_width: f64) {
        let opts = self.options;
        // Neighbor-imposed upper bound on the width.
        let max_width = {
            let line = pattern.lines()[i];
            let (l, r) = pattern.neighbor_spaces(i);
            let slack_l = l
                .map(|s| s - opts.min_mask_space_nm)
                .unwrap_or(f64::INFINITY);
            let slack_r = r
                .map(|s| s - opts.min_mask_space_nm)
                .unwrap_or(f64::INFINITY);
            // Width grows symmetrically: each side consumes half the growth.
            let max_growth = 2.0 * slack_l.min(slack_r).max(0.0);
            line.mask_width + max_growth
        };
        let snapped = (new_width / (2.0 * opts.mask_grid_nm)).round() * 2.0 * opts.mask_grid_nm;
        // Snap the bound *down* to the grid so the clamp cannot un-snap.
        let max_snapped = (max_width / (2.0 * opts.mask_grid_nm)).floor() * 2.0 * opts.mask_grid_nm;
        let clamped = snapped.clamp(
            opts.min_mask_width_nm,
            max_snapped.max(opts.min_mask_width_nm),
        );
        pattern.lines_mut()[i].mask_width = clamped;
    }

    /// The correction model's image of the pattern's current mask at
    /// nominal focus: `last`'s image when it was taken from the same mask
    /// widths (compared bit for bit), a new one otherwise.
    fn image_of<'a>(
        &self,
        pattern: &CutlinePattern,
        last: &'a mut Option<LastImage>,
    ) -> Result<&'a AerialImage, OpcError> {
        let widths = || pattern.lines().iter().map(|l| l.mask_width.to_bits());
        let current = match last.take() {
            Some(prev) if prev.widths.iter().copied().eq(widths()) => prev,
            stale => {
                // Free the stale image before taking the next one.
                drop(stale);
                let mask = MaskCutline::from_lines(
                    pattern.x0(),
                    pattern.length(),
                    self.model.config().grid_nm(),
                    &pattern.chrome(),
                )?;
                LastImage {
                    widths: widths().collect(),
                    image: self.model.aerial_image(&mask, 0.0),
                }
            }
        };
        Ok(&last.insert(current).image)
    }
}

/// The last image one [`ModelOpc::correct`] call took, and the exact bits
/// of the mask widths it was taken from.
struct LastImage {
    widths: Vec<u64>,
    image: AerialImage,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpcLine;
    use svt_litho::Process;

    fn signoff() -> LithoSimulator {
        Process::nm90().simulator()
    }

    fn pattern_of(centers: &[f64]) -> CutlinePattern {
        let mut p = CutlinePattern::new(-2048.0, 4096.0);
        for &c in centers {
            p.push(OpcLine::gate(c, 90.0));
        }
        p
    }

    fn printed_cd(sim: &LithoSimulator, pattern: &CutlinePattern, center: f64) -> f64 {
        sim.print_device_cd(
            pattern.x0(),
            pattern.length(),
            &pattern.chrome(),
            center,
            0.0,
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn single_iso_gate_converges_to_target() {
        let sim = signoff();
        let opc = ModelOpc::new(sim.clone(), OpcOptions::default());
        let mut p = pattern_of(&[0.0]);
        let before = printed_cd(&sim, &p, 0.0);
        let report = opc.correct(&mut p).unwrap();
        let after = printed_cd(&sim, &p, 0.0);
        assert!(report.converged, "report: {report:?}");
        assert!(
            (after - 90.0).abs() < (before - 90.0).abs() + 0.3,
            "OPC made printing worse: {before} -> {after}"
        );
        assert!((after - 90.0).abs() < 2.0, "post-OPC CD {after}");
    }

    #[test]
    fn coupled_gates_converge_jointly() {
        let sim = signoff();
        let opc = ModelOpc::new(sim.clone(), OpcOptions::default());
        let mut p = pattern_of(&[-240.0, 0.0, 240.0, 540.0]);
        let report = opc.correct(&mut p).unwrap();
        assert!(report.converged, "report: {report:?}");
        for c in [-240.0, 0.0, 240.0, 540.0] {
            let cd = printed_cd(&sim, &p, c);
            assert!((cd - 90.0).abs() < 2.0, "gate at {c} prints {cd}");
        }
    }

    #[test]
    fn production_model_leaves_systematic_residual() {
        let sim = signoff();
        let opc = ModelOpc::with_production_model(&sim, OpcOptions::default());
        let mut p = pattern_of(&[0.0, 300.0, 1200.0]);
        opc.correct(&mut p).unwrap();
        // Sign-off sees residual error because the correction model was
        // cheaper; it should be nonzero but bounded.
        let worst = [0.0, 300.0, 1200.0]
            .iter()
            .map(|&c| (printed_cd(&sim, &p, c) - 90.0).abs())
            .fold(0.0, f64::max);
        assert!(worst > 0.05, "degraded model should leave residual");
        assert!(worst < 12.0, "residual {worst} too large to be credible");
    }

    #[test]
    fn mask_rules_quantize_and_bound_widths() {
        let sim = signoff();
        let opts = OpcOptions {
            mask_grid_nm: 2.0,
            ..OpcOptions::default()
        };
        let opc = ModelOpc::new(sim, opts);
        let mut p = pattern_of(&[0.0, 250.0]);
        opc.correct(&mut p).unwrap();
        for l in p.lines() {
            let w = l.mask_width;
            assert!(w >= opts.min_mask_width_nm);
            let q = w / (2.0 * opts.mask_grid_nm);
            assert!(
                (q - q.round()).abs() < 1e-9,
                "width {w} not on the mask grid"
            );
        }
        // Spaces stay legal.
        assert!(p.validate(opts.min_mask_space_nm).is_ok());
    }

    #[test]
    fn dummies_are_not_moved() {
        let sim = signoff();
        let opc = ModelOpc::new(sim, OpcOptions::default());
        let mut p = CutlinePattern::new(-2048.0, 4096.0);
        p.push(OpcLine::dummy(-300.0, 90.0));
        p.push(OpcLine::gate(0.0, 90.0));
        opc.correct(&mut p).unwrap();
        assert_eq!(p.lines()[0].mask_width, 90.0, "dummy width changed");
        assert_ne!(p.lines()[1].mask_width, 90.0, "gate width unchanged");
    }

    #[test]
    fn empty_and_gateless_patterns_are_trivially_converged() {
        let sim = signoff();
        let opc = ModelOpc::new(sim, OpcOptions::default());
        let mut p = CutlinePattern::new(-1024.0, 2048.0);
        assert!(opc.correct(&mut p).unwrap().converged);
        p.push(OpcLine::dummy(0.0, 90.0));
        assert!(opc.correct(&mut p).unwrap().converged);
    }

    #[test]
    fn invalid_input_is_rejected_before_simulation() {
        let sim = signoff();
        let opc = ModelOpc::new(sim, OpcOptions::default());
        let mut p = pattern_of(&[0.0, 100.0]); // 10 nm space < 60 nm rule
        assert!(matches!(
            opc.correct(&mut p),
            Err(OpcError::InvalidPattern { .. })
        ));
    }
}
