use serde::{Deserialize, Serialize};

use crate::{CutlinePattern, LineKind, ModelOpc, OpcError, OpcLine, OpcReport};

/// The result of library-based OPC on one cell cutline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrectedCutline {
    /// The corrected gate lines (dummies removed), sorted by center.
    pub gates: Vec<OpcLine>,
    /// Printed device CD of each gate, measured in the dummy environment
    /// with the correction model, index-aligned with `gates`.
    pub printed_cd_nm: Vec<f64>,
    /// Convergence report of the underlying model-based run.
    pub report: OpcReport,
}

/// Library-based OPC (paper Fig. 3, after their reference 7).
///
/// Instead of correcting every placed instance, each cell *master* is
/// corrected once inside an emulated placement environment: dummy poly
/// lines flank the cell at a typical neighbor spacing. Because the optical
/// radius of influence (~600 nm) is smaller than most cells, interior
/// devices see the same environment they will see in any placement, and
/// only boundary devices carry context error — which the timing methodology
/// then handles with the through-pitch lookup table.
///
/// # Examples
///
/// ```
/// use svt_litho::Process;
/// use svt_opc::{LibraryOpc, ModelOpc, OpcOptions};
///
/// let sim = Process::nm90().simulator();
/// let opc = ModelOpc::new(sim, OpcOptions::default());
/// let lib = LibraryOpc::new(opc, 150.0, 90.0);
/// // An inverter-like cell: one 90 nm gate, cell spans [0, 600].
/// let corrected = lib.correct_cell(&[(300.0, 90.0)], 0.0, 600.0)?;
/// assert_eq!(corrected.gates.len(), 1);
/// # Ok::<(), svt_opc::OpcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryOpc {
    opc: ModelOpc,
    dummy_space_nm: f64,
    dummy_width_nm: f64,
}

impl LibraryOpc {
    /// Creates a library-OPC flow: dummies of `dummy_width_nm` are placed
    /// `dummy_space_nm` outside the cell bounds on both sides.
    ///
    /// # Panics
    ///
    /// Panics if the spacing or width is not positive.
    #[must_use]
    pub fn new(opc: ModelOpc, dummy_space_nm: f64, dummy_width_nm: f64) -> LibraryOpc {
        assert!(
            dummy_space_nm > 0.0 && dummy_width_nm > 0.0,
            "dummy geometry must be positive"
        );
        LibraryOpc {
            opc,
            dummy_space_nm,
            dummy_width_nm,
        }
    }

    /// The underlying model-based engine.
    #[must_use]
    pub fn opc(&self) -> &ModelOpc {
        &self.opc
    }

    /// Exact fingerprint of the engine and dummy environment, for embedding
    /// in downstream memo-cache keys.
    #[must_use]
    pub fn identity(&self) -> [u64; 17] {
        let mut id = [0u64; 17];
        id[..15].copy_from_slice(&self.opc.identity());
        id[15] = svt_exec::qf64(self.dummy_space_nm);
        id[16] = svt_exec::qf64(self.dummy_width_nm);
        id
    }

    /// Corrects one cell master given its gate `(center, drawn_cd)` list and
    /// its cell bounds `[cell_lo, cell_hi]` along the cutline.
    ///
    /// The returned gates are in cell-local coordinates; the dummy
    /// environment is stripped. `printed_cd_nm[i]` is the library-OPC
    /// prediction of gate `i`'s device CD — the CD used to characterize
    /// interior devices. Each gate is measured on the verification image
    /// [`ModelOpc::correct`] already took of the corrected mask, so the cell
    /// is never imaged again for its printed CDs.
    ///
    /// # Errors
    ///
    /// Returns [`OpcError::InvalidPattern`] for malformed inputs, or any
    /// error of [`ModelOpc::correct`].
    pub fn correct_cell(
        &self,
        gates: &[(f64, f64)],
        cell_lo: f64,
        cell_hi: f64,
    ) -> Result<CorrectedCutline, OpcError> {
        if cell_hi <= cell_lo {
            return Err(OpcError::InvalidPattern {
                reason: format!("cell bounds [{cell_lo}, {cell_hi}] are inverted"),
            });
        }
        // Window: cell plus dummies plus clear margin past the ROI.
        let margin = 1600.0;
        let x0 = cell_lo - margin;
        let length = (cell_hi - cell_lo) + 2.0 * margin;

        let mut pattern = CutlinePattern::new(x0, length);
        for &(center, drawn) in gates {
            if center < cell_lo || center > cell_hi {
                return Err(OpcError::InvalidPattern {
                    reason: format!("gate at {center} outside cell [{cell_lo}, {cell_hi}]"),
                });
            }
            pattern.push(OpcLine::gate(center, drawn));
        }
        // Fig. 3's dummy environment: one line on each side of the cell.
        let left_dummy = cell_lo - self.dummy_space_nm - self.dummy_width_nm / 2.0;
        let right_dummy = cell_hi + self.dummy_space_nm + self.dummy_width_nm / 2.0;
        pattern.push(OpcLine::dummy(left_dummy, self.dummy_width_nm));
        pattern.push(OpcLine::dummy(right_dummy, self.dummy_width_nm));

        let (report, image) = self.opc.correct_imaged(&mut pattern)?;

        // Measure every gate in the corrected dummy environment, on the
        // verification image of the corrected mask (`None` only when the
        // cell has no gate).
        let model = self.opc.model();
        let out_gates: Vec<OpcLine> = pattern
            .lines()
            .iter()
            .filter(|l| l.kind == LineKind::Gate)
            .copied()
            .collect();
        let mut printed = Vec::with_capacity(out_gates.len());
        if let Some(image) = &image {
            for g in &out_gates {
                let cd = svt_litho::measure_cd_at(image, g.center, model.resist(), 1.0)
                    .and_then(|p| model.device_cd(p))?;
                printed.push(cd);
            }
        }
        Ok(CorrectedCutline {
            gates: out_gates,
            printed_cd_nm: printed,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpcOptions;
    use svt_litho::Process;

    fn lib() -> LibraryOpc {
        let sim = Process::nm90().simulator();
        LibraryOpc::new(ModelOpc::new(sim, OpcOptions::default()), 150.0, 90.0)
    }

    #[test]
    fn corrects_a_multi_gate_cell() {
        let l = lib();
        // NAND2-like: two gates at 300 nm pitch inside a 900 nm cell.
        let corrected = l
            .correct_cell(&[(300.0, 90.0), (600.0, 90.0)], 0.0, 900.0)
            .unwrap();
        assert_eq!(corrected.gates.len(), 2);
        assert_eq!(corrected.printed_cd_nm.len(), 2);
        for (&cd, g) in corrected.printed_cd_nm.iter().zip(&corrected.gates) {
            assert!(
                (cd - 90.0).abs() < 2.5,
                "gate at {} prints {cd} in dummy env",
                g.center
            );
        }
    }

    #[test]
    fn dummies_are_stripped_from_output() {
        let l = lib();
        let corrected = l.correct_cell(&[(300.0, 90.0)], 0.0, 600.0).unwrap();
        assert!(corrected.gates.iter().all(|g| g.kind == LineKind::Gate));
        assert_eq!(corrected.gates.len(), 1);
    }

    #[test]
    fn rejects_bad_cell_descriptions() {
        let l = lib();
        assert!(l.correct_cell(&[(300.0, 90.0)], 600.0, 0.0).is_err());
        assert!(l.correct_cell(&[(900.0, 90.0)], 0.0, 600.0).is_err());
    }

    #[test]
    #[should_panic(expected = "dummy geometry must be positive")]
    fn rejects_degenerate_dummy_geometry() {
        let sim = Process::nm90().simulator();
        let _ = LibraryOpc::new(ModelOpc::new(sim, OpcOptions::default()), 0.0, 90.0);
    }

    #[test]
    fn interior_gate_matches_its_placed_context() {
        // A gate deep inside a wide cell should print nearly identically
        // whether corrected with dummies (library OPC) or with the real
        // neighbors it will see (full-chip OPC), because both lie beyond
        // the radius of influence.
        let l = lib();
        let gates = [(700.0, 90.0), (1000.0, 90.0), (1300.0, 90.0)];
        let corrected = l.correct_cell(&gates, 0.0, 2000.0).unwrap();
        // Middle gate: its environment is entirely in-cell.
        let mid_cd = corrected.printed_cd_nm[1];
        assert!((mid_cd - 90.0).abs() < 2.0, "interior gate prints {mid_cd}");
    }
}
