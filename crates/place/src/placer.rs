use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use svt_netlist::MappedNetlist;
use svt_stdcell::{CellAbstract, Library};

use crate::PlaceError;

/// Knobs of the row placer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementOptions {
    /// Target row utilization in `(0, 1]`; the remainder becomes
    /// whitespace, distributed by the seeded gap mixture.
    pub utilization: f64,
    /// Seed of the whitespace distribution.
    pub seed: u64,
    /// Placement site grid in nanometres; x positions snap to it.
    pub site_nm: f64,
}

impl Default for PlacementOptions {
    fn default() -> PlacementOptions {
        PlacementOptions {
            utilization: 0.7,
            seed: 1,
            site_nm: 10.0,
        }
    }
}

/// One placed instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedInstance {
    /// Index into the mapped netlist's instance list.
    pub instance: usize,
    /// Library cell name.
    pub cell: String,
    /// Row index.
    pub row: usize,
    /// Lower-left x in nanometres.
    pub x_nm: f64,
}

/// One placement row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRow {
    /// Row index.
    pub index: usize,
    /// Lower y coordinate in nanometres.
    pub y_nm: f64,
    /// Indices into [`Placement::placed`] of the row members, left to
    /// right.
    pub members: Vec<usize>,
}

/// A row-based placement of a mapped netlist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Placement {
    design: String,
    placed: Vec<PlacedInstance>,
    rows: Vec<PlacementRow>,
    /// Per netlist instance index, its index into `placed` (`u32::MAX`
    /// when unplaced), built by the first lookup. Edits move and re-master
    /// placed records but never reorder `placed`.
    slots: OnceLock<Vec<u32>>,
}

/// Equality of the placements; the lookup index is bookkeeping.
impl PartialEq for Placement {
    fn eq(&self, other: &Placement) -> bool {
        self.design == other.design && self.placed == other.placed && self.rows == other.rows
    }
}

impl Placement {
    pub(crate) fn from_parts(
        design: String,
        placed: Vec<PlacedInstance>,
        rows: Vec<PlacementRow>,
    ) -> Placement {
        Placement {
            design,
            placed,
            rows,
            slots: OnceLock::new(),
        }
    }

    /// Design name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.design
    }

    /// All placed instances, in placement order.
    #[must_use]
    pub fn placed(&self) -> &[PlacedInstance] {
        &self.placed
    }

    /// The rows.
    #[must_use]
    pub fn rows(&self) -> &[PlacementRow] {
        &self.rows
    }

    /// Iterator over placed instances.
    pub fn placed_instances(&self) -> impl Iterator<Item = &PlacedInstance> {
        self.placed.iter()
    }

    /// The placed record of a netlist instance index, if placed.
    #[must_use]
    pub fn of_instance(&self, instance: usize) -> Option<&PlacedInstance> {
        self.slot(instance).map(|p_idx| &self.placed[p_idx])
    }

    /// The index into [`Placement::placed`] of a netlist instance index:
    /// one read of an index (4 bytes per instance) that the first call
    /// builds. An instance placed twice resolves to its first record.
    fn slot(&self, instance: usize) -> Option<usize> {
        let slots = self.slots.get_or_init(|| {
            let len = self
                .placed
                .iter()
                .map(|p| p.instance + 1)
                .max()
                .unwrap_or(0);
            let mut slots = vec![u32::MAX; len];
            for (p_idx, p) in self.placed.iter().enumerate().rev() {
                slots[p.instance] = u32::try_from(p_idx).expect("placed count fits u32");
            }
            slots
        });
        match slots.get(instance) {
            Some(&p_idx) if p_idx != u32::MAX => Some(p_idx as usize),
            _ => None,
        }
    }

    /// Records a new cell master for a placed instance (ECO cell swap).
    ///
    /// Position is unchanged; geometric legality (e.g. a wider master
    /// overlapping its right-hand neighbor) is the editor's concern —
    /// this is a dumb bookkeeping update so `svt-eco` can validate
    /// against library widths *before* committing.
    ///
    /// # Errors
    ///
    /// [`PlaceError::InvalidEdit`] if the instance is not placed.
    pub fn set_cell(&mut self, instance: usize, cell: &str) -> Result<(), PlaceError> {
        let p_idx = self.placed_index(instance)?;
        self.placed[p_idx].cell = cell.to_string();
        Ok(())
    }

    /// Moves a placed instance to `x_nm` within its current row (ECO
    /// spacing adjustment), keeping the row's member list sorted left to
    /// right. Overlap legality is the editor's concern.
    ///
    /// # Errors
    ///
    /// [`PlaceError::InvalidEdit`] if the instance is not placed.
    pub fn move_within_row(&mut self, instance: usize, x_nm: f64) -> Result<(), PlaceError> {
        let p_idx = self.placed_index(instance)?;
        let row = self.placed[p_idx].row;
        self.relocate(instance, row, x_nm)
    }

    /// Moves a placed instance to (`row`, `x_nm`), keeping both rows'
    /// member lists sorted left to right. Overlap legality is the
    /// editor's concern.
    ///
    /// # Errors
    ///
    /// [`PlaceError::InvalidEdit`] if the instance is not placed or the
    /// row does not exist.
    pub fn relocate(&mut self, instance: usize, row: usize, x_nm: f64) -> Result<(), PlaceError> {
        let p_idx = self.placed_index(instance)?;
        if row >= self.rows.len() {
            return Err(PlaceError::InvalidEdit {
                reason: format!("row {row} out of range ({} rows)", self.rows.len()),
            });
        }
        let old_row = self.placed[p_idx].row;
        self.rows[old_row].members.retain(|&m| m != p_idx);
        self.placed[p_idx].row = row;
        self.placed[p_idx].x_nm = x_nm;
        let placed = &self.placed;
        let members = &mut self.rows[row].members;
        let at = members.partition_point(|&m| placed[m].x_nm <= x_nm);
        members.insert(at, p_idx);
        Ok(())
    }

    fn placed_index(&self, instance: usize) -> Result<usize, PlaceError> {
        self.slot(instance).ok_or_else(|| PlaceError::InvalidEdit {
            reason: format!("instance index {instance} is not placed"),
        })
    }

    /// Achieved utilization: total cell width over total row extent.
    #[must_use]
    pub fn utilization(&self, library: &Library) -> f64 {
        let mut cell_width = 0.0;
        let mut extent = 0.0;
        for row in &self.rows {
            let Some(&last) = row.members.last() else {
                continue;
            };
            let first = row.members[0];
            let row_start = self.placed[first].x_nm;
            let last_inst = &self.placed[last];
            let last_width = library
                .cell(&last_inst.cell)
                .map(|c| c.layout().width_nm())
                .unwrap_or(0.0);
            extent += last_inst.x_nm + last_width - row_start;
            for &m in &row.members {
                cell_width += library
                    .cell(&self.placed[m].cell)
                    .map(|c| c.layout().width_nm())
                    .unwrap_or(0.0);
            }
        }
        if extent > 0.0 {
            cell_width / extent
        } else {
            1.0
        }
    }
}

/// Places a mapped netlist into rows.
///
/// Instances are placed in netlist order, wrapping into rows sized for a
/// roughly square core. Between consecutive cells the placer inserts a
/// whitespace gap drawn from a seeded mixture (abutment / small / medium /
/// large) tuned so the achieved utilization approaches
/// [`PlacementOptions::utilization`] while producing the broad
/// iso/dense population spread the methodology studies.
///
/// # Errors
///
/// * [`PlaceError::InvalidOptions`] if utilization or the site grid are out
///   of range.
/// * [`PlaceError::UnknownCell`] if an instance's cell is missing from the
///   library.
pub fn place(
    netlist: &MappedNetlist,
    library: &Library,
    options: &PlacementOptions,
) -> Result<Placement, PlaceError> {
    let _span = svt_obs::span("place.place");
    if options.utilization <= 0.0 || options.utilization > 1.0 {
        return Err(PlaceError::InvalidOptions {
            reason: format!("utilization {} not in (0, 1]", options.utilization),
        });
    }
    if options.site_nm <= 0.0 {
        return Err(PlaceError::InvalidOptions {
            reason: "site grid must be positive".into(),
        });
    }

    // Collect widths and validate cells.
    let mut total_width = 0.0;
    let mut widths = Vec::with_capacity(netlist.instances().len());
    for inst in netlist.instances() {
        let cell = library
            .cell(&inst.cell)
            .ok_or_else(|| PlaceError::UnknownCell {
                instance: inst.name.clone(),
                cell: inst.cell.clone(),
            })?;
        let w = cell.layout().width_nm();
        widths.push(w);
        total_width += w;
    }

    // Aim for a square core: rows × row_width ≈ total_width / utilization,
    // rows × CELL_HEIGHT ≈ row_width.
    let spread_width = total_width / options.utilization;
    let row_count = ((spread_width / CellAbstract::CELL_HEIGHT_NM).sqrt().ceil() as usize).max(1);
    let row_width = spread_width / row_count as f64;

    let mut rng = SmallRng::seed_from_u64(options.seed);
    let mut placed = Vec::with_capacity(netlist.instances().len());
    let mut rows: Vec<PlacementRow> = Vec::new();
    let mut row = 0usize;
    let mut cursor = 0.0f64;
    rows.push(PlacementRow {
        index: 0,
        y_nm: 0.0,
        members: Vec::new(),
    });

    // Mean whitespace per gap that meets the utilization target.
    let mean_gap = if netlist.instances().is_empty() {
        0.0
    } else {
        (spread_width - total_width) / netlist.instances().len() as f64
    };

    for (idx, _inst) in netlist.instances().iter().enumerate() {
        let w = widths[idx];
        if cursor + w > row_width && !rows[row].members.is_empty() {
            row += 1;
            cursor = 0.0;
            rows.push(PlacementRow {
                index: row,
                y_nm: row as f64 * CellAbstract::CELL_HEIGHT_NM,
                members: Vec::new(),
            });
        }
        let x = snap(cursor, options.site_nm);
        rows[row].members.push(placed.len());
        placed.push(PlacedInstance {
            instance: idx,
            cell: netlist.instances()[idx].cell.clone(),
            row,
            x_nm: x,
        });
        cursor = x + w + sample_gap(&mut rng, mean_gap);
    }

    Ok(Placement::from_parts(
        netlist.name().to_string(),
        placed,
        rows,
    ))
}

fn snap(x: f64, site: f64) -> f64 {
    (x / site).round() * site
}

/// Whitespace mixture: abutment, small, medium, and large gaps whose
/// expectation equals `mean_gap`. The mixture (not just the mean) matters:
/// it populates all three context bins of the expanded library.
fn sample_gap(rng: &mut SmallRng, mean_gap: f64) -> f64 {
    // Component means as multiples of the overall mean:
    // 30% abutment (0), 30% small (0.4×), 25% medium (1.2×), 15% large (2.7×).
    // 0.3·0 + 0.3·0.4 + 0.25·1.2 + 0.15·2.7 ≈ 0.825 — rescale to hit 1.
    const SCALE: f64 = 1.0 / 0.825;
    let u: f64 = rng.gen();
    let factor = if u < 0.30 {
        0.0
    } else if u < 0.60 {
        0.4 * rng.gen_range(0.5..1.5)
    } else if u < 0.85 {
        1.2 * rng.gen_range(0.5..1.5)
    } else {
        2.7 * rng.gen_range(0.5..1.5)
    };
    factor * mean_gap * SCALE
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};

    fn c432_placement() -> (MappedNetlist, Library, Placement) {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let mapped = technology_map(&n, &lib).unwrap();
        let placement = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
        (mapped, lib, placement)
    }

    #[test]
    fn every_instance_is_placed_once() {
        let (mapped, _, placement) = c432_placement();
        assert_eq!(placement.placed().len(), mapped.instances().len());
        let mut seen: Vec<usize> = placement.placed().iter().map(|p| p.instance).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), mapped.instances().len());
    }

    #[test]
    fn rows_do_not_overlap_horizontally() {
        let (_, lib, placement) = c432_placement();
        for row in placement.rows() {
            let mut last_end = f64::NEG_INFINITY;
            for &m in &row.members {
                let p = &placement.placed()[m];
                assert!(
                    p.x_nm >= last_end - 1e-9,
                    "row {} overlap at x {}",
                    row.index,
                    p.x_nm
                );
                let w = lib.cell(&p.cell).unwrap().layout().width_nm();
                last_end = p.x_nm + w;
            }
        }
    }

    #[test]
    fn utilization_approaches_the_target() {
        let (_, lib, placement) = c432_placement();
        let u = placement.utilization(&lib);
        assert!(u > 0.5 && u < 0.92, "achieved utilization {u}");
    }

    #[test]
    fn placement_is_deterministic_and_seed_sensitive() {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let mapped = technology_map(&n, &lib).unwrap();
        let a = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
        let b = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
        assert_eq!(a, b);
        let c = place(
            &mapped,
            &lib,
            &PlacementOptions {
                seed: 99,
                ..PlacementOptions::default()
            },
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn core_is_roughly_square() {
        let (_, _, placement) = c432_placement();
        let rows = placement.rows().len();
        assert!(rows >= 3, "only {rows} rows for c432");
        let height = rows as f64 * CellAbstract::CELL_HEIGHT_NM;
        let width = placement
            .placed()
            .iter()
            .map(|p| p.x_nm)
            .fold(0.0, f64::max);
        let aspect = width / height;
        assert!(aspect > 0.3 && aspect < 3.0, "aspect {aspect}");
    }

    #[test]
    fn options_are_validated() {
        let (mapped, lib, _) = c432_placement();
        let bad = PlacementOptions {
            utilization: 0.0,
            ..PlacementOptions::default()
        };
        assert!(place(&mapped, &lib, &bad).is_err());
        let bad = PlacementOptions {
            site_nm: -1.0,
            ..PlacementOptions::default()
        };
        assert!(place(&mapped, &lib, &bad).is_err());
    }

    #[test]
    fn edits_keep_rows_sorted() {
        let (_, _, mut placement) = c432_placement();
        // Move the first member of row 0 past its right neighbor.
        let row0 = placement.rows()[0].clone();
        assert!(row0.members.len() >= 3, "row 0 too small to test");
        let first = row0.members[0];
        let third = row0.members[2];
        let inst = placement.placed()[first].instance;
        let target_x = placement.placed()[third].x_nm + 5000.0;
        placement.move_within_row(inst, target_x).unwrap();
        for row in placement.rows() {
            let mut last = f64::NEG_INFINITY;
            for &m in &row.members {
                let x = placement.placed()[m].x_nm;
                assert!(x >= last, "row {} member order broken", row.index);
                last = x;
            }
        }
        assert_eq!(placement.of_instance(inst).unwrap().x_nm, target_x);
    }

    #[test]
    fn relocate_moves_between_rows() {
        let (_, _, mut placement) = c432_placement();
        let inst = placement.rows()[0].members[0];
        let inst = placement.placed()[inst].instance;
        let old_count_r1 = placement.rows()[1].members.len();
        placement.relocate(inst, 1, 40.0).unwrap();
        let p = placement.of_instance(inst).unwrap();
        assert_eq!((p.row, p.x_nm), (1, 40.0));
        assert_eq!(placement.rows()[1].members.len(), old_count_r1 + 1);
        assert!(!placement.rows()[0]
            .members
            .iter()
            .any(|&m| placement.placed()[m].instance == inst));
        // Bad edits are rejected.
        assert!(placement.relocate(inst, 10_000, 0.0).is_err());
        assert!(placement.set_cell(usize::MAX, "INVX1").is_err());
    }

    #[test]
    fn x_positions_are_on_the_site_grid() {
        let (_, _, placement) = c432_placement();
        for p in placement.placed() {
            let q = p.x_nm / 10.0;
            assert!((q - q.round()).abs() < 1e-9, "x {} off grid", p.x_nm);
        }
    }
}
