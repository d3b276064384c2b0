use serde::{Deserialize, Serialize};

use svt_netlist::MappedNetlist;
use svt_stdcell::{CellContext, ContextBin, DeviceId, Library, Region};

use crate::placer::PlacementRow;
use crate::{PlaceError, Placement};

/// The four neighbor-poly spacings of one placed instance (paper Fig. 4):
/// device edge to nearest poly edge of the neighboring cell, per corner;
/// `None` when there is no neighbor in the row on that side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceNps {
    /// Left-top (p-row) spacing.
    pub lt: Option<f64>,
    /// Right-top spacing.
    pub rt: Option<f64>,
    /// Left-bottom (n-row) spacing.
    pub lb: Option<f64>,
    /// Right-bottom spacing.
    pub rb: Option<f64>,
}

impl InstanceNps {
    /// Bins the spacings into the expanded library's placement context.
    #[must_use]
    pub fn context(&self) -> CellContext {
        CellContext::new(
            ContextBin::from_spacing(self.lt),
            ContextBin::from_spacing(self.rt),
            ContextBin::from_spacing(self.lb),
            ContextBin::from_spacing(self.rb),
        )
    }
}

/// One device of the placed design, with its absolute gate span on its row
/// cutline and the empty space to the nearest poly on each side (within the
/// row, crossing cell boundaries). This is the flattened view the
/// iso/dense classifier and the full-chip OPC flow consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSite {
    /// Netlist instance index.
    pub instance: usize,
    /// Device id within the instance's cell.
    pub device: DeviceId,
    /// Device row region.
    pub region: Region,
    /// Row index.
    pub row: usize,
    /// Absolute gate span `(lo, hi)` in nanometres.
    pub span_abs: (f64, f64),
    /// Space to the nearest poly on the left (`None` = none in the row).
    pub left_space: Option<f64>,
    /// Space to the nearest poly on the right.
    pub right_space: Option<f64>,
}

impl Placement {
    /// Computes the neighbor-poly spacings of every placed instance,
    /// indexed by netlist instance index.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::UnknownCell`] if an instance's cell is missing
    /// from the library.
    pub fn instance_nps(
        &self,
        netlist: &MappedNetlist,
        library: &Library,
    ) -> Result<Vec<InstanceNps>, PlaceError> {
        let sites = self.device_sites(netlist, library)?;
        Ok(instance_nps_from_all_sites(
            netlist.instances().len(),
            &sites,
        ))
    }

    /// The placement context (binned nps) of every instance, indexed by
    /// netlist instance index.
    ///
    /// # Errors
    ///
    /// See [`Placement::instance_nps`].
    pub fn instance_contexts(
        &self,
        netlist: &MappedNetlist,
        library: &Library,
    ) -> Result<Vec<CellContext>, PlaceError> {
        Ok(self
            .instance_nps(netlist, library)?
            .iter()
            .map(InstanceNps::context)
            .collect())
    }

    /// Flattens every device of the design with absolute spans and
    /// neighbor spacings, row by row.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::UnknownCell`] if an instance's cell is missing
    /// from the library.
    pub fn device_sites(
        &self,
        netlist: &MappedNetlist,
        library: &Library,
    ) -> Result<Vec<DeviceSite>, PlaceError> {
        let mut sites = Vec::new();
        for row in self.rows() {
            self.row_device_sites(row, netlist, library, &mut sites)?;
        }
        Ok(sites)
    }

    /// [`Placement::device_sites`] restricted to the listed rows (any
    /// order; duplicates ignored), in placement row order.
    ///
    /// Spans and neighbor spacings are row-local computations, so for
    /// the listed rows the result agrees bit-for-bit with the slice of a
    /// full-design extraction — the property the incremental (ECO) flow
    /// relies on when it re-extracts only the rows an edit touched.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::UnknownCell`] if an instance's cell is
    /// missing from the library.
    pub fn device_sites_in_rows(
        &self,
        rows: &[usize],
        netlist: &MappedNetlist,
        library: &Library,
    ) -> Result<Vec<DeviceSite>, PlaceError> {
        let mut sites = Vec::new();
        for row in self.rows() {
            if rows.contains(&row.index) {
                self.row_device_sites(row, netlist, library, &mut sites)?;
            }
        }
        Ok(sites)
    }

    /// The placement contexts of every instance placed in the listed
    /// rows, as `(instance index, context)` pairs sorted by instance
    /// index — the row-scoped counterpart of
    /// [`Placement::instance_contexts`], and bit-identical to it for the
    /// covered instances (see [`Placement::device_sites_in_rows`]).
    ///
    /// # Errors
    ///
    /// See [`Placement::instance_nps`].
    pub fn instance_contexts_in_rows(
        &self,
        rows: &[usize],
        netlist: &MappedNetlist,
        library: &Library,
    ) -> Result<Vec<(usize, CellContext)>, PlaceError> {
        Ok(instance_contexts_in_sites(
            &self.device_sites_in_rows(rows, netlist, library)?,
        ))
    }

    /// Flattens one row's devices (both regions) with absolute spans and
    /// within-row neighbor spacings, appending to `out`.
    fn row_device_sites(
        &self,
        row: &PlacementRow,
        netlist: &MappedNetlist,
        library: &Library,
        out: &mut Vec<DeviceSite>,
    ) -> Result<(), PlaceError> {
        for region in [Region::P, Region::N] {
            let mut row_sites: Vec<DeviceSite> = Vec::new();
            for &m in &row.members {
                let p = &self.placed()[m];
                let inst = &netlist.instances()[p.instance];
                let cell = library
                    .cell(&inst.cell)
                    .ok_or_else(|| PlaceError::UnknownCell {
                        instance: inst.name.clone(),
                        cell: inst.cell.clone(),
                    })?;
                for (id, d) in cell.layout().devices_in(region) {
                    let (lo, hi) = d.span();
                    row_sites.push(DeviceSite {
                        instance: p.instance,
                        device: id,
                        region,
                        row: row.index,
                        span_abs: (p.x_nm + lo, p.x_nm + hi),
                        left_space: None,
                        right_space: None,
                    });
                }
            }
            row_sites.sort_by(|a, b| a.span_abs.0.total_cmp(&b.span_abs.0));
            let n = row_sites.len();
            for k in 0..n {
                if k > 0 {
                    row_sites[k].left_space =
                        Some(row_sites[k].span_abs.0 - row_sites[k - 1].span_abs.1);
                }
                if k + 1 < n {
                    row_sites[k].right_space =
                        Some(row_sites[k + 1].span_abs.0 - row_sites[k].span_abs.1);
                }
            }
            out.extend(row_sites);
        }
        Ok(())
    }

    /// The absolute poly gate spans of one row's cutline (for full-chip
    /// OPC), left to right.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::UnknownCell`] if an instance's cell is missing
    /// from the library.
    pub fn row_poly_pattern(
        &self,
        row: usize,
        region: Region,
        netlist: &MappedNetlist,
        library: &Library,
    ) -> Result<Vec<(f64, f64)>, PlaceError> {
        let Some(row) = self.rows().get(row) else {
            return Ok(Vec::new());
        };
        let mut spans = Vec::new();
        for &m in &row.members {
            let p = &self.placed()[m];
            let inst = &netlist.instances()[p.instance];
            let cell = library
                .cell(&inst.cell)
                .ok_or_else(|| PlaceError::UnknownCell {
                    instance: inst.name.clone(),
                    cell: inst.cell.clone(),
                })?;
            for (_, d) in cell.layout().devices_in(region) {
                let (lo, hi) = d.span();
                spans.push((p.x_nm + lo, p.x_nm + hi));
            }
        }
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(spans)
    }
}

/// The placement contexts of every instance derived from an
/// already-extracted full-design site list — the single-extraction path
/// for flows that also need the [`DeviceSite`]s themselves (the sign-off
/// flow classifies iso/dense from the same list). Bit-identical to
/// [`Placement::instance_contexts`], in one O(sites) pass.
#[must_use]
pub fn instance_contexts_from_sites(instances: usize, sites: &[DeviceSite]) -> Vec<CellContext> {
    instance_nps_from_all_sites(instances, sites)
        .iter()
        .map(InstanceNps::context)
        .collect()
}

/// The placement contexts of every instance with a site in `sites` — a
/// row-scoped extraction such as [`Placement::device_sites_in_rows`]
/// returns — as `(instance index, context)` pairs sorted by instance
/// index. One grouped O(sites · log instances) pass; bit-identical to
/// [`Placement::instance_contexts`] for the covered instances when the
/// listed rows are extracted whole.
#[must_use]
pub fn instance_contexts_in_sites(sites: &[DeviceSite]) -> Vec<(usize, CellContext)> {
    let mut idxs: Vec<usize> = sites.iter().map(|s| s.instance).collect();
    idxs.sort_unstable();
    idxs.dedup();
    let nps = grouped_nps(idxs.len(), sites, |instance| {
        idxs.binary_search(&instance)
            .expect("every site's instance is listed")
    });
    idxs.iter()
        .zip(&nps)
        .map(|(&idx, nps)| (idx, nps.context()))
        .collect()
}

/// Every instance's four corner spacings from a full-design site list,
/// indexed by instance.
fn instance_nps_from_all_sites(instances: usize, sites: &[DeviceSite]) -> Vec<InstanceNps> {
    grouped_nps(instances, sites, |instance| instance)
}

/// Grouped boundary-device aggregation: one pass over a site list
/// computing the four corner spacings of each of `slots` instances,
/// where `slot_of` maps a site's instance index to its output slot — one
/// O(sites) pass, where filtering the list per instance would cost
/// O(instances × sites).
///
/// Tie semantics match `Iterator::min_by`/`max_by` on each instance's
/// filtered site list: among equal leftmost spans the *first* site in
/// order wins (strict less to replace), among equal rightmost spans the
/// *last* wins (replace on greater-or-equal).
fn grouped_nps(
    slots: usize,
    sites: &[DeviceSite],
    slot_of: impl Fn(usize) -> usize,
) -> Vec<InstanceNps> {
    use std::cmp::Ordering;

    #[derive(Clone, Copy)]
    struct Ends {
        occupied: bool,
        left_key: f64,
        left_space: Option<f64>,
        right_key: f64,
        right_space: Option<f64>,
    }
    const EMPTY: Ends = Ends {
        occupied: false,
        left_key: 0.0,
        left_space: None,
        right_key: 0.0,
        right_space: None,
    };
    // [P, N] ends per slot.
    let mut ends = vec![[EMPTY; 2]; slots];
    for s in sites {
        let r = match s.region {
            Region::P => 0,
            Region::N => 1,
        };
        let e = &mut ends[slot_of(s.instance)][r];
        if !e.occupied {
            *e = Ends {
                occupied: true,
                left_key: s.span_abs.0,
                left_space: s.left_space,
                right_key: s.span_abs.1,
                right_space: s.right_space,
            };
            continue;
        }
        if s.span_abs.0.total_cmp(&e.left_key) == Ordering::Less {
            e.left_key = s.span_abs.0;
            e.left_space = s.left_space;
        }
        if s.span_abs.1.total_cmp(&e.right_key) != Ordering::Less {
            e.right_key = s.span_abs.1;
            e.right_space = s.right_space;
        }
    }
    ends.iter()
        .map(|[p, n]| InstanceNps {
            lt: if p.occupied { p.left_space } else { None },
            rt: if p.occupied { p.right_space } else { None },
            lb: if n.occupied { n.left_space } else { None },
            rb: if n.occupied { n.right_space } else { None },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{place, PlacementOptions};
    use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};

    /// Reference for the grouped pass: one instance's sites filtered out
    /// of the list, whose leftmost / rightmost device per region supplies
    /// the four corner spacings.
    fn instance_nps_from_sites(idx: usize, sites: &[DeviceSite]) -> InstanceNps {
        let mut nps = InstanceNps {
            lt: None,
            rt: None,
            lb: None,
            rb: None,
        };
        for region in [Region::P, Region::N] {
            let row_devices: Vec<&DeviceSite> = sites
                .iter()
                .filter(|s| s.instance == idx && s.region == region)
                .collect();
            let Some(leftmost) = row_devices
                .iter()
                .min_by(|a, b| a.span_abs.0.total_cmp(&b.span_abs.0))
            else {
                continue;
            };
            let rightmost = row_devices
                .iter()
                .max_by(|a, b| a.span_abs.1.total_cmp(&b.span_abs.1))
                .expect("nonempty");
            match region {
                Region::P => {
                    nps.lt = leftmost.left_space;
                    nps.rt = rightmost.right_space;
                }
                Region::N => {
                    nps.lb = leftmost.left_space;
                    nps.rb = rightmost.right_space;
                }
            }
        }
        nps
    }

    fn setup() -> (MappedNetlist, Library, Placement) {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let mapped = technology_map(&n, &lib).unwrap();
        let placement = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
        (mapped, lib, placement)
    }

    #[test]
    fn device_sites_cover_all_devices() {
        let (mapped, lib, placement) = setup();
        let sites = placement.device_sites(&mapped, &lib).unwrap();
        let expected: usize = mapped
            .instances()
            .iter()
            .map(|i| lib.cell(&i.cell).unwrap().layout().devices().len())
            .sum();
        assert_eq!(sites.len(), expected);
    }

    #[test]
    fn neighbor_spacings_are_consistent() {
        let (mapped, lib, placement) = setup();
        let sites = placement.device_sites(&mapped, &lib).unwrap();
        for s in &sites {
            if let Some(l) = s.left_space {
                assert!(l >= 0.0, "negative left space {l}");
            }
            if let Some(r) = s.right_space {
                assert!(r >= 0.0, "negative right space {r}");
            }
        }
        // Row-end devices have one open side.
        let open_sides = sites
            .iter()
            .filter(|s| s.left_space.is_none() || s.right_space.is_none())
            .count();
        // Two per (row, region) at least.
        assert!(open_sides >= 2 * placement.rows().len());
    }

    #[test]
    fn contexts_cover_multiple_bins() {
        let (mapped, lib, placement) = setup();
        let contexts = placement.instance_contexts(&mapped, &lib).unwrap();
        assert_eq!(contexts.len(), mapped.instances().len());
        let mut bins: Vec<ContextBin> = contexts
            .iter()
            .flat_map(|c| [c.lt, c.rt, c.lb, c.rb])
            .collect();
        bins.sort();
        bins.dedup();
        assert!(
            bins.len() >= 2,
            "whitespace mixture should produce at least two context bins, got {bins:?}"
        );
    }

    #[test]
    fn nps_matches_manual_computation_for_a_pair() {
        use svt_netlist::bench;
        let lib = Library::svt90();
        let n = bench::parse("# two\nINPUT(a)\nOUTPUT(z)\nOUTPUT(y)\nz = NOT(a)\ny = NOT(z)\n")
            .unwrap();
        let mapped = technology_map(&n, &lib).unwrap();
        let placement = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
        let nps = placement.instance_nps(&mapped, &lib).unwrap();
        // Two inverters; if in the same row, the right spacing of the left
        // one equals the left spacing of the right one.
        if placement.rows().len() == 1 {
            let left = &placement.placed()[placement.rows()[0].members[0]];
            let right = &placement.placed()[placement.rows()[0].members[1]];
            let l_nps = nps[left.instance];
            let r_nps = nps[right.instance];
            assert_eq!(l_nps.rt, r_nps.lt);
            assert!(l_nps.lt.is_none(), "leftmost cell has no left neighbor");
            assert!(r_nps.rt.is_none());
        }
    }

    #[test]
    fn row_scoped_extraction_matches_the_full_design() {
        let (mapped, lib, placement) = setup();
        let full_sites = placement.device_sites(&mapped, &lib).unwrap();
        let full_contexts = placement.instance_contexts(&mapped, &lib).unwrap();
        for row in [0usize, 1, placement.rows().len() - 1] {
            let subset = placement
                .device_sites_in_rows(&[row], &mapped, &lib)
                .unwrap();
            let expected: Vec<&DeviceSite> = full_sites.iter().filter(|s| s.row == row).collect();
            assert_eq!(subset.len(), expected.len(), "row {row} site count");
            for (s, e) in subset.iter().zip(expected) {
                assert_eq!(s, e, "row {row} site mismatch");
            }
            let ctxs = placement
                .instance_contexts_in_rows(&[row], &mapped, &lib)
                .unwrap();
            assert!(!ctxs.is_empty());
            for (idx, ctx) in ctxs {
                assert_eq!(ctx, full_contexts[idx], "context of instance {idx}");
            }
        }
        // Multi-row subsets cover every member instance exactly once.
        let two = placement
            .instance_contexts_in_rows(&[0, 1], &mapped, &lib)
            .unwrap();
        let mut seen: Vec<usize> = two.iter().map(|(i, _)| *i).collect();
        seen.dedup();
        assert_eq!(seen.len(), two.len(), "sorted unique instance list");
    }

    #[test]
    fn grouped_nps_matches_the_per_instance_filter() {
        let (mapped, lib, placement) = setup();
        let sites = placement.device_sites(&mapped, &lib).unwrap();
        let grouped = instance_nps_from_all_sites(mapped.instances().len(), &sites);
        for (idx, nps) in grouped.iter().enumerate() {
            assert_eq!(nps, &instance_nps_from_sites(idx, &sites), "instance {idx}");
        }
        // And the context derivation agrees with the two-pass API.
        let contexts = instance_contexts_from_sites(mapped.instances().len(), &sites);
        assert_eq!(
            contexts,
            placement.instance_contexts(&mapped, &lib).unwrap()
        );
    }

    #[test]
    fn row_poly_pattern_is_sorted_and_disjoint() {
        let (mapped, lib, placement) = setup();
        let spans = placement
            .row_poly_pattern(0, Region::P, &mapped, &lib)
            .unwrap();
        assert!(!spans.is_empty());
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping poly {w:?}");
        }
        // Out-of-range rows yield empty patterns.
        assert!(placement
            .row_poly_pattern(9999, Region::P, &mapped, &lib)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn context_binning_uses_the_paper_edges() {
        let nps = InstanceNps {
            lt: Some(350.0),
            rt: Some(450.0),
            lb: None,
            rb: Some(800.0),
        };
        let ctx = nps.context();
        assert_eq!(ctx.lt, ContextBin::Dense);
        assert_eq!(ctx.rt, ContextBin::Medium);
        assert_eq!(ctx.lb, ContextBin::Isolated);
        assert_eq!(ctx.rb, ContextBin::Isolated);
    }
}
