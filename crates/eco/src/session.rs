use std::collections::HashSet;
use std::sync::Mutex;

use svt_core::{
    audit_corner_delays, classify_device_site, CornerTiming, DeviceClass, FlowProvenance,
    SignoffComparison, SignoffFlow,
};

use svt_exec::{try_par_map, ScratchPool};
use svt_netlist::MappedNetlist;
use svt_obs::audit::{AuditTrail, DeltaAudit, InstanceAudit, PathAudit};
use svt_place::{instance_contexts_in_sites, DeviceSite, Placement};
use svt_sta::{CellBinding, StaState};
use svt_stdcell::invalidate_pitch_pairs;

use crate::{DeltaReport, EcoEdit, EcoError, EndpointDelta};

/// The paper's radius of influence, nm: the farthest a geometry change
/// can move any through-pitch CD, context bin, or iso/dense
/// classification. Every binning threshold in the flow (400/600 nm
/// context bins, `space + L < 300` nm contacted-pitch classification)
/// lies at or below this radius, so a spacing that stays ≥ 600 nm on
/// both sides of an edit cannot change any derived quantity.
pub const ROI_NM: f64 = 600.0;

/// Audit corner names, slot order: traditional bc/nom/wc then aware.
const CORNER_NAMES: [&str; 6] = [
    "traditional-bc",
    "traditional-nom",
    "traditional-wc",
    "aware-bc",
    "aware-nom",
    "aware-wc",
];

/// An incremental re-sign-off session over a completed audited run.
///
/// The session owns mutable clones of the netlist and placement plus the
/// full [`FlowProvenance`] baseline; [`EcoSession::apply`] advances all
/// of it under one typed [`EcoEdit`] and returns the [`DeltaReport`] of
/// what changed. The state after any edit sequence is bit-identical to a
/// from-scratch [`SignoffFlow::run_with_provenance`] on the edited
/// design — the incremental path reuses the exact same characterization
/// and audit code and only *skips* work the radius of influence and the
/// timing cones prove unaffected.
///
/// # Examples
///
/// ```
/// use svt_core::{SignoffFlow, SignoffOptions};
/// use svt_eco::{EcoEdit, EcoSession};
/// use svt_litho::Process;
/// use svt_netlist::{bench, technology_map};
/// use svt_place::{place, PlacementOptions};
/// use svt_stdcell::{expand_library, ExpandOptions, Library};
///
/// let lib = Library::svt90();
/// let sim = Process::nm90().simulator();
/// let expanded = expand_library(&lib, &sim, &ExpandOptions::fast())?;
/// let n = bench::parse(
///     "# t\nINPUT(a)\nOUTPUT(z)\nOUTPUT(y)\nb = NOT(a)\nz = NOT(b)\ny = NAND(a, b)\n",
/// )?;
/// let mapped = technology_map(&n, &lib)?;
/// let placement = place(&mapped, &lib, &PlacementOptions::default())?;
/// let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
///
/// let mut session = EcoSession::new(&flow, &mapped, &placement)?;
/// let inst = session
///     .netlist()
///     .instances()
///     .iter()
///     .find(|i| i.cell == "INVX1")
///     .unwrap()
///     .name
///     .clone();
/// let delta = session.apply(&EcoEdit::ResizeCell {
///     instance: inst,
///     new_cell: "INVX2".into(),
/// })?;
/// assert!(delta.delta_audit.render_text().contains("resize"));
///
/// // The incremental state matches a from-scratch re-sign-off bit-for-bit.
/// let (full, _) = flow.run_audited(session.netlist(), session.placement())?;
/// assert_eq!(full, *session.comparison());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EcoSession<'a> {
    flow: &'a SignoffFlow<'a>,
    netlist: MappedNetlist,
    placement: Placement,
    provenance: FlowProvenance,
    /// Bump arenas for the incremental analysis working set, reused
    /// across corners and edits.
    scratch: ScratchPool,
    /// Per-instance start offsets into `provenance.audit.instances` (one
    /// audit row per timing arc); rebuilt if a swap changes an arc count.
    audit_offsets: Vec<usize>,
    edits: Vec<String>,
}

impl<'a> EcoSession<'a> {
    /// Signs off the design from scratch and opens a session over the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates [`SignoffFlow::run_with_provenance`] failures.
    pub fn new(
        flow: &'a SignoffFlow<'a>,
        netlist: &MappedNetlist,
        placement: &Placement,
    ) -> Result<EcoSession<'a>, EcoError> {
        let provenance = flow.run_with_provenance(netlist, placement)?;
        EcoSession::with_baseline(flow, netlist.clone(), placement.clone(), provenance)
    }

    /// Opens a session over an already-computed baseline, avoiding a
    /// second full run when the caller holds one (benchmarks, replays).
    ///
    /// # Errors
    ///
    /// Returns [`EcoError::InvalidEdit`] when the provenance shape does
    /// not match the netlist (wrong design).
    pub fn with_baseline(
        flow: &'a SignoffFlow<'a>,
        netlist: MappedNetlist,
        placement: Placement,
        provenance: FlowProvenance,
    ) -> Result<EcoSession<'a>, EcoError> {
        let n = netlist.instances().len();
        if provenance.contexts.len() != n
            || provenance.classes.len() != n
            || provenance.traditional.len() != 3
            || provenance.aware.len() != 3
        {
            return Err(EcoError::InvalidEdit {
                reason: format!(
                    "baseline provenance does not match the netlist: {} contexts / {} class \
                     vectors for {n} instances",
                    provenance.contexts.len(),
                    provenance.classes.len()
                ),
            });
        }
        let audit_offsets = arc_row_offsets(&netlist, flow)?;
        Ok(EcoSession {
            flow,
            netlist,
            placement,
            provenance,
            scratch: ScratchPool::new(),
            audit_offsets,
            edits: Vec::new(),
        })
    }

    /// The current (post-edit) netlist.
    #[must_use]
    pub fn netlist(&self) -> &MappedNetlist {
        &self.netlist
    }

    /// The current (post-edit) placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The full provenance of the current state — bindings, STA states,
    /// contexts, classes, comparison, and audit.
    #[must_use]
    pub fn provenance(&self) -> &FlowProvenance {
        &self.provenance
    }

    /// The current Table 2 comparison.
    #[must_use]
    pub fn comparison(&self) -> &SignoffComparison {
        &self.provenance.comparison
    }

    /// The current full audit trail (delta audits splice into it).
    #[must_use]
    pub fn audit(&self) -> &AuditTrail {
        &self.provenance.audit
    }

    /// Descriptions of every edit applied so far, in order.
    #[must_use]
    pub fn edits(&self) -> &[String] {
        &self.edits
    }

    /// Applies one edit and incrementally re-signs-off the design.
    ///
    /// Litho dirt is bounded by [`ROI_NM`]: only the touched rows are
    /// extracted, once before and once after the edit, and only instances
    /// whose context or classes actually changed are re-bound, through
    /// the flow's memo that the baseline run filled. Timing dirt is
    /// bounded by [`StaState::update`], which re-times each corner in
    /// place and re-evaluates only instances whose inputs changed bits;
    /// the corners with re-bound instances run on the worker pool, and
    /// the others — the traditional corners, when the cell master did not
    /// change — are not touched at all.
    ///
    /// # Errors
    ///
    /// Returns [`EcoError::InvalidEdit`] — with the session untouched —
    /// when the edit names an unknown instance or cell, resizes across
    /// cell families, or would overlap another instance; propagates
    /// characterization and STA failures otherwise.
    pub fn apply(&mut self, edit: &EcoEdit) -> Result<DeltaReport, EcoError> {
        let _span = svt_obs::span("eco.apply");
        if svt_obs::enabled() {
            svt_obs::counter!("eco.edits").add(1);
        }
        let desc = edit.describe();

        // -- Validate everything before mutating anything. --------------
        let name = edit.instance().to_string();
        let idx = self
            .netlist
            .instance_index(&name)
            .ok_or_else(|| EcoError::InvalidEdit {
                reason: format!("unknown instance `{name}`"),
            })?;
        let placed = self
            .placement
            .of_instance(idx)
            .ok_or_else(|| EcoError::InvalidEdit {
                reason: format!("instance `{name}` is not placed"),
            })?;
        let (old_row, old_x) = (placed.row, placed.x_nm);
        let old_cell = self.netlist.instances()[idx].cell.clone();
        let old_w = self.cell_width(&old_cell)?;

        let (target_cell, target_row, target_x) = match edit {
            EcoEdit::SwapCell { new_cell, .. } => (Some(new_cell.clone()), old_row, old_x),
            EcoEdit::ResizeCell { new_cell, .. } => {
                if base_family(&old_cell) != base_family(new_cell) {
                    return Err(EcoError::InvalidEdit {
                        reason: format!(
                            "resize of `{name}` must stay in the `{}` family; `{new_cell}` is a \
                             different function (use SwapCell)",
                            base_family(&old_cell)
                        ),
                    });
                }
                (Some(new_cell.clone()), old_row, old_x)
            }
            EcoEdit::AdjustSpacing { dx_nm, .. } => (None, old_row, old_x + dx_nm),
            EcoEdit::MoveInstance { row, x_nm, .. } => (None, *row, *x_nm),
        };
        let new_cell = target_cell.unwrap_or_else(|| old_cell.clone());
        let cell_changed = new_cell != old_cell;
        let new_w = self.cell_width(&new_cell)?;
        if target_x < 0.0 {
            return Err(EcoError::InvalidEdit {
                reason: format!("target x {target_x} nm of `{name}` is negative"),
            });
        }
        if target_row >= self.placement.rows().len() {
            return Err(EcoError::InvalidEdit {
                reason: format!(
                    "target row {target_row} of `{name}` out of range ({} rows)",
                    self.placement.rows().len()
                ),
            });
        }
        self.check_fit(target_row, idx, target_x, new_w, &name)?;

        // -- Litho dirt: radius-of-influence window over touched rows. --
        let lito_span = svt_obs::span("eco.litho");
        let mut rows = vec![old_row, target_row];
        rows.sort_unstable();
        rows.dedup();
        let window_lo = old_x.min(target_x) - ROI_NM;
        let window_hi = (old_x + old_w).max(target_x + new_w) + ROI_NM;

        let pre_sites =
            self.placement
                .device_sites_in_rows(&rows, &self.netlist, self.flow.library())?;

        // Commit the edit. `swap_cell` re-validates pin compatibility and
        // mutates nothing on failure, so the session stays consistent.
        if cell_changed {
            self.netlist
                .swap_cell(&name, &new_cell, self.flow.library())?;
            self.placement.set_cell(idx, &new_cell)?;
        }
        if target_row != old_row {
            self.placement.relocate(idx, target_row, target_x)?;
        } else if target_x != old_x {
            self.placement.move_within_row(idx, target_x)?;
        }

        // Re-extract exactly the touched rows (bit-identical to the slice
        // of a full-design extraction) and diff contexts and classes, both
        // derived from that one extraction in grouped passes.
        let post_sites =
            self.placement
                .device_sites_in_rows(&rows, &self.netlist, self.flow.library())?;
        let new_contexts = instance_contexts_in_sites(&post_sites);
        let new_classes = classes_by_instance(&post_sites, self.flow);
        let mut dirty: Vec<usize> = Vec::new();
        for (&(i, ctx), classes) in new_contexts.iter().zip(new_classes) {
            let changed =
                ctx != self.provenance.contexts[i] || classes != self.provenance.classes[i];
            if changed {
                // The radius of influence bounds how far an edit reaches;
                // dirt detection itself is diff-based, so this is an
                // invariant check, not a correctness input.
                debug_assert!(
                    footprint_intersects(
                        &self.placement,
                        &self.netlist,
                        self.flow,
                        i,
                        window_lo,
                        window_hi
                    ),
                    "ROI soundness violated: instance {i} changed outside the ±{ROI_NM} nm window"
                );
                self.provenance.contexts[i] = ctx;
                self.provenance.classes[i] = classes;
                dirty.push(i);
            }
            if i == idx && cell_changed && !changed {
                // Same context and classes, different master: still dirty.
                dirty.push(i);
            }
        }
        dirty.sort_unstable();

        // Targeted through-pitch CD invalidation: only spacing values
        // that appeared or disappeared in the touched rows.
        let changed_spacings = spacing_delta(&pre_sites, &post_sites);
        let pitch_rows_invalidated = if changed_spacings.is_empty() {
            0
        } else {
            invalidate_pitch_pairs(&changed_spacings)
        };
        if svt_obs::enabled() {
            svt_obs::counter!("eco.dirty.litho").add(dirty.len() as u64);
            svt_obs::counter!("eco.pitch.invalidated").add(pitch_rows_invalidated as u64);
        }
        drop(lito_span);

        // -- Rebind: dirty instances per corner, through the flow's memo
        //    (characterization is a pure function of its key, so the
        //    baseline run's variants stay valid across edits). ----------
        let char_span = svt_obs::span("eco.characterize");
        for (c, corner) in svt_core::Corner::ALL.into_iter().enumerate() {
            for &i in &dirty {
                let (ctx, classes) = (self.provenance.contexts[i], &self.provenance.classes[i]);
                let cell = self
                    .flow
                    .aware_variant(&self.netlist, i, ctx, classes, corner)?;
                self.provenance.aware[c]
                    .binding
                    .replace(&self.netlist, i, cell)?;
            }
        }
        if cell_changed {
            let l_nom = self.flow.options().characterize.nominal_length_nm;
            let corners = self.flow.options().budget.traditional_corners(l_nom);
            for (c, l) in [corners.bc_nm, corners.nom_nm, corners.wc_nm]
                .into_iter()
                .enumerate()
            {
                let cell = self.flow.traditional_variant(&new_cell, l)?;
                self.provenance.traditional[c]
                    .binding
                    .replace(&self.netlist, idx, cell)?;
            }
        }
        drop(char_span);

        // -- Timing dirt: in-place updates of the corners with seeds, in
        //    parallel.
        let timing_span = svt_obs::span("eco.timing");
        let arrivals_before: Vec<Vec<(String, f64)>> = self
            .corner_states()
            .map(|s| s.report().po_arrivals())
            .collect();
        // Traditional corners see only binding/load changes, which a cell
        // swap alone can cause; pure geometry edits are exact no-ops there.
        let trad_seeds: Vec<usize> = if cell_changed { vec![idx] } else { Vec::new() };
        if svt_obs::enabled() {
            svt_obs::counter!("eco.dirty.seeds")
                .add((3 * trad_seeds.len() + 3 * dirty.len()) as u64);
        }
        let jobs: Vec<(Mutex<&mut StaState>, &CellBinding, &[usize])> = self
            .provenance
            .traditional
            .iter_mut()
            .map(|a| (a, trad_seeds.as_slice()))
            .chain(
                self.provenance
                    .aware
                    .iter_mut()
                    .map(|a| (a, dirty.as_slice())),
            )
            .filter(|(_, seeds)| !seeds.is_empty())
            .map(|(a, seeds)| (Mutex::new(&mut a.state), &a.binding, seeds))
            .collect();
        let netlist = &self.netlist;
        let scratch_pool = &self.scratch;
        let stats = try_par_map(&jobs, |(state, binding, seeds)| {
            let scratch = scratch_pool.checkout();
            let mut state = state
                .lock()
                .expect("each corner state is locked once, by its own job");
            state.update(netlist, binding, seeds, &scratch)
        })?;
        drop(jobs);
        let forward_instances = stats.iter().map(|s| s.forward_instances).sum();
        let backward_nets = stats.iter().map(|s| s.backward_nets).sum();
        drop(timing_span);

        // -- Rebuild the comparison and patch the audit in place through
        //    the same row builders as a full run (bit-identical by
        //    construction); only dirty rows are recomputed. --------------
        let audit_span = svt_obs::span("eco.audit");
        let traditional = self.flow.apply_residual_derate(CornerTiming {
            bc_ns: self.provenance.traditional[0].report().circuit_delay_ns(),
            nom_ns: self.provenance.traditional[1].report().circuit_delay_ns(),
            wc_ns: self.provenance.traditional[2].report().circuit_delay_ns(),
        });
        let aware = self.flow.apply_residual_derate(CornerTiming {
            bc_ns: self.provenance.aware[0].report().circuit_delay_ns(),
            nom_ns: self.provenance.aware[1].report().circuit_delay_ns(),
            wc_ns: self.provenance.aware[2].report().circuit_delay_ns(),
        });
        let comparison = SignoffComparison {
            testcase: self.netlist.name().to_string(),
            gates: self.netlist.instances().len(),
            traditional,
            aware,
        };
        let arrivals_after: Vec<Vec<(String, f64)>> = self
            .corner_states()
            .map(|s| s.report().po_arrivals())
            .collect();

        // Dirty instance rows, via the exact row builder the full
        // assembly concatenates. A swap that changes the arc count would
        // shift every later row, so that (theoretical for pin-compatible
        // masters) case falls back to a full reassembly.
        let mut changed_instances: Vec<(usize, InstanceAudit)> = Vec::new();
        let mut row_counts_stable = true;
        'patch: for &i in &dirty {
            let rows = self.flow.audit_instance_rows(
                &self.netlist,
                i,
                self.provenance.contexts[i],
                &self.provenance.classes[i],
            )?;
            let start = self.audit_offsets[i];
            let end = self
                .audit_offsets
                .get(i + 1)
                .copied()
                .unwrap_or(self.provenance.audit.instances.len());
            if rows.len() != end - start {
                row_counts_stable = false;
                break 'patch;
            }
            for (k, row) in rows.into_iter().enumerate() {
                if !row.bit_eq(&self.provenance.audit.instances[start + k]) {
                    changed_instances.push((start + k, row));
                }
            }
        }
        // Endpoint rows whose audited arrivals (trad bc/wc, aware bc/wc =
        // slots 0, 2, 3, 5) moved.
        let mut changed_paths: Vec<(usize, PathAudit)> = Vec::new();
        for k in 0..self.provenance.audit.paths.len() {
            let moved = [0usize, 2, 3, 5].into_iter().any(|slot| {
                arrivals_before[slot][k].1.to_bits() != arrivals_after[slot][k].1.to_bits()
            });
            if !moved {
                continue;
            }
            let row = self.flow.audit_path_row(
                &arrivals_after[0][k].0,
                arrivals_after[0][k].1,
                arrivals_after[2][k].1,
                arrivals_after[3][k].1,
                arrivals_after[5][k].1,
            );
            if !row.bit_eq(&self.provenance.audit.paths[k]) {
                changed_paths.push((k, row));
            }
        }

        let delta_audit = if row_counts_stable {
            let delta = DeltaAudit {
                testcase: self.netlist.name().to_string(),
                baseline_instances: self.provenance.audit.instances.len(),
                baseline_paths: self.provenance.audit.paths.len(),
                edits: vec![desc.clone()],
                corner_delays: audit_corner_delays(&comparison),
                changed_instances,
                changed_paths,
            };
            // Patch in place — no O(design) clone or reassembly.
            self.provenance.audit.corner_delays = delta.corner_delays.clone();
            for (row_idx, row) in &delta.changed_instances {
                self.provenance.audit.instances[*row_idx].clone_from(row);
            }
            for (row_idx, row) in &delta.changed_paths {
                self.provenance.audit.paths[*row_idx].clone_from(row);
            }
            if svt_obs::enabled() {
                svt_obs::counter!("audit.delta.changed_instances")
                    .add(delta.changed_instances.len() as u64);
                svt_obs::counter!("audit.delta.changed_paths")
                    .add(delta.changed_paths.len() as u64);
            }
            delta
        } else {
            let audit = self.flow.assemble_audit(
                &self.netlist,
                &self.provenance.contexts,
                &self.provenance.classes,
                [
                    self.provenance.traditional[0].report(),
                    self.provenance.traditional[2].report(),
                ],
                [
                    self.provenance.aware[0].report(),
                    self.provenance.aware[2].report(),
                ],
                &comparison,
            )?;
            let delta = audit.delta_from(&self.provenance.audit, vec![desc.clone()]);
            self.provenance.audit = audit;
            self.audit_offsets = arc_row_offsets(&self.netlist, self.flow)?;
            delta
        };

        let mut endpoint_deltas = Vec::new();
        for (k, after) in arrivals_after.iter().enumerate() {
            for ((po, before_ns), (po_after, after_ns)) in arrivals_before[k].iter().zip(after) {
                debug_assert_eq!(po, po_after);
                if before_ns.to_bits() != after_ns.to_bits() {
                    endpoint_deltas.push(EndpointDelta {
                        endpoint: po.clone(),
                        corner: CORNER_NAMES[k].to_string(),
                        arrival_before_ns: *before_ns,
                        arrival_after_ns: *after_ns,
                    });
                }
            }
        }
        drop(audit_span);

        let before = std::mem::replace(&mut self.provenance.comparison, comparison.clone());
        self.edits.push(desc.clone());
        Ok(DeltaReport {
            edit: desc,
            rows_extracted: rows,
            recharacterized: dirty,
            pitch_rows_invalidated,
            forward_instances,
            backward_nets,
            endpoint_deltas,
            before,
            after: comparison,
            delta_audit,
        })
    }

    /// All six corner states in audit slot order.
    fn corner_states(&self) -> impl Iterator<Item = &StaState> {
        self.provenance
            .traditional
            .iter()
            .chain(self.provenance.aware.iter())
            .map(|a| &a.state)
    }

    fn cell_width(&self, cell: &str) -> Result<f64, EcoError> {
        self.flow
            .library()
            .cell(cell)
            .map(|c| c.layout().width_nm())
            .ok_or_else(|| EcoError::InvalidEdit {
                reason: format!("unknown cell `{cell}`"),
            })
    }

    /// Rejects a target footprint that would overlap any other instance
    /// in the row (abutment is legal, matching the placer's rule).
    fn check_fit(
        &self,
        row: usize,
        skip: usize,
        x_nm: f64,
        width_nm: f64,
        name: &str,
    ) -> Result<(), EcoError> {
        for &m in &self.placement.rows()[row].members {
            let p = &self.placement.placed()[m];
            if p.instance == skip {
                continue;
            }
            let other = &self.netlist.instances()[p.instance];
            let w = self.cell_width(&other.cell)?;
            if x_nm < p.x_nm + w - 1e-9 && p.x_nm < x_nm + width_nm - 1e-9 {
                return Err(EcoError::InvalidEdit {
                    reason: format!(
                        "`{name}` at [{x_nm}, {}] nm would overlap `{}` in row {row}",
                        x_nm + width_nm,
                        other.name
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The device classes of every instance in a row-scoped site extraction,
/// in instance order (that of [`instance_contexts_in_sites`]), each in
/// device order — exactly what the full flow computes, in one pass.
fn classes_by_instance(sites: &[DeviceSite], flow: &SignoffFlow<'_>) -> Vec<Vec<DeviceClass>> {
    let mut keyed: Vec<(usize, usize, DeviceClass)> = sites
        .iter()
        .map(|s| {
            (
                s.instance,
                s.device.0,
                classify_device_site(s, flow.options()),
            )
        })
        .collect();
    keyed.sort_unstable_by_key(|&(i, d, _)| (i, d));
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|group| group.iter().map(|&(_, _, c)| c).collect())
        .collect()
}

/// Spacing values (bit-exact) present before xor after the edit — the
/// only through-pitch table rows whose cached CDs can be stale.
fn spacing_delta(pre: &[DeviceSite], post: &[DeviceSite]) -> Vec<f64> {
    let collect = |sites: &[DeviceSite]| -> HashSet<u64> {
        sites
            .iter()
            .flat_map(|s| [s.left_space, s.right_space])
            .flatten()
            .map(f64::to_bits)
            .collect()
    };
    let a = collect(pre);
    let b = collect(post);
    let mut out: Vec<f64> = a
        .symmetric_difference(&b)
        .map(|&x| f64::from_bits(x))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Start offset of each instance's audit rows (one row per timing arc of
/// its current master), netlist order — the layout
/// [`SignoffFlow::assemble_audit`] concatenates.
fn arc_row_offsets(
    netlist: &MappedNetlist,
    flow: &SignoffFlow<'_>,
) -> Result<Vec<usize>, EcoError> {
    let mut offsets = Vec::with_capacity(netlist.instances().len());
    let mut acc = 0usize;
    for inst in netlist.instances() {
        offsets.push(acc);
        let cell = flow
            .library()
            .cell(&inst.cell)
            .ok_or_else(|| EcoError::InvalidEdit {
                reason: format!("unknown cell `{}`", inst.cell),
            })?;
        acc += cell.arcs().len();
    }
    Ok(offsets)
}

/// Whether instance `i`'s footprint intersects `[lo, hi]` nm.
fn footprint_intersects(
    placement: &Placement,
    netlist: &MappedNetlist,
    flow: &SignoffFlow<'_>,
    i: usize,
    lo: f64,
    hi: f64,
) -> bool {
    let Some(p) = placement.of_instance(i) else {
        return false;
    };
    let Some(cell) = flow.library().cell(&netlist.instances()[i].cell) else {
        return false;
    };
    let w = cell.layout().width_nm();
    p.x_nm <= hi && p.x_nm + w >= lo
}

/// The drive-strength-free cell family: `INVX4` → `INV`, `NAND2X1` →
/// `NAND2`. Names without a trailing `X<digits>` are their own family.
fn base_family(cell: &str) -> &str {
    match cell.rfind('X') {
        Some(i) if i + 1 < cell.len() && cell[i + 1..].bytes().all(|b| b.is_ascii_digit()) => {
            &cell[..i]
        }
        _ => cell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_core::SignoffOptions;
    use svt_litho::Process;
    use svt_netlist::{bench, technology_map};
    use svt_place::{place, PlacementOptions};
    use svt_stdcell::{expand_library, ExpandOptions, ExpandedLibrary, Library};

    fn setup() -> (Library, ExpandedLibrary) {
        let lib = Library::svt90();
        let expanded =
            expand_library(&lib, &Process::nm90().simulator(), &ExpandOptions::fast()).unwrap();
        (lib, expanded)
    }

    fn small_design(lib: &Library) -> (MappedNetlist, Placement) {
        let n = bench::parse(
            "# eco\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\nc = NAND(a, b)\nd = NOT(c)\nz = NOT(d)\ny = NAND(c, d)\n",
        )
        .unwrap();
        let mapped = technology_map(&n, lib).unwrap();
        let placement = place(&mapped, lib, &PlacementOptions::default()).unwrap();
        (mapped, placement)
    }

    #[test]
    fn base_family_strips_drive_strength() {
        assert_eq!(base_family("INVX1"), "INV");
        assert_eq!(base_family("INVX12"), "INV");
        assert_eq!(base_family("NAND2X1"), "NAND2");
        assert_eq!(base_family("XOR"), "XOR");
        assert_eq!(base_family("FOOX"), "FOOX");
    }

    #[test]
    fn invalid_edits_are_rejected_without_mutation() {
        let (lib, expanded) = setup();
        let (mapped, placement) = small_design(&lib);
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let mut session = EcoSession::new(&flow, &mapped, &placement).unwrap();
        let baseline_audit = session.audit().render_text();

        let unknown = session.apply(&EcoEdit::AdjustSpacing {
            instance: "nope".into(),
            dx_nm: 10.0,
        });
        assert!(matches!(unknown, Err(EcoError::InvalidEdit { .. })));

        let inv = mapped
            .instances()
            .iter()
            .find(|i| i.cell == "INVX1")
            .unwrap()
            .name
            .clone();
        let cross_family = session.apply(&EcoEdit::ResizeCell {
            instance: inv.clone(),
            new_cell: "NAND2X1".into(),
        });
        assert!(matches!(cross_family, Err(EcoError::InvalidEdit { .. })));

        let off_grid = session.apply(&EcoEdit::MoveInstance {
            instance: inv.clone(),
            row: 99,
            x_nm: 0.0,
        });
        assert!(matches!(off_grid, Err(EcoError::InvalidEdit { .. })));

        // Land exactly on a neighbor: overlap is rejected before mutation.
        let victim = session
            .placement()
            .placed()
            .iter()
            .find(|p| {
                p.instance
                    != session
                        .netlist()
                        .instances()
                        .iter()
                        .position(|i| i.name == inv)
                        .unwrap()
            })
            .unwrap();
        let overlap = session.apply(&EcoEdit::MoveInstance {
            instance: inv,
            row: victim.row,
            x_nm: victim.x_nm,
        });
        assert!(matches!(overlap, Err(EcoError::InvalidEdit { .. })));

        assert_eq!(session.audit().render_text(), baseline_audit);
        assert!(session.edits().is_empty());
    }

    #[test]
    fn resize_matches_full_rerun_bit_for_bit() {
        let (lib, expanded) = setup();
        let (mapped, placement) = small_design(&lib);
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let mut session = EcoSession::new(&flow, &mapped, &placement).unwrap();
        let old_audit = session.audit().clone();
        let inv = mapped
            .instances()
            .iter()
            .find(|i| i.cell == "INVX1")
            .unwrap()
            .name
            .clone();

        let delta = session
            .apply(&EcoEdit::ResizeCell {
                instance: inv,
                new_cell: "INVX2".into(),
            })
            .unwrap();
        assert!(!delta.endpoint_deltas.is_empty());
        assert!(!delta.recharacterized.is_empty());

        let full = flow
            .run_with_provenance(session.netlist(), session.placement())
            .unwrap();
        assert_eq!(full.comparison, *session.comparison());
        assert_eq!(full.audit.render_text(), session.audit().render_text());
        assert_eq!(
            full.comparison.uncertainty_reduction_pct().to_bits(),
            session.comparison().uncertainty_reduction_pct().to_bits()
        );
        // The delta audit splices bit-exactly into the pre-edit audit.
        assert_eq!(delta.delta_audit.splice_into(&old_audit), full.audit);
    }

    #[test]
    fn undoing_an_edit_characterizes_nothing() {
        svt_obs::set_mode(svt_obs::TraceMode::Summary);
        let (lib, expanded) = setup();
        let (mapped, placement) = small_design(&lib);
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let mut session = EcoSession::new(&flow, &mapped, &placement).unwrap();
        // Abut row 0's last instance to its neighbour, then move it back.
        let [.., left, last] = session.placement().rows()[0].members[..] else {
            panic!("row 0 holds two instances");
        };
        let left = session.placement().placed()[left].clone();
        let last = session.placement().placed()[last].clone();
        let abut = left.x_nm + session.cell_width(&left.cell).unwrap();
        // Each edit runs under its own root span, which tells its
        // characterizations apart from other tests' in the shared registry.
        let mut move_to = |root: &'static str, x_nm: f64| {
            let _root = svt_obs::span(root);
            let instance = session.netlist().instances()[last.instance].name.clone();
            let edit = EcoEdit::MoveInstance {
                instance,
                row: last.row,
                x_nm,
            };
            assert!(!session.apply(&edit).unwrap().recharacterized.is_empty());
            let leaf = format!("{root}/eco.apply/eco.characterize/core.signoff.aware.instance");
            let spans = svt_obs::registry().snapshot().spans.into_iter();
            spans
                .filter(|s| s.path == leaf)
                .map(|s| s.count)
                .sum::<u64>()
        };
        assert!(move_to("eco.test.edit", abut) > 0);
        // The baseline run memoized every variant the undo re-binds.
        assert_eq!(move_to("eco.test.undo", last.x_nm), 0);
    }

    #[test]
    fn far_move_is_a_timing_noop_but_tracked() {
        let (lib, expanded) = setup();
        let (mapped, placement) = small_design(&lib);
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let mut session = EcoSession::new(&flow, &mapped, &placement).unwrap();

        // Move the last instance of row 0 far to the right: every spacing
        // it leaves/creates is beyond the ROI, so nothing re-characterizes
        // unless a context genuinely changed — and either way the state
        // matches the full rerun bit-for-bit.
        let row0 = &session.placement().rows()[0];
        let last = session.placement().placed()[*row0.members.last().unwrap()].clone();
        let name = session.netlist().instances()[last.instance].name.clone();
        let delta = session
            .apply(&EcoEdit::MoveInstance {
                instance: name,
                row: 0,
                x_nm: last.x_nm + 5_000.0,
            })
            .unwrap();

        let full = flow
            .run_with_provenance(session.netlist(), session.placement())
            .unwrap();
        assert_eq!(full.comparison, *session.comparison());
        assert_eq!(full.audit.render_text(), session.audit().render_text());
        if delta.recharacterized.is_empty() {
            assert!(delta.is_timing_noop());
            assert_eq!(delta.forward_instances, 0);
        }
    }
}
