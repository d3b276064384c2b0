//! In-place incremental timing analysis.
//!
//! [`analyze_full`](crate::analyze_full) returns a [`StaState`] — the
//! timing report plus the internal products a re-analysis needs (the
//! interned netlist topology, the options and wire caps it ran with, net
//! loads, each instance's resolved arc slots with their delays, the
//! completion order). [`StaState::update`] re-times that state in place
//! after an edit re-bound some instances, writing only what changed:
//!
//! * **arcs** — only the slots of the re-bound instances, re-resolved
//!   against the new variants,
//! * **loads** — only the nets a re-bound instance samples,
//! * **forward** — arrivals and slews of the instances whose inputs
//!   really changed: an evaluated instance flags its users only when the
//!   bits of its output arrival or slew moved,
//! * **backward** — required times of the fan-in cone of the evaluated
//!   instances.
//!
//! The result is *bit-identical* to a from-scratch
//! [`analyze`](crate::analyze) of the edited design, by construction:
//!
//! 1. An arc slot is resolved by one routine for both passes, and
//!    per-instance evaluation is a pure function of the bound variant,
//!    its resolved slots, the upstream net timings, and the output load
//!    — an instance whose inputs, load and variant kept their bits keeps
//!    its outputs, and the instances that are re-evaluated re-run exactly
//!    the shared evaluation routine, in a valid topological order (the
//!    stored completion order; a [`MappedNetlist::stamp`] match proves
//!    the connectivity it was computed for is unchanged).
//! 2. Required-time merges replay every contribution into a recomputed
//!    net in the full pass's order (reverse completion order, each
//!    instance's slots in pin order).
//! 3. Net loads are the only other order-sensitive arithmetic, and the
//!    full and the incremental analysis sum each net through one routine
//!    ([`sum_loads`](crate::analysis::sum_loads)) over the slots, in one
//!    fixed order.
//!
//! Everything a pass touches is integer-keyed: [`Topology`] interns net
//! and pin names once, each distinct bound variant is compiled once
//! against the interned pin names, and every instance's arcs are resolved
//! into slots (input net, connection, pin and arc index, delay) that the
//! loads, levelization, evaluation and required-time passes read without
//! comparing a pin name. An update's fixed cost is re-resolving the
//! re-bound instances and linear flag scans over the stored completion
//! order; its flag arrays come from a caller-supplied
//! [`ScratchArena`](svt_exec::ScratchArena) (only the few touched nets
//! and their sinks are listed on the heap), and nothing is cloned.
//!
//! The equivalence is enforced by `tests/soa_equivalence.rs` (whole
//! states, chained updates, and a name-matching reference timer) and by
//! the `svt-eco` differential test, which compares incremental sessions
//! against full rebuilds bit-for-bit across `SVT_THREADS` settings.

use std::collections::HashMap;
use std::sync::Arc;

use svt_exec::ScratchArena;
use svt_netlist::MappedNetlist;

use crate::analysis::{
    evaluate_instance, input_conn, packed_conn, resolve_instance, sum_loads, ArcSlot, ArcStore,
    Variants, NO_PIN,
};
use crate::report::TimingReport;
use crate::{CellBinding, StaError, TimingOptions};

/// The netlist connectivity with every net name interned to a dense id,
/// plus the instance⇄net relations every timing pass walks. Built once
/// (see [`SharedTopology::build`]) and shared (via [`Arc`]) by every
/// state advanced from it. It records the [`MappedNetlist::stamp`] it was
/// interned from, so [`Topology::verify`] proves in O(1) that a netlist
/// still has this connectivity.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    /// The stamp of the netlist this topology was interned from.
    pub(crate) stamp: u64,
    /// Design name, carried so reports need no netlist back-reference.
    pub(crate) design: String,
    /// Interned net names; `net_names[id]` is the name of net `id`.
    pub(crate) net_names: Vec<String>,
    /// Net name → id, for mapping externally keyed inputs (wire caps).
    pub(crate) net_ids: HashMap<String, u32>,
    /// Interned pin names; `pin_names[id]` is the name of pin id `id`.
    pub(crate) pin_names: Vec<String>,
    /// Per instance, the net id of each `connections` entry, in order.
    pub(crate) conn_ids: Vec<Vec<u32>>,
    /// Per instance, the pin-name id of each `connections` entry: what
    /// arc resolution matches a variant's compiled pins against, and how
    /// path reports name pins without the netlist.
    pub(crate) conn_pins: Vec<Vec<u16>>,
    /// Per instance, the net id its output pin drives.
    pub(crate) out_net: Vec<u32>,
    /// Per instance, the pin-name id of its output pin: the pin role the
    /// instance⇄net relations were built with.
    pub(crate) out_pin: Vec<u16>,
    /// Per net, the driving instance (`u32::MAX` for primary inputs and
    /// undriven nets).
    pub(crate) driver_of: Vec<u32>,
    /// Per net, the sink instances in ascending order — one entry per
    /// connected *input pin*, so an instance sampling a net twice appears
    /// twice (the levelizer counts pins, not distinct nets).
    pub(crate) users_of: Vec<Vec<u32>>,
    /// Primary-output net ids, in `netlist.outputs()` order.
    pub(crate) po_ids: Vec<u32>,
    /// Per net, how often `netlist.outputs()` lists it.
    pub(crate) po_count: Vec<u32>,
    /// Per instance (CSR: `input_conns[input_offsets[i]..input_offsets[i
    /// + 1]]`), the `connections` index of each input pin of the variant
    /// the topology was built from, sorted ascending so that variants
    /// listing the same pins in another order build equal topologies. The
    /// instance⇄net relations (`users_of`) were built from exactly these
    /// connections, so arc resolution rejects a variant whose inputs sit
    /// elsewhere; `input_conns.len()` is the arc count of an analysis.
    pub(crate) input_offsets: Vec<u32>,
    pub(crate) input_conns: Vec<u16>,
}

/// Equality of what the ids mean. The stamp only names the netlist value
/// the ids were interned from, so two builds from equal netlists compare
/// equal.
impl PartialEq for Topology {
    fn eq(&self, other: &Topology) -> bool {
        self.design == other.design
            && self.net_names == other.net_names
            && self.pin_names == other.pin_names
            && self.conn_ids == other.conn_ids
            && self.conn_pins == other.conn_pins
            && self.out_net == other.out_net
            && self.out_pin == other.out_pin
            && self.driver_of == other.driver_of
            && self.users_of == other.users_of
            && self.input_offsets == other.input_offsets
            && self.input_conns == other.input_conns
            && self.po_ids == other.po_ids
    }
}

impl Eq for Topology {}

impl Topology {
    /// Interns the bound netlist. Pin roles come from the binding: the
    /// first zero-capacitance pin is the output (as everywhere else in
    /// the timer), every positive-capacitance pin is an input. Each
    /// distinct variant is compiled once against the interned pin names,
    /// so no instance compares pin names.
    pub(crate) fn build(
        netlist: &MappedNetlist,
        binding: &CellBinding,
    ) -> Result<Topology, StaError> {
        let n = netlist.instances().len();
        if binding.cells().len() != n {
            return Err(StaError::InvalidBinding {
                reason: "binding does not cover the netlist".into(),
            });
        }
        let mut net_names: Vec<String> = Vec::new();
        let mut net_ids: HashMap<String, u32> = HashMap::new();
        let mut intern = |name: &str, net_names: &mut Vec<String>| -> u32 {
            if let Some(&id) = net_ids.get(name) {
                return id;
            }
            let id = u32::try_from(net_names.len()).expect("net count fits u32");
            net_ids.insert(name.to_string(), id);
            net_names.push(name.to_string());
            id
        };

        // Deterministic id order: primary inputs, then instance
        // connections in netlist order, then primary outputs.
        for pi in netlist.inputs() {
            intern(pi, &mut net_names);
        }
        let mut conn_ids: Vec<Vec<u32>> = Vec::with_capacity(n);
        for inst in netlist.instances() {
            conn_ids.push(
                inst.connections
                    .iter()
                    .map(|(_, net)| intern(net, &mut net_names))
                    .collect(),
            );
        }
        let po_ids: Vec<u32> = netlist
            .outputs()
            .iter()
            .map(|po| intern(po, &mut net_names))
            .collect();
        let mut po_count = vec![0u32; net_names.len()];
        for &po in &po_ids {
            po_count[po as usize] += 1;
        }

        // Pin names recur across the whole design (a handful per
        // library), so a linear probe beats hashing. Ids stay below
        // `NO_PIN`, the resolution pass's "not interned" marker.
        let mut pin_names: Vec<String> = Vec::new();
        let mut conn_pins: Vec<Vec<u16>> = Vec::with_capacity(n);
        for inst in netlist.instances() {
            let mut pins = Vec::with_capacity(inst.connections.len());
            for (pin, _) in &inst.connections {
                let id = match pin_names.iter().position(|p| p == pin) {
                    Some(i) => i,
                    None => {
                        pin_names.push(pin.clone());
                        pin_names.len() - 1
                    }
                };
                pins.push(
                    u16::try_from(id)
                        .ok()
                        .filter(|&id| id != NO_PIN)
                        .ok_or_else(|| StaError::InvalidBinding {
                            reason: format!("more than {NO_PIN} distinct pin names"),
                        })?,
                );
            }
            conn_pins.push(pins);
        }

        let scratch = ScratchArena::new();
        let mut variants = Variants::new(&scratch);
        let mut out_net: Vec<u32> = Vec::with_capacity(n);
        let mut out_pin: Vec<u16> = Vec::with_capacity(n);
        let mut driver_of: Vec<u32> = vec![u32::MAX; net_names.len()];
        let mut users_of: Vec<Vec<u32>> = vec![Vec::new(); net_names.len()];
        let mut input_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        input_offsets.push(0);
        let mut input_conns: Vec<u16> = Vec::new();
        for (idx, cell) in binding.cells().iter().enumerate() {
            let missing = |reason: &str| StaError::MissingTiming {
                instance: netlist.instances()[idx].name.clone(),
                reason: reason.into(),
            };
            let (out, inputs) = variants.get(cell, &pin_names)?;
            let out = out.ok_or_else(|| missing("variant has no output pin"))?;
            let out_conn = conn_pins[idx]
                .iter()
                .position(|&p| p == out)
                .ok_or_else(|| missing("output pin unconnected"))?;
            let out_id = conn_ids[idx][out_conn];
            out_net.push(out_id);
            out_pin.push(out);
            let inst_id = u32::try_from(idx).expect("instance count fits u32");
            driver_of[out_id as usize] = inst_id;
            let first = input_conns.len();
            for &input in inputs {
                let conn = input_conn(netlist, &conn_pins[idx], idx, cell, input)?;
                users_of[conn_ids[idx][conn] as usize].push(inst_id);
                input_conns.push(packed_conn(netlist, idx, conn)?);
            }
            input_conns[first..].sort_unstable();
            input_offsets.push(u32::try_from(input_conns.len()).expect("arc count fits u32"));
        }

        Ok(Topology {
            stamp: netlist.stamp(),
            design: netlist.name().to_string(),
            net_names,
            net_ids,
            pin_names,
            conn_ids,
            conn_pins,
            out_net,
            out_pin,
            driver_of,
            users_of,
            po_ids,
            po_count,
            input_offsets,
            input_conns,
        })
    }

    /// The `connections` indices of instance `idx`'s input pins when the
    /// topology was built.
    pub(crate) fn input_conns_of(&self, idx: usize) -> &[u16] {
        let span = self.input_offsets[idx] as usize..self.input_offsets[idx + 1] as usize;
        &self.input_conns[span]
    }

    /// The pin name of one `connections` entry of one instance.
    pub(crate) fn conn_pin(&self, inst: u32, conn: u32) -> &str {
        &self.pin_names[self.conn_pins[inst as usize][conn as usize] as usize]
    }

    /// Checks that `netlist` is the one this topology was interned from
    /// or a copy of it (cell swaps allowed): an O(1) stamp comparison.
    pub(crate) fn check_stamp(&self, netlist: &MappedNetlist) -> Result<(), StaError> {
        if netlist.stamp() == self.stamp {
            Ok(())
        } else {
            Err(stale("the netlist is not the one it was analyzed from"))
        }
    }
}

/// The typed error of a state or topology that no longer fits the
/// netlist or binding it is used with.
pub(crate) fn stale(reason: &str) -> StaError {
    StaError::InvalidBinding {
        reason: format!("incremental state is stale: {reason}"),
    }
}

/// A reusable handle to the interned connectivity of one bound netlist.
///
/// Building the topology (string interning, driver/user relations) is
/// the only string-heavy step of an analysis. Callers that analyze the
/// same design repeatedly — the sign-off flow runs six corners per
/// `run()` — build it once and pass it to
/// [`analyze_full_in`](crate::analyze_full_in), which checks it as part
/// of resolving the arcs instead of rebuilding it. Cloning is an [`Arc`]
/// bump.
#[derive(Debug, Clone)]
pub struct SharedTopology(pub(crate) Arc<Topology>);

impl SharedTopology {
    /// Interns the bound netlist's connectivity.
    ///
    /// # Errors
    ///
    /// [`StaError::MissingTiming`] when a bound variant has no output
    /// pin or an input/output pin is unconnected;
    /// [`StaError::InvalidBinding`] when the binding does not cover the
    /// netlist or a variant or input connection does not fit the arc slot
    /// packing.
    pub fn build(
        netlist: &MappedNetlist,
        binding: &CellBinding,
    ) -> Result<SharedTopology, StaError> {
        Ok(SharedTopology(Arc::new(Topology::build(netlist, binding)?)))
    }

    /// Whether this topology was interned from `netlist` or a copy of it
    /// (cell swaps allowed): an O(1) [`MappedNetlist::stamp`]
    /// comparison. Pin roles are checked by the analysis itself, which
    /// answers a binding whose output pin moved with
    /// [`StaError::InvalidBinding`].
    #[must_use]
    pub fn is_for(&self, netlist: &MappedNetlist) -> bool {
        self.0.check_stamp(netlist).is_ok()
    }
}

/// A completed analysis plus the internal products needed to re-time it
/// in place: the interned net topology, the options and wire caps it
/// ran with, the canonical per-net load vector, every instance's
/// resolved arc slots with their delays (flat CSR layout), and the
/// topological completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct StaState {
    pub(crate) report: TimingReport,
    /// The options of the analysis; [`StaState::update`] re-times with
    /// the same ones.
    pub(crate) options: TimingOptions,
    /// Explicit wire caps (pF) on netlist nets, sorted by net id.
    pub(crate) wire_caps: Vec<(u32, f64)>,
    /// Net loads (pF) indexed by topology net id.
    pub(crate) loads: Vec<f64>,
    /// Loads on wire-cap nets that are not in the netlist (sorted by
    /// name). No driver can depend on them; kept only so state equality
    /// sees the full load picture.
    pub(crate) extra_loads: Vec<(String, f64)>,
    /// Every instance's resolved arcs (input net, connection, pin and
    /// arc index, delay), CSR by instance.
    pub(crate) arcs: ArcStore,
    pub(crate) completion_order: Vec<usize>,
    pub(crate) topo: Arc<Topology>,
}

/// Work accounting of one incremental update, for telemetry and for
/// asserting that a small edit really did a small amount of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Re-bound instances plus drivers of nets whose load bits changed.
    pub seed_instances: usize,
    /// Instances re-evaluated: the seeds, plus every user of a net whose
    /// arrival or slew bits changed.
    pub forward_instances: usize,
    /// Nets whose required time was recomputed: the fan-in cone of the
    /// re-evaluated instances.
    pub backward_nets: usize,
}

impl StaState {
    /// The timing report of the analysis this state captures.
    #[must_use]
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// Consumes the state, yielding just the timing report.
    #[must_use]
    pub fn into_report(self) -> TimingReport {
        self.report
    }

    /// The load (pF) the analysis summed on `net`: its sink pins, the
    /// per-fanout wire lumps, primary-output loads and explicit wire cap.
    /// `None` for a net the analysis never saw.
    #[must_use]
    pub fn load_of(&self, net: &str) -> Option<f64> {
        if let Some(&id) = self.topo.net_ids.get(net) {
            return Some(self.loads[id as usize]);
        }
        self.extra_loads
            .iter()
            .find(|(name, _)| name == net)
            .map(|&(_, load)| load)
    }

    /// Instance indices in the order the levelized forward pass resolved
    /// them — a topological order of the instance graph, valid for any
    /// edit that keeps connectivity (cell swaps, moves, resizes).
    #[must_use]
    pub fn completion_order(&self) -> &[usize] {
        &self.completion_order
    }

    /// Re-times this state in place after an edit re-bound the listed
    /// instances in `binding`, with the options and wire caps of the
    /// analysis that produced it. Afterwards the state equals a
    /// from-scratch [`analyze_full`](crate::analyze_full) of the edited
    /// binding bit for bit.
    ///
    /// `changed_instances` must list every instance whose bound variant
    /// changed (duplicates are fine; an unlisted one keeps the arcs
    /// resolved for its previous variant, and nothing below holds for
    /// it); instances whose *load* changed —
    /// e.g. the driver of a net whose sink pin capacitances moved with a
    /// cell swap — are found by bit-diffing the loads of the nets the
    /// re-bound instances sample. `netlist` must be the analyzed netlist
    /// or a copy of it (cell swaps allowed), which its
    /// [`MappedNetlist::stamp`] proves in O(1).
    ///
    /// The re-bound instances' arcs are re-resolved while checking, and
    /// every check runs before the first write, so an `Err` leaves the
    /// state exactly as it was; `scratch` holds the temporaries.
    ///
    /// # Errors
    ///
    /// * [`StaError::InvalidBinding`] when the binding does not cover the
    ///   netlist, the netlist is not the analyzed one, a changed index is
    ///   out of range, a re-bound variant changed pin roles (its output
    ///   pin or the connections its input pins sit on) or does not fit the
    ///   arc slot packing,
    /// * [`StaError::MissingTiming`] when a re-bound variant has no
    ///   output pin or no input pin, or an input pin that is unconnected
    ///   or lacks an arc.
    #[allow(clippy::too_many_lines)]
    pub fn update(
        &mut self,
        netlist: &MappedNetlist,
        binding: &CellBinding,
        changed_instances: &[usize],
        scratch: &ScratchArena,
    ) -> Result<IncrementalStats, StaError> {
        let _span = svt_obs::span("sta.update");
        let topo = Arc::clone(&self.topo);
        let n = topo.out_net.len();
        topo.check_stamp(netlist)?;
        if binding.cells().len() != n {
            return Err(StaError::InvalidBinding {
                reason: "binding does not cover the netlist".into(),
            });
        }
        // `dirty` starts as the seed set; the forward pass extends it to
        // exactly the instances it re-evaluates.
        let dirty: &mut [bool] = scratch.alloc_slice_fill(n, false);
        // Check phase: re-resolve each re-bound instance's arcs. Resolution
        // checks that they sit on the connections the topology recorded,
        // as the stored slots do, so the instance⇄net relations and the
        // CSR layout still hold.
        let mut variants = Variants::new(scratch);
        let mut seeds: Vec<usize> = Vec::new();
        let mut resolved: Vec<ArcSlot> = Vec::new();
        for &idx in changed_instances {
            if idx >= n {
                return Err(StaError::InvalidBinding {
                    reason: format!("changed instance index {idx} out of range"),
                });
            }
            if dirty[idx] {
                continue;
            }
            let cell = &binding.cells()[idx];
            let (out, inputs) = variants.get(cell, &topo.pin_names)?;
            resolve_instance(netlist, &topo, idx, cell, out, inputs, &mut resolved)?;
            dirty[idx] = true;
            seeds.push(idx);
        }

        // Checks done; from here on nothing fails. Store the re-resolved
        // arcs; a net they sample whose load bits moved re-times its
        // driver (delay and slew read the output load).
        let mut seed_instances = seeds.len();
        let mut touched: Vec<u32> = Vec::with_capacity(resolved.len());
        let mut rest = resolved.as_slice();
        for &idx in &seeds {
            let slot = self.arcs.of_mut(idx);
            let (mine, tail) = rest.split_at(slot.len());
            slot.copy_from_slice(mine);
            rest = tail;
            touched.extend(mine.iter().map(|a| a.net));
        }
        touched.sort_unstable();
        touched.dedup();
        let before: Vec<f64> = touched
            .iter()
            .map(|&net| self.loads[net as usize])
            .collect();
        sum_loads(
            binding,
            &self.options,
            &topo,
            &self.arcs,
            &self.wire_caps,
            Some(&touched),
            &mut self.loads,
        );
        for (&net, old) in touched.iter().zip(before) {
            if self.loads[net as usize].to_bits() == old.to_bits() {
                continue;
            }
            let d = topo.driver_of[net as usize];
            if d != u32::MAX && !dirty[d as usize] {
                dirty[d as usize] = true;
                seed_instances += 1;
            }
        }

        // Forward: one pass in the stored topological order. An instance
        // is re-evaluated when flagged, and flags its users only when its
        // output arrival or slew changed bits: everything else reads
        // bit-identical inputs, so its stored timing is the answer.
        let mut forward_instances = 0usize;
        for &idx in &self.completion_order {
            if !dirty[idx] {
                continue;
            }
            forward_instances += 1;
            let out_id = topo.out_net[idx] as usize;
            let report = &mut self.report;
            let out = evaluate_instance(
                binding.cell(idx),
                idx,
                self.arcs.of_mut(idx),
                self.loads[out_id],
                &report.arrival,
                &report.slew,
                self.options.mode,
            );
            let moved = out.arrival_ns.to_bits() != report.arrival[out_id].to_bits()
                || out.slew_ns.to_bits() != report.slew[out_id].to_bits();
            report.arrival[out_id] = out.arrival_ns;
            report.slew[out_id] = out.slew_ns;
            report.from[out_id] = out.from;
            if moved {
                for &u in &topo.users_of[out_id] {
                    dirty[u as usize] = true;
                }
            }
        }

        // Backward: required times can change on the inputs of
        // re-evaluated instances, closed transitively upstream. One
        // reversed pass computes the closure: consumers of a net appear
        // before its driver in reversed topological order, so membership
        // is settled before the driver's inputs are considered.
        let mut backward_nets = 0usize;
        if let Some(period) = self.options.clock_period_ns {
            let in_cone: &mut [bool] = scratch.alloc_slice_fill(topo.net_names.len(), false);
            for &idx in self.completion_order.iter().rev() {
                if dirty[idx] || in_cone[topo.out_net[idx] as usize] {
                    for arc in self.arcs.of(idx) {
                        in_cone[arc.net as usize] = true;
                    }
                }
            }

            // Reset cone members to their boundary condition, then replay
            // the min-merge contributions in the full pass's order — only
            // into the cone; everything outside it keeps bit-identical
            // contributions.
            let report = &mut self.report;
            for (id, &inside) in in_cone.iter().enumerate() {
                if !inside {
                    continue;
                }
                backward_nets += 1;
                let is_po = topo.po_count[id] > 0;
                report.required[id] = if is_po { period } else { 0.0 };
                report.has_required[id] = is_po;
            }
            for &idx in self.completion_order.iter().rev() {
                let out_id = topo.out_net[idx] as usize;
                if !report.has_required[out_id] {
                    continue; // net drives nothing timed
                }
                let r_out = report.required[out_id];
                for arc in self.arcs.of(idx) {
                    let i = arc.net as usize;
                    if !in_cone[i] {
                        continue;
                    }
                    let candidate = r_out - arc.delay;
                    if report.has_required[i] {
                        report.required[i] = report.required[i].min(candidate);
                    } else {
                        report.has_required[i] = true;
                        report.required[i] = candidate;
                    }
                }
            }
        }

        svt_obs::counter!("sta.incremental.updates").add(1);
        svt_obs::counter!("sta.incremental.forward_instances").add(forward_instances as u64);
        svt_obs::counter!("sta.incremental.backward_nets").add(backward_nets as u64);
        Ok(IncrementalStats {
            seed_instances,
            forward_instances,
            backward_nets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_full, AnalysisMode};
    use svt_netlist::{bench, generate_benchmark, technology_map, BenchmarkProfile};
    use svt_stdcell::Library;

    fn c432() -> (MappedNetlist, Library) {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        (technology_map(&n, &lib).unwrap(), lib)
    }

    fn assert_states_bit_identical(a: &StaState, b: &StaState) {
        assert_eq!(a.topo.net_names, b.topo.net_names, "interning order");
        let nn = a.topo.net_names.len();
        assert_eq!(a.report.arrival.len(), nn);
        assert_eq!(b.report.arrival.len(), nn);
        for id in 0..nn {
            let net = &a.topo.net_names[id];
            assert_eq!(
                a.report.arrival[id].to_bits(),
                b.report.arrival[id].to_bits(),
                "arrival of `{net}`"
            );
            assert_eq!(
                a.report.slew[id].to_bits(),
                b.report.slew[id].to_bits(),
                "slew of `{net}`"
            );
            assert_eq!(
                a.report.from[id], b.report.from[id],
                "winner arc of `{net}`"
            );
        }
        assert_eq!(a.report.has_required, b.report.has_required);
        assert_eq!(a.report.required.len(), b.report.required.len());
        for id in 0..a.report.required.len() {
            if a.report.has_required[id] {
                assert_eq!(
                    a.report.required[id].to_bits(),
                    b.report.required[id].to_bits(),
                    "required of `{}`",
                    a.topo.net_names[id]
                );
            }
        }
        assert_eq!(a.loads.len(), b.loads.len());
        for (id, l) in a.loads.iter().enumerate() {
            assert_eq!(
                l.to_bits(),
                b.loads[id].to_bits(),
                "load of `{}`",
                a.topo.net_names[id]
            );
        }
        assert_eq!(a.extra_loads, b.extra_loads);
        assert_eq!(a.arcs.offsets, b.arcs.offsets);
        assert_eq!(a.arcs.data.len(), b.arcs.data.len());
        for (x, y) in a.arcs.data.iter().zip(&b.arcs.data) {
            assert_eq!((x.net, x.conn, x.pin, x.arc), (y.net, y.conn, y.pin, y.arc));
            assert_eq!(x.delay.to_bits(), y.delay.to_bits());
        }
        assert_eq!(a, b, "whole state");
    }

    #[test]
    fn rebinding_one_instance_matches_full_reanalysis() {
        let (m, lib) = c432();
        let opts = TimingOptions {
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::uniform_scaled(&m, &lib, 90.0).unwrap();
        let base = analyze_full(&m, &binding, &opts).unwrap();

        // Slow down one mid-design instance to the worst corner.
        let idx = m.instances().len() / 2;
        let cell_name = m.instances()[idx].cell.clone();
        let slow = CellBinding::uniform_scaled_cell(&lib, &cell_name, 99.0).unwrap();
        binding.replace(&m, idx, slow).unwrap();

        let mut incr = base;
        let stats = incr
            .update(&m, &binding, &[idx], &ScratchArena::new())
            .unwrap();
        let full = analyze_full(&m, &binding, &opts).unwrap();
        assert_states_bit_identical(&incr, &full);
        assert!(stats.seed_instances >= 1);
        assert!(
            stats.forward_instances < m.instances().len(),
            "a mid-design edit must not re-time the whole chip \
             ({} of {})",
            stats.forward_instances,
            m.instances().len()
        );
    }

    #[test]
    fn load_change_dirties_the_upstream_driver() {
        // z = NAND(a, y), y = NOT(x), x = NOT(a): swapping the variant
        // bound to the NAND changes its input pin caps, which loads nets
        // `a` and `y` differently — net `y`'s driver (the second
        // inverter) must be re-timed even though it was not edited.
        let lib = Library::svt90();
        let n =
            bench::parse("# skew\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NAND(a, y)\n")
                .unwrap();
        let m = technology_map(&n, &lib).unwrap();
        let opts = TimingOptions {
            clock_period_ns: Some(2.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = analyze_full(&m, &binding, &opts).unwrap();

        let nand_idx = m
            .instances()
            .iter()
            .position(|i| i.cell == "NAND2X1")
            .unwrap();
        // Corner scaling keeps pin caps, so synthesize a variant with
        // heavier input pins to exercise the load-diff path.
        let mut slow = CellBinding::uniform_scaled_cell(&lib, "NAND2X1", 99.0).unwrap();
        for pin in &mut slow.pins {
            if pin.capacitance_pf > 0.0 {
                pin.capacitance_pf *= 1.25;
            }
        }
        binding.replace(&m, nand_idx, slow).unwrap();

        let mut incr = base;
        let stats = incr
            .update(&m, &binding, &[nand_idx], &ScratchArena::new())
            .unwrap();
        let full = analyze_full(&m, &binding, &opts).unwrap();
        assert_states_bit_identical(&incr, &full);
        assert!(
            stats.seed_instances >= 2,
            "load diff must seed the upstream driver too: {stats:?}"
        );
    }

    #[test]
    fn empty_edit_is_a_bit_identical_no_op() {
        let (m, lib) = c432();
        let opts = TimingOptions::default();
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = analyze_full(&m, &binding, &opts).unwrap();
        let mut incr = base.clone();
        let stats = incr
            .update(&m, &binding, &[], &ScratchArena::new())
            .unwrap();
        assert_states_bit_identical(&incr, &base);
        assert_eq!(stats, IncrementalStats::default());
    }

    #[test]
    fn scratch_reuse_across_updates_is_bit_identical() {
        // The ECO path drives many updates through one arena; warm
        // reuse must not perturb results, and an edit followed by its
        // undo must land back on the base state.
        let (m, lib) = c432();
        let opts = TimingOptions {
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::uniform_scaled(&m, &lib, 90.0).unwrap();
        let base = analyze_full(&m, &binding, &opts).unwrap();
        let mut state = base.clone();
        let mut scratch = ScratchArena::new();
        for idx in [3usize, 17, 101] {
            let cell_name = m.instances()[idx].cell.clone();
            let slow = CellBinding::uniform_scaled_cell(&lib, &cell_name, 99.0).unwrap();
            binding.replace(&m, idx, slow).unwrap();
            state.update(&m, &binding, &[idx], &scratch).unwrap();
            scratch.reset();
            assert_states_bit_identical(&state, &analyze_full(&m, &binding, &opts).unwrap());
            let nominal = CellBinding::uniform_scaled_cell(&lib, &cell_name, 90.0).unwrap();
            binding.replace(&m, idx, nominal).unwrap();
            state.update(&m, &binding, &[idx], &scratch).unwrap();
            scratch.reset();
            assert_states_bit_identical(&state, &base);
        }
    }

    #[test]
    fn early_mode_cones_match_full() {
        let (m, lib) = c432();
        let opts = TimingOptions {
            mode: AnalysisMode::Early,
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let mut binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = analyze_full(&m, &binding, &opts).unwrap();
        let idx = 7;
        let fast =
            CellBinding::uniform_scaled_cell(&lib, &m.instances()[idx].cell.clone(), 81.0).unwrap();
        binding.replace(&m, idx, fast).unwrap();
        let mut incr = base;
        incr.update(&m, &binding, &[idx], &ScratchArena::new())
            .unwrap();
        let full = analyze_full(&m, &binding, &opts).unwrap();
        assert_states_bit_identical(&incr, &full);
    }

    #[test]
    fn stale_state_is_rejected_untouched() {
        let (m, lib) = c432();
        let opts = TimingOptions::default();
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let base = analyze_full(&m, &binding, &opts).unwrap();
        let mut state = base.clone();
        let scratch = ScratchArena::new();
        let stale = |r: Result<IncrementalStats, StaError>| {
            matches!(r, Err(StaError::InvalidBinding { .. }))
        };
        // A different netlist cannot reuse this state...
        let other = {
            let n = bench::parse("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
            technology_map(&n, &lib).unwrap()
        };
        let other_binding = CellBinding::nominal(&other, &lib).unwrap();
        assert!(stale(state.update(&other, &other_binding, &[], &scratch)));
        // ...not even an equal one mapped anew: the stamp tells them apart.
        let twin = {
            let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
            technology_map(&n, &lib).unwrap()
        };
        assert_eq!(twin, m);
        assert!(stale(state.update(&twin, &binding, &[], &scratch)));
        let topo = SharedTopology(Arc::clone(&base.topo));
        assert!(!topo.is_for(&twin));
        assert!(topo.is_for(&m.clone()));
        // A clone of the analyzed netlist can.
        state.update(&m.clone(), &binding, &[], &scratch).unwrap();
        // Out-of-range seed, and a binding that does not cover the netlist.
        assert!(stale(state.update(&m, &binding, &[usize::MAX], &scratch)));
        assert!(stale(state.update(&m, &other_binding, &[], &scratch)));
        assert_eq!(state, base, "a rejected update writes nothing");
    }
}
