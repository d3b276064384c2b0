use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use svt_exec::ScratchArena;
use svt_netlist::MappedNetlist;
use svt_stdcell::{CharacterizedCell, Library, Pin};

use crate::incremental::{stale, SharedTopology, StaState, Topology};
use crate::report::{FromRef, TimingReport};
use crate::{CellBinding, StaError};

/// Late (setup, max-arrival) or early (hold, min-arrival) analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnalysisMode {
    /// Max arrivals, worst (largest) slews — the sign-off default.
    #[default]
    Late,
    /// Min arrivals, best (smallest) slews.
    Early,
}

/// Boundary conditions and parasitic assumptions of an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingOptions {
    /// Transition time driven into every primary input (ns).
    pub primary_input_slew_ns: f64,
    /// Capacitive load on every primary output (pF).
    pub output_load_pf: f64,
    /// Lumped wire capacitance added per fanout (pF).
    pub wire_cap_per_fanout_pf: f64,
    /// Analysis mode.
    pub mode: AnalysisMode,
    /// Clock period for required-time and slack computation; `None` skips
    /// the backward pass (meaningful in late mode).
    pub clock_period_ns: Option<f64>,
}

impl Default for TimingOptions {
    fn default() -> TimingOptions {
        TimingOptions {
            primary_input_slew_ns: 0.05,
            output_load_pf: 0.004,
            wire_cap_per_fanout_pf: 0.0006,
            mode: AnalysisMode::Late,
            clock_period_ns: None,
        }
    }
}

/// Runs static timing analysis on a bound netlist.
///
/// Levelized propagation: nets driven by primary inputs start at arrival 0
/// with the boundary slew; every instance is evaluated once all its input
/// nets are resolved; each arc contributes `arrival(input) + delay(slew,
/// load)`; arrivals and slews merge by max (late) or min (early).
///
/// # Errors
///
/// * [`StaError::InvalidOptions`] for non-positive boundary conditions,
/// * [`StaError::CombinationalCycle`] if the netlist cannot be levelized,
/// * [`StaError::MissingTiming`] when a bound variant lacks an arc for a
///   connected input pin.
pub fn analyze(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
) -> Result<TimingReport, StaError> {
    analyze_with_wire_caps(netlist, binding, options, &HashMap::new())
}

/// Like [`analyze`], with explicit per-net wire capacitances (pF) added on
/// top of the per-fanout lump — the hook for placement-extracted
/// parasitics (see `svt_core::hpwl_wire_caps`). Nets absent from the map
/// get only the per-fanout lump.
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_with_wire_caps(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
    wire_caps_pf: &HashMap<String, f64>,
) -> Result<TimingReport, StaError> {
    analyze_full_with_wire_caps(netlist, binding, options, wire_caps_pf).map(StaState::into_report)
}

/// Like [`analyze`], but returns the full [`StaState`] (report plus the
/// net loads, per-arc delays, and completion order) so the analysis can
/// later be re-timed in place with [`StaState::update`].
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_full(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
) -> Result<StaState, StaError> {
    analyze_full_with_wire_caps(netlist, binding, options, &HashMap::new())
}

/// [`analyze_full`] with explicit per-net wire capacitances (pF).
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_full_with_wire_caps(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
    wire_caps_pf: &HashMap<String, f64>,
) -> Result<StaState, StaError> {
    validate(netlist, binding, options)?;
    let topo = Arc::new(Topology::build(netlist, binding)?);
    let scratch = ScratchArena::new();
    analyze_soa(netlist, binding, options, wire_caps_pf, &topo, &scratch)
}

/// [`analyze_full`] against a pre-built [`SharedTopology`] and a
/// caller-provided [`ScratchArena`] — the hot-path entry point. The
/// topology is checked rather than rebuilt: an O(1) stamp comparison,
/// then the arc-resolution pass compares each instance's output pin with
/// the recorded one (an integer compare, folded into the pass every
/// analysis runs anyway). The pass's temporaries are carved from
/// `scratch` instead of the heap, so repeated warm analyses of the same
/// design (the six sign-off corners) allocate only their result vectors.
///
/// # Errors
///
/// As [`analyze`], plus [`StaError::InvalidBinding`] when
/// `netlist`/`binding` no longer match `topo` (another netlist, or an
/// output pin that moved).
pub fn analyze_full_in(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
    topo: &SharedTopology,
    scratch: &ScratchArena,
) -> Result<StaState, StaError> {
    validate(netlist, binding, options)?;
    topo.0.check_stamp(netlist)?;
    analyze_soa(netlist, binding, options, &HashMap::new(), &topo.0, scratch)
}

/// The shared SoA analysis core: one arc-resolution pass, the net loads,
/// levelized forward propagation over flat id-indexed lanes, then the
/// backward required-time pass — all over the resolved arc slots, with
/// no pin name compared. Temporaries (readiness counts, the pending
/// stack, resolve flags, the variant table) live in `scratch`; only the
/// result vectors are heap-allocated.
fn analyze_soa(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
    wire_caps_pf: &HashMap<String, f64>,
    topo: &Arc<Topology>,
    scratch: &ScratchArena,
) -> Result<StaState, StaError> {
    let _span = svt_obs::span("sta.analyze");
    // Marks the start of one STA wave on the Chrome timeline, so the
    // per-corner analyses inside a parallel batch are tellable apart.
    svt_obs::instant("sta.wave");
    let n = netlist.instances().len();
    let net_count = topo.net_names.len();
    let (wire_caps, extra_loads) = intern_wire_caps(wire_caps_pf, topo)?;
    let mut arcs = resolve_arcs(netlist, binding, topo, scratch)?;
    let mut loads = vec![0.0_f64; net_count];
    sum_loads(binding, options, topo, &arcs, &wire_caps, None, &mut loads);

    // Net timing state: one lane per quantity, indexed by net id.
    let mut arrival = vec![0.0_f64; net_count];
    let mut slew = vec![0.0_f64; net_count];
    let mut from = vec![FromRef::NONE; net_count];
    let resolved: &mut [bool] = scratch.alloc_slice_fill(net_count, false);
    for pi in netlist.inputs() {
        if let Some(&id) = topo.net_ids.get(pi) {
            arrival[id as usize] = 0.0;
            slew[id as usize] = options.primary_input_slew_ns;
            resolved[id as usize] = true;
        }
    }

    // Levelize instances by input readiness (Kahn's algorithm over the
    // instance graph): an instance waits for one net per arc.
    let pending: &mut [u32] = scratch.alloc_slice_fill(n, 0u32);
    let mut pending_len = 0usize;
    let unresolved: &mut [u32] = scratch.alloc_slice_fill(n, 0u32);
    for (idx, waiting) in unresolved.iter_mut().enumerate() {
        let count = arcs
            .of(idx)
            .iter()
            .filter(|a| !resolved[a.net as usize])
            .count();
        *waiting = u32::try_from(count).expect("arc count fits u32");
        if count == 0 {
            pending[pending_len] = u32::try_from(idx).expect("instance count fits u32");
            pending_len += 1;
        }
    }

    let mut evaluated = 0usize;
    let mut completion_order: Vec<usize> = Vec::with_capacity(n);
    while pending_len > 0 {
        pending_len -= 1;
        let idx = pending[pending_len] as usize;
        evaluated += 1;
        completion_order.push(idx);
        let out_id = topo.out_net[idx] as usize;
        let out = evaluate_instance(
            binding.cell(idx),
            idx,
            arcs.of_mut(idx),
            loads[out_id],
            &arrival,
            &slew,
            options.mode,
        );
        arrival[out_id] = out.arrival_ns;
        slew[out_id] = out.slew_ns;
        from[out_id] = out.from;
        for &u in &topo.users_of[out_id] {
            unresolved[u as usize] -= 1;
            if unresolved[u as usize] == 0 {
                pending[pending_len] = u;
                pending_len += 1;
            }
        }
    }

    if evaluated != n {
        // Some instance never became ready: a cycle.
        let stuck = netlist
            .instances()
            .iter()
            .enumerate()
            .find(|(i, _)| unresolved[*i] > 0)
            .map(|(_, inst)| inst.name.clone())
            .unwrap_or_default();
        return Err(StaError::CombinationalCycle { net: stuck });
    }

    // Backward required-time pass (late mode) against the clock period.
    let mut required: Vec<f64> = Vec::new();
    let mut has_required: Vec<bool> = Vec::new();
    if let Some(period) = options.clock_period_ns {
        required = vec![0.0; net_count];
        has_required = vec![false; net_count];
        for &po in &topo.po_ids {
            let id = po as usize;
            if has_required[id] {
                required[id] = required[id].min(period);
            } else {
                has_required[id] = true;
                required[id] = period;
            }
        }
        for &idx in completion_order.iter().rev() {
            let out_id = topo.out_net[idx] as usize;
            if !has_required[out_id] {
                continue; // net drives nothing timed
            }
            let r_out = required[out_id];
            for arc in arcs.of(idx) {
                let candidate = r_out - arc.delay;
                let i = arc.net as usize;
                if has_required[i] {
                    required[i] = required[i].min(candidate);
                } else {
                    has_required[i] = true;
                    required[i] = candidate;
                }
            }
        }
    }

    let report = TimingReport::from_soa(
        Arc::clone(topo),
        options.mode,
        arrival,
        slew,
        from,
        required,
        has_required,
    );
    Ok(StaState {
        report,
        options: *options,
        wire_caps,
        loads,
        extra_loads,
        arcs,
        completion_order,
        topo: Arc::clone(topo),
    })
}

/// Boundary-condition and binding-shape checks shared by the full and
/// incremental analyses.
pub(crate) fn validate(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    options: &TimingOptions,
) -> Result<(), StaError> {
    if options.primary_input_slew_ns <= 0.0
        || options.output_load_pf < 0.0
        || options.wire_cap_per_fanout_pf < 0.0
    {
        return Err(StaError::InvalidOptions {
            reason: "boundary slew must be positive and loads non-negative".into(),
        });
    }
    if binding.cells().len() != netlist.instances().len() {
        return Err(StaError::InvalidBinding {
            reason: "binding does not cover the netlist".into(),
        });
    }
    Ok(())
}

/// Splits explicit wire caps (pF) into the ones on netlist nets, sorted
/// by net id, and the ones on nets outside the netlist, sorted by name —
/// nothing in the design can observe the latter.
#[allow(clippy::type_complexity)]
fn intern_wire_caps(
    wire_caps_pf: &HashMap<String, f64>,
    topo: &Topology,
) -> Result<(Vec<(u32, f64)>, Vec<(String, f64)>), StaError> {
    let mut inside: Vec<(u32, f64)> = Vec::new();
    let mut extra: Vec<(String, f64)> = Vec::new();
    for (net, &cap) in wire_caps_pf {
        if cap < 0.0 {
            return Err(StaError::InvalidOptions {
                reason: format!("negative wire cap on net `{net}`"),
            });
        }
        match topo.net_ids.get(net) {
            Some(&id) => inside.push((id, cap)),
            None => extra.push((net.clone(), cap)),
        }
    }
    inside.sort_by_key(|&(id, _)| id);
    extra.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((inside, extra))
}

/// One resolved timing arc of an instance: everything a timing pass needs
/// to read it with integer indexing only. The resolution pass fills all
/// but `delay`, which evaluation writes and the required-time pass reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArcSlot {
    /// Arc delay (ns) of the last evaluation.
    pub delay: f64,
    /// Topology id of the net the arc's input pin samples.
    pub net: u32,
    /// Index of the input pin's entry in the instance's `connections`.
    pub conn: u16,
    /// Index of the input pin in the bound variant's `pins`.
    pub pin: u8,
    /// Index of the pin's arc in the bound variant's `arcs`.
    pub arc: u8,
}

// The resolved slot costs what the `(net, delay)` pair it replaced did.
const _: () = assert!(std::mem::size_of::<ArcSlot>() == 16);

/// The resolved arcs of every instance in CSR layout: instance `i`'s arcs
/// are `data[offsets[i]..offsets[i + 1]]`, one per input pin of its bound
/// variant, in the variant's pin order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArcStore {
    /// Length `instances + 1`.
    pub offsets: Vec<u32>,
    pub data: Vec<ArcSlot>,
}

impl ArcStore {
    /// Instance `idx`'s arcs.
    pub(crate) fn of(&self, idx: usize) -> &[ArcSlot] {
        &self.data[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }

    /// Instance `idx`'s arcs, writable.
    pub(crate) fn of_mut(&mut self, idx: usize) -> &mut [ArcSlot] {
        &mut self.data[self.offsets[idx] as usize..self.offsets[idx + 1] as usize]
    }
}

/// Interned-name sentinel: a pin name no connection uses, so no instance
/// connects it. [`Topology`] keeps real pin-name ids below it.
pub(crate) const NO_PIN: u16 = u16::MAX;

/// Arc-index sentinel of a compiled input pin that has no arc.
const NO_ARC: u8 = u8::MAX;

/// One input pin of a compiled variant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InputPin {
    /// Index in the variant's `pins`.
    pin: u8,
    /// Interned pin-name id ([`NO_PIN`] when no connection uses the name).
    name: u16,
    /// Index of the pin's arc in the variant's `arcs` ([`NO_ARC`]: none).
    arc: u8,
}

/// The distinct variants of a binding, each compiled once against the
/// topology's interned pin names: its output pin's id and, in pin order,
/// each input pin's index, name id and arc index. Variants are told apart
/// by `Arc` address through an open-addressing table carved from scratch,
/// so resolving an instance costs one probe plus `u16` compares against
/// its interned connection pins — whether the binding shares one `Arc`
/// per master or clones every variant.
pub(crate) struct Variants<'s> {
    scratch: &'s ScratchArena,
    /// `Arc` address per table slot; 0 marks a free slot.
    keys: &'s mut [usize],
    /// Variant id per table slot.
    ids: &'s mut [u32],
    /// Per variant: its output pin's name id (`None`: no output pin).
    out: Vec<Option<u16>>,
    /// CSR offsets of each variant's input pins in `inputs`.
    offsets: Vec<u32>,
    inputs: Vec<InputPin>,
}

impl<'s> Variants<'s> {
    pub(crate) fn new(scratch: &'s ScratchArena) -> Variants<'s> {
        const START: usize = 64;
        Variants {
            scratch,
            keys: scratch.alloc_slice_fill(START, 0usize),
            ids: scratch.alloc_slice_fill(START, 0u32),
            out: Vec::new(),
            offsets: vec![0],
            inputs: Vec::new(),
        }
    }

    /// The compiled form of `cell` — output pin id and input pins —
    /// compiling it against `pin_names` on first sight.
    ///
    /// # Errors
    ///
    /// [`StaError::InvalidBinding`] when the variant does not fit the
    /// [`ArcSlot`] packing (more than 256 pins or 255 arcs).
    pub(crate) fn get(
        &mut self,
        cell: &Arc<CharacterizedCell>,
        pin_names: &[String],
    ) -> Result<(Option<u16>, &[InputPin]), StaError> {
        let key = Arc::as_ptr(cell) as usize;
        let id = match self.probe(key) {
            Ok(id) => id,
            Err(free) => {
                let id = u32::try_from(self.out.len()).expect("variant count fits u32");
                self.compile(cell, pin_names)?;
                self.keys[free] = key;
                self.ids[free] = id;
                if 2 * self.out.len() > self.keys.len() {
                    self.grow();
                }
                id
            }
        } as usize;
        let inputs = &self.inputs[self.offsets[id] as usize..self.offsets[id + 1] as usize];
        Ok((self.out[id], inputs))
    }

    /// `Ok(id)` of a known key, else `Err(slot)` of the free table slot
    /// the key would take.
    fn probe(&self, key: usize) -> Result<u32, usize> {
        let mask = self.keys.len() - 1;
        let mut i = Self::home(key, mask);
        loop {
            match self.keys[i] {
                0 => return Err(i),
                k if k == key => return Ok(self.ids[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Fibonacci hash of an address: its high product bits mix the
    /// (always zero) alignment bits away.
    fn home(key: usize, mask: usize) -> usize {
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Doubles the table into a fresh scratch carve-out, keeping it at
    /// most half full.
    fn grow(&mut self) {
        let cap = 2 * self.keys.len();
        let keys = std::mem::replace(&mut self.keys, self.scratch.alloc_slice_fill(cap, 0));
        let ids = std::mem::replace(&mut self.ids, self.scratch.alloc_slice_fill(cap, 0));
        for (&key, &id) in keys.iter().zip(ids.iter()).filter(|(&key, _)| key != 0) {
            if let Err(free) = self.probe(key) {
                self.keys[free] = key;
                self.ids[free] = id;
            }
        }
    }

    fn compile(&mut self, cell: &CharacterizedCell, pin_names: &[String]) -> Result<(), StaError> {
        let interned = |name: &str| {
            pin_names
                .iter()
                .position(|p| p == name)
                .map_or(NO_PIN, |i| {
                    u16::try_from(i).expect("Topology keeps pin-name ids below NO_PIN")
                })
        };
        let too_wide = || StaError::InvalidBinding {
            reason: format!(
                "variant `{}` does not fit the arc slot packing ({} pins, {} arcs; \
                 at most 256 pins and 255 arcs)",
                cell.variant_name,
                cell.pins.len(),
                cell.arcs.len()
            ),
        };
        for (p, pin) in cell.pins.iter().enumerate() {
            if pin.capacitance_pf <= 0.0 {
                continue;
            }
            let arc = match cell.arcs.iter().position(|a| a.from_pin == pin.name) {
                Some(a) => u8::try_from(a).ok().filter(|&a| a != NO_ARC),
                None => Some(NO_ARC),
            };
            let (Ok(p), Some(arc)) = (u8::try_from(p), arc) else {
                return Err(too_wide());
            };
            self.inputs.push(InputPin {
                pin: p,
                name: interned(&pin.name),
                arc,
            });
        }
        self.out.push(output_pin(cell).map(|p| interned(&p.name)));
        self.offsets
            .push(u32::try_from(self.inputs.len()).expect("input pin count fits u32"));
        Ok(())
    }
}

/// The `connections` index of a compiled input pin of instance `idx`.
///
/// # Errors
///
/// [`StaError::MissingTiming`] when no connection uses the pin's name.
pub(crate) fn input_conn(
    netlist: &MappedNetlist,
    conn_pins: &[u16],
    idx: usize,
    cell: &CharacterizedCell,
    input: InputPin,
) -> Result<usize, StaError> {
    conn_pins
        .iter()
        .position(|&p| p == input.name)
        .ok_or_else(|| StaError::MissingTiming {
            instance: netlist.instances()[idx].name.clone(),
            reason: format!(
                "input pin `{}` unconnected",
                cell.pins[usize::from(input.pin)].name
            ),
        })
}

/// Resolves instance `idx`'s arcs from its variant's compiled pins
/// (`out`, `inputs`): checks that the variant drives the topology's
/// recorded output pin and that every input pin is connected and has an
/// arc, then pushes one [`ArcSlot`] per input pin, in pin order, with a
/// zero delay. Last it checks that the inputs sit on the connections the
/// topology recorded for the instance (as a multiset): the levelizer
/// counts an instance's inputs through its slots but releases them
/// through the topology's `users_of`, so the two must agree.
///
/// # Errors
///
/// [`StaError::InvalidBinding`] when the output pin moved or the input
/// connections differ from the recorded ones (the topology is stale), or
/// a connection index does not fit the packing;
/// [`StaError::MissingTiming`] when the variant has no output or no input
/// pin, or an input pin is unconnected or lacks an arc.
pub(crate) fn resolve_instance(
    netlist: &MappedNetlist,
    topo: &Topology,
    idx: usize,
    cell: &CharacterizedCell,
    out: Option<u16>,
    inputs: &[InputPin],
    slots: &mut Vec<ArcSlot>,
) -> Result<(), StaError> {
    let missing = |reason: String| StaError::MissingTiming {
        instance: netlist.instances()[idx].name.clone(),
        reason,
    };
    match out {
        None => return Err(missing("variant has no output pin".into())),
        Some(out) if out != topo.out_pin[idx] => {
            return Err(stale(&format!(
                "output pin of `{}` moved",
                netlist.instances()[idx].name
            )))
        }
        Some(_) => {}
    }
    if inputs.is_empty() {
        return Err(missing("no input pins".into()));
    }
    for &input in inputs {
        let conn = input_conn(netlist, &topo.conn_pins[idx], idx, cell, input)?;
        if input.arc == NO_ARC {
            let pin = &cell.pins[usize::from(input.pin)].name;
            return Err(missing(format!("no arc from pin `{pin}`")));
        }
        slots.push(ArcSlot {
            delay: 0.0,
            net: topo.conn_ids[idx][conn],
            conn: packed_conn(netlist, idx, conn)?,
            pin: input.pin,
            arc: input.arc,
        });
    }
    // A library variant's inputs usually resolve in connection order;
    // otherwise equal lengths and equal multiplicities of every resolved
    // connection mean equal multisets (a variant may repeat a pin name).
    let recorded = topo.input_conns_of(idx);
    let resolved = &slots[slots.len() - inputs.len()..];
    let conns = || resolved.iter().map(|s| s.conn);
    let same = conns().eq(recorded.iter().copied())
        || (resolved.len() == recorded.len()
            && conns().all(|conn| {
                conns().filter(|&c| c == conn).count()
                    == recorded.iter().filter(|&&r| r == conn).count()
            }));
    if !same {
        return Err(stale(&format!(
            "input pins of `{}` changed",
            netlist.instances()[idx].name
        )));
    }
    Ok(())
}

/// Connection index `conn` of instance `idx` as the `u16` an [`ArcSlot`]
/// packs it in.
///
/// # Errors
///
/// [`StaError::InvalidBinding`] when it does not fit.
pub(crate) fn packed_conn(
    netlist: &MappedNetlist,
    idx: usize,
    conn: usize,
) -> Result<u16, StaError> {
    u16::try_from(conn).map_err(|_| StaError::InvalidBinding {
        reason: format!(
            "instance `{}` has more connections than the arc slot packing holds",
            netlist.instances()[idx].name
        ),
    })
}

/// The arc-resolution pass of a full analysis: every instance's arcs,
/// resolved through one [`Variants`] table, into a fresh [`ArcStore`].
/// It also proves the topology still fits the binding (each output pin is
/// the recorded one), so no separate verification sweep is needed.
fn resolve_arcs(
    netlist: &MappedNetlist,
    binding: &CellBinding,
    topo: &Topology,
    scratch: &ScratchArena,
) -> Result<ArcStore, StaError> {
    let n = netlist.instances().len();
    let mut variants = Variants::new(scratch);
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut data: Vec<ArcSlot> = Vec::with_capacity(topo.input_conns.len());
    for (idx, cell) in binding.cells().iter().enumerate() {
        let (out, inputs) = variants.get(cell, &topo.pin_names)?;
        resolve_instance(netlist, topo, idx, cell, out, inputs, &mut data)?;
        offsets.push(u32::try_from(data.len()).expect("arc count fits u32"));
    }
    Ok(ArcStore { offsets, data })
}

/// Sums net loads (pF) into `loads`: every net when `nets` is `None`
/// (then `loads` must be all zero), else just the listed nets (sorted,
/// distinct), which it resets first. Each net's terms are added in one
/// fixed order: each sink pin's capacitance plus the per-fanout wire lump
/// in ascending instance order and, within an instance, pin order (the
/// order of its resolved arcs); then the primary-output load once per
/// listing; then the net's explicit wire cap (`wire_caps` sorted by net
/// id).
///
/// The full analysis sums every net through this routine and
/// [`StaState::update`] only the nets a re-bound instance samples. The
/// sum is the only order-sensitive floating-point arithmetic in the
/// timer, so sharing it is what makes incremental loads bit-identical to
/// a full rebuild.
pub(crate) fn sum_loads(
    binding: &CellBinding,
    options: &TimingOptions,
    topo: &Topology,
    arcs: &ArcStore,
    wire_caps: &[(u32, f64)],
    nets: Option<&[u32]>,
    loads: &mut [f64],
) {
    let selected = |net: u32| nets.is_none_or(|list| list.binary_search(&net).is_ok());
    let add_pins = |u: usize, loads: &mut [f64]| {
        let pins = &binding.cell(u).pins;
        for arc in arcs.of(u) {
            if selected(arc.net) {
                loads[arc.net as usize] +=
                    pins[usize::from(arc.pin)].capacitance_pf + options.wire_cap_per_fanout_pf;
            }
        }
    };
    let add_terms = |net: u32, loads: &mut [f64]| {
        let load = &mut loads[net as usize];
        for _ in 0..topo.po_count[net as usize] {
            *load += options.output_load_pf;
        }
        if let Ok(k) = wire_caps.binary_search_by_key(&net, |&(id, _)| id) {
            *load += wire_caps[k].1;
        }
    };
    match nets {
        None => {
            for u in 0..topo.out_net.len() {
                add_pins(u, loads);
            }
            for net in 0..topo.net_names.len() {
                add_terms(u32::try_from(net).expect("net count fits u32"), loads);
            }
        }
        Some(list) => {
            let mut sinks: Vec<u32> = list
                .iter()
                .flat_map(|&net| topo.users_of[net as usize].iter().copied())
                .collect();
            sinks.sort_unstable();
            sinks.dedup();
            for &net in list {
                loads[net as usize] = 0.0;
            }
            for &u in &sinks {
                add_pins(u as usize, loads);
            }
            for &net in list {
                add_terms(net, loads);
            }
        }
    }
}

/// A variant's output pin: its first zero-capacitance pin, the role
/// convention of the whole timer.
fn output_pin(cell: &CharacterizedCell) -> Option<&Pin> {
    cell.pins.iter().find(|p| p.capacitance_pf == 0.0)
}

/// The timing of one evaluated instance's output net.
pub(crate) struct EvalOut {
    pub arrival_ns: f64,
    pub slew_ns: f64,
    pub from: FromRef,
}

/// Evaluates instance `idx` against resolved upstream net timings: per
/// arc, the delay/slew lookup at the arc's input slew and the output
/// `load`, the worst-slew merge, and the arrival pick. Pure in `(cell,
/// arcs, upstream timings, load)` — the full pass and the incremental
/// update both run exactly this function, which is why cone-limited
/// recomputation is bit-identical to a full pass.
///
/// Reads each arc as `cell.arcs[arc.arc]` from the net `arc.net` and
/// writes its delay into `arc.delay` for the required-time pass.
pub(crate) fn evaluate_instance(
    cell: &CharacterizedCell,
    idx: usize,
    arcs: &mut [ArcSlot],
    load: f64,
    arrival: &[f64],
    slew: &[f64],
    mode: AnalysisMode,
) -> EvalOut {
    let pick = |a: f64, b: f64| match mode {
        AnalysisMode::Late => a.max(b),
        AnalysisMode::Early => a.min(b),
    };
    let mut best: Option<EvalOut> = None;
    let mut merged_slew: Option<f64> = None;
    for slot in arcs {
        let arc = &cell.arcs[usize::from(slot.arc)];
        let in_id = slot.net as usize;
        let delay = arc.delay.lookup(slew[in_id], load);
        let out_slew = arc.output_slew.lookup(slew[in_id], load);
        let arc_arrival = arrival[in_id] + delay;
        slot.delay = delay;
        // Slew merges independently of the arrival winner (classic
        // worst-slew propagation).
        merged_slew = Some(match merged_slew {
            None => out_slew,
            Some(s) => pick(s, out_slew),
        });
        let replace = match &best {
            None => true,
            Some(cur) => pick(cur.arrival_ns, arc_arrival) == arc_arrival,
        };
        if replace {
            best = Some(EvalOut {
                arrival_ns: arc_arrival,
                slew_ns: out_slew,
                from: FromRef {
                    inst: u32::try_from(idx).expect("instance count fits u32"),
                    conn: u32::from(slot.conn),
                },
            });
        }
    }
    let mut out = best.expect("resolution rejects variants without input pins");
    out.slew_ns = merged_slew.expect("best implies at least one arc");
    out
}

/// Convenience: nominal-corner analysis straight from a library.
///
/// # Errors
///
/// See [`CellBinding::nominal`] and [`analyze`].
pub fn analyze_nominal(
    netlist: &MappedNetlist,
    library: &Library,
    options: &TimingOptions,
) -> Result<TimingReport, StaError> {
    let binding = CellBinding::nominal(netlist, library)?;
    analyze(netlist, &binding, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_netlist::{bench, generate_benchmark, technology_map, BenchmarkProfile};
    use svt_stdcell::Library;

    fn mapped(text: &str) -> (MappedNetlist, Library) {
        let lib = Library::svt90();
        let n = bench::parse(text).unwrap();
        (technology_map(&n, &lib).unwrap(), lib)
    }

    #[test]
    fn single_gate_delay_matches_table() {
        let (m, lib) = mapped("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n");
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let opts = TimingOptions::default();
        let report = analyze(&m, &binding, &opts).unwrap();
        let expected = binding.cell(0).arcs[0]
            .delay
            .lookup(opts.primary_input_slew_ns, opts.output_load_pf);
        assert!((report.circuit_delay_ns() - expected).abs() < 1e-12);
    }

    #[test]
    fn chain_accumulates_delay() {
        let (m, lib) = mapped("# chain\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NOT(y)\n");
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let report = analyze(&m, &binding, &TimingOptions::default()).unwrap();
        let one = {
            let (m1, lib) = mapped("# one\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
            let b1 = CellBinding::nominal(&m1, &lib).unwrap();
            analyze(&m1, &b1, &TimingOptions::default())
                .unwrap()
                .circuit_delay_ns()
        };
        assert!(report.circuit_delay_ns() > 2.0 * one);
    }

    #[test]
    fn late_takes_the_slower_input() {
        // z = NAND(a, y) where y = NOT(NOT(a)) is two levels deeper.
        let (m, lib) =
            mapped("# skew\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NAND(a, y)\n");
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let report = analyze(&m, &binding, &TimingOptions::default()).unwrap();
        // Critical path must come through y (pin B of the NAND).
        let path = report.critical_path();
        assert!(path.len() >= 3, "path {path:?}");
        let early = analyze(
            &m,
            &binding,
            &TimingOptions {
                mode: AnalysisMode::Early,
                ..TimingOptions::default()
            },
        )
        .unwrap();
        assert!(early.circuit_delay_ns() < report.circuit_delay_ns());
    }

    #[test]
    fn fanout_load_slows_the_driver() {
        let light = mapped("# f1\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
        let heavy = mapped(
            "# f4\nINPUT(a)\nOUTPUT(z)\nOUTPUT(q1)\nOUTPUT(q2)\nz = NOT(a)\nq1 = NOT(z)\nq2 = NOT(z)\n",
        );
        let d = |pair: &(MappedNetlist, Library)| {
            let b = CellBinding::nominal(&pair.0, &pair.1).unwrap();
            let r = analyze(&pair.0, &b, &TimingOptions::default()).unwrap();
            r.arrival_of("z").unwrap()
        };
        assert!(d(&heavy) > d(&light), "fanout must add load");
    }

    #[test]
    fn shared_topology_reuse_is_bit_identical() {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let m = technology_map(&n, &lib).unwrap();
        let opts = TimingOptions {
            clock_period_ns: Some(6.0),
            ..TimingOptions::default()
        };
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let topo = SharedTopology::build(&m, &binding).unwrap();
        let mut scratch = ScratchArena::new();
        let fresh = analyze_full(&m, &binding, &opts).unwrap();
        for _ in 0..3 {
            let warm = analyze_full_in(&m, &binding, &opts, &topo, &scratch).unwrap();
            assert_eq!(warm, fresh, "warm arena/topology reuse must not drift");
            scratch.reset();
        }
    }

    #[test]
    fn shared_topology_rejects_a_different_netlist() {
        let (m, lib) = mapped("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let topo = SharedTopology::build(&m, &binding).unwrap();
        let (other, _) = mapped("# u\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n");
        let other_binding = CellBinding::nominal(&other, &lib).unwrap();
        let scratch = ScratchArena::new();
        assert!(analyze_full_in(
            &other,
            &other_binding,
            &TimingOptions::default(),
            &topo,
            &scratch
        )
        .is_err());
    }

    #[test]
    fn shared_topology_rejects_a_moved_output_pin() {
        let (m, lib) = mapped("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n");
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let topo = SharedTopology::build(&m, &binding).unwrap();
        // Same netlist and stamp; the variant now declares B its output
        // pin and Z a pin the timer ignores.
        let mut cell = binding.cell(0).clone();
        for pin in &mut cell.pins {
            match pin.name.as_str() {
                "B" => pin.capacitance_pf = 0.0,
                "Z" => pin.capacitance_pf = -1.0,
                _ => {}
            }
        }
        let moved = CellBinding::new(&m, vec![cell]).unwrap();
        let opts = TimingOptions::default();
        let result = analyze_full_in(&m, &moved, &opts, &topo, &ScratchArena::new());
        assert!(
            matches!(result, Err(StaError::InvalidBinding { .. })),
            "{result:?}"
        );
        // A topology interned from the moved binding times it.
        assert!(analyze_full(&m, &moved, &opts).is_ok());
    }

    /// x = NOT(a), z = NAND(a, x), with the NAND's variant dropping its
    /// pin on x (a negative capacitance makes it no input); also the
    /// NAND's index.
    fn nand_without_its_pin_on_x() -> (MappedNetlist, CellBinding, CellBinding, usize) {
        let (m, lib) = mapped("# t\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\nz = NAND(a, x)\n");
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let nand = m
            .instances()
            .iter()
            .position(|inst| inst.connections.iter().any(|(_, net)| net == "z"))
            .unwrap();
        let pin_on_x = m.instances()[nand]
            .connections
            .iter()
            .find(|(_, net)| net == "x")
            .map(|(pin, _)| pin.clone())
            .unwrap();
        let mut cell = binding.cell(nand).clone();
        for pin in &mut cell.pins {
            if pin.name == pin_on_x {
                pin.capacitance_pf = -1.0;
            }
        }
        let mut dropped = binding.clone();
        dropped.replace(&m, nand, cell).unwrap();
        (m, binding, dropped, nand)
    }

    #[test]
    fn shared_topology_rejects_a_dropped_input_pin() {
        let (m, binding, dropped, nand) = nand_without_its_pin_on_x();
        let topo = SharedTopology::build(&m, &binding).unwrap();
        let opts = TimingOptions::default();
        // The levelizer would count one input of the NAND and release two:
        // the stale topology is a typed error, not an underflow.
        let result = analyze_full_in(&m, &dropped, &opts, &topo, &ScratchArena::new());
        assert!(
            matches!(&result, Err(StaError::InvalidBinding { reason }) if reason.contains("input pins")),
            "{result:?}"
        );
        // Re-binding the NAND incrementally is the same typed error, and
        // writes nothing.
        let mut state = analyze_full(&m, &binding, &opts).unwrap();
        let before = state.clone();
        let result = state.update(&m, &dropped, &[nand], &ScratchArena::new());
        assert!(
            matches!(&result, Err(StaError::InvalidBinding { reason }) if reason.contains("input pins")),
            "{result:?}"
        );
        assert_eq!(state, before);
        // A topology interned from the dropped binding times it.
        let own = SharedTopology::build(&m, &dropped).unwrap();
        let timed = analyze_full_in(&m, &dropped, &opts, &own, &ScratchArena::new()).unwrap();
        assert_eq!(timed, analyze_full(&m, &dropped, &opts).unwrap());
    }

    #[test]
    fn a_variant_wider_than_the_slot_packing_is_a_typed_error() {
        let (m, lib) = mapped("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
        let mut wide = CellBinding::nominal(&m, &lib).unwrap().cell(0).clone();
        let extra = (0..300).map(|i| Pin::input(format!("X{i}"), 0.001));
        wide.pins.extend(extra);
        let binding = CellBinding::new(&m, vec![wide]).unwrap();
        let result = analyze(&m, &binding, &TimingOptions::default());
        assert!(
            matches!(&result, Err(StaError::InvalidBinding { reason }) if reason.contains("packing")),
            "{result:?}"
        );
    }

    #[test]
    fn corner_bindings_order_correctly() {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let m = technology_map(&n, &lib).unwrap();
        let opts = TimingOptions::default();
        let delay_at = |l: f64| {
            let b = CellBinding::uniform_scaled(&m, &lib, l).unwrap();
            analyze(&m, &b, &opts).unwrap().circuit_delay_ns()
        };
        let bc = delay_at(81.0);
        let nom = delay_at(90.0);
        let wc = delay_at(99.0);
        assert!(bc < nom && nom < wc, "corners must order: {bc} {nom} {wc}");
        // Linear delay model: corners should bracket nominal roughly
        // symmetrically.
        let up = wc / nom;
        let down = nom / bc;
        assert!(
            (up - down).abs() < 0.06,
            "asymmetric corners: {up} vs {down}"
        );
    }

    #[test]
    fn options_are_validated() {
        let (m, lib) = mapped("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
        let b = CellBinding::nominal(&m, &lib).unwrap();
        let bad = TimingOptions {
            primary_input_slew_ns: 0.0,
            ..TimingOptions::default()
        };
        assert!(analyze(&m, &b, &bad).is_err());
    }

    #[test]
    fn benchmark_scale_analysis_completes() {
        let lib = Library::svt90();
        let n = generate_benchmark(&BenchmarkProfile::iscas85("c880").unwrap());
        let m = technology_map(&n, &lib).unwrap();
        let report = analyze_nominal(&m, &lib, &TimingOptions::default()).unwrap();
        assert!(
            report.circuit_delay_ns() > 0.1,
            "c880 should be nontrivially deep"
        );
        let path = report.critical_path();
        assert!(path.len() > 5);
        // Arrivals along the path are non-decreasing.
        for w in path.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns + 1e-12);
        }
    }
}
// Additional slack-propagation tests live below the original suite so the
// forward-path tests stay untouched.
#[cfg(test)]
mod slack_tests {
    use super::*;
    use svt_netlist::bench;
    use svt_netlist::technology_map;
    use svt_stdcell::Library;

    fn mapped(text: &str) -> (MappedNetlist, Library) {
        let lib = Library::svt90();
        let n = bench::parse(text).unwrap();
        (technology_map(&n, &lib).unwrap(), lib)
    }

    fn with_clock(period: f64) -> TimingOptions {
        TimingOptions {
            clock_period_ns: Some(period),
            ..TimingOptions::default()
        }
    }

    #[test]
    fn po_slack_matches_period_minus_arrival() {
        let (m, lib) = mapped("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
        let b = CellBinding::nominal(&m, &lib).unwrap();
        let r = analyze(&m, &b, &with_clock(1.0)).unwrap();
        let slack = r.slack_of("z").unwrap();
        assert!((slack - (1.0 - r.arrival_of("z").unwrap())).abs() < 1e-12);
        assert!(slack > 0.0);
    }

    #[test]
    fn required_times_decrease_upstream() {
        let (m, lib) = mapped("# chain\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NOT(y)\n");
        let b = CellBinding::nominal(&m, &lib).unwrap();
        let r = analyze(&m, &b, &with_clock(2.0)).unwrap();
        let rq = |net: &str| r.required_of(net).unwrap();
        assert!(rq("a") < rq("x"));
        assert!(rq("x") < rq("y"));
        assert!(rq("y") < rq("z"));
        assert!((rq("z") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slack_is_constant_along_the_critical_path() {
        let (m, lib) =
            mapped("# skew\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NAND(a, y)\n");
        let b = CellBinding::nominal(&m, &lib).unwrap();
        let r = analyze(&m, &b, &with_clock(1.0)).unwrap();
        let path = r.critical_path();
        let slacks: Vec<f64> = path.iter().filter_map(|s| r.slack_of(&s.net)).collect();
        assert!(slacks.len() >= 2);
        for w in slacks.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "slack must be flat on the critical path: {slacks:?}"
            );
        }
        // The worst net slack is the critical path's slack.
        let worst = r.worst_net_slack_ns().unwrap();
        assert!((worst - slacks[0]).abs() < 1e-9);
    }

    #[test]
    fn infeasible_clock_yields_negative_slack() {
        let (m, lib) = mapped("# chain\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\ny = NOT(x)\nz = NOT(y)\n");
        let b = CellBinding::nominal(&m, &lib).unwrap();
        let r = analyze(&m, &b, &with_clock(0.01)).unwrap();
        assert!(r.worst_net_slack_ns().unwrap() < 0.0);
        assert!(r.total_negative_slack_ns().unwrap() < 0.0);
    }

    #[test]
    fn no_clock_means_no_slacks() {
        let (m, lib) = mapped("# t\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
        let b = CellBinding::nominal(&m, &lib).unwrap();
        let r = analyze(&m, &b, &TimingOptions::default()).unwrap();
        assert_eq!(r.slack_of("z"), None);
        assert_eq!(r.worst_net_slack_ns(), None);
        assert_eq!(r.total_negative_slack_ns(), None);
    }
}
