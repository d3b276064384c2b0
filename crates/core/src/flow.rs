use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use svt_exec::{try_par_chunks, try_par_map, MemoCache, ScratchPool};
use svt_netlist::MappedNetlist;
use svt_obs::audit::{AuditTrail, CornerDelay, InstanceAudit, PathAudit, TrimRecord};
use svt_place::{DeviceSite, Placement, PlacementOptions};
use svt_sta::{
    analyze_full_in, CellBinding, SharedTopology, StaError, StaState, TimingOptions, TimingReport,
};
use svt_stdcell::{
    Cell, CellContext, CharacterizeOptions, CharacterizedCell, ExpandedLibrary, Library,
    StdcellError, TimingArc,
};

use crate::{classify_device, label_arc, ArcLabel, ArcLabelPolicy, DeviceClass, VariationBudget};

/// A process corner of the gate-length axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Corner {
    /// Fastest (shortest gates).
    BestCase,
    /// Nominal.
    Nominal,
    /// Slowest (longest gates).
    WorstCase,
}

impl Corner {
    /// All corners, fast to slow.
    pub const ALL: [Corner; 3] = [Corner::BestCase, Corner::Nominal, Corner::WorstCase];
}

/// Circuit delay at the three corners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CornerTiming {
    /// Best-case circuit delay (ns).
    pub bc_ns: f64,
    /// Nominal circuit delay (ns).
    pub nom_ns: f64,
    /// Worst-case circuit delay (ns).
    pub wc_ns: f64,
}

impl CornerTiming {
    /// Best-case to worst-case timing spread.
    #[must_use]
    pub fn spread_ns(&self) -> f64 {
        self.wc_ns - self.bc_ns
    }
}

/// The Table 2 result for one testcase: traditional vs systematic-variation
/// aware corner timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignoffComparison {
    /// Testcase name.
    pub testcase: String,
    /// Mapped instance count.
    pub gates: usize,
    /// Traditional (context-blind) corner timing.
    pub traditional: CornerTiming,
    /// Systematic-variation aware corner timing.
    pub aware: CornerTiming,
}

impl SignoffComparison {
    /// Percent reduction in best-case→worst-case timing uncertainty — the
    /// paper's headline metric (28–40 % in Table 2).
    #[must_use]
    pub fn uncertainty_reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.aware.spread_ns() / self.traditional.spread_ns())
    }
}

/// Options of the sign-off comparison flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignoffOptions {
    /// Placement options (whitespace statistics drive the context mix).
    pub placement: PlacementOptions,
    /// STA boundary conditions.
    pub timing: TimingOptions,
    /// Variation budget (Δ, lvar_pitch, lvar_focus shares).
    pub budget: VariationBudget,
    /// Arc labeling policy.
    pub policy: ArcLabelPolicy,
    /// Characterization options (nominal L, delay sensitivity).
    pub characterize: CharacterizeOptions,
    /// Contacted pitch separating dense from isolated devices.
    pub contacted_pitch_nm: f64,
    /// When false, runs the paper's §5 simplified methodology: boundary
    /// context is ignored and every instance uses the fully isolated
    /// library version (no 81-way expansion benefit on nominal CDs).
    pub use_context_library: bool,
    /// Delay derate (± fraction) of the non-gate-length process-corner
    /// components — Vth, oxide thickness, mobility — which both
    /// methodologies worst-case identically ("the corner case libraries
    /// are constructed with just the process corners", paper §4; the
    /// methodology removes only the systematic *gate length* part). This
    /// is what keeps the observed uncertainty reduction below the pure
    /// L-space bound.
    pub residual_process_derate: f64,
}

impl Default for SignoffOptions {
    fn default() -> SignoffOptions {
        SignoffOptions {
            placement: PlacementOptions::default(),
            timing: TimingOptions::default(),
            budget: VariationBudget::default(),
            policy: ArcLabelPolicy::default(),
            characterize: CharacterizeOptions::default(),
            contacted_pitch_nm: 300.0,
            use_context_library: true,
            residual_process_derate: 0.09,
        }
    }
}

/// Errors of the sign-off flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Placement query failed.
    Place(svt_place::PlaceError),
    /// Timing analysis failed.
    Sta(StaError),
    /// Characterization failed.
    Stdcell(StdcellError),
    /// OPC or lithography simulation failed.
    Opc(svt_opc::OpcError),
    /// Inputs were inconsistent.
    Inconsistent {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Place(e) => write!(f, "placement query failed: {e}"),
            FlowError::Sta(e) => write!(f, "timing analysis failed: {e}"),
            FlowError::Stdcell(e) => write!(f, "characterization failed: {e}"),
            FlowError::Opc(e) => write!(f, "OPC failed: {e}"),
            FlowError::Inconsistent { reason } => write!(f, "inconsistent flow inputs: {reason}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Place(e) => Some(e),
            FlowError::Sta(e) => Some(e),
            FlowError::Stdcell(e) => Some(e),
            FlowError::Opc(e) => Some(e),
            FlowError::Inconsistent { .. } => None,
        }
    }
}

impl From<svt_opc::OpcError> for FlowError {
    fn from(e: svt_opc::OpcError) -> FlowError {
        FlowError::Opc(e)
    }
}

impl From<svt_place::PlaceError> for FlowError {
    fn from(e: svt_place::PlaceError) -> FlowError {
        FlowError::Place(e)
    }
}

impl From<StaError> for FlowError {
    fn from(e: StaError) -> FlowError {
        FlowError::Sta(e)
    }
}

impl From<StdcellError> for FlowError {
    fn from(e: StdcellError) -> FlowError {
        FlowError::Stdcell(e)
    }
}

/// Characterizes one placed instance at a systematic-variation aware
/// corner.
///
/// Each arc is scaled independently: its iso-dense aware nominal length is
/// the mean in-context printed CD of its devices, its label comes from the
/// devices' iso/dense classes, and the corner value follows paper
/// eqs. 1–5.
///
/// # Errors
///
/// Returns [`StdcellError::InvalidCharacterization`] if the length or class
/// vectors do not match the cell's devices.
#[allow(clippy::too_many_arguments)] // the corner recipe genuinely has this many inputs
pub fn characterize_corner(
    cell: &Cell,
    ctx_lengths_nm: &[f64],
    device_classes: &[DeviceClass],
    budget: &VariationBudget,
    policy: ArcLabelPolicy,
    corner: Corner,
    variant_name: &str,
    options: CharacterizeOptions,
) -> Result<CharacterizedCell, StdcellError> {
    let n = cell.layout().devices().len();
    if ctx_lengths_nm.len() != n || device_classes.len() != n {
        return Err(StdcellError::InvalidCharacterization {
            cell: cell.name().into(),
            reason: format!(
                "expected {n} lengths and classes, got {} and {}",
                ctx_lengths_nm.len(),
                device_classes.len()
            ),
        });
    }
    let arcs = cell
        .arcs()
        .iter()
        .map(|arc| {
            let mean_l = arc.devices.iter().map(|d| ctx_lengths_nm[d.0]).sum::<f64>()
                / arc.devices.len() as f64;
            let classes: Vec<DeviceClass> =
                arc.devices.iter().map(|d| device_classes[d.0]).collect();
            let label = label_arc(&classes, policy);
            let corners = budget.aware_corners(mean_l, label);
            let l_eff = match corner {
                Corner::BestCase => corners.bc_nm,
                Corner::Nominal => corners.nom_nm,
                Corner::WorstCase => corners.wc_nm,
            };
            let factor =
                1.0 + options.delay_sensitivity * (l_eff / options.nominal_length_nm - 1.0);
            TimingArc {
                from_pin: arc.from_pin.clone(),
                to_pin: arc.to_pin.clone(),
                delay: arc.delay.scaled(factor),
                output_slew: arc.output_slew.scaled(factor),
                devices: arc.devices.clone(),
            }
        })
        .collect();
    Ok(CharacterizedCell {
        cell_name: cell.name().into(),
        variant_name: variant_name.into(),
        device_lengths_nm: ctx_lengths_nm.to_vec(),
        pins: cell.pins().to_vec(),
        arcs,
    })
}

/// One fully bound and analyzed STA corner: the characterized-cell
/// binding it ran with plus the complete propagation state.
///
/// Keeping the [`StaState`] (not just the [`TimingReport`]) is what lets
/// `svt-eco` re-sign-off incrementally: [`StaState::update`] re-times
/// this state in place, recomputing only what an edit changed.
#[derive(Debug, Clone)]
pub struct CornerAnalysis {
    /// Per-instance characterized cells the corner was analyzed with.
    pub binding: CellBinding,
    /// Full propagation state ([`svt_sta::analyze_full`] output).
    pub state: StaState,
}

impl CornerAnalysis {
    /// The corner's timing report.
    #[must_use]
    pub fn report(&self) -> &TimingReport {
        self.state.report()
    }
}

/// Everything a completed sign-off run knows: the Table 2 comparison, the
/// audit trail, and the per-corner / per-instance provenance both were
/// derived from.
///
/// Produced by [`SignoffFlow::run_with_provenance`]; consumed by the
/// `svt-eco` session, which mutates copies of this state under ECO edits
/// instead of rerunning the flow from scratch.
#[derive(Debug, Clone)]
pub struct FlowProvenance {
    /// Traditional corner analyses in `Corner::ALL` (`[bc, nom, wc]`)
    /// order.
    pub traditional: Vec<CornerAnalysis>,
    /// Aware corner analyses in `Corner::ALL` order.
    pub aware: Vec<CornerAnalysis>,
    /// Per-instance placement contexts, netlist order.
    pub contexts: Vec<CellContext>,
    /// Per-instance, per-device iso/dense classes, netlist order.
    pub classes: Vec<Vec<DeviceClass>>,
    /// The Table 2 traditional-vs-aware comparison.
    pub comparison: SignoffComparison,
    /// The full per-instance / per-endpoint audit trail.
    pub audit: AuditTrail,
}

/// Memo key of one aware characterization: dense library cell id,
/// effective placement context, 2-bit-packed device classes, corner code.
type AwareKey = (u32, CellContext, u64, u8);

/// An [`AwareKey`] without its corner: what one instance contributes to
/// all three aware corners of a run.
type VariantKey = (u32, CellContext, u64);

/// Per-flow memoization shared by every run (and clone) of one
/// [`SignoffFlow`]: the hot sign-off path re-derives nothing that is a
/// pure function of the flow's fixed options.
///
/// * `topo` — the interned netlist [`SharedTopology`], reused (not
///   rebuilt) by every analysis of the same netlist or a copy of it; each
///   analysis checks it while resolving its arcs,
/// * `aware` / `trad` — characterized-cell variants behind [`Arc`], keyed
///   by everything their tables depend on, so a warm run binds all six
///   corners without characterizing a single cell,
/// * `cell_ids` — dense `u32` ids of the base-library cells; a run maps
///   every instance to one, the index its corner bindings are filled by,
/// * `scratch` — bump arenas for the analysis working set, reused across
///   corners and runs.
struct FlowCaches {
    topo: Mutex<Option<SharedTopology>>,
    aware: MemoCache<AwareKey, Arc<CharacterizedCell>>,
    trad: MemoCache<(u32, u64), Arc<CharacterizedCell>>,
    cell_ids: OnceLock<HashMap<String, u32>>,
    scratch: ScratchPool,
}

impl FlowCaches {
    fn new() -> FlowCaches {
        FlowCaches {
            topo: Mutex::new(None),
            aware: MemoCache::default(),
            trad: MemoCache::default(),
            cell_ids: OnceLock::new(),
            scratch: ScratchPool::new(),
        }
    }
}

impl fmt::Debug for FlowCaches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowCaches")
            .field("aware", &self.aware.stats())
            .field("trad", &self.trad.stats())
            .field("scratch", &self.scratch)
            .finish_non_exhaustive()
    }
}

/// A portable copy of a flow's characterization memo caches — every
/// aware-context and traditional-corner [`CharacterizedCell`] the flow
/// has derived so far. Produced by [`SignoffFlow::export_caches`],
/// restored by [`SignoffFlow::preload_caches`]; entries are key-sorted so
/// identical cache contents always serialize to identical bytes.
///
/// Not part of the snapshot: the interned topology (rebuilt and verified
/// per design) and the scratch arenas (transient working memory).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlowCacheSnapshot {
    aware: Vec<(AwareKey, CharacterizedCell)>,
    trad: Vec<((u32, u64), CharacterizedCell)>,
}

impl FlowCacheSnapshot {
    /// Total number of characterized cells in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.aware.len() + self.trad.len()
    }

    /// Whether the snapshot carries no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.aware.is_empty() && self.trad.is_empty()
    }
}

impl svt_snap::Serialize for FlowCacheSnapshot {
    fn serialize(&self, out: &mut svt_snap::Serializer) {
        self.aware.serialize(out);
        self.trad.serialize(out);
    }
}

impl svt_snap::Deserialize for FlowCacheSnapshot {
    fn deserialize(
        input: &mut svt_snap::Deserializer<'_>,
    ) -> Result<FlowCacheSnapshot, svt_snap::SnapError> {
        Ok(FlowCacheSnapshot {
            aware: svt_snap::Deserialize::deserialize(input)?,
            trad: svt_snap::Deserialize::deserialize(input)?,
        })
    }
}

/// Packs per-device iso/dense classes into 2 bits each, low device first.
/// `None` (memo bypass) for cells beyond 32 devices. Every class code is
/// non-zero, so packings of different device counts never collide.
fn pack_classes(classes: &[DeviceClass]) -> Option<u64> {
    if classes.len() > 32 {
        return None;
    }
    let mut bits = 0u64;
    for (i, class) in classes.iter().enumerate() {
        let code: u64 = match class {
            DeviceClass::Dense => 1,
            DeviceClass::Isolated => 2,
            DeviceClass::SelfCompensated => 3,
        };
        bits |= code << (2 * i);
    }
    Some(bits)
}

/// Stable `u8` code of a corner for memo keys.
fn corner_code(corner: Corner) -> u8 {
    match corner {
        Corner::BestCase => 0,
        Corner::Nominal => 1,
        Corner::WorstCase => 2,
    }
}

/// The end-to-end sign-off comparison flow of paper §4 (Table 2).
#[derive(Debug, Clone)]
pub struct SignoffFlow<'a> {
    library: &'a Library,
    expanded: &'a ExpandedLibrary,
    options: SignoffOptions,
    caches: Arc<FlowCaches>,
}

impl<'a> SignoffFlow<'a> {
    /// Creates a flow over a base library and its context expansion.
    #[must_use]
    pub fn new(
        library: &'a Library,
        expanded: &'a ExpandedLibrary,
        options: SignoffOptions,
    ) -> SignoffFlow<'a> {
        SignoffFlow {
            library,
            expanded,
            options,
            caches: Arc::new(FlowCaches::new()),
        }
    }

    /// The dense library cell id of `cell` (`None`: a cell the library
    /// lacks, which bypasses the memos so its own lookup reports the
    /// error).
    fn cell_id(&self, cell: &str) -> Option<u32> {
        let ids = self.caches.cell_ids.get_or_init(|| {
            self.library
                .cells()
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name().to_string(), u32::try_from(i).expect("cell count")))
                .collect()
        });
        ids.get(cell).copied()
    }

    /// Per-instance [`SignoffFlow::cell_id`]s, computed once per run and
    /// shared by its six corners.
    fn instance_cell_ids(&self, netlist: &MappedNetlist) -> Vec<Option<u32>> {
        netlist
            .instances()
            .iter()
            .map(|inst| self.cell_id(&inst.cell))
            .collect()
    }

    /// Analyzes one corner binding against the flow's cached interned
    /// topology. The analysis checks the topology while resolving its
    /// arcs — one output-pin compare per instance, the corner's only
    /// topology check — so the cache is matched here by netlist stamp
    /// alone. A cached topology the binding does not fit (an output pin
    /// moved under the same stamp) is rebuilt from this binding and the
    /// corner analyzed again.
    fn analyze_corner(
        &self,
        netlist: &MappedNetlist,
        binding: &CellBinding,
    ) -> Result<StaState, StaError> {
        let scratch = self.caches.scratch.checkout();
        let (topo, built) = self.topo_for(netlist, binding, false)?;
        match analyze_full_in(netlist, binding, &self.options.timing, &topo, &scratch) {
            Err(StaError::InvalidBinding { .. }) if !built => {
                let (topo, _) = self.topo_for(netlist, binding, true)?;
                analyze_full_in(netlist, binding, &self.options.timing, &topo, &scratch)
            }
            done => done,
        }
    }

    /// The cached interned topology if it was built from `netlist` or a
    /// copy of it (and `rebuild` is off), else a fresh build from
    /// `binding`, which replaces the cached one; the flag says whether
    /// this call built it. Building under the lock makes the parallel
    /// corners of a cold run share one build.
    fn topo_for(
        &self,
        netlist: &MappedNetlist,
        binding: &CellBinding,
        rebuild: bool,
    ) -> Result<(SharedTopology, bool), StaError> {
        let mut slot = self.caches.topo.lock().expect("topology cache poisoned");
        if let Some(topo) = slot.as_ref().filter(|t| !rebuild && t.is_for(netlist)) {
            return Ok((topo.clone(), false));
        }
        let topo = SharedTopology::build(netlist, binding)?;
        *slot = Some(topo.clone());
        Ok((topo, true))
    }

    /// The flow options.
    #[must_use]
    pub fn options(&self) -> &SignoffOptions {
        &self.options
    }

    /// The base library the flow signs off against.
    #[must_use]
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// Exports the flow's characterization memo caches for persistence.
    /// Keys embed everything the cached tables depend on (cell id,
    /// context, device classes, corner), so a restored snapshot serves
    /// exactly the lookups a warm flow would have hit — bit-identically,
    /// since cached cells are pure functions of their keys.
    #[must_use]
    pub fn export_caches(&self) -> FlowCacheSnapshot {
        let mut aware: Vec<(AwareKey, CharacterizedCell)> = self
            .caches
            .aware
            .export_entries()
            .into_iter()
            .map(|(k, v)| (k, (*v).clone()))
            .collect();
        aware.sort_unstable_by_key(|a| a.0);
        let mut trad: Vec<((u32, u64), CharacterizedCell)> = self
            .caches
            .trad
            .export_entries()
            .into_iter()
            .map(|(k, v)| (k, (*v).clone()))
            .collect();
        trad.sort_unstable_by_key(|a| a.0);
        FlowCacheSnapshot { aware, trad }
    }

    /// Preloads the flow's characterization memo caches from a snapshot
    /// (existing entries win). Returns the number of entries loaded.
    /// Cache keys are only meaningful relative to the flow's library and
    /// options, so callers gate preloading on the stack fingerprint (see
    /// `svt_core::snapshot`).
    pub fn preload_caches(&self, snapshot: &FlowCacheSnapshot) -> usize {
        self.caches.aware.preload(
            snapshot
                .aware
                .iter()
                .map(|(k, v)| (*k, Arc::new(v.clone()))),
        ) + self
            .caches
            .trad
            .preload(snapshot.trad.iter().map(|(k, v)| (*k, Arc::new(v.clone()))))
    }

    /// Runs traditional and systematic-variation aware corner STA on a
    /// placed netlist and reports both.
    ///
    /// # Errors
    ///
    /// Propagates placement-query, characterization, and STA failures; see
    /// [`FlowError`].
    pub fn run(
        &self,
        netlist: &MappedNetlist,
        placement: &Placement,
    ) -> Result<SignoffComparison, FlowError> {
        let _span = svt_obs::span("core.signoff");
        let cell_ids = self.instance_cell_ids(netlist);
        // Reduced to delays at once: the traditional states are dropped
        // before the aware corners allocate theirs.
        let traditional = corner_timing_of(&self.traditional_corners(netlist, &cell_ids)?);
        let aware = corner_timing_of(&self.aware_analyses(netlist, placement, &cell_ids)?.analyses);
        Ok(SignoffComparison {
            testcase: netlist.name().to_string(),
            gates: netlist.instances().len(),
            traditional: self.apply_residual_derate(traditional),
            aware: self.apply_residual_derate(aware),
        })
    }

    /// Traditional corner analyses in `[bc, nom, wc]` order: every device
    /// at `L_nom`, `L_nom ± Δ`. The three corner analyses are independent
    /// and run across the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates binding and STA failures; see [`FlowError`].
    pub fn traditional_analyses(
        &self,
        netlist: &MappedNetlist,
    ) -> Result<Vec<CornerAnalysis>, FlowError> {
        self.traditional_corners(netlist, &self.instance_cell_ids(netlist))
    }

    /// [`SignoffFlow::traditional_analyses`] over a run's per-instance
    /// cell ids.
    fn traditional_corners(
        &self,
        netlist: &MappedNetlist,
        cell_ids: &[Option<u32>],
    ) -> Result<Vec<CornerAnalysis>, FlowError> {
        let _span = svt_obs::span("core.signoff.traditional");
        let l_nom = self.options.characterize.nominal_length_nm;
        let corners = self.options.budget.traditional_corners(l_nom);
        let lengths = [corners.bc_nm, corners.nom_nm, corners.wc_nm];
        try_par_map(&lengths, |&l| -> Result<CornerAnalysis, FlowError> {
            let _corner = svt_obs::span("core.signoff.traditional.corner");
            let binding = self.uniform_scaled_cached(netlist, cell_ids, l)?;
            let state = self.analyze_corner(netlist, &binding)?;
            Ok(CornerAnalysis { binding, state })
        })
    }

    /// [`CellBinding::uniform_scaled`] through the flow's per-(cell,
    /// length) memo: one [`SignoffFlow::traditional_variant`] per distinct
    /// master, then every instance is bound by its cell id to its
    /// master's shared [`Arc`].
    fn uniform_scaled_cached(
        &self,
        netlist: &MappedNetlist,
        cell_ids: &[Option<u32>],
        gate_length_nm: f64,
    ) -> Result<CellBinding, StaError> {
        let mut by_id: Vec<Option<Arc<CharacterizedCell>>> = vec![None; self.library.cells().len()];
        let mut cells = Vec::with_capacity(cell_ids.len());
        for (inst, &id) in netlist.instances().iter().zip(cell_ids) {
            let cell = match id.and_then(|id| by_id[id as usize].clone()) {
                Some(cell) => cell,
                None => {
                    let cell = self
                        .traditional_variant(&inst.cell, gate_length_nm)
                        .map_err(|e| StaError::InvalidBinding {
                            reason: format!("instance `{}`: {e}", inst.name),
                        })?;
                    if let Some(id) = id {
                        by_id[id as usize] = Some(Arc::clone(&cell));
                    }
                    cell
                }
            };
            cells.push(cell);
        }
        CellBinding::new_shared(netlist, cells)
    }

    /// Master `cell` with every device at `gate_length_nm` (the
    /// traditional corners' variant), through the flow's per-(cell id,
    /// length) memo.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::InvalidBinding`] if the library lacks `cell` or
    /// characterization fails.
    pub fn traditional_variant(
        &self,
        cell: &str,
        gate_length_nm: f64,
    ) -> Result<Arc<CharacterizedCell>, StaError> {
        let characterize =
            || CellBinding::uniform_scaled_cell(self.library, cell, gate_length_nm).map(Arc::new);
        let Some(id) = self.cell_id(cell) else {
            // Not in the library: characterizing reports it.
            return characterize();
        };
        let key = (id, gate_length_nm.to_bits());
        if let Some(hit) = self.caches.trad.get(&key) {
            return Ok(hit);
        }
        let built = characterize()?;
        self.caches.trad.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Applies the non-gate-length process-corner derate to BC/WC. Every
    /// cell delay scales uniformly, so the circuit delay scales exactly.
    /// Public so an incremental re-sign-off can reproduce the flow's
    /// derated corner numbers from raw corner delays.
    #[must_use]
    pub fn apply_residual_derate(&self, timing: CornerTiming) -> CornerTiming {
        let d = self.options.residual_process_derate;
        CornerTiming {
            bc_ns: timing.bc_ns * (1.0 - d),
            nom_ns: timing.nom_ns,
            wc_ns: timing.wc_ns * (1.0 + d),
        }
    }

    /// Aware corner analyses plus the per-instance provenance they were
    /// derived from (placement contexts and device classes), in
    /// `Corner::ALL` order.
    fn aware_analyses(
        &self,
        netlist: &MappedNetlist,
        placement: &Placement,
        cell_ids: &[Option<u32>],
    ) -> Result<AwareRun, FlowError> {
        let _span = svt_obs::span("core.signoff.aware");
        let instances = netlist.instances().len();

        // One device-site extraction feeds both the per-instance contexts
        // and the iso/dense classes — the sites already carry every
        // neighbor spacing the context derivation needs.
        let sites = placement.device_sites(netlist, self.library)?;
        let contexts = svt_place::instance_contexts_from_sites(instances, &sites);
        if contexts.len() != instances {
            return Err(FlowError::Inconsistent {
                reason: "placement does not cover the netlist".into(),
            });
        }

        // Per-instance device classes from the placed spacings.
        let mut classes: Vec<Vec<DeviceClass>> = netlist
            .instances()
            .iter()
            .map(|inst| {
                let n = self
                    .library
                    .cell(&inst.cell)
                    .map(|c| c.layout().devices().len())
                    .unwrap_or(0);
                vec![DeviceClass::Isolated; n]
            })
            .collect();
        for site in &sites {
            classes[site.instance][site.device.0] = classify_device_site(site, &self.options);
        }

        // The memo keys are corner-independent: derive them once, then
        // bind each corner with one lookup per distinct key.
        let work = self.aware_work(cell_ids, &contexts, &classes);
        let mut analyses = Vec::with_capacity(Corner::ALL.len());
        for corner in Corner::ALL {
            let _corner_span = svt_obs::span("core.signoff.aware.corner");
            if svt_obs::enabled() {
                svt_obs::counter!("core.signoff.instances").add(instances as u64);
            }
            let binding = self.aware_binding(netlist, &work, &contexts, &classes, corner)?;
            let state = self.analyze_corner(netlist, &binding)?;
            analyses.push(CornerAnalysis { binding, state });
        }

        Ok(AwareRun {
            analyses,
            contexts,
            classes,
        })
    }

    /// The aware characterizations a run needs, each listed once. The key
    /// is everything a characterization depends on given the flow's fixed
    /// options — cell, *effective* context (after `use_context_library`
    /// gating), packed device classes — so instances sharing a key share
    /// its variant bit for bit.
    fn aware_work(
        &self,
        cell_ids: &[Option<u32>],
        contexts: &[CellContext],
        classes: &[Vec<DeviceClass>],
    ) -> AwareWork {
        let mut index: HashMap<VariantKey, u32> = HashMap::new();
        let mut entries: Vec<(usize, Option<VariantKey>)> = Vec::new();
        let entry_of = (0..cell_ids.len())
            .map(|idx| {
                let key = self.variant_key(cell_ids[idx], contexts[idx], &classes[idx]);
                let next = u32::try_from(entries.len()).expect("entry count fits u32");
                let entry = key.map_or(next, |key| *index.entry(key).or_insert(next));
                if entry == next {
                    entries.push((idx, key));
                }
                entry
            })
            .collect();
        AwareWork { entries, entry_of }
    }

    /// The memo key, corner aside, of cell `cell_id` in `context` with
    /// device `classes`: `None` when it bypasses the memo.
    fn variant_key(
        &self,
        cell_id: Option<u32>,
        context: CellContext,
        classes: &[DeviceClass],
    ) -> Option<VariantKey> {
        let effective = if self.options.use_context_library {
            context
        } else {
            CellContext::default()
        };
        cell_id
            .zip(pack_classes(classes))
            .map(|(cell, bits)| (cell, effective, bits))
    }

    /// One aware corner's binding: each distinct key is looked up in the
    /// flow's memo once, the misses (bypass entries always among them)
    /// are characterized across the worker pool, and every instance is
    /// bound to its entry's variant. A warm run characterizes nothing.
    fn aware_binding(
        &self,
        netlist: &MappedNetlist,
        work: &AwareWork,
        contexts: &[CellContext],
        classes: &[Vec<DeviceClass>],
        corner: Corner,
    ) -> Result<CellBinding, FlowError> {
        let code = corner_code(corner);
        let mut variants: Vec<Option<Arc<CharacterizedCell>>> = work
            .entries
            .iter()
            .map(|&(_, key)| key.and_then(|(c, x, b)| self.caches.aware.get(&(c, x, b, code))))
            .collect();
        let misses: Vec<usize> = (0..variants.len())
            .filter(|&e| variants[e].is_none())
            .collect();
        if !misses.is_empty() {
            let built = try_par_chunks(misses.len(), |m| -> Result<_, FlowError> {
                let idx = work.entries[misses[m]].0;
                let cell =
                    self.characterize_instance(netlist, idx, contexts[idx], &classes[idx], corner)?;
                Ok(Arc::new(cell))
            })?;
            // Memoized on this thread, not on the pool's workers: worker
            // inserts made `table2`'s peak RSS spike in more of its runs.
            for (&e, cell) in misses.iter().zip(built) {
                if let Some((c, x, b)) = work.entries[e].1 {
                    self.caches.aware.insert((c, x, b, code), Arc::clone(&cell));
                }
                variants[e] = Some(cell);
            }
        }
        let cells = work
            .entry_of
            .iter()
            .map(|&e| Arc::clone(variants[e as usize].as_ref().expect("every entry is bound")))
            .collect();
        Ok(CellBinding::new_shared(netlist, cells)?)
    }

    /// Instance `idx`'s aware variant at `corner` through the flow's memo,
    /// the lookup a run's aware corners make once per distinct key: a
    /// miss is characterized ([`SignoffFlow::characterize_instance`]) and
    /// memoized, unless the instance bypasses the memo.
    ///
    /// # Errors
    ///
    /// Propagates [`SignoffFlow::characterize_instance`] failures.
    pub fn aware_variant(
        &self,
        netlist: &MappedNetlist,
        idx: usize,
        context: CellContext,
        classes: &[DeviceClass],
        corner: Corner,
    ) -> Result<Arc<CharacterizedCell>, FlowError> {
        let cell_id = self.cell_id(&netlist.instances()[idx].cell);
        let code = corner_code(corner);
        let key = self
            .variant_key(cell_id, context, classes)
            .map(|(cell, context, bits)| (cell, context, bits, code));
        if let Some(hit) = key.and_then(|key| self.caches.aware.get(&key)) {
            return Ok(hit);
        }
        let cell = Arc::new(self.characterize_instance(netlist, idx, context, classes, corner)?);
        if let Some(key) = key {
            self.caches.aware.insert(key, Arc::clone(&cell));
        }
        Ok(cell)
    }

    /// Characterizes one placed instance at one aware corner from its
    /// placement context and per-device classes — the unit of work the
    /// aware corner runs fan out (once per distinct memo key), and the
    /// one [`SignoffFlow::aware_variant`] computes on a memo miss.
    ///
    /// When the flow's `use_context_library` option is off, the passed
    /// context is ignored and the fully isolated variant is used (paper §5
    /// simplified methodology), exactly as in the full run.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Inconsistent`] when the instance's cell or its
    /// context variant is missing from the libraries, and propagates
    /// characterization failures.
    pub fn characterize_instance(
        &self,
        netlist: &MappedNetlist,
        idx: usize,
        context: CellContext,
        classes: &[DeviceClass],
        corner: Corner,
    ) -> Result<CharacterizedCell, FlowError> {
        let _inst = svt_obs::span("core.signoff.aware.instance");
        let inst = &netlist.instances()[idx];
        let cell = self
            .library
            .cell(&inst.cell)
            .ok_or_else(|| FlowError::Inconsistent {
                reason: format!("unknown cell `{}`", inst.cell),
            })?;
        let context = if self.options.use_context_library {
            context
        } else {
            CellContext::default()
        };
        let variant =
            self.expanded
                .variant(&inst.cell, context)
                .ok_or_else(|| FlowError::Inconsistent {
                    reason: format!(
                        "expanded library lacks {} in context {}",
                        inst.cell,
                        context.code()
                    ),
                })?;
        let name = format!("{}_{:?}", variant.variant_name, corner);
        Ok(characterize_corner(
            cell,
            &variant.device_lengths_nm,
            classes,
            &self.options.budget,
            self.options.policy,
            corner,
            &name,
            self.options.characterize,
        )?)
    }

    /// Runs the sign-off comparison *and* assembles the full audit trail:
    /// per instance and per arc, the device classes, the arc label, and
    /// the eqns. 1–5 corner trim with before/after gate lengths, plus
    /// per-endpoint traditional-vs-aware arrivals.
    ///
    /// The timing result is computed through the exact same code path as
    /// [`SignoffFlow::run`], so the comparison is bit-identical; the audit
    /// is a deterministic sequential pass over the same provenance, so the
    /// rendered report is byte-identical across thread counts and trace
    /// modes.
    ///
    /// # Errors
    ///
    /// Propagates the same failures as [`SignoffFlow::run`].
    ///
    /// # Examples
    ///
    /// ```
    /// use svt_core::{SignoffFlow, SignoffOptions};
    /// use svt_litho::Process;
    /// use svt_netlist::{bench, technology_map};
    /// use svt_place::{place, PlacementOptions};
    /// use svt_stdcell::{expand_library, ExpandOptions, Library};
    ///
    /// let lib = Library::svt90();
    /// let sim = Process::nm90().simulator();
    /// let expanded = expand_library(&lib, &sim, &ExpandOptions::fast())?;
    /// let n = bench::parse("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")?;
    /// let mapped = technology_map(&n, &lib)?;
    /// let placement = place(&mapped, &lib, &PlacementOptions::default())?;
    ///
    /// let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
    /// let (cmp, audit) = flow.run_audited(&mapped, &placement)?;
    /// assert_eq!(audit.testcase, cmp.testcase);
    /// assert!(audit.render_text().contains("corner delays"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_audited(
        &self,
        netlist: &MappedNetlist,
        placement: &Placement,
    ) -> Result<(SignoffComparison, AuditTrail), FlowError> {
        let provenance = self.run_with_provenance(netlist, placement)?;
        Ok((provenance.comparison, provenance.audit))
    }

    /// Runs the audited sign-off comparison and returns *everything* it
    /// computed: corner bindings and STA states, placement contexts,
    /// device classes, the comparison, and the audit trail.
    ///
    /// This is the entry point for incremental ECO re-sign-off
    /// (`svt-eco`): the returned [`FlowProvenance`] is the baseline an
    /// `EcoSession`-style engine mutates in place. The
    /// timing result and audit are bit-identical to
    /// [`SignoffFlow::run_audited`] — which delegates here.
    ///
    /// # Errors
    ///
    /// Propagates the same failures as [`SignoffFlow::run`].
    pub fn run_with_provenance(
        &self,
        netlist: &MappedNetlist,
        placement: &Placement,
    ) -> Result<FlowProvenance, FlowError> {
        let _span = svt_obs::span("core.signoff");
        let cell_ids = self.instance_cell_ids(netlist);
        let traditional_analyses = self.traditional_corners(netlist, &cell_ids)?;
        let traditional = self.apply_residual_derate(corner_timing_of(&traditional_analyses));
        let run = self.aware_analyses(netlist, placement, &cell_ids)?;
        let aware = self.apply_residual_derate(corner_timing_of(&run.analyses));
        let comparison = SignoffComparison {
            testcase: netlist.name().to_string(),
            gates: netlist.instances().len(),
            traditional,
            aware,
        };
        let audit = self.assemble_audit(
            netlist,
            &run.contexts,
            &run.classes,
            [
                traditional_analyses[0].report(),
                traditional_analyses[2].report(),
            ],
            [run.analyses[0].report(), run.analyses[2].report()],
            &comparison,
        )?;
        Ok(FlowProvenance {
            traditional: traditional_analyses,
            aware: run.analyses,
            contexts: run.contexts,
            classes: run.classes,
            comparison,
            audit,
        })
    }

    /// Assembles the audit trail from a run's provenance. Purely
    /// sequential arithmetic over data the flow already computed — no STA
    /// reruns — so it is deterministic by construction. `trad` and `aware`
    /// carry the `[bc, wc]` endpoint reports of each methodology.
    ///
    /// Public so an incremental re-sign-off can rebuild a bit-identical
    /// audit from updated provenance.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Inconsistent`] when a cell or context variant
    /// is missing from the libraries.
    pub fn assemble_audit(
        &self,
        netlist: &MappedNetlist,
        contexts: &[CellContext],
        classes: &[Vec<DeviceClass>],
        trad: [&TimingReport; 2],
        aware: [&TimingReport; 2],
        comparison: &SignoffComparison,
    ) -> Result<AuditTrail, FlowError> {
        let _span = svt_obs::span("core.signoff.audit");
        let l_nom = self.options.characterize.nominal_length_nm;

        let mut instances = Vec::new();
        for idx in 0..netlist.instances().len() {
            instances.extend(self.audit_instance_rows(
                netlist,
                idx,
                contexts[idx],
                &classes[idx],
            )?);
        }

        let trad_bc = trad[0].po_arrivals();
        let trad_wc = trad[1].po_arrivals();
        let aware_bc = aware[0].po_arrivals();
        let aware_wc = aware[1].po_arrivals();
        let paths = trad_bc
            .iter()
            .zip(&trad_wc)
            .zip(aware_bc.iter().zip(&aware_wc))
            .map(|((tb, tw), (ab, aw))| self.audit_path_row(&tb.0, tb.1, tw.1, ab.1, aw.1))
            .collect();

        Ok(AuditTrail {
            testcase: comparison.testcase.clone(),
            nominal_l_nm: l_nom,
            policy: format!("{:?}", self.options.policy),
            corner_delays: audit_corner_delays(comparison),
            instances,
            paths,
        })
    }

    /// The audit rows of one instance — one per timing arc of its current
    /// master, with the arc's device-class mix, in-context mean gate
    /// length, and eqns. 1–5 corner trim.
    ///
    /// [`SignoffFlow::assemble_audit`] is exactly the concatenation of
    /// these rows over all instances (netlist order), so an incremental
    /// re-sign-off can rebuild only the rows of its dirty instances and
    /// splice them over the previous audit bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Inconsistent`] when the instance's cell or
    /// its context variant is missing from the libraries.
    pub fn audit_instance_rows(
        &self,
        netlist: &MappedNetlist,
        idx: usize,
        context: CellContext,
        classes: &[DeviceClass],
    ) -> Result<Vec<InstanceAudit>, FlowError> {
        let l_nom = self.options.characterize.nominal_length_nm;
        let trad_corners = self.options.budget.traditional_corners(l_nom);
        let inst = &netlist.instances()[idx];
        let cell = self
            .library
            .cell(&inst.cell)
            .ok_or_else(|| FlowError::Inconsistent {
                reason: format!("unknown cell `{}`", inst.cell),
            })?;
        let context = if self.options.use_context_library {
            context
        } else {
            CellContext::default()
        };
        let variant =
            self.expanded
                .variant(&inst.cell, context)
                .ok_or_else(|| FlowError::Inconsistent {
                    reason: format!(
                        "expanded library lacks {} in context {}",
                        inst.cell,
                        context.code()
                    ),
                })?;
        let mut rows = Vec::with_capacity(cell.arcs().len());
        for arc in cell.arcs() {
            let mean_l = arc
                .devices
                .iter()
                .map(|d| variant.device_lengths_nm[d.0])
                .sum::<f64>()
                / arc.devices.len() as f64;
            let arc_classes: Vec<DeviceClass> = arc.devices.iter().map(|d| classes[d.0]).collect();
            let label = label_arc(&arc_classes, self.options.policy);
            let corners = self.options.budget.aware_corners(mean_l, label);
            rows.push(InstanceAudit {
                instance: format!("{}:{}>{}", inst.name, arc.from_pin, arc.to_pin),
                cell: inst.cell.clone(),
                device_class: class_mix(&arc_classes),
                mean_context_l_nm: mean_l,
                trim: TrimRecord {
                    arc_label: label_name(label).to_string(),
                    l_nominal_nm: l_nom,
                    bc_before_nm: trad_corners.bc_nm,
                    wc_before_nm: trad_corners.wc_nm,
                    bc_after_nm: corners.bc_nm,
                    wc_after_nm: corners.wc_nm,
                    residual_nm: self.options.budget.delta_nm(mean_l)
                        - self.options.budget.lvar_pitch_nm(mean_l),
                    focus_trim_nm: self.options.budget.lvar_focus_nm(mean_l),
                },
            });
        }
        Ok(rows)
    }

    /// The audit row of one timing endpoint, from its raw `[bc, wc]`
    /// corner arrivals with the residual process derate applied per path.
    ///
    /// Scaling by a positive constant commutes with `max` bit-for-bit,
    /// so the worst derated path equals the derated circuit delay
    /// exactly — the reconciliation the differential tests pin.
    #[must_use]
    pub fn audit_path_row(
        &self,
        endpoint: &str,
        trad_bc_ns: f64,
        trad_wc_ns: f64,
        aware_bc_ns: f64,
        aware_wc_ns: f64,
    ) -> PathAudit {
        let d = self.options.residual_process_derate;
        PathAudit {
            endpoint: endpoint.to_string(),
            trad_bc_ns: trad_bc_ns * (1.0 - d),
            trad_wc_ns: trad_wc_ns * (1.0 + d),
            aware_bc_ns: aware_bc_ns * (1.0 - d),
            aware_wc_ns: aware_wc_ns * (1.0 + d),
        }
    }
}

/// The audit's headline corner-delay block for a comparison, audit corner
/// order (`traditional-bc` … `aware-wc`).
#[must_use]
pub fn audit_corner_delays(comparison: &SignoffComparison) -> Vec<CornerDelay> {
    vec![
        CornerDelay {
            corner: "traditional-bc".into(),
            delay_ns: comparison.traditional.bc_ns,
        },
        CornerDelay {
            corner: "traditional-nom".into(),
            delay_ns: comparison.traditional.nom_ns,
        },
        CornerDelay {
            corner: "traditional-wc".into(),
            delay_ns: comparison.traditional.wc_ns,
        },
        CornerDelay {
            corner: "aware-bc".into(),
            delay_ns: comparison.aware.bc_ns,
        },
        CornerDelay {
            corner: "aware-nom".into(),
            delay_ns: comparison.aware.nom_ns,
        },
        CornerDelay {
            corner: "aware-wc".into(),
            delay_ns: comparison.aware.wc_ns,
        },
    ]
}

/// The aware characterizations of one run, each listed once: every
/// distinct [`VariantKey`] in order of first use, plus one entry per
/// instance that bypasses the memo (a cell the library lacks, or one with
/// more than 32 devices). Shared by the run's three aware corners.
struct AwareWork {
    /// Per entry: the instance it is characterized for (its first user)
    /// and its key (`None`: bypass).
    entries: Vec<(usize, Option<VariantKey>)>,
    /// Per instance, its entry.
    entry_of: Vec<u32>,
}

/// The aware corner analyses plus the provenance the audit trail needs.
struct AwareRun {
    /// Corner analyses in `Corner::ALL` order (`[bc, nom, wc]`).
    analyses: Vec<CornerAnalysis>,
    /// Per-instance placement contexts, netlist order.
    contexts: Vec<CellContext>,
    /// Per-instance, per-device classes, netlist order.
    classes: Vec<Vec<DeviceClass>>,
}

/// The `[bc, nom, wc]` circuit delays of three corner analyses.
fn corner_timing_of(analyses: &[CornerAnalysis]) -> CornerTiming {
    CornerTiming {
        bc_ns: analyses[0].report().circuit_delay_ns(),
        nom_ns: analyses[1].report().circuit_delay_ns(),
        wc_ns: analyses[2].report().circuit_delay_ns(),
    }
}

/// Stable audit names of the device classes in an arc, as a deterministic
/// `dense/isolated/self-compensated` count mix.
fn class_mix(classes: &[DeviceClass]) -> String {
    let count = |c: DeviceClass| classes.iter().filter(|&&x| x == c).count();
    format!(
        "dense:{} iso:{} self:{}",
        count(DeviceClass::Dense),
        count(DeviceClass::Isolated),
        count(DeviceClass::SelfCompensated)
    )
}

fn label_name(label: ArcLabel) -> &'static str {
    match label {
        ArcLabel::Smile => "smile",
        ArcLabel::Frown => "frown",
        ArcLabel::SelfCompensated => "self-compensated",
    }
}

/// Classifies one placed device site against the flow's contacted pitch
/// (paper §3.2): the exact classification rule the aware flow applies, so
/// an incremental re-sign-off reclassifying a window of rows agrees
/// bit-for-bit with the full run.
#[must_use]
pub fn classify_device_site(site: &DeviceSite, options: &SignoffOptions) -> DeviceClass {
    classify_device(
        site.left_space,
        site.right_space,
        options.contacted_pitch_nm,
        site.span_abs.1 - site.span_abs.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_exec::ScratchArena;
    use svt_litho::Process;
    use svt_netlist::{bench, generate_benchmark, technology_map, BenchmarkProfile};
    use svt_place::place;
    use svt_sta::analyze_full;
    use svt_stdcell::{expand_library, ExpandOptions};

    fn setup() -> (Library, ExpandedLibrary, MappedNetlist, Placement) {
        let lib = Library::svt90();
        let sim = Process::nm90().simulator();
        let expanded = expand_library(&lib, &sim, &ExpandOptions::fast()).unwrap();
        let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
        let mapped = technology_map(&netlist, &lib).unwrap();
        let placement = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
        (lib, expanded, mapped, placement)
    }

    #[test]
    fn aware_flow_tightens_the_spread() {
        let (lib, expanded, mapped, placement) = setup();
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let cmp = flow.run(&mapped, &placement).unwrap();
        assert!(cmp.traditional.bc_ns < cmp.traditional.nom_ns);
        assert!(cmp.traditional.nom_ns < cmp.traditional.wc_ns);
        assert!(cmp.aware.bc_ns <= cmp.aware.nom_ns + 1e-12);
        assert!(cmp.aware.nom_ns <= cmp.aware.wc_ns + 1e-12);
        let reduction = cmp.uncertainty_reduction_pct();
        assert!(
            reduction > 15.0 && reduction < 70.0,
            "uncertainty reduction {reduction}% out of the plausible band"
        );
    }

    #[test]
    fn simplified_flow_still_tightens_but_less_contextually() {
        let (lib, expanded, mapped, placement) = setup();
        let full = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let simple = SignoffFlow::new(
            &lib,
            &expanded,
            SignoffOptions {
                use_context_library: false,
                ..SignoffOptions::default()
            },
        );
        let r_full = full.run(&mapped, &placement).unwrap();
        let r_simple = simple.run(&mapped, &placement).unwrap();
        assert!(r_simple.uncertainty_reduction_pct() > 10.0);
        // Same traditional baseline in both flows.
        assert!((r_full.traditional.wc_ns - r_simple.traditional.wc_ns).abs() < 1e-12);
    }

    #[test]
    fn corner_bindings_equal_instance_by_instance_builds() {
        let (lib, expanded, mapped, placement) = setup();
        for use_context_library in [true, false] {
            let flow = SignoffFlow::new(
                &lib,
                &expanded,
                SignoffOptions {
                    use_context_library,
                    ..SignoffOptions::default()
                },
            );
            let l_nom = flow.options().characterize.nominal_length_nm;
            let corners = flow.options().budget.traditional_corners(l_nom);
            // Cold, then warm from the memos.
            for _ in 0..2 {
                let run = flow.run_with_provenance(&mapped, &placement).unwrap();
                let lengths = [corners.bc_nm, corners.nom_nm, corners.wc_nm];
                for (analysis, l) in run.traditional.iter().zip(lengths) {
                    let expected = CellBinding::uniform_scaled(&mapped, &lib, l).unwrap();
                    assert_eq!(analysis.binding, expected, "traditional L = {l}");
                }
                for (analysis, corner) in run.aware.iter().zip(Corner::ALL) {
                    let cells = (0..mapped.instances().len())
                        .map(|i| {
                            flow.characterize_instance(
                                &mapped,
                                i,
                                run.contexts[i],
                                &run.classes[i],
                                corner,
                            )
                            .unwrap()
                        })
                        .collect();
                    let expected = CellBinding::new(&mapped, cells).unwrap();
                    assert_eq!(analysis.binding, expected, "aware {corner:?}");
                }
            }
        }
    }

    /// Times `text`'s netlist through the flow, then the same netlist (one
    /// stamp) with the variant of the instance driving `z` changed by
    /// `caps` (`(net, capacitance)` of the pin on each net), which the
    /// cached topology no longer fits: a direct analysis against that
    /// topology answers the typed error, while the flow rebuilds it and
    /// times either binding as a fresh analysis does.
    fn assert_stale_topology_is_rebuilt(text: &str, caps: &[(&str, f64)]) {
        let (lib, expanded, _, _) = setup();
        let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());
        let timing = flow.options().timing;
        let m = technology_map(&bench::parse(text).unwrap(), &lib).unwrap();
        let binding = CellBinding::nominal(&m, &lib).unwrap();
        let gate = m
            .instances()
            .iter()
            .position(|inst| inst.connections.iter().any(|(_, net)| net == "z"))
            .unwrap();
        let mut cell = binding.cell(gate).clone();
        for (pin, net) in &m.instances()[gate].connections {
            if let Some(&(_, cap)) = caps.iter().find(|(n, _)| n == net) {
                let pin = cell.pins.iter_mut().find(|p| &p.name == pin).unwrap();
                pin.capacitance_pf = cap;
            }
        }
        let mut stale = binding.clone();
        stale.replace(&m, gate, cell).unwrap();

        let fresh = |b: &CellBinding| analyze_full(&m, b, &timing).unwrap();
        assert_eq!(flow.analyze_corner(&m, &binding).unwrap(), fresh(&binding));
        let (cached, built) = flow.topo_for(&m, &stale, false).unwrap();
        assert!(!built);
        let direct = analyze_full_in(&m, &stale, &timing, &cached, &ScratchArena::new());
        assert!(
            matches!(direct, Err(StaError::InvalidBinding { .. })),
            "{direct:?}"
        );
        assert_eq!(flow.analyze_corner(&m, &stale).unwrap(), fresh(&stale));
        assert_eq!(flow.analyze_corner(&m, &binding).unwrap(), fresh(&binding));
    }

    #[test]
    fn a_moved_output_pin_rebuilds_the_cached_topology() {
        // The NAND's variant declares its pin on b the output; the pin on
        // z becomes one the timer ignores.
        let text = "# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n";
        assert_stale_topology_is_rebuilt(text, &[("b", 0.0), ("z", -1.0)]);
    }

    #[test]
    fn a_dropped_input_pin_rebuilds_the_cached_topology() {
        // The NAND's variant drops its pin on x (a negative capacitance
        // makes it no input): the cached topology records one more input.
        let text = "# t\nINPUT(a)\nOUTPUT(z)\nx = NOT(a)\nz = NAND(a, x)\n";
        assert_stale_topology_is_rebuilt(text, &[("x", -1.0)]);
    }

    #[test]
    fn corner_characterization_orders_tables() {
        let lib = Library::svt90();
        let nand = lib.cell("NAND2X1").unwrap();
        let n = nand.layout().devices().len();
        let lengths = vec![92.0; n];
        let classes = vec![DeviceClass::Dense; n];
        let opts = CharacterizeOptions::default();
        let budget = VariationBudget::default();
        let by_corner = |corner: Corner| {
            characterize_corner(
                nand,
                &lengths,
                &classes,
                &budget,
                ArcLabelPolicy::Majority,
                corner,
                "t",
                opts,
            )
            .unwrap()
            .arcs[0]
                .delay
                .lookup(0.05, 0.01)
        };
        let bc = by_corner(Corner::BestCase);
        let nom = by_corner(Corner::Nominal);
        let wc = by_corner(Corner::WorstCase);
        assert!(bc < nom && nom < wc, "{bc} {nom} {wc}");
    }

    #[test]
    fn corner_characterization_validates_inputs() {
        let lib = Library::svt90();
        let inv = lib.cell("INVX1").unwrap();
        let err = characterize_corner(
            inv,
            &[90.0],
            &[DeviceClass::Dense, DeviceClass::Dense],
            &VariationBudget::default(),
            ArcLabelPolicy::Majority,
            Corner::Nominal,
            "t",
            CharacterizeOptions::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn frown_arcs_have_lower_wc_than_smile_arcs() {
        let lib = Library::svt90();
        let inv = lib.cell("INVX1").unwrap();
        let opts = CharacterizeOptions::default();
        let budget = VariationBudget::default();
        let wc_of = |class: DeviceClass| {
            characterize_corner(
                inv,
                &[90.0, 90.0],
                &[class, class],
                &budget,
                ArcLabelPolicy::Majority,
                Corner::WorstCase,
                "t",
                opts,
            )
            .unwrap()
            .arcs[0]
                .delay
                .lookup(0.05, 0.01)
        };
        assert!(wc_of(DeviceClass::Isolated) < wc_of(DeviceClass::Dense));
    }
}
