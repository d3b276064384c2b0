//! Property tests pinning the arena/SoA timing state to the allocating
//! reference paths and to an independent name-matching timer, bit for
//! bit.
//!
//! The hot path has two entry points that must agree exactly with a
//! plain from-scratch [`analyze_full`]:
//!
//! * [`analyze_full_in`] — cached [`SharedTopology`] plus a reused
//!   scratch arena,
//! * [`svt_sta::StaState::update`] — the in-place re-timing of a prior
//!   state, chained across edits through one reused arena.
//!
//! Both read arcs through slots resolved once per instance (input net,
//! connection, pin and arc index). [`Reference`] is the oracle for that
//! resolution: a test-only timer that finds every pin by name — the
//! connection by `position`, the arc by `arc_from` — on every pass, as
//! the timer did before it resolved slots. Loads, arrivals, slews and
//! winning arcs must match it bit for bit, for bindings that share one
//! `Arc` per master, bindings that clone every variant, and variants
//! whose pins and arcs are permuted relative to the master.
//!
//! Every property runs on randomized generator netlists (seeded, so
//! failures replay) and compares whole [`svt_sta::StaState`]s with `==`,
//! which is bit-exact: the state holds raw `f64` vectors and `PartialEq`
//! on them is IEEE equality (no NaNs arise from finite NLDM tables).
//!
//! Thread-count independence: these APIs never touch the worker pool, so
//! the properties hold under any `SVT_THREADS`; CI's differential matrix
//! runs this suite under `SVT_THREADS` ∈ {1, 2, 8} to pin the claim end
//! to end.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use svt_exec::ScratchArena;
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile, MappedNetlist};
use svt_sta::{
    analyze_full, analyze_full_in, AnalysisMode, CellBinding, SharedTopology, StaError, StaState,
    TimingOptions,
};
use svt_stdcell::{CharacterizedCell, Library};

/// A randomized benchmark profile small enough for ~100 ms cases.
fn profile_strategy() -> impl Strategy<Value = BenchmarkProfile> {
    (2usize..10, 1usize..5, 8usize..60, 0u64..u64::MAX).prop_map(|(pi, po, extra, seed)| {
        // `custom` requires gates >= outputs.
        BenchmarkProfile::custom("prop", pi, po, po + extra, seed)
    })
}

fn mapped(profile: &BenchmarkProfile, lib: &Library) -> MappedNetlist {
    technology_map(&generate_benchmark(profile), lib).expect("generated netlists map")
}

/// Timing options with the backward pass on, so required-time state is
/// part of the comparison too.
fn options() -> TimingOptions {
    TimingOptions {
        clock_period_ns: Some(1.0),
        ..TimingOptions::default()
    }
}

/// The name-matching reference timer: per net, the load, arrival, slew
/// and winning arc `(instance, connection index)`.
#[derive(Debug, Default)]
struct Reference {
    load: HashMap<String, f64>,
    arrival: HashMap<String, f64>,
    slew: HashMap<String, f64>,
    from: HashMap<String, (usize, usize)>,
}

impl Reference {
    /// Times `netlist` under `binding` without resolving anything ahead:
    /// each pass matches pin names against the instance's connections
    /// and the variant's arcs. Loads follow the timer's documented
    /// summation order (sink pins by ascending instance, then pin order;
    /// then primary-output loads); instances are evaluated whenever their
    /// inputs have timing, in no particular order, since evaluation is
    /// pure.
    fn analyze(netlist: &MappedNetlist, binding: &CellBinding, options: &TimingOptions) -> Self {
        let net_of = |idx: usize, pin: &str| -> (usize, String) {
            let inst = &netlist.instances()[idx];
            let conn = inst
                .connections
                .iter()
                .position(|(p, _)| p == pin)
                .expect("generated netlists connect every pin");
            (conn, inst.connections[conn].1.clone())
        };
        let inputs = |cell: &CharacterizedCell| {
            cell.pins
                .iter()
                .filter(|p| p.capacitance_pf > 0.0)
                .map(|p| p.name.clone())
                .collect::<Vec<_>>()
        };
        let mut r = Reference::default();
        for (idx, _) in netlist.instances().iter().enumerate() {
            let cell = binding.cell(idx);
            for pin in inputs(cell) {
                let cap = cell.pin(&pin).expect("input pin").capacitance_pf;
                *r.load.entry(net_of(idx, &pin).1).or_insert(0.0) +=
                    cap + options.wire_cap_per_fanout_pf;
            }
        }
        for po in netlist.outputs() {
            *r.load.entry(po.clone()).or_insert(0.0) += options.output_load_pf;
        }
        for pi in netlist.inputs() {
            r.arrival.insert(pi.clone(), 0.0);
            r.slew.insert(pi.clone(), options.primary_input_slew_ns);
        }

        let pick = |a: f64, b: f64| match options.mode {
            AnalysisMode::Late => a.max(b),
            AnalysisMode::Early => a.min(b),
        };
        let mut done = vec![false; netlist.instances().len()];
        loop {
            let mut progress = false;
            for (idx, done) in done.iter_mut().enumerate() {
                let cell = binding.cell(idx);
                let pins = inputs(cell);
                if *done
                    || !pins
                        .iter()
                        .all(|p| r.arrival.contains_key(&net_of(idx, p).1))
                {
                    continue;
                }
                let output = cell
                    .pins
                    .iter()
                    .find(|p| p.capacitance_pf == 0.0)
                    .expect("output pin");
                let out_net = net_of(idx, &output.name).1;
                let load = r.load.get(&out_net).copied().unwrap_or(0.0);
                let mut best: Option<(f64, (usize, usize))> = None;
                let mut merged_slew: Option<f64> = None;
                for pin in &pins {
                    let (conn, net) = net_of(idx, pin);
                    let arc = cell.arc_from(pin).expect("every input pin has an arc");
                    let delay = arc.delay.lookup(r.slew[&net], load);
                    let out_slew = arc.output_slew.lookup(r.slew[&net], load);
                    let arc_arrival = r.arrival[&net] + delay;
                    merged_slew = Some(merged_slew.map_or(out_slew, |s| pick(s, out_slew)));
                    let replace = best.is_none_or(|(cur, _)| pick(cur, arc_arrival) == arc_arrival);
                    if replace {
                        best = Some((arc_arrival, (idx, conn)));
                    }
                }
                let (arrival, from) = best.expect("generated cells have input pins");
                r.arrival.insert(out_net.clone(), arrival);
                r.slew
                    .insert(out_net.clone(), merged_slew.expect("one arc at least"));
                r.from.insert(out_net, from);
                *done = true;
                progress = true;
            }
            if !progress {
                break;
            }
        }
        assert!(done.iter().all(|&d| d), "generated netlists are acyclic");
        r
    }

    /// Asserts that `state` times every net of `netlist` exactly as the
    /// reference does.
    fn assert_matches(&self, netlist: &MappedNetlist, state: &StaState) {
        let report = state.report();
        let nets = netlist.inputs().iter().chain(netlist.outputs()).chain(
            netlist
                .instances()
                .iter()
                .flat_map(|i| i.connections.iter().map(|c| &c.1)),
        );
        for net in nets {
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            let or_zero = |m: &HashMap<String, f64>| Some(m.get(net).copied().unwrap_or(0.0));
            assert_eq!(
                bits(state.load_of(net)),
                bits(or_zero(&self.load)),
                "load of `{net}`"
            );
            assert_eq!(
                bits(report.arrival_of(net)),
                bits(or_zero(&self.arrival)),
                "arrival of `{net}`"
            );
            assert_eq!(
                bits(report.slew_of(net)),
                bits(or_zero(&self.slew)),
                "slew of `{net}`"
            );
            assert_eq!(
                report.driving_arc_of(net),
                self.from.get(net).copied(),
                "winning arc of `{net}`"
            );
        }
    }
}

/// A small deterministic stream of choices derived from a case seed.
struct Choices(u64);

impl Choices {
    fn next(&mut self, below: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % below as u64) as usize
    }

    /// A gate length for a corner-scaled variant, nm.
    fn length(&mut self) -> f64 {
        70.0 + 45.0 * self.next(1000) as f64 / 1000.0
    }
}

/// `cell` with its pins and its arcs rotated by independent amounts, so
/// pin order, arc order and connection order all disagree.
fn permuted(mut cell: CharacterizedCell, pins_by: usize, arcs_by: usize) -> CharacterizedCell {
    let (np, na) = (cell.pins.len(), cell.arcs.len());
    cell.pins.rotate_left(pins_by % np);
    cell.arcs.rotate_right(arcs_by % na);
    cell
}

/// A variant of `master` at a drawn gate length, permuted by draws
/// (one in three keeps the master's order).
fn variant(lib: &Library, master: &str, choices: &mut Choices) -> CharacterizedCell {
    let cell = CellBinding::uniform_scaled_cell(lib, master, choices.length()).unwrap();
    if choices.next(3) == 0 {
        cell
    } else {
        let (p, a) = (choices.next(8), choices.next(8));
        permuted(cell, p, a)
    }
}

/// A binding of drawn, permuted variants: with `shared`, one `Arc` per
/// master shared by all its instances (as the sign-off flow binds), else
/// a separately built variant for every instance.
fn drawn_binding(
    netlist: &MappedNetlist,
    lib: &Library,
    shared: bool,
    choices: &mut Choices,
) -> CellBinding {
    let mut per_master: HashMap<String, Arc<CharacterizedCell>> = HashMap::new();
    let cells = netlist
        .instances()
        .iter()
        .map(|inst| {
            if shared {
                Arc::clone(
                    per_master
                        .entry(inst.cell.clone())
                        .or_insert_with(|| Arc::new(variant(lib, &inst.cell, choices))),
                )
            } else {
                Arc::new(variant(lib, &inst.cell, choices))
            }
        })
        .collect();
    CellBinding::new_shared(netlist, cells).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arena path (shared topology + reused scratch) reproduces the
    /// allocating path bit-for-bit, including across scratch reuse.
    #[test]
    fn arena_full_analysis_matches_the_allocating_path(profile in profile_strategy()) {
        let lib = Library::svt90();
        let netlist = mapped(&profile, &lib);
        let binding = CellBinding::nominal(&netlist, &lib).unwrap();
        let opts = options();

        let reference = analyze_full(&netlist, &binding, &opts).unwrap();

        let topo = SharedTopology::build(&netlist, &binding).unwrap();
        let mut scratch = ScratchArena::new();
        for _ in 0..2 {
            let state = analyze_full_in(&netlist, &binding, &opts, &topo, &scratch).unwrap();
            prop_assert_eq!(&state, &reference);
            scratch.reset();
        }
    }

    /// A chain of in-place rebind edits through one reused arena stays
    /// bit-identical to a from-scratch analysis after every step. Each
    /// step rebinds one instance to a variant at a new gate length (wide
    /// enough to reorder arrivals downstream), to such a variant with
    /// rescaled input pin capacitances (which re-loads the upstream
    /// drivers), or to the variant already bound — a same-variant rebind,
    /// which must re-evaluate exactly that one instance and change nothing.
    #[test]
    fn chained_in_place_updates_match_full_reruns(
        profile in profile_strategy(),
        edits in prop::collection::vec(
            (0usize..1_000_000, 70.0f64..115.0, 0u8..3, 0.5f64..2.0),
            1..6,
        ),
    ) {
        let lib = Library::svt90();
        let netlist = mapped(&profile, &lib);
        let mut binding = CellBinding::nominal(&netlist, &lib).unwrap();
        let opts = options();

        let mut state = analyze_full(&netlist, &binding, &opts).unwrap();
        let mut scratch = ScratchArena::new();
        for (pick, length, kind, pin_scale) in edits {
            let idx = pick % netlist.instances().len();
            let before = state.clone();
            if kind > 0 {
                let mut cell = CellBinding::uniform_scaled_cell(
                    &lib,
                    &netlist.instances()[idx].cell,
                    length,
                )
                .unwrap();
                if kind == 2 {
                    for pin in cell.pins.iter_mut().filter(|p| p.capacitance_pf > 0.0) {
                        pin.capacitance_pf *= pin_scale;
                    }
                }
                binding.replace(&netlist, idx, cell).unwrap();
            }
            let stats = state.update(&netlist, &binding, &[idx, idx], &scratch).unwrap();
            scratch.reset();
            prop_assert_eq!(&state, &analyze_full(&netlist, &binding, &opts).unwrap());
            if kind == 0 {
                prop_assert_eq!(stats.seed_instances, 1);
                prop_assert_eq!(stats.forward_instances, 1);
                prop_assert_eq!(&state, &before);
            }
        }
    }

    /// Re-binding an instance to a variant missing one of its arcs is a
    /// typed error that leaves the state equal to its pre-call clone.
    #[test]
    fn rebind_to_a_variant_missing_an_arc_is_rejected_untouched(
        profile in profile_strategy(),
        pick in 0usize..1_000_000,
    ) {
        let lib = Library::svt90();
        let netlist = mapped(&profile, &lib);
        let mut binding = CellBinding::nominal(&netlist, &lib).unwrap();
        let mut state = analyze_full(&netlist, &binding, &options()).unwrap();
        let before = state.clone();

        let idx = pick % netlist.instances().len();
        let mut broken = binding.cell(idx).clone();
        broken.arcs.pop();
        binding.replace(&netlist, idx, broken).unwrap();
        let result = state.update(&netlist, &binding, &[idx], &ScratchArena::new());
        prop_assert!(
            matches!(result, Err(StaError::MissingTiming { .. })),
            "got {:?}",
            result
        );
        prop_assert_eq!(&state, &before);
    }
    /// The full analysis and chained in-place re-binds agree bit for bit
    /// with the name-matching reference timer, whether the binding shares
    /// one `Arc` per master or clones every variant, and whatever order
    /// the variants list their pins and arcs in.
    #[test]
    fn resolved_passes_match_the_name_matching_reference(
        profile in profile_strategy(),
        seed in 0u64..u64::MAX,
        shared in 0u8..2,
        early in 0u8..2,
        edits in prop::collection::vec(0usize..1_000_000, 1..5),
    ) {
        let lib = Library::svt90();
        let netlist = mapped(&profile, &lib);
        let opts = TimingOptions {
            mode: if early == 1 { AnalysisMode::Early } else { AnalysisMode::Late },
            ..options()
        };
        let mut choices = Choices(seed);
        let mut binding = drawn_binding(&netlist, &lib, shared == 1, &mut choices);

        let mut state = analyze_full(&netlist, &binding, &opts).unwrap();
        Reference::analyze(&netlist, &binding, &opts).assert_matches(&netlist, &state);

        let mut scratch = ScratchArena::new();
        for pick in edits {
            let idx = pick % netlist.instances().len();
            let cell = variant(&lib, &netlist.instances()[idx].cell, &mut choices);
            binding.replace(&netlist, idx, cell).unwrap();
            state.update(&netlist, &binding, &[idx], &scratch).unwrap();
            scratch.reset();
            Reference::analyze(&netlist, &binding, &opts).assert_matches(&netlist, &state);
            prop_assert_eq!(&state, &analyze_full(&netlist, &binding, &opts).unwrap());
        }
    }
}
