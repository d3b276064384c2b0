//! Property tests pinning the arena/SoA timing state to the allocating
//! reference paths, bit for bit.
//!
//! The hot path has two entry points that must agree exactly with a
//! plain from-scratch [`analyze_full`]:
//!
//! * [`analyze_full_in`] — cached [`SharedTopology`] plus a reused
//!   scratch arena,
//! * [`svt_sta::StaState::update`] — the in-place re-timing of a prior
//!   state, chained across edits through one reused arena.
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

use proptest::prelude::*;

use svt_exec::ScratchArena;
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile, MappedNetlist};
use svt_sta::{
    analyze_full, analyze_full_in, CellBinding, SharedTopology, StaError, TimingOptions,
};
use svt_stdcell::Library;

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
}
