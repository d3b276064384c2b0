//! End-to-end integration of the whole workspace: benchmark generation →
//! mapping → placement → library expansion → traditional vs aware corner
//! sign-off (the paper's Table 2 experiment in miniature).

use svt::core::{ArcLabelPolicy, SignoffFlow, SignoffOptions, VariationBudget};
use svt::litho::Process;
use svt::netlist::{generate_benchmark, technology_map, BenchmarkProfile};
use svt::place::{place, PlacementOptions};
use svt::stdcell::{expand_library, ExpandOptions, ExpandedLibrary, Library};

fn expanded_library(library: &Library) -> ExpandedLibrary {
    let sim = Process::nm90().simulator();
    expand_library(library, &sim, &ExpandOptions::fast()).expect("expansion succeeds")
}

#[test]
fn aware_signoff_reduces_uncertainty_in_the_paper_band() {
    let library = Library::svt90();
    let expanded = expanded_library(&library);
    let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").expect("profile"));
    let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
    let placement = place(&mapped, &library, &PlacementOptions::default()).expect("placement");

    // The arc-labelling ablation: both policies must land in the band.
    for policy in [ArcLabelPolicy::Majority, ArcLabelPolicy::Unanimous] {
        let options = SignoffOptions {
            policy,
            ..SignoffOptions::default()
        };
        let flow = SignoffFlow::new(&library, &expanded, options);
        let cmp = flow.run(&mapped, &placement).expect("flow succeeds");

        // Corner ordering holds in both methodologies.
        assert!(cmp.traditional.bc_ns < cmp.traditional.nom_ns, "{policy:?}");
        assert!(cmp.traditional.nom_ns < cmp.traditional.wc_ns, "{policy:?}");
        assert!(cmp.aware.bc_ns <= cmp.aware.nom_ns, "{policy:?}");
        assert!(cmp.aware.nom_ns <= cmp.aware.wc_ns, "{policy:?}");
        // The aware WC never exceeds the traditional WC and the aware BC
        // never undershoots the traditional BC: systematics only remove
        // pessimism.
        assert!(
            cmp.aware.wc_ns <= cmp.traditional.wc_ns + 1e-9,
            "{policy:?}"
        );
        assert!(
            cmp.aware.bc_ns >= cmp.traditional.bc_ns - 1e-9,
            "{policy:?}"
        );
        // Headline metric in a plausible neighborhood of the paper's 28–40%.
        let reduction = cmp.uncertainty_reduction_pct();
        assert!(
            (20.0..60.0).contains(&reduction),
            "{policy:?}: uncertainty reduction {reduction}%"
        );
    }
}

#[test]
fn zero_systematic_budget_makes_both_methodologies_agree() {
    let library = Library::svt90();
    let expanded = expanded_library(&library);
    let netlist = generate_benchmark(&BenchmarkProfile::custom("z", 5, 2, 20, 3));
    let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
    let placement = place(&mapped, &library, &PlacementOptions::default()).expect("placement");

    let flow = SignoffFlow::new(
        &library,
        &expanded,
        SignoffOptions {
            budget: VariationBudget::new(0.15, 0.0, 0.0),
            use_context_library: false,
            ..SignoffOptions::default()
        },
    );
    let cmp = flow.run(&mapped, &placement).expect("flow succeeds");
    // With no systematic share the aware corners keep the full ±Δ
    // excursion; the only remaining difference from the traditional flow
    // is that corners are taken around the (slightly non-nominal)
    // library-OPC printed CDs, so the spread reduction nearly vanishes.
    assert!(
        cmp.uncertainty_reduction_pct().abs() < 10.0,
        "zero systematic budget should not tighten corners, got {:.1}%",
        cmp.uncertainty_reduction_pct()
    );
}

#[test]
fn full_context_flow_beats_or_matches_the_simplified_flow() {
    let library = Library::svt90();
    let expanded = expanded_library(&library);
    let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").expect("profile"));
    let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
    let placement = place(&mapped, &library, &PlacementOptions::default()).expect("placement");

    let run = |use_context| {
        SignoffFlow::new(
            &library,
            &expanded,
            SignoffOptions {
                use_context_library: use_context,
                ..SignoffOptions::default()
            },
        )
        .run(&mapped, &placement)
        .expect("flow succeeds")
    };
    let full = run(true);
    let simple = run(false);
    // Both tighten; the nominal timing differs because the full flow knows
    // each instance's true printed CDs.
    assert!(full.uncertainty_reduction_pct() > 15.0);
    assert!(simple.uncertainty_reduction_pct() > 15.0);
    assert!(
        (full.aware.nom_ns - simple.aware.nom_ns).abs() > 1e-6,
        "context must influence nominal timing"
    );
}

#[test]
fn placement_seed_changes_contexts_but_not_traditional_timing() {
    let library = Library::svt90();
    let expanded = expanded_library(&library);
    let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").expect("profile"));
    let mapped = technology_map(&netlist, &library).expect("mapping succeeds");
    let flow = SignoffFlow::new(&library, &expanded, SignoffOptions::default());

    let run_with_seed = |seed| {
        let placement = place(
            &mapped,
            &library,
            &PlacementOptions {
                seed,
                ..PlacementOptions::default()
            },
        )
        .expect("placement");
        flow.run(&mapped, &placement).expect("flow succeeds")
    };
    let a = run_with_seed(1);
    let b = run_with_seed(42);
    // Traditional corners are placement-blind.
    assert!((a.traditional.wc_ns - b.traditional.wc_ns).abs() < 1e-12);
    // The aware flow sees the different whitespace.
    assert!(
        (a.aware.nom_ns - b.aware.nom_ns).abs() > 1e-9,
        "different placements should give different in-context timing"
    );
}
