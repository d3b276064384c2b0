//! Regression gate of the sign-off hot path's allocation budget.
//!
//! A warm sign-off (second `run()` on the same [`SignoffFlow`]) must stay
//! allocation-free to first order: every characterization is memoized,
//! the interned topology is verified rather than rebuilt, and the
//! analysis working set comes from pooled bump arenas. The seed measured
//! ~153k allocations / 9.7 MB per c432 sign-off; the arena/SoA refactor
//! targets < 10k, asserted here so `cargo test` catches a regression.
//!
//! The test binary installs its own counting global allocator — the
//! hook costs one relaxed load while inactive, so the cold run is
//! unaffected.

use svt_core::{SignoffFlow, SignoffOptions};
use svt_litho::Process;
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile};
use svt_place::{place, PlacementOptions};
use svt_stdcell::{expand_library, ExpandOptions, Library};

#[global_allocator]
static ALLOC: svt_obs::alloc::CountingAlloc = svt_obs::alloc::CountingAlloc::system();

/// The ISSUE's hot-path ceiling for one warm c432 sign-off.
const WARM_SIGNOFF_ALLOC_CEILING: u64 = 10_000;

#[test]
fn warm_c432_signoff_stays_under_the_allocation_ceiling() {
    let lib = Library::svt90();
    let sim = Process::nm90().simulator();
    let expanded = expand_library(&lib, &sim, &ExpandOptions::fast()).unwrap();
    let netlist = generate_benchmark(&BenchmarkProfile::iscas85("c432").unwrap());
    let mapped = technology_map(&netlist, &lib).unwrap();
    let placement = place(&mapped, &lib, &PlacementOptions::default()).unwrap();
    let flow = SignoffFlow::new(&lib, &expanded, SignoffOptions::default());

    // Cold run fills the flow's memoized state: characterized variants,
    // the interned topology, the scratch arenas.
    let cold = flow.run(&mapped, &placement).unwrap();

    svt_obs::alloc::reset();
    svt_obs::alloc::set_active(true);
    let warm = flow.run(&mapped, &placement).unwrap();
    svt_obs::alloc::set_active(false);
    let (count, bytes) = svt_obs::alloc::totals();

    // Warm must also be bit-identical to cold — the caches trade
    // allocations, never results.
    assert_eq!(cold, warm);
    assert!(
        count < WARM_SIGNOFF_ALLOC_CEILING,
        "warm c432 sign-off made {count} allocations ({bytes} bytes); \
         the hot-path budget is {WARM_SIGNOFF_ALLOC_CEILING}"
    );
}
