//! Shared scaffolding for the `svt` experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the index); this library centralizes the common
//! design-construction steps so each binary stays focused on its
//! experiment. Timing the flow is `perfbench/`'s job, not this crate's.

use svt_litho::{LithoSimulator, Process};
use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile, MappedNetlist};
use svt_place::{place, Placement, PlacementOptions};
use svt_stdcell::Library;

pub mod figures;

/// A synthesized and placed benchmark, ready for OPC or timing work.
#[derive(Debug, Clone)]
pub struct Design {
    /// Benchmark name.
    pub name: String,
    /// Gate count of the pre-mapping netlist.
    pub source_gates: usize,
    /// The technology-mapped netlist.
    pub mapped: MappedNetlist,
    /// The row placement.
    pub placement: Placement,
}

/// Builds a placed design for an ISCAS85 benchmark name.
///
/// # Panics
///
/// Panics on unknown benchmark names or internal flow failures — the
/// experiment binaries treat these as fatal.
#[must_use]
pub fn build_design(library: &Library, name: &str) -> Design {
    let profile = BenchmarkProfile::iscas85(name)
        .unwrap_or_else(|| panic!("unknown ISCAS85 benchmark `{name}`"));
    let netlist = generate_benchmark(&profile);
    let mapped = technology_map(&netlist, library).expect("mapping the svt90 library succeeds");
    // Each testcase gets its own placement seed and utilization so the
    // context mixtures differ across the suite, as real placements would.
    let h = profile.seed;
    let options = PlacementOptions {
        seed: h,
        utilization: 0.62 + 0.04 * (h % 5) as f64,
        ..PlacementOptions::default()
    };
    let placement = place(&mapped, library, &options).expect("placement succeeds");
    Design {
        name: profile.name,
        source_gates: netlist.gates().len(),
        mapped,
        placement,
    }
}

/// The calibrated sign-off simulator shared by the experiments.
#[must_use]
pub fn signoff_simulator() -> LithoSimulator {
    Process::nm90().simulator()
}

/// The five testcases of the paper's Tables 1 and 2.
pub const PAPER_TESTCASES: [&str; 5] = ["c432", "c880", "c1355", "c1908", "c3540"];

/// Renders a unit-width ASCII histogram bar.
#[must_use]
pub fn hbar(count: usize, max_count: usize, width: usize) -> String {
    if max_count == 0 {
        return String::new();
    }
    let n = (count * width).div_ceil(max_count);
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_builder_produces_consistent_artifacts() {
        let lib = Library::svt90();
        let d = build_design(&lib, "c432");
        assert_eq!(d.source_gates, 160);
        assert_eq!(d.placement.placed().len(), d.mapped.instances().len());
    }

    #[test]
    fn hbar_scales() {
        assert_eq!(hbar(10, 10, 4), "####");
        assert_eq!(hbar(5, 10, 4), "##");
        assert_eq!(hbar(0, 10, 4), "");
        assert_eq!(hbar(1, 0, 4), "");
    }
}
