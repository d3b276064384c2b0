//! Design construction through the netlist and placement layers'
//! public functions, each call timed as its own span.

use svt_netlist::{generate_benchmark, technology_map, BenchmarkProfile, MappedNetlist};
use svt_place::{place, Placement, PlacementOptions};
use svt_stdcell::Library;

use crate::trace::Tracer;

pub struct Design {
    pub name: String,
    pub mapped: MappedNetlist,
    pub placement: Placement,
}

/// The paper's Table-2 testcases.
pub const TABLE2_DESIGNS: [&str; 5] = ["c432", "c880", "c1355", "c1908", "c3540"];

/// Placement recipe of the repository's experiments: the placement seed
/// is the profile's seed and the utilization steps with it, so the
/// Table-2 designs are the ones the paper's rows were produced from.
#[must_use]
pub fn placement_options(profile: &BenchmarkProfile) -> PlacementOptions {
    PlacementOptions {
        seed: profile.seed,
        utilization: 0.62 + 0.04 * (profile.seed % 5) as f64,
        ..PlacementOptions::default()
    }
}

/// Generates, maps and places one design.
///
/// # Errors
///
/// Returns the mapping or placement error as text.
pub fn build(
    library: &Library,
    profile: &BenchmarkProfile,
    options: &PlacementOptions,
    tr: &mut Tracer,
) -> Result<Design, String> {
    let netlist = tr.span("netlist.generate", |_| generate_benchmark(profile));
    let mapped = tr
        .span("netlist.techmap", |_| technology_map(&netlist, library))
        .map_err(|e| format!("{}: technology mapping: {e}", profile.name))?;
    let placement = tr
        .span("place.place", |_| place(&mapped, library, options))
        .map_err(|e| format!("{}: placement: {e}", profile.name))?;
    Ok(Design {
        name: profile.name.clone(),
        mapped,
        placement,
    })
}

/// Extracts placement contexts the way a sign-off does
/// (`device_sites` then `instance_contexts_from_sites`), timed as
/// `place.extract`. Traced runs call this next to a sign-off to split
/// out the extraction the sign-off performs internally.
///
/// # Errors
///
/// Returns the extraction error as text.
pub fn extract(
    library: &Library,
    mapped: &MappedNetlist,
    placement: &Placement,
    tr: &mut Tracer,
) -> Result<usize, String> {
    tr.span("place.extract", |_| {
        let sites = placement
            .device_sites(mapped, library)
            .map_err(|e| format!("{}: device sites: {e}", mapped.name()))?;
        let contexts = svt_place::instance_contexts_from_sites(mapped.instances().len(), &sites);
        Ok(std::hint::black_box(contexts).len())
    })
}
