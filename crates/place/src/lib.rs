//! Row-based standard-cell placement for the `svt` workspace.
//!
//! The paper's experiment times "synthesized and placed circuits"; what the
//! methodology actually consumes from placement is 1-D: the horizontal
//! neighbor relationships of cells in rows, the whitespace between them,
//! and the resulting neighbor-poly spacings (`nps` of paper §3.1.2 /
//! Fig. 4). This crate provides:
//!
//! * [`place`] — a deterministic row placer with a seeded whitespace
//!   distribution (the whitespace statistics drive how many devices end up
//!   isolated, which the paper calls out explicitly),
//! * [`Placement`] — queries for instance positions, per-instance
//!   [`svt_stdcell::CellContext`] extraction, per-device absolute spacings
//!   ([`DeviceSite`]) for iso/dense classification and full-chip OPC, and
//!   row poly patterns,
//! * [`def`] — a DEF-flavoured text format for placements.
//!
//! # Examples
//!
//! ```
//! use svt_netlist::{bench, technology_map};
//! use svt_place::{place, PlacementOptions};
//! use svt_stdcell::Library;
//!
//! let lib = Library::svt90();
//! let n = bench::parse("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")?;
//! let mapped = technology_map(&n, &lib)?;
//! let placement = place(&mapped, &lib, &PlacementOptions::default())?;
//! assert_eq!(placement.placed_instances().count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod def;
mod error;
mod nps;
mod placer;

pub use error::PlaceError;
pub use nps::{instance_contexts_from_sites, instance_contexts_in_sites, DeviceSite, InstanceNps};
pub use placer::{place, PlacedInstance, Placement, PlacementOptions, PlacementRow};
