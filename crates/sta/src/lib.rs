//! Graph-based static timing analysis for the `svt` workspace.
//!
//! A deliberately mainstream STA core (the paper's methodology plugs into
//! "a traditional static timing analysis", §3.1.3):
//!
//! * [`CellBinding`] — assigns one [`svt_stdcell::CharacterizedCell`] to
//!   every instance of a mapped netlist. Corner analysis and the
//!   in-context flow differ *only* in which variants they bind.
//! * [`analyze`] — levelized propagation of arrival times and slews with
//!   NLDM lookup (bilinear + edge extrapolation), lumped capacitive loads,
//!   worst-slew merging, and late (max) or early (min) mode.
//! * [`TimingReport`] — per-net arrivals, circuit delay, critical path
//!   extraction, and required-time/slack computation against a clock
//!   period.
//! * [`analyze_full`] / [`StaState::update`] — the incremental (ECO)
//!   path: a full analysis returns an [`StaState`] that later edits
//!   re-time in place, re-evaluating only instances whose inputs changed
//!   bits and required times only in their fan-in cone, bit-identically
//!   to a from-scratch analysis.
//!
//! # Examples
//!
//! ```
//! use svt_netlist::{bench, technology_map};
//! use svt_sta::{analyze, CellBinding, TimingOptions};
//! use svt_stdcell::Library;
//!
//! let lib = Library::svt90();
//! let n = bench::parse("# t\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")?;
//! let mapped = technology_map(&n, &lib)?;
//! let binding = CellBinding::nominal(&mapped, &lib)?;
//! let report = analyze(&mapped, &binding, &TimingOptions::default())?;
//! assert!(report.circuit_delay_ns() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analysis;
mod binding;
mod error;
mod incremental;
mod report;

pub use analysis::{
    analyze, analyze_full, analyze_full_in, analyze_full_with_wire_caps, analyze_nominal,
    analyze_with_wire_caps, AnalysisMode, TimingOptions,
};
pub use binding::CellBinding;
pub use error::StaError;
pub use incremental::{IncrementalStats, SharedTopology, StaState};
pub use report::{format_path_report, PathStep, TimingReport};
