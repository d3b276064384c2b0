//! Incremental ECO re-sign-off for the systematic-variation aware timing
//! flow.
//!
//! A completed [`svt_core::SignoffFlow::run_with_provenance`] run leaves
//! behind everything the sign-off knows: six bound corner analyses with
//! full STA state, per-instance placement contexts and device classes,
//! the Table 2 comparison, and the audit trail. An [`EcoSession`] wraps
//! that baseline and accepts typed [`EcoEdit`]s — cell swaps, drive
//! resizes, spacing adjustments, and instance moves. Each edit is
//! re-signed-off *incrementally*, in two dirt passes:
//!
//! * **Litho dirt** — the paper's 600 nm radius of influence bounds how
//!   far a geometry change can reach: every context-bin threshold
//!   (400/600 nm) and the iso/dense classification threshold
//!   (`space + L <` 300 nm contacted pitch) lies at or below
//!   [`ROI_NM`], so only same-row instances whose footprint falls within
//!   ±600 nm of the edited geometry can change placement context or
//!   device class. The session extracts exactly the touched rows, once
//!   before and once after the edit
//!   ([`svt_place::Placement::device_sites_in_rows`] is bit-identical to
//!   the full-design extraction), diffs contexts and classes inside the
//!   window, recharacterizes only the changed instances (memoized per
//!   `(cell, context, classes, corner)` in an [`svt_exec::MemoCache`]),
//!   and drops exactly the invalidated through-pitch CD rows via
//!   [`svt_stdcell::invalidate_pitch_pairs`].
//! * **Timing dirt** — the rebound instances seed
//!   [`svt_sta::StaState::update`], which re-times each affected corner
//!   in place: it re-evaluates an instance only when its variant, load or
//!   input arrival/slew bits changed, and recomputes required times only
//!   in the fan-in cone of what it re-evaluated. Corners with re-bound
//!   instances run across the `svt-exec` worker pool; the others are not
//!   touched.
//!
//! The result of each edit is a [`DeltaReport`]: changed endpoints with
//! per-corner slack deltas, the traditional-vs-aware spread movement, and
//! a [`svt_obs::audit::DeltaAudit`] that splices bit-exactly into the
//! full audit trail. The whole path is *provably equivalent* to a
//! from-scratch rerun: `tests/differential.rs` applies random edit
//! sequences and asserts the incremental state — corner delays, audit
//! renders, `uncertainty_reduction_pct` — bit-identical to a full rebuild
//! across `SVT_THREADS` settings.
//!
//! # Examples
//!
//! See [`EcoSession`] for an end-to-end swap-and-re-sign-off example.

#![warn(missing_docs)]

mod edit;
mod error;
mod report;
mod session;

pub use edit::EcoEdit;
pub use error::EcoError;
pub use report::{DeltaReport, EndpointDelta};
pub use session::{EcoSession, ROI_NM};
