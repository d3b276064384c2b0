//! Warm-start persistence of the expanded-library timing stack.
//!
//! Building the 81-context library (OPC + characterization) dominates
//! process start-up; everything it produces is a pure function of the
//! engine builds and options. This module captures that state — the
//! [`ExpandedLibrary`], the optional focus-exposure matrix, and the
//! expansion/flow memo caches — into one versioned `svt-snap` container
//! so the next process restores it in milliseconds instead of rebuilding.
//!
//! The container is gated by [`stack_fingerprint`]: a hash of the
//! sign-off simulator identity, both OPC engine identities, the
//! expansion options, and the base-library shape. Any mismatch — like
//! any corruption — yields a typed [`SnapError`], which callers turn
//! into a logged cold rebuild via [`restore_fallback`]; a snapshot can
//! therefore never change a timing result, only skip recomputing it.
//!
//! Deliberately **not** snapshotted: interned netlist topologies
//! (rebuilt and verified per design), scratch arenas, and every
//! observability register (counters restart at zero — a restore is a new
//! process, not a resumed one).

use std::path::Path;

use svt_litho::{FocusExposureMatrix, LithoSimulator};
use svt_obs::family_counter;
use svt_opc::{LibraryOpc, ModelOpc};
use svt_snap::{fnv1a64, Serialize as _, SnapError, SnapshotReader, SnapshotWriter};
use svt_stdcell::{
    export_expand_caches, preload_expand_caches, ExpandCacheSnapshot, ExpandOptions,
    ExpandedLibrary, Library,
};

use crate::flow::FlowCacheSnapshot;
use crate::SignoffFlow;

/// Section name of the expanded library.
pub const SECTION_EXPANDED: &str = "expanded_library";
/// Section name of the focus-exposure matrix (absent when not captured).
pub const SECTION_FEM: &str = "fem";
/// Section name of the expansion memo caches.
pub const SECTION_EXPAND_CACHES: &str = "expand_caches";
/// Section name of the sign-off flow memo caches.
pub const SECTION_FLOW_CACHES: &str = "flow_caches";

/// Fingerprint of the stack a snapshot is only valid for: FNV-1a over
/// the sign-off simulator identity, the production-OPC and library-OPC
/// engine identities, the expansion options (spacing grid and
/// characterization constants, exact bits), and the base-library shape
/// (name plus per-cell device/arc counts).
///
/// Worker-thread count is deliberately excluded — expansion results are
/// bit-identical for every thread count, so a snapshot from a 1-thread
/// build restores into a 16-thread server.
///
/// # Examples
///
/// ```
/// use svt_core::snapshot::stack_fingerprint;
/// use svt_litho::Process;
/// use svt_stdcell::{ExpandOptions, Library};
///
/// let sim = Process::nm90().simulator();
/// let lib = Library::svt90();
/// let fp = stack_fingerprint(&sim, &lib, &ExpandOptions::fast());
/// assert_eq!(fp, stack_fingerprint(&sim, &lib, &ExpandOptions::fast()));
/// assert_ne!(fp, stack_fingerprint(&sim, &lib, &ExpandOptions::default()));
/// ```
#[must_use]
pub fn stack_fingerprint(
    signoff: &LithoSimulator,
    library: &Library,
    options: &ExpandOptions,
) -> u64 {
    let opc = ModelOpc::with_production_model(signoff, options.opc);
    let library_opc = LibraryOpc::new(
        ModelOpc::with_production_model(signoff, options.opc),
        150.0,
        options.characterize.nominal_length_nm,
    );
    let mut s = svt_snap::Serializer::new();
    signoff.identity().serialize(&mut s);
    opc.identity().serialize(&mut s);
    library_opc.identity().serialize(&mut s);
    options.table_spacings_nm.serialize(&mut s);
    options.characterize.nominal_length_nm.serialize(&mut s);
    options.characterize.delay_sensitivity.serialize(&mut s);
    library.name().serialize(&mut s);
    for cell in library.cells() {
        cell.name().serialize(&mut s);
        cell.layout().devices().len().serialize(&mut s);
        cell.arcs().len().serialize(&mut s);
    }
    fnv1a64(&s.into_bytes())
}

/// Everything the warm-start snapshot carries (see the module docs for
/// what is deliberately left out).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSnapshot {
    /// The 81-context expanded library.
    pub expanded: ExpandedLibrary,
    /// The focus-exposure matrix, when the producer had built one.
    pub fem: Option<FocusExposureMatrix>,
    /// Pitch-pair and library-OPC-row memo entries.
    pub expand_caches: ExpandCacheSnapshot,
    /// Characterized-cell memo entries of the sign-off flow.
    pub flow_caches: FlowCacheSnapshot,
}

impl PipelineSnapshot {
    /// Captures the current stack: the given expanded library and FEM,
    /// the process-wide expansion memo caches, and (when a flow is
    /// given) the flow's characterization caches.
    #[must_use]
    pub fn capture(
        expanded: &ExpandedLibrary,
        fem: Option<&FocusExposureMatrix>,
        flow: Option<&SignoffFlow<'_>>,
    ) -> PipelineSnapshot {
        PipelineSnapshot {
            expanded: expanded.clone(),
            fem: fem.cloned(),
            expand_caches: export_expand_caches(),
            flow_caches: flow.map(SignoffFlow::export_caches).unwrap_or_default(),
        }
    }

    /// Serializes into an `svt-snap` container stamped with the given
    /// stack fingerprint.
    #[must_use]
    pub fn to_bytes(&self, fingerprint: u64) -> Vec<u8> {
        self.writer(fingerprint).to_bytes()
    }

    /// Atomically writes the container to `path` (tmp + rename), fsynced.
    /// Returns the file size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Io`] when the filesystem refuses.
    pub fn write_file(&self, path: &Path, fingerprint: u64) -> Result<u64, SnapError> {
        self.writer(fingerprint).write_file(path)
    }

    fn writer(&self, fingerprint: u64) -> SnapshotWriter {
        let _span = svt_obs::span("snap.capture");
        let mut w = SnapshotWriter::new(fingerprint);
        w.section(SECTION_EXPANDED, &self.expanded);
        if let Some(fem) = &self.fem {
            w.section(SECTION_FEM, fem);
        }
        w.section(SECTION_EXPAND_CACHES, &self.expand_caches);
        w.section(SECTION_FLOW_CACHES, &self.flow_caches);
        w
    }

    /// Parses a container and validates it against the expected stack
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Every corruption and mismatch maps to a typed [`SnapError`]:
    /// truncation, bad magic, future version, checksum, a fingerprint
    /// from a different engine build or option set, or a missing /
    /// malformed section.
    pub fn from_bytes(
        bytes: &[u8],
        expected_fingerprint: u64,
    ) -> Result<PipelineSnapshot, SnapError> {
        let _span = svt_obs::span("snap.restore");
        let r = SnapshotReader::from_bytes(bytes)?;
        r.expect_fingerprint(expected_fingerprint)?;
        Self::from_reader(&r)
    }

    /// [`PipelineSnapshot::from_bytes`] over a file.
    ///
    /// # Errors
    ///
    /// See [`PipelineSnapshot::from_bytes`]; I/O failures map to
    /// [`SnapError::Io`].
    pub fn read_file(
        path: &Path,
        expected_fingerprint: u64,
    ) -> Result<PipelineSnapshot, SnapError> {
        let _span = svt_obs::span("snap.restore");
        let r = SnapshotReader::read_file(path)?;
        r.expect_fingerprint(expected_fingerprint)?;
        Self::from_reader(&r)
    }

    fn from_reader(r: &SnapshotReader) -> Result<PipelineSnapshot, SnapError> {
        Ok(PipelineSnapshot {
            expanded: r.section(SECTION_EXPANDED)?,
            fem: if r.has_section(SECTION_FEM) {
                Some(r.section(SECTION_FEM)?)
            } else {
                None
            },
            expand_caches: r.section(SECTION_EXPAND_CACHES)?,
            flow_caches: r.section(SECTION_FLOW_CACHES)?,
        })
    }

    /// Preloads the process-wide expansion memo caches from the
    /// snapshot. Returns the number of entries loaded.
    pub fn preload_expand_caches(&self) -> usize {
        preload_expand_caches(&self.expand_caches)
    }

    /// Preloads a flow's characterization caches from the snapshot.
    /// Returns the number of entries loaded.
    pub fn preload_flow(&self, flow: &SignoffFlow<'_>) -> usize {
        flow.preload_caches(&self.flow_caches)
    }
}

/// Records one restore failure in the `snap.restore_fallback{reason}`
/// counter family and logs it; the caller then rebuilds cold. The label
/// set is the closed [`SnapError::reason`] vocabulary, so dashboards can
/// tell a stale fingerprint from on-disk corruption.
pub fn restore_fallback(err: &SnapError) {
    family_counter!("snap.restore_fallback", &["reason"])
        .with(&[err.reason()])
        .incr();
    eprintln!("svt-snap: restore failed ({err}); rebuilding cold");
}

/// Restores a snapshot from `path`, or returns `None` after recording
/// the failure reason — the "load-else-build" helper of the serve layer.
/// A missing file is still a counted fallback (`reason="io"`): first
/// boot is a cold boot.
#[must_use]
pub fn restore_or_fallback(path: &Path, expected_fingerprint: u64) -> Option<PipelineSnapshot> {
    match PipelineSnapshot::read_file(path, expected_fingerprint) {
        Ok(snapshot) => Some(snapshot),
        Err(err) => {
            restore_fallback(&err);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svt_litho::Process;
    use svt_stdcell::expand_library;

    fn small_library() -> Library {
        let full = Library::svt90();
        let cells: Vec<_> = full
            .cells()
            .iter()
            .filter(|c| matches!(c.name(), "INVX1" | "NAND2X1"))
            .cloned()
            .collect();
        Library::from_cells("svt90_sub", cells)
    }

    #[test]
    fn fingerprint_tracks_engines_options_and_library() {
        let sim = Process::nm90().simulator();
        let lib = small_library();
        let opts = ExpandOptions::fast();
        let fp = stack_fingerprint(&sim, &lib, &opts);
        // Stable across calls and thread-count choices.
        assert_eq!(fp, stack_fingerprint(&sim, &lib, &opts));
        let threaded = ExpandOptions {
            threads: Some(1),
            ..opts.clone()
        };
        assert_eq!(fp, stack_fingerprint(&sim, &lib, &threaded));
        // Sensitive to options and library shape.
        assert_ne!(fp, stack_fingerprint(&sim, &lib, &ExpandOptions::default()));
        assert_ne!(fp, stack_fingerprint(&sim, &Library::svt90(), &opts));
    }

    #[test]
    fn snapshot_round_trips_and_gates_on_fingerprint() {
        let sim = Process::nm90().simulator();
        let lib = small_library();
        let opts = ExpandOptions::fast();
        let expanded = expand_library(&lib, &sim, &opts).unwrap();
        let fp = stack_fingerprint(&sim, &lib, &opts);

        let snap = PipelineSnapshot::capture(&expanded, None, None);
        let bytes = snap.to_bytes(fp);
        let back = PipelineSnapshot::from_bytes(&bytes, fp).unwrap();
        assert_eq!(back, snap);
        assert!(back.fem.is_none());
        assert!(!back.expand_caches.pairs.is_empty());

        // With a FEM section: one pitch, three foci, one dose. Re-encoding
        // the restored stack must reproduce the container byte for byte,
        // so every CD survives bit-exactly.
        let fem =
            FocusExposureMatrix::build(&sim, 90.0, &[240.0], &[-75.0, 0.0, 75.0], &[1.0]).unwrap();
        let with_fem = PipelineSnapshot::capture(&expanded, Some(&fem), None).to_bytes(fp);
        let back = PipelineSnapshot::from_bytes(&with_fem, fp).unwrap();
        assert_eq!(back.fem.as_ref(), Some(&fem));
        assert_eq!(back.to_bytes(fp), with_fem);

        // A different stack refuses the container before touching payload
        // sections.
        let err = PipelineSnapshot::from_bytes(&bytes, fp ^ 1).unwrap_err();
        assert_eq!(err.reason(), "fingerprint");
    }

    #[test]
    fn corruption_matrix_falls_back_with_typed_reasons() {
        let sim = Process::nm90().simulator();
        let lib = small_library();
        let opts = ExpandOptions::fast();
        let expanded = expand_library(&lib, &sim, &opts).unwrap();
        let fp = stack_fingerprint(&sim, &lib, &opts);
        let good = PipelineSnapshot::capture(&expanded, None, None).to_bytes(fp);

        // Every way a file can rot on disk, with the reason label the
        // fallback counter must carry. Header fields are not covered by
        // the payload checksum, so each tampering trips its own check.
        let truncated = good[..good.len() / 2].to_vec();
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        let mut future_version = good.clone();
        future_version[8..12].copy_from_slice(&(svt_snap::FORMAT_VERSION + 1).to_le_bytes());
        let mut stale_fingerprint = good.clone();
        stale_fingerprint[16] ^= 0xff;
        let mut flipped_payload = good.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0xff;

        let counters = family_counter!("snap.restore_fallback", &["reason"]);
        let dir = std::env::temp_dir().join(format!("svt_snap_matrix_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cases: [(&str, &[u8]); 5] = [
            ("truncated", &truncated),
            ("bad_magic", &bad_magic),
            ("version", &future_version),
            ("fingerprint", &stale_fingerprint),
            ("checksum", &flipped_payload),
        ];
        for (reason, bytes) in cases {
            let path = dir.join(format!("{reason}.svtsnap"));
            std::fs::write(&path, bytes).unwrap();
            let before = counters.with(&[reason]).get();
            assert!(
                restore_or_fallback(&path, fp).is_none(),
                "tampered `{reason}` container must not restore"
            );
            assert_eq!(
                counters.with(&[reason]).get(),
                before + 1,
                "fallback must count reason `{reason}`"
            );
        }
        std::fs::remove_dir_all(&dir).ok();

        // The untampered bytes still restore — the matrix broke the
        // copies, not the capture.
        assert!(PipelineSnapshot::from_bytes(&good, fp).is_ok());
    }

    #[test]
    fn fallback_helper_counts_reasons() {
        let counters = family_counter!("snap.restore_fallback", &["reason"]);
        let io_before = counters.with(&["io"]).get();
        let absent = std::env::temp_dir().join("svt_snap_core_absent.svtsnap");
        assert!(restore_or_fallback(&absent, 1).is_none());
        assert_eq!(counters.with(&["io"]).get(), io_before + 1);

        // Corrupt bytes on disk: checksum fallback.
        let dir = std::env::temp_dir().join(format!("svt_snap_core_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.svtsnap");
        let sim = Process::nm90().simulator();
        let lib = small_library();
        let opts = ExpandOptions::fast();
        let expanded = expand_library(&lib, &sim, &opts).unwrap();
        let fp = stack_fingerprint(&sim, &lib, &opts);
        let mut bytes = PipelineSnapshot::capture(&expanded, None, None).to_bytes(fp);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let checksum_before = counters.with(&["checksum"]).get();
        assert!(restore_or_fallback(&path, fp).is_none());
        assert_eq!(counters.with(&["checksum"]).get(), checksum_before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
