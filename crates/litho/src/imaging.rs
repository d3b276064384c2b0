use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use svt_exec::{qf64, CacheStats, MemoCache};

use crate::fft::{self, bin_frequency};
use crate::source::SourcePoint;
use crate::{Complex, Illumination, LithoError, MaskCutline, Pupil};

/// Key identifying one pupil-transfer table: pupil optics, grid size,
/// window length, defocus, and source-point frequency shift — all keyed on
/// exact `f64` bit patterns so distinct inputs never share a table.
type TransferKey = (u64, u64, usize, u64, u64, u64);

/// Sparse pupil-transfer table: `(bin, transfer)` for every bin the
/// shifted pupil passes. At 90 nm optics over a 2 µm window only a few
/// dozen of the ~1k bins survive the aperture, so storing the passband
/// (and zero-filling the rest of the field) beats recomputing the
/// trigonometry for every bin on every source point of every call.
type TransferTable = Arc<Vec<(u32, Complex)>>;

fn transfer_tables() -> &'static MemoCache<TransferKey, TransferTable> {
    static TABLES: OnceLock<MemoCache<TransferKey, TransferTable>> = OnceLock::new();
    static TELEMETRY: OnceLock<()> = OnceLock::new();
    let cache = TABLES.get_or_init(MemoCache::default);
    TELEMETRY.get_or_init(|| svt_exec::register_cache_telemetry("litho.transfer_tables", cache));
    cache
}

/// Key for a sampled 1-D source: variant tag, both σ parameters, count.
type SourceKey = (u8, u64, u64, usize);

fn source_tables() -> &'static MemoCache<SourceKey, Arc<Vec<SourcePoint>>> {
    static SOURCES: OnceLock<MemoCache<SourceKey, Arc<Vec<SourcePoint>>>> = OnceLock::new();
    static TELEMETRY: OnceLock<()> = OnceLock::new();
    let cache = SOURCES.get_or_init(|| MemoCache::new(4, 256));
    TELEMETRY.get_or_init(|| svt_exec::register_cache_telemetry("litho.sources", cache));
    cache
}

fn cached_source_points(source: Illumination, samples: usize) -> Arc<Vec<SourcePoint>> {
    let key = match source {
        Illumination::Conventional { sigma } => (0u8, qf64(sigma), 0, samples),
        Illumination::Annular {
            sigma_in,
            sigma_out,
        } => (1u8, qf64(sigma_in), qf64(sigma_out), samples),
    };
    source_tables().get_or_insert_with(key, || Arc::new(source.sample_1d(samples)))
}

fn cached_transfer_table(
    pupil: Pupil,
    n: usize,
    window: f64,
    defocus_nm: f64,
    f_shift: f64,
) -> TransferTable {
    let key = (
        qf64(pupil.wavelength_nm()),
        qf64(pupil.na()),
        n,
        qf64(window),
        qf64(defocus_nm),
        qf64(f_shift),
    );
    transfer_tables().get_or_insert_with(key, || {
        let table: Vec<(u32, Complex)> = (0..n)
            .filter_map(|k| {
                let f = bin_frequency(k, n, window) + f_shift;
                if pupil.passes(f) {
                    #[allow(clippy::cast_possible_truncation)]
                    let bin = k as u32;
                    Some((bin, pupil.transfer(f, defocus_nm)))
                } else {
                    None
                }
            })
            .collect();
        Arc::new(table)
    })
}

/// Drops every imaging-layer cache (transfer tables and sampled sources).
pub fn clear_imaging_caches() {
    transfer_tables().clear();
    source_tables().clear();
}

/// Hit/miss counters of the pupil-transfer table cache.
#[must_use]
pub fn transfer_cache_stats() -> CacheStats {
    transfer_tables().stats()
}

/// Per-thread transform lanes reused across calls so the inner loop
/// allocates nothing: the mask spectrum, the field of the current source
/// point, and the field's live butterfly blocks.
struct Lanes {
    spectrum_re: Vec<f64>,
    spectrum_im: Vec<f64>,
    field_re: Vec<f64>,
    field_im: Vec<f64>,
    live: Vec<u32>,
}

thread_local! {
    static LANES: RefCell<Lanes> = const {
        RefCell::new(Lanes {
            spectrum_re: Vec::new(),
            spectrum_im: Vec::new(),
            field_re: Vec::new(),
            field_im: Vec::new(),
            live: Vec::new(),
        })
    };
}

/// Configuration of the partially coherent imaging system.
///
/// # Examples
///
/// ```
/// use svt_litho::{Illumination, ImagingConfig, Pupil};
///
/// let config = ImagingConfig::new(
///     Pupil::new(193.0, 0.7)?,
///     Illumination::annular(0.55, 0.85)?,
///     24,
///     2.0,
/// );
/// assert_eq!(config.grid_nm(), 2.0);
/// # Ok::<(), svt_litho::LithoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImagingConfig {
    pupil: Pupil,
    source: Illumination,
    source_samples: usize,
    grid_nm: f64,
}

impl ImagingConfig {
    /// Creates an imaging configuration.
    ///
    /// `source_samples` controls the Abbe source discretization (accuracy vs
    /// runtime; 16–32 is ample for 1-D work) and `grid_nm` the spatial
    /// sampling of mask and image.
    ///
    /// # Panics
    ///
    /// Panics if `source_samples < 2` or `grid_nm ≤ 0`.
    #[must_use]
    pub fn new(
        pupil: Pupil,
        source: Illumination,
        source_samples: usize,
        grid_nm: f64,
    ) -> ImagingConfig {
        assert!(source_samples >= 2, "need at least 2 source samples");
        assert!(grid_nm > 0.0, "grid must be positive");
        ImagingConfig {
            pupil,
            source,
            source_samples,
            grid_nm,
        }
    }

    /// The lens pupil.
    #[must_use]
    pub fn pupil(&self) -> Pupil {
        self.pupil
    }

    /// The illumination source.
    #[must_use]
    pub fn source(&self) -> Illumination {
        self.source
    }

    /// Source discretization point count.
    #[must_use]
    pub fn source_samples(&self) -> usize {
        self.source_samples
    }

    /// Spatial sampling pitch in nanometres.
    #[must_use]
    pub fn grid_nm(&self) -> f64 {
        self.grid_nm
    }

    /// Returns a copy with a different source sampling density (the
    /// accuracy-vs-runtime knob of the Abbe source integration).
    #[must_use]
    pub fn with_source_samples(mut self, n: usize) -> ImagingConfig {
        assert!(n >= 2, "need at least 2 source samples");
        self.source_samples = n;
        self
    }

    /// Returns a copy with a different spatial grid (runtime/accuracy
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if the grid is not positive.
    #[must_use]
    pub fn with_grid(mut self, grid_nm: f64) -> ImagingConfig {
        assert!(grid_nm > 0.0, "grid must be positive");
        self.grid_nm = grid_nm;
        self
    }

    /// Returns a copy with a different illumination source (model
    /// miscalibration studies).
    #[must_use]
    pub fn with_source(mut self, source: Illumination) -> ImagingConfig {
        self.source = source;
        self
    }

    /// Computes the aerial image of a mask cutline at the given defocus.
    ///
    /// Abbe's method: for each sampled source point `s`, the mask spectrum is
    /// filtered by the pupil shifted to `f + s·NA/λ` (with the defocus phase
    /// evaluated at the *shifted* frequency, i.e. the true propagation
    /// angle), transformed back to space, and the intensities `|A_s(x)|²`
    /// are accumulated with the source weights. A fully clear mask images to
    /// intensity 1 everywhere, which anchors the resist-threshold scale.
    ///
    /// The shifted pupil passes only a few dozen of the `n` bins (about 30
    /// of 2,048 on a 4,096 nm window at NA/λ = 0.7/193 nm⁻¹), so each source
    /// point's inverse transform is passband-pruned: the filtered bins are
    /// written straight to their bit-reversed slots of zeroed lanes, and
    /// each butterfly stage runs only over the blocks those bins have
    /// reached so far (see [`fft`](crate::fft)); the `1/n` scale is folded
    /// into the accumulation, `I += w·((re·s)² + (im·s)²)`.
    ///
    /// The result is bit-identical to the full network (a complete inverse
    /// transform per source point, then the scale, then `|·|²`). A skipped
    /// block's inputs are exact zeros, so the full network could only
    /// produce ±0 there; no nonzero sum depends on the sign of a zero
    /// addend, `|a|²` maps ±0 to +0, and every twiddle and transfer value is
    /// finite, so no `0·∞` arises.
    #[must_use]
    pub fn aerial_image(&self, mask: &MaskCutline, defocus_nm: f64) -> AerialImage {
        if svt_obs::enabled() {
            svt_obs::counter!("litho.aerial_images").incr();
            // An aerial-image simulation is the expensive leaf of every
            // litho cache miss — mark it on the Chrome timeline so miss
            // stalls are attributable in Perfetto.
            svt_obs::instant("litho.aerial_image");
        }
        let n = mask.samples().len();
        let window = mask.length();

        let f_cutoff = self.pupil.cutoff();
        let points = cached_source_points(self.source, self.source_samples);
        let plan = fft::plan_for(n);
        let scale = 1.0 / n as f64;

        let mut intensity = vec![0.0f64; n];
        LANES.with(|lanes| {
            let Lanes {
                spectrum_re,
                spectrum_im,
                field_re,
                field_im,
                live,
            } = &mut *lanes.borrow_mut();

            // Mask spectrum (unnormalized forward FFT of the real samples).
            plan.forward_real(mask.samples(), spectrum_re, spectrum_im);

            for p in points.iter() {
                let f_shift = p.s * f_cutoff;
                let table = cached_transfer_table(self.pupil, n, window, defocus_nm, f_shift);
                // Bins outside the shifted aperture are exact zeros, so only
                // the cached passband enters the (pruned) inverse transform.
                let filtered = table.iter().map(|&(k, transfer)| {
                    let k = k as usize;
                    (k, Complex::new(spectrum_re[k], spectrum_im[k]) * transfer)
                });
                plan.inverse_sparse(filtered, field_re, field_im, live);
                for (acc, (&re, &im)) in intensity.iter_mut().zip(field_re.iter().zip(&*field_im)) {
                    let (re, im) = (re * scale, im * scale);
                    *acc += p.weight * (re * re + im * im);
                }
            }
        });

        AerialImage {
            x0: mask.x0(),
            dx: mask.dx(),
            intensity,
        }
    }
}

/// A sampled aerial-image intensity profile.
///
/// Intensity 1.0 corresponds to the clear-field exposure at nominal dose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AerialImage {
    x0: f64,
    dx: f64,
    intensity: Vec<f64>,
}

impl AerialImage {
    /// Window start coordinate.
    #[must_use]
    pub fn x0(&self) -> f64 {
        self.x0
    }

    /// Sample pitch in nanometres.
    #[must_use]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// The intensity samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.intensity
    }

    /// The coordinate of sample `k`.
    #[must_use]
    pub fn position(&self, k: usize) -> f64 {
        self.x0 + k as f64 * self.dx
    }

    /// The sample index closest to `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::EdgeOutsideWindow`] if `x` is outside the
    /// window.
    pub fn index_of(&self, x: f64) -> Result<usize, LithoError> {
        let idx = ((x - self.x0) / self.dx).round();
        if idx < 0.0 || idx as usize >= self.intensity.len() {
            return Err(LithoError::EdgeOutsideWindow { at: x });
        }
        Ok(idx as usize)
    }

    /// Linearly interpolated intensity at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::EdgeOutsideWindow`] if `x` is outside the
    /// window.
    pub fn intensity_at(&self, x: f64) -> Result<f64, LithoError> {
        let t = (x - self.x0) / self.dx;
        if t < 0.0 || t > (self.intensity.len() - 1) as f64 {
            return Err(LithoError::EdgeOutsideWindow { at: x });
        }
        let i = t.floor() as usize;
        let frac = t - i as f64;
        if i + 1 >= self.intensity.len() {
            return Ok(self.intensity[i]);
        }
        Ok(self.intensity[i] * (1.0 - frac) + self.intensity[i + 1] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ImagingConfig {
        ImagingConfig::new(
            Pupil::new(193.0, 0.7).unwrap(),
            Illumination::annular(0.55, 0.85).unwrap(),
            16,
            2.0,
        )
    }

    #[test]
    fn clear_field_images_to_unity() {
        let mask = MaskCutline::from_lines(0.0, 1024.0, 2.0, &[]).unwrap();
        let img = config().aerial_image(&mask, 0.0);
        for &i in img.samples() {
            assert!((i - 1.0).abs() < 1e-9, "clear field intensity {i}");
        }
    }

    #[test]
    fn clear_field_is_unity_even_defocused() {
        let mask = MaskCutline::from_lines(0.0, 1024.0, 2.0, &[]).unwrap();
        let img = config().aerial_image(&mask, 300.0);
        for &i in img.samples() {
            assert!((i - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn chrome_line_creates_a_dip_at_its_center() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let img = config().aerial_image(&mask, 0.0);
        let center = img.intensity_at(0.0).unwrap();
        let far = img.intensity_at(800.0).unwrap();
        assert!(center < 0.3, "center intensity {center} should be dark");
        assert!(far > 0.8, "far field {far} should be bright");
    }

    #[test]
    fn image_is_symmetric_for_symmetric_mask() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let img = config().aerial_image(&mask, 150.0);
        for x in [50.0, 100.0, 200.0, 400.0] {
            let a = img.intensity_at(x).unwrap();
            let b = img.intensity_at(-x).unwrap();
            assert!((a - b).abs() < 1e-6, "asymmetry at ±{x}: {a} vs {b}");
        }
    }

    #[test]
    fn cached_transfer_tables_image_bit_identically() {
        // A defocus no other test uses, so the first image builds its
        // transfer tables and the second reads them from the cache.
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let bits = |img: &AerialImage| {
            img.samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let cold = config().aerial_image(&mask, 123.0);
        let hits_before = transfer_cache_stats().hits;
        let warm = config().aerial_image(&mask, 123.0);
        assert_eq!(bits(&cold), bits(&warm), "a cached table changed the image");
        assert!(
            transfer_cache_stats().hits > hits_before,
            "repeat image missed the transfer-table cache"
        );
    }

    #[test]
    fn defocus_degrades_contrast() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let cfg = config();
        let focused = cfg.aerial_image(&mask, 0.0);
        let blurred = cfg.aerial_image(&mask, 400.0);
        let c0 = focused.intensity_at(0.0).unwrap();
        let c1 = blurred.intensity_at(0.0).unwrap();
        assert!(
            c1 > c0,
            "defocus should lift the dark-line floor: {c0} -> {c1}"
        );
    }

    #[test]
    fn intensity_interpolation_and_bounds() {
        let mask = MaskCutline::from_lines(0.0, 64.0, 2.0, &[]).unwrap();
        let img = config().aerial_image(&mask, 0.0);
        assert!(img.intensity_at(3.0).is_ok());
        assert!(img.intensity_at(-1.0).is_err());
        assert!(img.intensity_at(1e6).is_err());
        assert!(img.index_of(4.0).is_ok());
        assert!(img.index_of(-5.0).is_err());
        assert_eq!(img.position(0), 0.0);
    }

    #[test]
    fn denser_source_sampling_converges() {
        let mask = MaskCutline::from_lines(-1024.0, 2048.0, 2.0, &[(-65.0, 65.0)]).unwrap();
        let coarse = config().with_source_samples(8).aerial_image(&mask, 100.0);
        let fine = config().with_source_samples(64).aerial_image(&mask, 100.0);
        let finer = config().with_source_samples(128).aerial_image(&mask, 100.0);
        let d_coarse = (coarse.intensity_at(0.0).unwrap() - finer.intensity_at(0.0).unwrap()).abs();
        let d_fine = (fine.intensity_at(0.0).unwrap() - finer.intensity_at(0.0).unwrap()).abs();
        assert!(d_fine <= d_coarse + 1e-12, "refinement must not diverge");
    }
}
