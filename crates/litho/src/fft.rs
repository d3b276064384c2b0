//! In-place radix-2 complex FFT over split real/imaginary lanes.
//!
//! The imaging engine needs forward and inverse transforms on
//! power-of-two-length buffers (mask spectrum ↔ field amplitude). The
//! approved offline dependency set has no FFT crate, so this module
//! implements the iterative Cooley–Tukey algorithm with bit-reversal
//! permutation. Correctness is pinned against a direct `O(n²)` DFT in the
//! test suite.
//!
//! Convention: [`forward`] computes `X[k] = Σ_n x[n]·e^{-2πi kn/N}` (no
//! scaling); [`inverse`] computes `x[n] = (1/N)·Σ_k X[k]·e^{+2πi kn/N}`.
//!
//! Transforms of the same length share a cached plan (bit-reversal
//! permutation plus per-stage twiddle tables), so the trigonometry is paid
//! once per size instead of once per call. Twiddles are tabulated directly
//! as `cis(-2πk/len)` rather than by repeated multiplication, which is
//! also slightly more accurate than the incremental recurrence.
//!
//! Data lives in two `f64` lanes (structure of arrays), and one butterfly
//! routine serves every transform: [`forward`], [`inverse`], and the
//! passband-pruned inverse of the Abbe imaging loop
//! ([`ImagingConfig::aerial_image`](crate::ImagingConfig::aerial_image)),
//! which runs each stage only over the blocks its nonzero inputs have
//! reached. Each butterfly performs the IEEE operations of `u ± v·w` on
//! [`Complex`] values, in the same order, and Rust never contracts them
//! into fused multiply-adds, so the compiler may vectorize across
//! butterflies without changing a bit. The inverse reads the negated
//! imaginary twiddle lane, exactly the value `w.conj()` gives.

use std::f64::consts::PI;
use std::sync::{Arc, OnceLock};

use svt_exec::MemoCache;

use crate::Complex;

/// Precomputed machinery for one transform length.
pub(crate) struct Plan {
    /// `bitrev[i]` is the bit-reversed index of `i`.
    bitrev: Vec<u32>,
    /// `stages[s]` holds the real and imaginary lanes of the `len/2`
    /// forward twiddles `cis(-2πk/len)` for butterfly length
    /// `len = 2^(s+1)`; the inverse pass negates the imaginary lane.
    stages: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Plan {
    fn build(n: usize) -> Plan {
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                // A shift by the full width (n = 1) leaves index 0.
                #[allow(clippy::cast_possible_truncation)]
                let j = i
                    .reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0) as u32;
                j
            })
            .collect();
        let mut stages = Vec::with_capacity(bits as usize);
        let mut len = 2usize;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            let (re, im) = (0..len / 2)
                .map(|k| {
                    let w = Complex::cis(ang * k as f64);
                    (w.re, w.im)
                })
                .unzip();
            stages.push((re, im));
            len <<= 1;
        }
        Plan { bitrev, stages }
    }

    /// Runs stage `stage`'s butterflies over block `block` (positions
    /// `[block·len, (block+1)·len)` with `len = 2^(stage+1)`).
    #[inline]
    fn block<const INVERSE: bool>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        stage: usize,
        block: usize,
    ) {
        let (wr, wi) = &self.stages[stage];
        let half = wr.len();
        let span = block * 2 * half..(block + 1) * 2 * half;
        let (lo_re, hi_re) = re[span.clone()].split_at_mut(half);
        let (lo_im, hi_im) = im[span].split_at_mut(half);
        butterflies::<INVERSE>(lo_re, lo_im, hi_re, hi_im, wr, wi);
    }

    /// Runs stages `from..` over every block of lanes already in
    /// bit-reversed order (the result lands in natural order, unscaled).
    fn run_stages<const INVERSE: bool>(&self, re: &mut [f64], im: &mut [f64], from: usize) {
        let n = re.len();
        for stage in from..self.stages.len() {
            for block in 0..n >> (stage + 1) {
                self.block::<INVERSE>(re, im, stage, block);
            }
        }
    }

    /// Forward transform of real samples (natural order) into `re`/`im`,
    /// resized to the plan's length: the samples go to their bit-reversed
    /// slots of zeroed lanes, then every stage runs (the result lands in
    /// natural order, unscaled).
    pub(crate) fn forward_real(&self, samples: &[f64], re: &mut Vec<f64>, im: &mut Vec<f64>) {
        zeroed(re, self.bitrev.len());
        zeroed(im, self.bitrev.len());
        for (&t, &j) in samples.iter().zip(&self.bitrev) {
            re[j as usize] = t;
        }
        self.run_stages::<false>(re, im, 0);
    }

    /// Unscaled inverse transform of a spectrum whose only nonzero bins are
    /// `bins` (natural-order `(k, X[k])` pairs, each `k` at most once) into
    /// `re`/`im`, resized to the plan's length; the result lands in natural
    /// order. `live` is scratch for the live-block list.
    ///
    /// Each bin goes to its bit-reversed slot of zeroed lanes, and stage `s`
    /// runs only over its live blocks, a block being live when either of
    /// its halves was live one stage earlier; once every block is live, the
    /// remaining stages run in full. A skipped block's inputs are exact
    /// zeros, so the full network could only have written ±0 there; every
    /// nonzero value therefore matches the full network bit for bit, and a
    /// zero matches it up to its sign.
    pub(crate) fn inverse_sparse(
        &self,
        bins: impl IntoIterator<Item = (usize, Complex)>,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
        live: &mut Vec<u32>,
    ) {
        let n = self.bitrev.len();
        zeroed(re, n);
        zeroed(im, n);
        live.clear();
        for (k, z) in bins {
            let j = self.bitrev[k];
            re[j as usize] = z.re;
            im[j as usize] = z.im;
            live.push(j);
        }
        live.sort_unstable();
        for stage in 0..self.stages.len() {
            for j in live.iter_mut() {
                *j >>= 1;
            }
            live.dedup();
            if live.len() == n >> (stage + 1) {
                self.run_stages::<true>(re, im, stage);
                return;
            }
            for &block in live.iter() {
                self.block::<true>(re, im, stage, block as usize);
            }
        }
    }
}

/// Clears `lane` and fills it with `n` zeros.
fn zeroed(lane: &mut Vec<f64>, n: usize) {
    lane.clear();
    lane.resize(n, 0.0);
}

/// One butterfly per index over a block's halves: `v = hi·w`, then
/// `lo ← lo + v` and `hi ← lo − v`, with the IEEE operations of
/// [`Complex`]'s `Mul`, `Add` and `Sub` in the same order.
#[inline]
fn butterflies<const INVERSE: bool>(
    lo_re: &mut [f64],
    lo_im: &mut [f64],
    hi_re: &mut [f64],
    hi_im: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let half = wr.len();
    let (lo_re, lo_im) = (&mut lo_re[..half], &mut lo_im[..half]);
    let (hi_re, hi_im, wi) = (&mut hi_re[..half], &mut hi_im[..half], &wi[..half]);
    for k in 0..half {
        let w_re = wr[k];
        let w_im = if INVERSE { -wi[k] } else { wi[k] };
        let (x_re, x_im) = (hi_re[k], hi_im[k]);
        let v_re = x_re * w_re - x_im * w_im;
        let v_im = x_re * w_im + x_im * w_re;
        let (u_re, u_im) = (lo_re[k], lo_im[k]);
        lo_re[k] = u_re + v_re;
        lo_im[k] = u_im + v_im;
        hi_re[k] = u_re - v_re;
        hi_im[k] = u_im - v_im;
    }
}

/// Cached plans keyed by transform length. Aerial imaging uses a handful
/// of sizes (one per mask window), so this stays tiny.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub(crate) fn plan_for(n: usize) -> Arc<Plan> {
    static PLANS: OnceLock<MemoCache<usize, Arc<Plan>>> = OnceLock::new();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    PLANS
        .get_or_init(|| MemoCache::new(4, 64))
        .get_or_insert_with(n, || Arc::new(Plan::build(n)))
}

/// Returns the smallest power of two `≥ n` (and `≥ 1`).
///
/// # Examples
///
/// ```
/// assert_eq!(svt_litho::fft::next_pow2(1000), 1024);
/// assert_eq!(svt_litho::fft::next_pow2(1024), 1024);
/// assert_eq!(svt_litho::fft::next_pow2(0), 1);
/// ```
#[must_use]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn forward(data: &mut [Complex]) {
    through_lanes::<false>(data);
}

/// In-place inverse FFT (including the `1/N` normalization).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn inverse(data: &mut [Complex]) {
    through_lanes::<true>(data);
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

/// Splits `data` into bit-reversed lanes, runs every stage, and writes the
/// natural-order result back.
fn through_lanes<const INVERSE: bool>(data: &mut [Complex]) {
    let plan = plan_for(data.len());
    let mut re = vec![0.0; data.len()];
    let mut im = vec![0.0; data.len()];
    for (z, &j) in data.iter().zip(&plan.bitrev) {
        re[j as usize] = z.re;
        im[j as usize] = z.im;
    }
    plan.run_stages::<INVERSE>(&mut re, &mut im, 0);
    for (z, (&r, &i)) in data.iter_mut().zip(re.iter().zip(&im)) {
        *z = Complex::new(r, i);
    }
}

/// The signed FFT bin frequency for bin `k` of an `n`-point transform over a
/// window of physical length `window` (same length unit as the result's
/// reciprocal): bins above `n/2` alias to negative frequencies.
///
/// # Examples
///
/// ```
/// use svt_litho::fft::bin_frequency;
/// assert_eq!(bin_frequency(0, 8, 800.0), 0.0);
/// assert_eq!(bin_frequency(1, 8, 800.0), 1.0 / 800.0);
/// assert_eq!(bin_frequency(7, 8, 800.0), -1.0 / 800.0);
/// ```
#[must_use]
pub fn bin_frequency(k: usize, n: usize, window: f64) -> f64 {
    let k = k as i64;
    let n = n as i64;
    let signed = if k <= n / 2 { k } else { k - n };
    signed as f64 / window
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_dft(x: &[Complex], sign: f64) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    let ang = sign * 2.0 * PI * (k * j) as f64 / n as f64;
                    acc += xj * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).norm() < tol,
                "bin {i}: {x} vs {y} differ by {}",
                (*x - *y).norm()
            );
        }
    }

    #[test]
    fn forward_matches_direct_dft() {
        // Deterministic pseudo-random input.
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((t * 0.37).sin() + 0.2 * t.cos(), (t * 1.7).cos())
            })
            .collect();
        let expected = direct_dft(&x, -1.0);
        let mut got = x.clone();
        forward(&mut got);
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn inverse_round_trips() {
        let n = 256;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let mut y = x.clone();
        forward(&mut y);
        inverse(&mut y);
        assert_close(&y, &x, 1e-10);
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        forward(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k0 = 5;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        forward(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == k0 {
                assert!((z.re - n as f64).abs() < 1e-9);
            } else {
                assert!(z.norm() < 1e-9, "leakage at bin {k}: {z}");
            }
        }
    }

    #[test]
    fn trivial_lengths() {
        let mut x = vec![Complex::new(3.0, 1.0)];
        forward(&mut x);
        assert_eq!(x[0], Complex::new(3.0, 1.0));
        inverse(&mut x);
        assert_eq!(x[0], Complex::new(3.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_pow2() {
        let mut x = vec![Complex::ZERO; 12];
        forward(&mut x);
    }

    #[test]
    fn bin_frequencies_are_symmetric() {
        let n = 8;
        let w = 800.0;
        assert_eq!(bin_frequency(4, n, w), 4.0 / 800.0); // Nyquist stays positive
        assert_eq!(bin_frequency(5, n, w), -3.0 / 800.0);
        assert_eq!(bin_frequency(n - 1, n, w), -1.0 / 800.0);
    }

    #[test]
    fn next_pow2_edges() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4097), 8192);
    }
}
