//! Reference oracle for the Abbe imaging kernel.
//!
//! `reference_image` below is the straightforward image path: a `Complex`-array
//! radix-2 FFT with its full bit-reversal permutation, the pupil filter
//! applied bin by bin, a complete inverse transform per source point, then
//! the `1/n` scale and `|·|²`. `ImagingConfig::aerial_image` computes the
//! same image with split lanes and a passband-pruned inverse; these tests
//! assert that every intensity sample matches the reference bit for bit.

use std::f64::consts::PI;

use proptest::prelude::*;

use svt_litho::fft::bin_frequency;
use svt_litho::{Complex, Illumination, ImagingConfig, MaskCutline, Process};

/// In-place radix-2 transform over `Complex` values: bit reversal, then
/// every butterfly of every stage, twiddles `cis(∓2πk/len)`.
fn reference_transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let twiddles: Vec<Complex> = (0..len / 2).map(|k| Complex::cis(ang * k as f64)).collect();
        for start in (0..n).step_by(len) {
            for (k, &tw) in twiddles.iter().enumerate() {
                let w = if inverse { tw.conj() } else { tw };
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
            }
        }
        len <<= 1;
    }
}

/// The full Abbe network: one complete inverse transform per source point.
fn reference_image(config: &ImagingConfig, mask: &MaskCutline, defocus_nm: f64) -> Vec<f64> {
    let n = mask.samples().len();
    let window = mask.length();
    let pupil = config.pupil();
    let mut spectrum: Vec<Complex> = mask.samples().iter().map(|&t| Complex::from(t)).collect();
    reference_transform(&mut spectrum, false);

    let mut intensity = vec![0.0f64; n];
    for p in config.source().sample_1d(config.source_samples()) {
        let f_shift = p.s * pupil.cutoff();
        let mut field = vec![Complex::ZERO; n];
        for (k, slot) in field.iter_mut().enumerate() {
            let f = bin_frequency(k, n, window) + f_shift;
            if pupil.passes(f) {
                *slot = spectrum[k] * pupil.transfer(f, defocus_nm);
            }
        }
        reference_transform(&mut field, true);
        let scale = 1.0 / n as f64;
        for (acc, a) in intensity.iter_mut().zip(&field) {
            *acc += p.weight * a.scale(scale).norm_sqr();
        }
    }
    intensity
}

fn sign_off() -> ImagingConfig {
    Process::nm90().simulator().config().clone()
}

/// The OPC flows' production correction model: the sign-off optics with a
/// miscalibrated annulus.
fn production() -> ImagingConfig {
    sign_off().with_source(Illumination::annular(0.575, 0.825).unwrap())
}

fn assert_bit_identical(config: &ImagingConfig, mask: &MaskCutline, defocus_nm: f64) {
    let got = config.aerial_image(mask, defocus_nm);
    let want = reference_image(config, mask, defocus_nm);
    assert_eq!(got.samples().len(), want.len());
    for (i, (g, w)) in got.samples().iter().zip(&want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "sample {i} of {} (defocus {defocus_nm}, {} source points): {g:e} vs reference {w:e}",
            want.len(),
            config.source_samples()
        );
    }
}

/// Lines laid out from `start` by `(width, space)` segments, stopping
/// before `window_end`.
fn lines_from(start: f64, segments: &[(f64, f64)], window_end: f64) -> Vec<(f64, f64)> {
    let mut lines = Vec::new();
    let mut x = start;
    for &(w, s) in segments {
        if x + w >= window_end {
            break;
        }
        lines.push((x, x + w));
        x += w + s;
    }
    lines
}

/// Focus settings of the flows (0, ±150, ±300 nm) plus off-grid values.
const DEFOCUS_NM: [f64; 7] = [0.0, 150.0, -150.0, 300.0, -300.0, 37.5, -212.25];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random masks on windows of 1,024–8,000 nm, both models, defocus on
    /// and off the usual grid.
    #[test]
    fn random_masks_image_bit_identically(
        window in 1024.0f64..8000.0,
        segments in prop::collection::vec((40.0f64..160.0, 60.0f64..900.0), 1..7),
        offset in 0.05f64..0.6,
        defocus in (0usize..DEFOCUS_NM.len()).prop_map(|i| DEFOCUS_NM[i]),
        production_model in 0u8..2,
    ) {
        let config = if production_model == 1 { production() } else { sign_off() };
        let x0 = -window / 2.0;
        let lines = lines_from(x0 + offset * window / 2.0, &segments, x0 + window);
        let mask = MaskCutline::from_lines(x0, window, config.grid_nm(), &lines).unwrap();
        assert_bit_identical(&config, &mask, defocus);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random rows of gates on full-chip windows of 8,000–131,072 nm
    /// (n up to 65,536).
    #[test]
    fn random_full_chip_rows_image_bit_identically(
        window in 8000.0f64..131_072.0,
        segments in prop::collection::vec((70.0f64..140.0, 80.0f64..700.0), 10..400),
        defocus in (0usize..DEFOCUS_NM.len()).prop_map(|i| DEFOCUS_NM[i]),
        production_model in 0u8..2,
    ) {
        let config = if production_model == 1 { production() } else { sign_off() };
        let x0 = -window / 2.0;
        let lines = lines_from(x0 + 1600.0, &segments, x0 + window - 1600.0);
        let mask = MaskCutline::from_lines(x0, window, config.grid_nm(), &lines).unwrap();
        assert_bit_identical(&config, &mask, defocus);
    }
}

#[test]
fn every_source_shape_and_sampling_images_bit_identically() {
    let lines = [
        (-400.0, -310.0),
        (-65.0, 25.0),
        (170.0, 260.0),
        (900.0, 990.0),
    ];
    let mask = MaskCutline::from_lines(-2048.0, 4096.0, 2.0, &lines).unwrap();
    for source in [
        Illumination::conventional(0.3).unwrap(),
        Illumination::conventional(0.8).unwrap(),
        Illumination::annular(0.55, 0.85).unwrap(),
    ] {
        for samples in [2, 8, 24, 64] {
            let config = sign_off().with_source(source).with_source_samples(samples);
            for defocus in [0.0, 150.0, -300.0, 61.7] {
                assert_bit_identical(&config, &mask, defocus);
            }
        }
    }
}

#[test]
fn clear_field_images_bit_identically() {
    let mask = MaskCutline::from_lines(0.0, 4096.0, 2.0, &[]).unwrap();
    for defocus in [0.0, -150.0, 300.0] {
        assert_bit_identical(&sign_off(), &mask, defocus);
        assert_bit_identical(&production(), &mask, defocus);
    }
}

/// Full-chip row cutlines of the largest designs reach n = 65,536.
#[test]
fn full_chip_windows_image_bit_identically() {
    let window = 131_072.0;
    let x0 = -window / 2.0;
    let segments: Vec<(f64, f64)> = (0..400)
        .map(|i| {
            let t = f64::from(i);
            (
                80.0 + 10.0 * (t * 0.7).sin().abs(),
                150.0 + 140.0 * (t * 1.3).cos().abs(),
            )
        })
        .collect();
    let lines = lines_from(x0 + 1600.0, &segments, x0 + window - 1600.0);
    let mask = MaskCutline::from_lines(x0, window, 2.0, &lines).unwrap();
    assert_eq!(mask.samples().len(), 65_536);
    assert_bit_identical(&production(), &mask, 0.0);
    assert_bit_identical(&sign_off(), &mask, -150.0);
}
