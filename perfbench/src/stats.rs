//! Order statistics over measured samples.

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part` as a percentage of `whole`; 0 when `whole` is 0.
#[must_use]
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Seconds since `t` in milliseconds.
#[must_use]
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Relative change of `traced` over `plain`, in percent.
#[must_use]
pub fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let base = median(plain);
    if base == 0.0 {
        0.0
    } else {
        100.0 * (median(traced) - base) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
