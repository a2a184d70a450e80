//! Order statistics over samples.

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile `q` in `(0, 1)` of a latency sample, estimated as the mean of
/// the values ranked within `q ± 0.05`. Latencies of a mixed workload
/// cluster by kernel and design with gaps between the clusters; a single
/// order statistic jumps across a gap when one op crosses it (15% on
/// `sim-matrix`'s p90), while this mean moves by a fraction of the gap.
/// 0 when empty.
pub fn band_quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    // The epsilons keep 0.55 * 100 = 55.000000000000007 at rank 55.
    let lo = (((q - 0.05) * n + 1e-9).floor().max(0.0) as usize).min(v.len());
    let hi = (((q + 0.05) * n - 1e-9).ceil().max(0.0) as usize).min(v.len());
    if hi <= lo {
        return v.last().copied().unwrap_or(0.0);
    }
    mean(&v[lo..hi])
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    100.0 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(band_quantile(&hundred, 0.9), 90.5);
        assert_eq!(band_quantile(&hundred, 0.5), 50.5);
        assert_eq!(band_quantile(&[7.0], 0.9), 7.0);
        assert_eq!(band_quantile(&[], 0.9), 0.0);
        // One op crossing a gap moves it by a fraction of the gap.
        let mut gap: Vec<f64> = (0..100)
            .map(|i| if i < 88 { 180.0 } else { 220.0 })
            .collect();
        let before = band_quantile(&gap, 0.9);
        gap[87] = 220.0;
        assert!((band_quantile(&gap, 0.9) - before).abs() <= 40.0 / 10.0 + 1e-9);
        assert_eq!(iqr_pct(&xs), 100.0 * 2.0 / 3.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
