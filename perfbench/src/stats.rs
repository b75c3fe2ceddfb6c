//! Order statistics of the timed samples.

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The tail latency and the percentile it stands for: the highest whole
/// percentile that leaves at least ten samples above it. Below forty samples
/// there is no tail worth the name and the median is returned (percentile 50).
pub fn tail(xs: &[f64]) -> (f64, u32) {
    let n = xs.len();
    if n < 40 {
        return (median(xs), 50);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Percentile q keeps the samples at rank >= ceil(q·n/100) above it; at
    // least ten of them are wanted.
    let mut q = 99;
    while q > 50 && n - (q * n).div_ceil(100) < 10 {
        q -= 1;
    }
    let rank = (q * n).div_ceil(100).max(1) - 1;
    (v[rank], q as u32)
}

/// Geometric mean; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90; ten samples (91..=100) lie above it.
        assert_eq!(tail(&xs), (90.0, 90));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, q) = tail(&xs);
        assert_eq!(q, 75);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (3.0, 50));
    }
}
