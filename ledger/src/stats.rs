//! Order statistics, computed the way Python's `statistics` module does
//! (`median`, and `quantiles` with its default `exclusive` method), so the
//! ledger's quartiles match any external check made with Python.

/// The median (mean of the two middle values for an even count); 0 for
/// no data.
pub fn median(data: &[f64]) -> f64 {
    let v = sorted(data);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `n - 1` cut points dividing `data` into `n` equal-probability
/// intervals, by Python's `exclusive` method. With fewer than two values
/// every cut point is that value (or 0 for no data).
pub fn quantiles(data: &[f64], n: usize) -> Vec<f64> {
    let v = sorted(data);
    let ld = v.len();
    if ld < 2 {
        return vec![v.first().copied().unwrap_or(0.0); n - 1];
    }
    let (m, n) = (ld as i64 + 1, n as i64);
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld as i64 - 1);
            // May be negative near the ends, exactly as in Python.
            let delta = (i * m - j * n) as f64;
            let j = j as usize;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect()
}

/// `(p25, p75)` of `data`.
pub fn quartiles(data: &[f64]) -> (f64, f64) {
    let q = quantiles(data, 4);
    (q[0], q[2])
}

/// The `q`-th percentile (0–100) by nearest rank; 0 for no data.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    let v = sorted(data);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(data: &[f64]) -> Vec<f64> {
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&d, 4), vec![2.75, 5.5, 8.25]);
        assert_eq!(median(&d), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        assert_eq!(percentile(&d, 90.0), 9.0);
        assert_eq!(percentile(&d, 99.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }
}
