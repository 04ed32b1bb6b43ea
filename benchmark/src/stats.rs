//! Estimators: percentiles, the slice-median latency estimator, and the
//! quartile spread `-- repeat` judges runs by.

/// Number of equal-count slices the latency estimator cuts a run into.
pub const SLICES: usize = 10;

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `q`-quantile of `values` (unsorted).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// Median of `values`, averaging the middle pair.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of each of [`SLICES`] equal-count slices of
/// `values` (fewer values than slices: one slice).
pub fn per_slice(values: &[f64], q: f64) -> Vec<f64> {
    let slices = if values.len() < SLICES { 1 } else { SLICES };
    (0..slices)
        .map(|s| {
            let lo = s * values.len() / slices;
            let hi = (s + 1) * values.len() / slices;
            percentile(&values[lo..hi], q)
        })
        .collect()
}

/// The end-to-end latency estimator: cut `values` (in submission order)
/// into [`SLICES`] equal-count slices, take the `q`-quantile of each and
/// report the median of those. One host stall lands in one or two slices
/// and cannot set the number; a real shift moves every slice.
pub fn slice_median(values: &[f64], q: f64) -> f64 {
    median(&per_slice(values, q))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so `-- repeat` agrees with the
/// acceptance rule applied to this benchmark.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_poisoned_slice() {
        // 1 000 samples at 5 ms; a stall multiplies one whole slice by 40.
        let mut v = vec![5.0; 1000];
        for x in &mut v[300..400] {
            *x = 200.0;
        }
        assert_eq!(slice_median(&v, 0.50), 5.0);
        assert_eq!(slice_median(&v, 0.90), 5.0);
        // The whole-run p90 does see it, which is why it is not used.
        assert_eq!(percentile(&v, 0.95), 200.0);
        // A shift in every slice moves the estimate.
        let shifted: Vec<f64> = v.iter().map(|x| x + 1.0).collect();
        assert_eq!(slice_median(&shifted, 0.50), 6.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
