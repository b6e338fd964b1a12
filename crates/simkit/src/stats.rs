//! Summary statistics: means, percentiles and empirical CDFs.
//!
//! Every evaluation figure in the paper is a distributional summary: P50/P99 row power
//! (Fig. 10), CDFs of GPU temperature (Fig. 9), prediction-error CDFs (Fig. 14), peak and
//! tail statistics of week-long time series (Fig. 19–21). This module provides the small
//! set of estimators those figures need.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Ascending order for sorting samples: numbers by value (`-0.0 = +0.0`, so a stable sort
/// keeps their input order), every NaN after every number whatever its sign bit. Unlike
/// [`f64::total_cmp`] it leaves the order of finite values exactly as `partial_cmp` has it.
pub fn nan_last(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Returns the arithmetic mean of `values`, or `None` if the slice is empty.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Returns the population standard deviation of `values`, or `None` if the slice is empty.
#[must_use]
pub fn std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt())
}

/// Returns the `p`-th percentile (0–100) of `values` using linear interpolation between the
/// closest ranks, or `None` if the slice is empty. NaN values rank above every number.
///
/// # Panics
/// Panics if `p` is not within `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0, 100], got {p}"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(nan_last);
    Some(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already ascending-sorted slice. See [`percentile`].
#[must_use]
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Returns the maximum of `values`, or `None` if the slice is empty.
#[must_use]
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(m) => Some(m.max(v)),
    })
}

/// Returns the minimum of `values`, or `None` if the slice is empty.
#[must_use]
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(m) => Some(m.min(v)),
    })
}

/// A one-pass summary of a sample: count, mean, min, max and key percentiles.
///
/// # Examples
/// ```
/// use simkit::stats::Summary;
/// let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(s.count, 5);
/// assert_eq!(s.max, 5.0);
/// assert!((s.p50 - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (P50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Builds a summary from raw values. NaN values rank above every number, so they reach
    /// `max` and the upper percentiles first; `mean` and `std_dev` are then NaN.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "Summary::from_values on empty slice");
        let mut sorted = values.to_vec();
        sorted.sort_by(nan_last);
        Self {
            count: sorted.len(),
            mean: mean(&sorted).expect("non-empty"),
            std_dev: std_dev(&sorted).expect("non-empty"),
            min: sorted[0],
            p50: percentile_of_sorted(&sorted, 50.0),
            p90: percentile_of_sorted(&sorted, 90.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// An empirical cumulative distribution function over a finite sample.
///
/// Construction sorts the sample once; queries are then `O(log n)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample. NaN values rank above every number: `cdf` never counts
    /// them, and only the top quantiles reach them.
    ///
    /// # Panics
    /// Panics if the sample is empty.
    #[must_use]
    pub fn new(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "Ecdf of empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(nan_last);
        Self { sorted }
    }

    /// Number of samples backing the ECDF.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the ECDF has no backing samples (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples less than or equal to `x`, in `[0, 1]`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` in `[0, 1]` (inverse CDF with interpolation).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Evaluates the ECDF at `n` evenly spaced points between the sample minimum and maximum,
    /// returning `(x, cdf(x))` pairs. Useful for plotting figures such as Fig. 9/10/14.
    #[must_use]
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if n <= 1 || (hi - lo).abs() < f64::EPSILON {
            return vec![(hi, 1.0)];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.cdf(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), Some(4.0));
        let sd = std_dev(&[2.0, 4.0, 6.0]).unwrap();
        assert!((sd - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let values = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&values, 0.0), Some(10.0));
        assert_eq!(percentile(&values, 100.0), Some(40.0));
        assert!((percentile(&values, 50.0).unwrap() - 25.0).abs() < 1e-12);
        assert!((percentile(&values, 75.0).unwrap() - 32.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 120.0);
    }

    #[test]
    fn percentile_ranks_nan_above_every_number() {
        let values = [3.0, f64::NAN, 1.0, -f64::NAN, 2.0];
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 50.0), Some(3.0));
        assert!(percentile(&values, 100.0).unwrap().is_nan());
        assert!(percentile(&[f64::NAN], 50.0).unwrap().is_nan());
    }

    #[test]
    fn summary_accepts_nan() {
        let values = [f64::NAN, 4.0, 1.0, 0.0, -0.0];
        let s = Summary::from_values(&values);
        assert_eq!(s.count, 5);
        assert!(
            s.min == 0.0 && s.min.is_sign_positive(),
            "equal zeros keep their input order"
        );
        assert_eq!(s.p50, 1.0);
        assert!(s.max.is_nan() && s.mean.is_nan());
    }

    #[test]
    fn ecdf_accepts_nan() {
        let ecdf = Ecdf::new(&[f64::NAN, 3.0, -f64::NAN, 1.0]);
        assert_eq!(ecdf.len(), 4);
        assert!((ecdf.cdf(2.0) - 0.25).abs() < 1e-12);
        assert!((ecdf.cdf(f64::INFINITY) - 0.5).abs() < 1e-12);
        assert_eq!(ecdf.quantile(0.0), 1.0);
        assert!(ecdf.quantile(1.0).is_nan());
    }

    #[test]
    fn min_max() {
        assert_eq!(max(&[1.0, 5.0, 3.0]), Some(5.0));
        assert_eq!(min(&[1.0, 5.0, 3.0]), Some(1.0));
        assert_eq!(max(&[]), None);
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn summary_matches_manual_computation() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::from_values(&values);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_of_empty_panics() {
        let _ = Summary::from_values(&[]);
    }

    #[test]
    fn ecdf_cdf_and_quantile_are_consistent() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let ecdf = Ecdf::new(&values);
        assert_eq!(ecdf.len(), 1000);
        assert!(!ecdf.is_empty());
        assert!((ecdf.cdf(500.0) - 0.5).abs() < 2e-3);
        assert!((ecdf.quantile(0.5) - 500.5).abs() < 1.0);
        assert_eq!(ecdf.cdf(0.0), 0.0);
        assert_eq!(ecdf.cdf(2000.0), 1.0);
        let curve = ecdf.curve(11);
        assert_eq!(curve.len(), 11);
        assert!(
            curve.windows(2).all(|w| w[0].1 <= w[1].1),
            "CDF must be monotone"
        );
    }

    #[test]
    fn ecdf_of_constant_sample() {
        let ecdf = Ecdf::new(&[3.0, 3.0, 3.0]);
        assert_eq!(ecdf.curve(5), vec![(3.0, 1.0)]);
        assert_eq!(ecdf.quantile(0.9), 3.0);
    }
}
