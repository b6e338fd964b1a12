//! Time series containers.
//!
//! Experiments record one value per simulation step for each monitored quantity (row power,
//! maximum GPU temperature, …). [`TimeSeries`] keeps the `(time, value)` pairs together
//! with the whole-series statistics the reports read: peak, trough, mean and summary.

use crate::stats::Summary;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// An append-only series of `(SimTime, f64)` samples with non-decreasing timestamps.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a descriptive name (used in reports).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last recorded sample.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(
                time >= last,
                "time series must be appended in order ({time} < {last})"
            );
        }
        self.times.push(time);
        self.values.push(value);
    }

    /// The raw values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The timestamps.
    #[must_use]
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The last sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<(SimTime, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// Maximum value over the whole series, or `None` if empty.
    #[must_use]
    pub fn peak(&self) -> Option<f64> {
        crate::stats::max(&self.values)
    }

    /// Minimum value over the whole series, or `None` if empty.
    #[must_use]
    pub fn trough(&self) -> Option<f64> {
        crate::stats::min(&self.values)
    }

    /// Arithmetic mean over the whole series, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        crate::stats::mean(&self.values)
    }

    /// Distributional summary of the values.
    ///
    /// # Panics
    /// Panics if the series is empty.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::from_values(&self.values)
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<T: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: T) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<T: IntoIterator<Item = (SimTime, f64)>>(iter: T) -> Self {
        let mut series = TimeSeries::new("series");
        series.extend(iter);
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    #[test]
    fn push_and_basic_statistics() {
        let mut s = TimeSeries::new("power");
        assert!(s.is_empty());
        assert_eq!(s.peak(), None);
        s.push(minutes(0), 10.0);
        s.push(minutes(5), 30.0);
        s.push(minutes(10), 20.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.peak(), Some(30.0));
        assert_eq!(s.trough(), Some(10.0));
        assert_eq!(s.mean(), Some(20.0));
        assert_eq!(s.last(), Some((minutes(10), 20.0)));
        assert_eq!(s.name(), "power");
        assert_eq!(s.summary().count, 3);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("x");
        s.push(minutes(10), 1.0);
        s.push(minutes(5), 2.0);
    }

    #[test]
    fn extend_and_collect() {
        let mut s = TimeSeries::new("a");
        s.extend((0..3).map(|i| (minutes(i), 1.0)));
        assert_eq!(s.len(), 3);
        let collected: TimeSeries = (0..5).map(|i| (minutes(i), 2.0)).collect();
        assert_eq!(collected.len(), 5);
    }
}
