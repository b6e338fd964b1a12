//! Diurnal load patterns.
//!
//! Fig. 13 shows a representative GPU VM with a distinctly periodic daily load pattern, and
//! the row-level power aggregation inherits the same periodicity. [`DiurnalPattern`] produces
//! a normalized load in `[floor, 1]` as a function of time of day, with a customer-specific
//! phase (different tenants peak at different hours), a weekday/weekend modulation and
//! autocorrelated noise.

use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::SimTime;

/// A deterministic diurnal load generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalPattern {
    /// Minimum normalized load at the bottom of the nightly trough.
    pub floor: f64,
    /// Hour of day (0–24) at which the load peaks.
    pub peak_hour: f64,
    /// Weekend load multiplier (≤ 1).
    pub weekend_factor: f64,
    /// Amplitude of the per-step noise.
    pub noise: f64,
    /// Seed for the noise stream.
    seed: u64,
}

impl DiurnalPattern {
    /// A typical interactive-service pattern: peak mid-afternoon, deep night trough, quieter
    /// weekends.
    #[must_use]
    pub fn interactive(seed: u64) -> Self {
        Self {
            floor: 0.25,
            peak_hour: 15.0,
            weekend_factor: 0.7,
            noise: 0.05,
            seed,
        }
    }

    /// A batch-like pattern with a shallow cycle (e.g. fine-tuning or offline scoring IaaS
    /// tenants): stays near full load with small dips.
    #[must_use]
    pub fn batchy(seed: u64) -> Self {
        Self {
            floor: 0.7,
            peak_hour: 2.0,
            weekend_factor: 1.0,
            noise: 0.08,
            seed,
        }
    }

    /// Creates a pattern with an explicit peak hour (used to give each customer its own
    /// phase).
    #[must_use]
    pub fn with_peak_hour(mut self, peak_hour: f64) -> Self {
        self.peak_hour = peak_hour.rem_euclid(24.0);
        self
    }

    /// Normalized load in `[0, 1]` at a point in time.
    #[must_use]
    pub fn load_at(&self, time: SimTime) -> f64 {
        let hour = time.hour_of_day();
        // Cosine bump centred on the peak hour.
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        let cycle = 0.5 * (1.0 + phase.cos());
        let base = self.floor + (1.0 - self.floor) * cycle;
        // Day 5 and 6 of each week are the weekend.
        let weekday = time.day_index() % 7;
        let weekend = if weekday >= 5 {
            self.weekend_factor
        } else {
            1.0
        };
        // Deterministic noise: hash the hour index with the seed so queries are pure.
        let hour_index = time.as_minutes() / 60;
        let mut rng = SimRng::seed_from(self.seed ^ hour_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let noise = rng.normal(0.0, self.noise);
        (base * weekend + noise).clamp(0.0, 1.0)
    }

    /// The average load over one full week, sampled every 10 minutes.
    #[must_use]
    pub fn weekly_mean(&self) -> f64 {
        let samples: Vec<f64> = (0..7 * 24 * 6)
            .map(|i| self.load_at(SimTime::from_minutes(i * 10)))
            .collect();
        simkit::stats::mean(&samples).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats;

    #[test]
    fn load_is_bounded_and_pure() {
        let pattern = DiurnalPattern::interactive(1);
        for m in (0..7 * 1440).step_by(30) {
            let t = SimTime::from_minutes(m);
            let v = pattern.load_at(t);
            assert!((0.0..=1.0).contains(&v));
            assert_eq!(v, pattern.load_at(t), "repeated queries must agree");
        }
    }

    #[test]
    fn peak_hour_is_hotter_than_trough() {
        let pattern = DiurnalPattern::interactive(2);
        let mut peak = Vec::new();
        let mut trough = Vec::new();
        for day in 0..5 {
            peak.push(pattern.load_at(SimTime::from_minutes(day * 1440 + 15 * 60)));
            trough.push(pattern.load_at(SimTime::from_minutes(day * 1440 + 3 * 60)));
        }
        assert!(stats::mean(&peak).unwrap() > stats::mean(&trough).unwrap() + 0.4);
    }

    #[test]
    fn weekend_is_quieter_for_interactive() {
        let pattern = DiurnalPattern::interactive(3);
        // Compare the same hour on a weekday (day 2) and a weekend day (day 5).
        let weekday = pattern.load_at(SimTime::from_minutes(2 * 1440 + 15 * 60));
        let weekend = pattern.load_at(SimTime::from_minutes(5 * 1440 + 15 * 60));
        assert!(weekend < weekday);
        // Batch-like tenants do not slow down at the weekend (modulo noise).
        let batch = DiurnalPattern::batchy(3);
        let wd = batch.load_at(SimTime::from_minutes(2 * 1440 + 2 * 60));
        let we = batch.load_at(SimTime::from_minutes(5 * 1440 + 2 * 60));
        assert!((wd - we).abs() < 0.3);
    }

    #[test]
    fn with_peak_hour_shifts_the_phase() {
        let morning = DiurnalPattern::interactive(4).with_peak_hour(6.0);
        let evening = DiurnalPattern::interactive(4).with_peak_hour(20.0);
        let at_six = SimTime::from_minutes(6 * 60);
        assert!(morning.load_at(at_six) > evening.load_at(at_six));
        // Peak hours wrap modulo 24.
        let wrapped = DiurnalPattern::interactive(4).with_peak_hour(30.0);
        assert!((wrapped.peak_hour - 6.0).abs() < 1e-12);
    }

    #[test]
    fn batchy_pattern_has_higher_mean_than_interactive() {
        let interactive = DiurnalPattern::interactive(5);
        let batchy = DiurnalPattern::batchy(5);
        assert!(batchy.weekly_mean() > interactive.weekly_mean() + 0.15);
        assert!(interactive.weekly_mean() > 0.3);
    }
}
