//! Outside air temperature model.
//!
//! Free-cooled and adiabatically-cooled datacenters couple their cold-aisle inlet temperature
//! to the outside air temperature (§2.1, Fig. 2–3). The paper's three regions span different
//! climates; we model the outside temperature as the sum of a climate-specific base, a
//! seasonal drift, a diurnal cycle and a small autocorrelated noise term, which reproduces
//! the week-scale traces in Fig. 2.

use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use simkit::units::Celsius;

/// A regional climate parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Climate {
    /// Mean temperature over the modelled period.
    pub mean_temp_c: f64,
    /// Peak-to-trough amplitude of the diurnal cycle.
    pub diurnal_amplitude_c: f64,
    /// Peak-to-trough amplitude of the slow (multi-week) seasonal drift.
    pub seasonal_amplitude_c: f64,
    /// Period of the seasonal drift in days.
    pub seasonal_period_days: f64,
    /// Standard deviation of the day-to-day weather noise.
    pub noise_std_c: f64,
    /// Hour of day (0–24) at which the diurnal cycle peaks.
    pub hottest_hour: f64,
}

impl Climate {
    /// A temperate region (e.g. northern Europe): mild with a pronounced diurnal cycle.
    #[must_use]
    pub fn temperate() -> Self {
        Self {
            mean_temp_c: 16.0,
            diurnal_amplitude_c: 8.0,
            seasonal_amplitude_c: 8.0,
            seasonal_period_days: 90.0,
            noise_std_c: 2.0,
            hottest_hour: 15.0,
        }
    }

    /// A hot region (e.g. the southwestern US in summer).
    #[must_use]
    pub fn hot() -> Self {
        Self {
            mean_temp_c: 30.0,
            diurnal_amplitude_c: 10.0,
            seasonal_amplitude_c: 6.0,
            seasonal_period_days: 90.0,
            noise_std_c: 1.5,
            hottest_hour: 16.0,
        }
    }

    /// A cold region (e.g. the Nordics) where free cooling dominates.
    #[must_use]
    pub fn cold() -> Self {
        Self {
            mean_temp_c: 8.0,
            diurnal_amplitude_c: 6.0,
            seasonal_amplitude_c: 10.0,
            seasonal_period_days: 90.0,
            noise_std_c: 2.5,
            hottest_hour: 14.0,
        }
    }
}

/// Deterministic-plus-noise outside temperature generator.
///
/// The generator is deterministic for a given `(climate, seed)` pair: the noise term is a
/// slowly-varying autoregressive process sampled per simulated hour, so repeated queries at
/// the same time return the same temperature.
#[derive(Debug, Clone)]
pub struct WeatherModel {
    climate: Climate,
    /// Hourly noise samples, generated lazily and cached so queries are pure.
    hourly_noise: Vec<f64>,
    rng: SimRng,
}

impl WeatherModel {
    /// Creates a weather model for a climate with a deterministic seed.
    #[must_use]
    pub fn new(climate: Climate, seed: u64) -> Self {
        Self {
            climate,
            hourly_noise: Vec::new(),
            rng: SimRng::seed_from(seed).derive("weather"),
        }
    }

    /// The climate parameters.
    #[must_use]
    pub fn climate(&self) -> &Climate {
        &self.climate
    }

    /// Outside temperature at a point in simulated time.
    pub fn outside_temp(&mut self, time: SimTime) -> Celsius {
        let c = self.climate;
        let hour_of_day = time.hour_of_day();
        let day = time.as_days();
        let diurnal = 0.5
            * c.diurnal_amplitude_c
            * ((hour_of_day - c.hottest_hour) / 24.0 * std::f64::consts::TAU).cos();
        let seasonal = 0.5
            * c.seasonal_amplitude_c
            * (day / c.seasonal_period_days * std::f64::consts::TAU).sin();
        let noise = self.noise_for_hour(time.as_minutes() / 60);
        Celsius::new(c.mean_temp_c + diurnal + seasonal + noise)
    }

    /// Autoregressive hourly noise, cached so the same hour always returns the same value.
    fn noise_for_hour(&mut self, hour: u64) -> f64 {
        let needed = (hour + 1) as usize;
        while self.hourly_noise.len() < needed {
            let prev = self.hourly_noise.last().copied().unwrap_or(0.0);
            // AR(1) with coefficient 0.9: weather anomalies persist for hours, not minutes.
            let innovation = self.rng.normal(0.0, self.climate.noise_std_c * 0.2);
            self.hourly_noise.push(0.9 * prev + innovation);
        }
        self.hourly_noise[hour as usize]
    }

    /// Generates a `(time, temperature)` trace sampled every `step_minutes` for `days` days.
    pub fn trace(&mut self, days: u64, step_minutes: u64) -> Vec<(SimTime, Celsius)> {
        assert!(step_minutes > 0, "step must be non-zero");
        let total_minutes = days * 24 * 60;
        (0..total_minutes)
            .step_by(step_minutes as usize)
            .map(|m| {
                let t = SimTime::from_minutes(m);
                (t, self.outside_temp(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats;

    #[test]
    fn same_seed_same_trace() {
        let mut a = WeatherModel::new(Climate::temperate(), 7);
        let mut b = WeatherModel::new(Climate::temperate(), 7);
        for m in (0..1440).step_by(10) {
            let t = SimTime::from_minutes(m);
            assert_eq!(a.outside_temp(t), b.outside_temp(t));
        }
    }

    #[test]
    fn queries_are_pure_given_cache() {
        let mut w = WeatherModel::new(Climate::hot(), 3);
        let t = SimTime::from_hours(30);
        let first = w.outside_temp(t);
        // Query later time (extends cache), then re-query the original time.
        let _ = w.outside_temp(SimTime::from_hours(100));
        assert_eq!(w.outside_temp(t), first);
    }

    #[test]
    fn mean_tracks_climate() {
        for climate in [Climate::temperate(), Climate::hot(), Climate::cold()] {
            let mut w = WeatherModel::new(climate, 11);
            // Average over a full seasonal period so the seasonal term cancels out.
            let temps: Vec<f64> = w
                .trace(90, 60)
                .into_iter()
                .map(|(_, t)| t.value())
                .collect();
            let mean = stats::mean(&temps).unwrap();
            assert!(
                (mean - climate.mean_temp_c).abs() < 3.0,
                "mean {mean} too far from climate mean {}",
                climate.mean_temp_c
            );
        }
    }

    #[test]
    fn diurnal_cycle_peaks_in_the_afternoon() {
        let mut w = WeatherModel::new(Climate::hot(), 5);
        // Average over many days to wash out noise: afternoon should be warmer than night.
        let mut afternoon = Vec::new();
        let mut night = Vec::new();
        for day in 0..20 {
            let t_pm = SimTime::from_minutes(day * 1440 + 16 * 60);
            let t_am = SimTime::from_minutes(day * 1440 + 4 * 60);
            afternoon.push(w.outside_temp(t_pm).value());
            night.push(w.outside_temp(t_am).value());
        }
        let diff = stats::mean(&afternoon).unwrap() - stats::mean(&night).unwrap();
        assert!(
            diff > 5.0,
            "afternoon should be much warmer than night, diff {diff}"
        );
    }

    #[test]
    fn hot_climate_is_warmer_than_cold() {
        let mut hot = WeatherModel::new(Climate::hot(), 9);
        let mut cold = WeatherModel::new(Climate::cold(), 9);
        let hot_mean = stats::mean(
            &hot.trace(14, 60)
                .into_iter()
                .map(|(_, t)| t.value())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let cold_mean = stats::mean(
            &cold
                .trace(14, 60)
                .into_iter()
                .map(|(_, t)| t.value())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(hot_mean > cold_mean + 10.0);
    }

    #[test]
    fn trace_has_expected_length_and_ordering() {
        let mut w = WeatherModel::new(Climate::temperate(), 2);
        let trace = w.trace(2, 30);
        assert_eq!(trace.len(), 2 * 48);
        assert!(trace.windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_step_trace_panics() {
        let mut w = WeatherModel::new(Climate::temperate(), 2);
        let _ = w.trace(1, 0);
    }
}
