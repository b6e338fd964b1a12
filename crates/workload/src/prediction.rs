//! Template-based power prediction (Fig. 14).
//!
//! §3.1 shows that both row-level and per-VM power are predictable from the previous week's
//! history using percentile *templates*: the predicted draw for a given hour of the week is a
//! chosen percentile (P50/P90/P99) of the values observed at that hour in the past. The
//! conservative P99 template under-predicts for fewer than 4 % of row-hours, and TAPAS's
//! allocator and router use these templates to estimate peak airflow and power demand.

use serde::{Deserialize, Serialize};
use simkit::stats;
use simkit::time::SimTime;

/// Which percentile of the historical values the template stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateKind {
    /// Median template.
    P50,
    /// 90th-percentile template.
    P90,
    /// 99th-percentile template (the conservative choice of §4.1).
    P99,
}

impl TemplateKind {
    /// The percentile this kind corresponds to.
    #[must_use]
    pub fn percentile(self) -> f64 {
        match self {
            TemplateKind::P50 => 50.0,
            TemplateKind::P90 => 90.0,
            TemplateKind::P99 => 99.0,
        }
    }
}

/// A per-hour-of-week percentile template of a power (or load) signal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTemplate {
    kind: TemplateKind,
    /// One predicted value per hour of the week (168 entries).
    per_hour: Vec<f64>,
}

/// Number of hours in a week.
const HOURS_PER_WEEK: usize = 7 * 24;

impl PowerTemplate {
    /// Fits a template to a history of `(time, value)` samples.
    ///
    /// Samples are grouped by hour of week; hours with no samples fall back to the global
    /// percentile (or to the maximum observed value for the P99 template, the conservative
    /// "assume peak" rule of §4.1).
    ///
    /// # Panics
    /// Panics if `history` is empty.
    #[must_use]
    pub fn fit(kind: TemplateKind, history: &[(SimTime, f64)]) -> Self {
        assert!(
            !history.is_empty(),
            "cannot fit a template to an empty history"
        );
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); HOURS_PER_WEEK];
        for &(time, value) in history {
            buckets[hour_of_week(time)].push(value);
        }
        let all_values: Vec<f64> = history.iter().map(|&(_, v)| v).collect();
        let global_fallback = match kind {
            TemplateKind::P99 => stats::max(&all_values).expect("non-empty"),
            _ => stats::percentile(&all_values, kind.percentile()).expect("non-empty"),
        };
        let per_hour = buckets
            .iter()
            .map(|bucket| {
                if bucket.is_empty() {
                    global_fallback
                } else {
                    stats::percentile(bucket, kind.percentile()).expect("non-empty bucket")
                }
            })
            .collect();
        Self { kind, per_hour }
    }

    /// The template kind.
    #[must_use]
    pub fn kind(&self) -> TemplateKind {
        self.kind
    }

    /// Predicted value for a future time (by hour of week).
    #[must_use]
    pub fn predict(&self, time: SimTime) -> f64 {
        self.per_hour[hour_of_week(time)]
    }

    /// The predicted weekly peak (maximum over the per-hour template).
    #[must_use]
    pub fn predicted_peak(&self) -> f64 {
        stats::max(&self.per_hour).expect("template has 168 entries")
    }

    /// Signed percentage errors of the template against a later observation window:
    /// `(predicted − actual) / actual × 100`, one entry per observation. Positive values are
    /// over-predictions (safe), negative values are under-predictions (risky).
    #[must_use]
    pub fn percentage_errors(&self, observations: &[(SimTime, f64)]) -> Vec<f64> {
        observations
            .iter()
            .filter(|&&(_, actual)| actual.abs() > f64::EPSILON)
            .map(|&(time, actual)| (self.predict(time) - actual) / actual * 100.0)
            .collect()
    }

    /// Fraction of observations the template under-predicts.
    #[must_use]
    pub fn underprediction_fraction(&self, observations: &[(SimTime, f64)]) -> f64 {
        let errors = self.percentage_errors(observations);
        if errors.is_empty() {
            return 0.0;
        }
        errors.iter().filter(|&&e| e < 0.0).count() as f64 / errors.len() as f64
    }
}

/// Hour-of-week index in `[0, 168)`.
fn hour_of_week(time: SimTime) -> usize {
    ((time.as_minutes() / 60) % HOURS_PER_WEEK as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    /// Two weeks of a noisy diurnal row-power-like signal: week 1 is history, week 2 is the
    /// evaluation window. Row power aggregates dozens of servers, so the hour-to-hour noise is
    /// small relative to the diurnal swing.
    type WeekSeries = Vec<(SimTime, f64)>;

    fn signal(seed: u64) -> (WeekSeries, WeekSeries) {
        let mut rng = SimRng::seed_from(seed).derive("signal-noise");
        let sample = |minute: u64, rng: &mut SimRng| {
            let t = SimTime::from_minutes(minute);
            let hour = t.hour_of_day();
            let base = 70.0 + 30.0 * ((hour - 15.0) / 24.0 * std::f64::consts::TAU).cos();
            (t, (base + rng.normal(0.0, 2.0)).max(0.0))
        };
        let week1 = (0..7 * 1440)
            .step_by(2)
            .map(|m| sample(m, &mut rng))
            .collect();
        let week2 = (7 * 1440..14 * 1440)
            .step_by(2)
            .map(|m| sample(m, &mut rng))
            .collect();
        (week1, week2)
    }

    #[test]
    fn hour_of_week_wraps() {
        assert_eq!(hour_of_week(SimTime::from_hours(0)), 0);
        assert_eq!(hour_of_week(SimTime::from_hours(167)), 167);
        assert_eq!(hour_of_week(SimTime::from_hours(168)), 0);
        assert_eq!(hour_of_week(SimTime::from_hours(169 + 24)), 25);
    }

    #[test]
    fn row_level_prediction_error_is_small() {
        // Fig. 14a: row power prediction from history has < 10 % error for most row-hours.
        let (history, future) = signal(1);
        let template = PowerTemplate::fit(TemplateKind::P50, &history);
        let errors = template.percentage_errors(&future);
        let within_10 =
            errors.iter().filter(|e| e.abs() <= 10.0).count() as f64 / errors.len() as f64;
        assert!(
            within_10 > 0.8,
            "most errors should be within 10 %, got {within_10}"
        );
    }

    #[test]
    fn p99_template_rarely_underpredicts() {
        // Fig. 14a: the conservative P99 template under-predicts < 4 % of row-hours.
        let (history, future) = signal(2);
        let p99 = PowerTemplate::fit(TemplateKind::P99, &history);
        let p50 = PowerTemplate::fit(TemplateKind::P50, &history);
        let under_p99 = p99.underprediction_fraction(&future);
        let under_p50 = p50.underprediction_fraction(&future);
        assert!(under_p99 < 0.06, "P99 underprediction {under_p99}");
        assert!(
            under_p99 < under_p50,
            "P99 must be more conservative than P50"
        );
        assert!(p99.predicted_peak() >= p50.predicted_peak());
    }

    #[test]
    fn template_orders_by_percentile() {
        let (history, _) = signal(3);
        let p50 = PowerTemplate::fit(TemplateKind::P50, &history);
        let p90 = PowerTemplate::fit(TemplateKind::P90, &history);
        let p99 = PowerTemplate::fit(TemplateKind::P99, &history);
        for hour in 0..168 {
            let t = SimTime::from_hours(hour);
            assert!(p50.predict(t) <= p90.predict(t) + 1e-9);
            assert!(p90.predict(t) <= p99.predict(t) + 1e-9);
        }
        assert_eq!(p99.kind(), TemplateKind::P99);
        assert_eq!(TemplateKind::P90.percentile(), 90.0);
    }

    #[test]
    fn sparse_history_falls_back_conservatively() {
        // History only covers hour 0 of the week; other hours fall back to the global
        // statistic (maximum for P99).
        let history: Vec<(SimTime, f64)> = (0..6)
            .map(|i| (SimTime::from_minutes(i * 10), 50.0 + i as f64))
            .collect();
        let p99 = PowerTemplate::fit(TemplateKind::P99, &history);
        assert_eq!(p99.predict(SimTime::from_hours(100)), 55.0);
        let p50 = PowerTemplate::fit(TemplateKind::P50, &history);
        assert!((p50.predict(SimTime::from_hours(100)) - 52.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty history")]
    fn empty_history_panics() {
        let _ = PowerTemplate::fit(TemplateKind::P50, &[]);
    }

    #[test]
    fn prediction_of_zero_signal_has_no_errors_recorded() {
        let history = vec![(SimTime::ZERO, 5.0)];
        let template = PowerTemplate::fit(TemplateKind::P50, &history);
        let observations = vec![(SimTime::from_hours(1), 0.0)];
        assert!(template.percentage_errors(&observations).is_empty());
        assert_eq!(template.underprediction_fraction(&observations), 0.0);
    }
}
