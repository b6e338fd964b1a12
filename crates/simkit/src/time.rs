//! Discrete simulation time.
//!
//! The paper's telemetry arrives at 10-minute granularity, the router recalculates its
//! aisle/row caches every 5 minutes and the real-cluster experiment samples power every
//! minute. A minute-resolution integer clock covers all of these without floating-point
//! drift over week-long simulations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of minutes in an hour.
pub const MINUTES_PER_HOUR: u64 = 60;
/// Number of minutes in a day.
pub const MINUTES_PER_DAY: u64 = 24 * MINUTES_PER_HOUR;
/// Number of minutes in a week.
pub const MINUTES_PER_WEEK: u64 = 7 * MINUTES_PER_DAY;

/// A point in simulated time, measured in whole minutes since the start of the simulation.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulated time, measured in whole minutes.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: Self = Self(0);

    /// Creates a time from minutes since the simulation start.
    #[must_use]
    pub const fn from_minutes(minutes: u64) -> Self {
        Self(minutes)
    }

    /// Creates a time from hours since the simulation start.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        Self(hours * MINUTES_PER_HOUR)
    }

    /// Creates a time from days since the simulation start.
    #[must_use]
    pub const fn from_days(days: u64) -> Self {
        Self(days * MINUTES_PER_DAY)
    }

    /// Minutes since the simulation start.
    #[must_use]
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Fractional hours since the simulation start.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / MINUTES_PER_HOUR as f64
    }

    /// Fractional days since the simulation start.
    #[must_use]
    pub fn as_days(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }

    /// The minute within the current day, in `[0, 1440)`.
    ///
    /// Useful for diurnal load patterns (Fig. 13 of the paper).
    #[must_use]
    pub const fn minute_of_day(self) -> u64 {
        self.0 % MINUTES_PER_DAY
    }

    /// The fractional hour of day in `[0, 24)`.
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        self.minute_of_day() as f64 / MINUTES_PER_HOUR as f64
    }

    /// The day index since the simulation start (day 0, day 1, …).
    #[must_use]
    pub const fn day_index(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: Self = Self(0);

    /// Creates a duration from minutes.
    #[must_use]
    pub const fn from_minutes(minutes: u64) -> Self {
        Self(minutes)
    }

    /// Creates a duration from hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        Self(hours * MINUTES_PER_HOUR)
    }

    /// Creates a duration from days.
    #[must_use]
    pub const fn from_days(days: u64) -> Self {
        Self(days * MINUTES_PER_DAY)
    }

    /// Length in minutes.
    #[must_use]
    pub const fn as_minutes(self) -> u64 {
        self.0
    }

    /// Length in fractional hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / MINUTES_PER_HOUR as f64
    }

    /// Length in fractional days.
    #[must_use]
    pub fn as_days(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }

    /// Returns `true` if the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(
            self.0 >= rhs.0,
            "cannot subtract a later time ({}) from an earlier one ({})",
            rhs.0,
            self.0
        );
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.day_index();
        let minutes = self.minute_of_day();
        write!(f, "d{}+{:02}:{:02}", days, minutes / 60, minutes % 60)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}min", self.0)
    }
}

/// A stepping clock that advances in fixed increments.
///
/// The cluster simulator uses one clock per experiment: 1-minute steps for the real-cluster
/// replay (Fig. 18), 5-minute steps for the week-long large-scale simulation (Fig. 19).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimClock {
    now: SimTime,
    step: SimDuration,
    end: SimTime,
}

impl SimClock {
    /// Creates a clock that runs from time zero until `end` (exclusive) in increments of
    /// `step`.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    #[must_use]
    pub fn new(step: SimDuration, end: SimTime) -> Self {
        assert!(!step.is_zero(), "clock step must be non-zero");
        Self {
            now: SimTime::ZERO,
            step,
            end,
        }
    }

    /// The current simulated time.
    #[must_use]
    pub const fn now(&self) -> SimTime {
        self.now
    }

    /// The step size.
    #[must_use]
    pub const fn step(&self) -> SimDuration {
        self.step
    }

    /// The exclusive end time.
    #[must_use]
    pub const fn end(&self) -> SimTime {
        self.end
    }

    /// Returns `true` while the current time is before the end time.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.now < self.end
    }

    /// Advances the clock by one step and returns the new time, or `None` once the end has
    /// been reached.
    pub fn tick(&mut self) -> Option<SimTime> {
        if !self.is_running() {
            return None;
        }
        self.now += self.step;
        Some(self.now)
    }

    /// Iterates over every step boundary from the current time until the end (exclusive),
    /// advancing the clock as it goes.
    pub fn drain(&mut self) -> impl Iterator<Item = SimTime> + '_ {
        std::iter::from_fn(move || {
            if self.is_running() {
                let t = self.now;
                self.now += self.step;
                Some(t)
            } else {
                None
            }
        })
    }

    /// Total number of steps the clock will produce from time zero.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.end.as_minutes().div_ceil(self.step.as_minutes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_hours(2).as_minutes(), 120);
        assert_eq!(SimTime::from_days(1).as_minutes(), MINUTES_PER_DAY);
        assert_eq!(SimDuration::from_days(7).as_minutes(), MINUTES_PER_WEEK);
        assert!((SimTime::from_minutes(90).as_hours() - 1.5).abs() < 1e-12);
        assert!((SimDuration::from_hours(36).as_days() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn diurnal_helpers() {
        let t = SimTime::from_minutes(MINUTES_PER_DAY + 90);
        assert_eq!(t.day_index(), 1);
        assert_eq!(t.minute_of_day(), 90);
        assert!((t.hour_of_day() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_minutes(100) + SimDuration::from_minutes(40);
        assert_eq!(t.as_minutes(), 140);
        assert_eq!((t - SimTime::from_minutes(100)).as_minutes(), 40);
    }

    #[test]
    #[should_panic(expected = "cannot subtract")]
    fn subtracting_later_time_panics() {
        let _ = SimTime::from_minutes(10) - SimTime::from_minutes(20);
    }

    #[test]
    fn clock_ticks_until_end() {
        let mut clock = SimClock::new(SimDuration::from_minutes(5), SimTime::from_minutes(20));
        assert_eq!(clock.total_steps(), 4);
        let mut seen = vec![clock.now().as_minutes()];
        while let Some(t) = clock.tick() {
            seen.push(t.as_minutes());
        }
        assert_eq!(seen, vec![0, 5, 10, 15, 20]);
        assert!(!clock.is_running());
        assert_eq!(clock.tick(), None);
    }

    #[test]
    fn clock_drain_yields_step_starts() {
        let mut clock = SimClock::new(SimDuration::from_minutes(10), SimTime::from_minutes(30));
        let steps: Vec<u64> = clock.drain().map(|t| t.as_minutes()).collect();
        assert_eq!(steps, vec![0, 10, 20]);
        assert!(!clock.is_running());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_step_clock_panics() {
        let _ = SimClock::new(SimDuration::ZERO, SimTime::from_minutes(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            SimTime::from_minutes(MINUTES_PER_DAY + 75).to_string(),
            "d1+01:15"
        );
        assert_eq!(SimDuration::from_minutes(30).to_string(), "30min");
    }
}
