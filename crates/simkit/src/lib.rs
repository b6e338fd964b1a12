//! # simkit — simulation substrate for the TAPAS reproduction
//!
//! This crate provides the low-level building blocks shared by every other crate in the
//! workspace:
//!
//! * [`units`] — strongly-typed physical quantities (temperature, power, airflow, …) so that
//!   a row power budget can never be accidentally compared against a GPU temperature.
//! * [`time`] — a discrete simulation clock with minute resolution, matching the paper's
//!   telemetry granularity (10-minute sensor averages, 5-minute routing recalculation,
//!   1-minute real-cluster measurements).
//! * [`series`] — the per-step time series container run reports record into.
//! * [`stats`] — summary statistics (mean, percentiles, CDFs) used throughout the
//!   characterization and evaluation figures.
//! * [`regression`] — least squares on a fixed design, factored once and solved per fit,
//!   and the general linear, polynomial and piecewise-polynomial fits. The paper fits
//!   Eq. (1)–(4) with piecewise polynomial regression (§5.1), reporting a mean absolute
//!   error below 1 °C.
//! * [`rng`] — deterministic, seedable random streams plus the handful of distributions the
//!   trace generators need (normal, log-normal, exponential, Pareto-like heavy tails).
//! * [`events`] — a fixed-size per-kind tally the cluster simulator records thermal
//!   throttling, power capping, placement and reconfiguration events into.
//! * [`queue`] — a deterministic binary-heap [`queue::EventQueue`] over integer
//!   timestamps with FIFO tie-breaking, the ordering substrate for event-timestamped
//!   streams such as the request fabric.
//! * [`profile`] — [`profile::StepProfile`], wall-clock nanoseconds per step phase, filled
//!   only when a simulator's profiling is switched on and never part of a report.
//!
//! # Example
//!
//! ```
//! use simkit::regression::FixedDesign;
//! use simkit::units::{Celsius, Watts};
//!
//! // A toy GPU-temperature model T_gpu = c + a·T_inlet + b·P_gpu (Eq. 2 of the paper),
//! // sampled at five (inlet °C, GPU W) points. The design is factored once ...
//! let design = FixedDesign::new([
//!     [1.0, 20.0, 300.0],
//!     [1.0, 22.0, 400.0],
//!     [1.0, 25.0, 500.0],
//!     [1.0, 28.0, 250.0],
//!     [1.0, 18.0, 600.0],
//! ])
//! .expect("well-conditioned design");
//! // ... and every GPU sampled at those points is one solve.
//! let [c, a, b] = design.solve([48.0, 55.0, 63.0, 52.0, 60.0]);
//! let predicted = c + a * 21.0 + b * 350.0;
//! assert!(predicted > 40.0 && predicted < 70.0);
//! let [hotter, ..] = design.solve([50.0, 57.0, 65.0, 54.0, 62.0]);
//! assert!((hotter - c - 2.0).abs() < 1e-9);
//! let _t = Celsius::new(predicted);
//! let _p = Watts::new(350.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

// The test-only regression reference names `simkit::regression::FitError`, a path that
// resolves both here and in the crates that include it.
#[cfg(test)]
extern crate self as simkit;

pub mod events;
pub mod profile;
pub mod queue;
pub mod regression;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use events::{EventKind, EventTally};
pub use profile::{StepPhase, StepProfile};
pub use queue::EventQueue;
pub use regression::FixedDesign;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::Summary;
pub use time::{SimClock, SimDuration, SimTime};
pub use units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
