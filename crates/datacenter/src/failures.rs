//! Cooling and power failure injection.
//!
//! §2 describes the redundancy of both infrastructures and §5.4 evaluates TAPAS during
//! emergencies: an AHU/cooling failure reduces the effective cooling capacity to ≈90 %, and a
//! UPS failure in a 4N/3 redundancy group reduces the usable power capacity to 75 %. This
//! module models failures as *windows* in simulated time; at any instant the active windows
//! collapse into a [`FailureState`] that the engine consumes.

use crate::ids::{AisleId, UpsId};
use crate::power::hierarchy::CapacityState;
use crate::topology::Layout;
use serde::{Deserialize, Serialize};
use simkit::stats::nan_last;
use simkit::time::SimTime;

/// The kinds of infrastructure failures the simulator injects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureKind {
    /// One or more AHUs in a single aisle fail: the remaining AHUs must supply the airflow,
    /// shrinking the aisle's available airflow proportionally.
    AhuFailure {
        /// The affected aisle.
        aisle: AisleId,
        /// Number of failed AHUs in that aisle.
        failed_units: usize,
    },
    /// A datacenter-level cooling device fails: every aisle's effective airflow capacity is
    /// scaled by this fraction (the paper's thermal emergency uses 0.9).
    CoolingDeviceFailure {
        /// Remaining fraction of cooling capacity, in `(0, 1]`.
        capacity_fraction: f64,
    },
    /// A UPS fails: with 4N/3 redundancy the surviving units absorb the load, reducing the
    /// usable power capacity (the paper's power emergency uses 0.75).
    UpsFailure {
        /// The failed UPS.
        ups: UpsId,
        /// Remaining fraction of power capacity across the hierarchy, in `(0, 1]`.
        capacity_fraction: f64,
    },
}

/// A failure active during `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureWindow {
    /// What failed.
    pub kind: FailureKind,
    /// Start of the outage (inclusive).
    pub start: SimTime,
    /// End of the outage (exclusive).
    pub end: SimTime,
}

impl FailureWindow {
    /// Returns `true` if the window is active at `time`.
    #[must_use]
    pub fn is_active(&self, time: SimTime) -> bool {
        time >= self.start && time < self.end
    }
}

/// A schedule of failure windows for one simulation run.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSchedule {
    windows: Vec<FailureWindow>,
}

impl FailureSchedule {
    /// An empty schedule (no failures).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a failure window.
    pub fn add(&mut self, window: FailureWindow) -> &mut Self {
        self.windows.push(window);
        self
    }

    /// The scheduled windows.
    #[must_use]
    pub fn windows(&self) -> &[FailureWindow] {
        &self.windows
    }

    /// Collapses the schedule into the failure state at an instant.
    #[must_use]
    pub fn state_at(&self, time: SimTime) -> FailureState {
        let mut state = FailureState::healthy();
        self.state_into(time, &mut state);
        state
    }

    /// [`Self::state_at`] writing into a reusable state: the failure lists keep their
    /// allocations across steps, so the steady-state step loop allocates nothing even while
    /// failure windows are active.
    ///
    /// Overlapping windows on the *same* UPS combine to the most severe residual fraction
    /// (matching how overlaps across different UPSes always combined); previously the
    /// schedule-order-last window won, which could understate an ongoing severe failure.
    pub fn state_into(&self, time: SimTime, state: &mut FailureState) {
        state.clear();
        for window in self.windows.iter().filter(|w| w.is_active(time)) {
            match window.kind {
                FailureKind::AhuFailure {
                    aisle,
                    failed_units,
                } => {
                    state.fail_ahus(aisle, failed_units);
                }
                FailureKind::CoolingDeviceFailure { capacity_fraction } => {
                    state.global_cooling_fraction = state
                        .global_cooling_fraction
                        .min(capacity_fraction.clamp(0.0, 1.0));
                }
                FailureKind::UpsFailure {
                    ups,
                    capacity_fraction,
                } => {
                    state.fail_ups(ups, capacity_fraction.clamp(0.0, 1.0));
                }
            }
        }
    }
}

/// The set of failures active at one instant.
///
/// The failed-entity lists are small sparse vectors (a handful of entries during an
/// emergency, none otherwise), kept sorted by id for deterministic iteration and
/// serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureState {
    /// Number of failed AHUs per affected aisle, sorted by aisle id.
    failed_ahus: Vec<(AisleId, usize)>,
    /// Global cooling capacity fraction (1.0 when healthy).
    pub global_cooling_fraction: f64,
    /// Failed UPSes and the residual power capacity fraction they impose, sorted by UPS id.
    failed_upses: Vec<(UpsId, f64)>,
}

impl FailureState {
    /// No active failures.
    #[must_use]
    pub fn healthy() -> Self {
        Self {
            failed_ahus: Vec::new(),
            global_cooling_fraction: 1.0,
            failed_upses: Vec::new(),
        }
    }

    /// Clears all failures back to healthy, keeping the list allocations.
    pub fn clear(&mut self) {
        self.failed_ahus.clear();
        self.failed_upses.clear();
        self.global_cooling_fraction = 1.0;
    }

    /// Records `failed_units` additional failed AHUs in an aisle.
    pub fn fail_ahus(&mut self, aisle: AisleId, failed_units: usize) {
        match self.failed_ahus.binary_search_by_key(&aisle, |&(id, _)| id) {
            Ok(slot) => self.failed_ahus[slot].1 += failed_units,
            Err(slot) => self.failed_ahus.insert(slot, (aisle, failed_units)),
        }
    }

    /// Records a UPS failure leaving `capacity_fraction` of power capacity. Repeated
    /// failures of the same UPS keep the most severe fraction.
    pub fn fail_ups(&mut self, ups: UpsId, capacity_fraction: f64) {
        match self.failed_upses.binary_search_by_key(&ups, |&(id, _)| id) {
            Ok(slot) => {
                let entry = &mut self.failed_upses[slot].1;
                *entry = entry.min(capacity_fraction);
            }
            Err(slot) => self.failed_upses.insert(slot, (ups, capacity_fraction)),
        }
    }

    /// The failed AHU counts per affected aisle, sorted by aisle id.
    #[must_use]
    pub fn failed_ahus(&self) -> &[(AisleId, usize)] {
        &self.failed_ahus
    }

    /// The failed UPSes and their residual capacity fractions, sorted by UPS id.
    #[must_use]
    pub fn failed_upses(&self) -> &[(UpsId, f64)] {
        &self.failed_upses
    }

    /// Returns `true` if nothing is failed.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.failed_ahus.is_empty()
            && self.failed_upses.is_empty()
            && (self.global_cooling_fraction - 1.0).abs() < f64::EPSILON
    }

    /// Effective airflow capacity fraction for an aisle: the global cooling fraction times the
    /// fraction of that aisle's AHUs that are still running.
    #[must_use]
    pub fn aisle_airflow_fraction(&self, aisle: AisleId, ahu_count: usize) -> f64 {
        let failed = self
            .failed_ahus
            .binary_search_by_key(&aisle, |&(id, _)| id)
            .map(|slot| self.failed_ahus[slot].1)
            .unwrap_or(0);
        let running = ahu_count.saturating_sub(failed);
        let ahu_fraction = if ahu_count == 0 {
            0.0
        } else {
            running as f64 / ahu_count as f64
        };
        self.global_cooling_fraction * ahu_fraction
    }

    /// Derives the power-capacity state for the hierarchy from the failed UPSes.
    ///
    /// With the paper's 4N/3 redundancy the load of a failed UPS is redistributed across the
    /// survivors, so the failure manifests as a datacenter-wide capacity reduction (to the
    /// smallest residual fraction among active failures) rather than as a dead branch.
    #[must_use]
    pub fn capacity_state(&self, layout: &Layout) -> CapacityState {
        let mut capacity = CapacityState::healthy();
        self.capacity_state_into(layout, &mut capacity);
        capacity
    }

    /// [`Self::capacity_state`] writing into a reusable state whose dense per-level grids
    /// keep their allocations across steps.
    pub fn capacity_state_into(&self, layout: &Layout, capacity: &mut CapacityState) {
        capacity.reset();
        if let Some(min_fraction) = self
            .failed_upses
            .iter()
            .map(|&(_, fraction)| fraction)
            .min_by(nan_last)
        {
            // A NaN fraction ranks after every number, so any finite failure decides; if
            // every fraction is NaN, nothing says what survived — read it as a total loss.
            let min_fraction = if min_fraction.is_nan() {
                0.0
            } else {
                min_fraction
            };
            capacity.datacenter_capacity = min_fraction;
            for ups in layout.upses() {
                capacity.set_ups_capacity(ups.id, min_fraction);
            }
            for row in layout.rows() {
                capacity.set_row_capacity(row.id, min_fraction);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LayoutConfig;

    /// The paper's thermal emergency: cooling capacity reduced to 90 % over `[start, end)`.
    fn thermal_emergency(start: SimTime, end: SimTime) -> FailureWindow {
        FailureWindow {
            kind: FailureKind::CoolingDeviceFailure {
                capacity_fraction: 0.9,
            },
            start,
            end,
        }
    }

    /// The paper's power emergency: power capacity reduced to 75 % over `[start, end)`.
    fn power_emergency(start: SimTime, end: SimTime) -> FailureWindow {
        FailureWindow {
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.75,
            },
            start,
            end,
        }
    }

    fn t(minutes: u64) -> SimTime {
        SimTime::from_minutes(minutes)
    }

    #[test]
    fn empty_schedule_is_healthy() {
        let schedule = FailureSchedule::none();
        let state = schedule.state_at(t(100));
        assert!(state.is_healthy());
        assert_eq!(state.aisle_airflow_fraction(AisleId::new(0), 4), 1.0);
        let layout = LayoutConfig::small_test_cluster().build();
        let capacity = state.capacity_state(&layout);
        assert_eq!(capacity.datacenter_capacity, 1.0);
        assert!(capacity.is_full());
    }

    #[test]
    fn window_activation_boundaries() {
        let window = FailureWindow {
            kind: FailureKind::CoolingDeviceFailure {
                capacity_fraction: 0.9,
            },
            start: t(10),
            end: t(20),
        };
        assert!(!window.is_active(t(9)));
        assert!(window.is_active(t(10)));
        assert!(window.is_active(t(19)));
        assert!(!window.is_active(t(20)));
    }

    #[test]
    fn ahu_failure_scales_only_its_aisle() {
        let mut schedule = FailureSchedule::none();
        schedule.add(FailureWindow {
            kind: FailureKind::AhuFailure {
                aisle: AisleId::new(1),
                failed_units: 1,
            },
            start: t(0),
            end: t(60),
        });
        let state = schedule.state_at(t(30));
        assert!(!state.is_healthy());
        assert_eq!(state.aisle_airflow_fraction(AisleId::new(1), 4), 0.75);
        assert_eq!(state.aisle_airflow_fraction(AisleId::new(0), 4), 1.0);
        // All AHUs failed -> zero airflow, never negative.
        let mut schedule2 = FailureSchedule::none();
        schedule2.add(FailureWindow {
            kind: FailureKind::AhuFailure {
                aisle: AisleId::new(0),
                failed_units: 9,
            },
            start: t(0),
            end: t(60),
        });
        assert_eq!(
            schedule2
                .state_at(t(0))
                .aisle_airflow_fraction(AisleId::new(0), 4),
            0.0
        );
    }

    #[test]
    fn cooling_failure_applies_globally_and_combines_with_ahu() {
        let mut schedule = FailureSchedule::none();
        schedule.add(thermal_emergency(t(0), t(100)));
        schedule.add(FailureWindow {
            kind: FailureKind::AhuFailure {
                aisle: AisleId::new(0),
                failed_units: 2,
            },
            start: t(0),
            end: t(100),
        });
        let state = schedule.state_at(t(50));
        assert!((state.global_cooling_fraction - 0.9).abs() < 1e-12);
        assert!((state.aisle_airflow_fraction(AisleId::new(0), 4) - 0.9 * 0.5).abs() < 1e-12);
        assert!((state.aisle_airflow_fraction(AisleId::new(3), 4) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ups_failure_reduces_power_capacity_everywhere() {
        let layout = LayoutConfig::production_datacenter().build();
        let mut schedule = FailureSchedule::none();
        schedule.add(power_emergency(t(0), t(30)));
        let state = schedule.state_at(t(10));
        let capacity = state.capacity_state(&layout);
        assert!((capacity.datacenter_capacity - 0.75).abs() < 1e-12);
        for ups in layout.upses() {
            assert!((capacity.ups(ups.id) - 0.75).abs() < 1e-12);
        }
        for row in layout.rows() {
            assert!((capacity.row(row.id) - 0.75).abs() < 1e-12);
        }
        // Outside the window everything recovers.
        assert!(schedule.state_at(t(40)).is_healthy());
        // Reusing the same state buffer across instants tracks the windows exactly.
        let mut reused = FailureState::healthy();
        let mut reused_capacity = CapacityState::healthy();
        for minutes in [0u64, 10, 29, 30, 31, 40] {
            schedule.state_into(t(minutes), &mut reused);
            assert_eq!(reused, schedule.state_at(t(minutes)), "at {minutes} min");
            reused.capacity_state_into(&layout, &mut reused_capacity);
            let fresh = schedule.state_at(t(minutes)).capacity_state(&layout);
            assert!(
                (reused_capacity.datacenter_capacity - fresh.datacenter_capacity).abs() < 1e-12
            );
        }
    }

    #[test]
    fn overlapping_same_ups_failures_keep_the_most_severe() {
        // Two concurrent windows on the same UPS: the worse residual fraction governs,
        // regardless of schedule order (previously the schedule-order-last window won).
        let mut schedule = FailureSchedule::none();
        schedule.add(FailureWindow {
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.5,
            },
            start: t(0),
            end: t(60),
        });
        schedule.add(FailureWindow {
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.8,
            },
            start: t(10),
            end: t(60),
        });
        let state = schedule.state_at(t(30));
        assert_eq!(state.failed_upses(), &[(UpsId::new(0), 0.5)]);
        let layout = LayoutConfig::small_test_cluster().build();
        assert!((state.capacity_state(&layout).datacenter_capacity - 0.5).abs() < 1e-12);
        // Once the severe window ends, the milder one governs alone.
        let mut late = FailureSchedule::none();
        late.add(FailureWindow {
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.5,
            },
            start: t(0),
            end: t(20),
        });
        late.add(FailureWindow {
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.8,
            },
            start: t(10),
            end: t(60),
        });
        assert_eq!(late.state_at(t(30)).failed_upses(), &[(UpsId::new(0), 0.8)]);
    }

    #[test]
    fn nan_ups_fraction_yields_to_a_finite_one_and_alone_reads_as_total_loss() {
        let layout = LayoutConfig::small_test_cluster().build();
        let mut state = FailureState::healthy();
        state.fail_ups(UpsId::new(0), f64::NAN);
        state.fail_ups(UpsId::new(1), 0.75);
        assert_eq!(state.capacity_state(&layout).datacenter_capacity, 0.75);

        let mut only_nan = FailureState::healthy();
        only_nan.fail_ups(UpsId::new(0), f64::NAN);
        assert_eq!(only_nan.capacity_state(&layout).datacenter_capacity, 0.0);
    }

    #[test]
    fn overlapping_failures_take_the_most_severe() {
        let mut schedule = FailureSchedule::none();
        schedule.add(thermal_emergency(t(0), t(100)));
        schedule.add(power_emergency(t(0), t(100)));
        schedule.add(FailureWindow {
            kind: FailureKind::CoolingDeviceFailure {
                capacity_fraction: 0.8,
            },
            start: t(20),
            end: t(40),
        });
        let state = schedule.state_at(t(30));
        assert!((state.global_cooling_fraction - 0.8).abs() < 1e-12);
        assert_eq!(schedule.windows().len(), 3);
    }
}
