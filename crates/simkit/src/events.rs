//! Per-kind event tally.
//!
//! The evaluation of TAPAS counts *events*: thermal throttling and power capping
//! episodes, VM placements and instance reconfigurations, plus the "% of time under
//! thermal/power capping" of Fig. 21. The cluster simulator records each step's events of
//! one kind with a single [`EventTally::record`] call; the tally keeps, per
//! [`EventKind`], the event count, the number of steps with at least one event and the
//! last such step. Its size is fixed, so a report never grows with the number of events.
//! States that hold for a whole step (an SLO-violating or quality-degraded instance) are
//! not events; reports count them per step instead.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The category of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A GPU exceeded its thermal limit and the hardware throttled it.
    ThermalThrottle,
    /// A power-hierarchy level exceeded its budget and its servers were power-capped.
    PowerCap,
    /// An aisle's servers demanded more airflow than the AHUs provide (heat recirculation).
    AirflowViolation,
    /// A VM was placed on a server.
    VmPlaced,
    /// A VM could not be placed (no feasible server).
    VmRejected,
    /// A VM finished and released its server.
    VmRetired,
    /// A SaaS instance changed configuration (frequency, batch, parallelism, model, quant).
    InstanceReconfigured,
}

/// What the tally keeps for one [`EventKind`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct KindTally {
    /// Number of events.
    count: usize,
    /// Number of steps with at least one event.
    steps: usize,
    /// Time of the last step with at least one event.
    last: Option<SimTime>,
}

/// A fixed-size per-[`EventKind`] tally of simulation events.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTally {
    thermal_throttle: KindTally,
    power_cap: KindTally,
    airflow_violation: KindTally,
    vm_placed: KindTally,
    vm_rejected: KindTally,
    vm_retired: KindTally,
    instance_reconfigured: KindTally,
}

impl EventTally {
    fn get(&self, kind: EventKind) -> KindTally {
        match kind {
            EventKind::ThermalThrottle => self.thermal_throttle,
            EventKind::PowerCap => self.power_cap,
            EventKind::AirflowViolation => self.airflow_violation,
            EventKind::VmPlaced => self.vm_placed,
            EventKind::VmRejected => self.vm_rejected,
            EventKind::VmRetired => self.vm_retired,
            EventKind::InstanceReconfigured => self.instance_reconfigured,
        }
    }

    fn get_mut(&mut self, kind: EventKind) -> &mut KindTally {
        match kind {
            EventKind::ThermalThrottle => &mut self.thermal_throttle,
            EventKind::PowerCap => &mut self.power_cap,
            EventKind::AirflowViolation => &mut self.airflow_violation,
            EventKind::VmPlaced => &mut self.vm_placed,
            EventKind::VmRejected => &mut self.vm_rejected,
            EventKind::VmRetired => &mut self.vm_retired,
            EventKind::InstanceReconfigured => &mut self.instance_reconfigured,
        }
    }

    /// Records `n` events of `kind` in the step starting at `now`. `n = 0` records
    /// nothing. Calls for one kind must come in non-decreasing `now` order, with `now`
    /// on the step grid, so that each distinct `now` is one step.
    ///
    /// # Panics
    /// Panics if `now` is earlier than the last step recorded for `kind`.
    pub fn record(&mut self, kind: EventKind, now: SimTime, n: usize) {
        if n == 0 {
            return;
        }
        let tally = self.get_mut(kind);
        if let Some(last) = tally.last {
            assert!(
                now >= last,
                "{kind:?} events must be recorded in order ({now} < {last})"
            );
        }
        tally.count += n;
        if tally.last != Some(now) {
            tally.steps += 1;
            tally.last = Some(now);
        }
    }

    /// Number of events of the given kind.
    #[must_use]
    pub fn count(&self, kind: EventKind) -> usize {
        self.get(kind).count
    }

    /// Time of the last step with an event of the given kind, if any.
    #[must_use]
    pub fn last(&self, kind: EventKind) -> Option<SimTime> {
        self.get(kind).last
    }

    /// Fraction of the `horizon.div_ceil(step)` steps of a run during which at least one
    /// event of the given kind occurred.
    ///
    /// This is the "% of time under thermal/power capping" metric of Fig. 21.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    #[must_use]
    pub fn fraction_of_time(&self, kind: EventKind, horizon: SimTime, step: SimDuration) -> f64 {
        assert!(!step.is_zero(), "step must be non-zero");
        let total_steps = horizon.as_minutes().div_ceil(step.as_minutes());
        if total_steps == 0 {
            return 0.0;
        }
        self.get(kind).steps as f64 / total_steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeSet;

    const ALL_KINDS: [EventKind; 7] = [
        EventKind::ThermalThrottle,
        EventKind::PowerCap,
        EventKind::AirflowViolation,
        EventKind::VmPlaced,
        EventKind::VmRejected,
        EventKind::VmRetired,
        EventKind::InstanceReconfigured,
    ];

    fn minutes(m: u64) -> SimTime {
        SimTime::from_minutes(m)
    }

    #[test]
    fn record_and_count() {
        let mut tally = EventTally::default();
        tally.record(EventKind::ThermalThrottle, minutes(0), 1);
        tally.record(EventKind::PowerCap, minutes(5), 1);
        tally.record(EventKind::ThermalThrottle, minutes(5), 3);
        tally.record(EventKind::VmPlaced, minutes(5), 0);
        assert_eq!(tally.count(EventKind::ThermalThrottle), 4);
        assert_eq!(tally.count(EventKind::PowerCap), 1);
        assert_eq!(tally.count(EventKind::VmPlaced), 0);
        assert_eq!(tally.last(EventKind::ThermalThrottle), Some(minutes(5)));
        assert_eq!(tally.last(EventKind::VmPlaced), None);
        assert_eq!(
            tally.get(EventKind::ThermalThrottle),
            KindTally {
                count: 4,
                steps: 2,
                last: Some(minutes(5))
            }
        );
    }

    #[test]
    fn fraction_of_time_counts_distinct_steps() {
        let mut tally = EventTally::default();
        // Two records in the same 5-minute step count once.
        tally.record(EventKind::PowerCap, minutes(0), 1);
        tally.record(EventKind::PowerCap, minutes(0), 2);
        tally.record(EventKind::PowerCap, minutes(10), 1);
        let (horizon, step) = (minutes(20), SimDuration::from_minutes(5));
        assert!((tally.fraction_of_time(EventKind::PowerCap, horizon, step) - 0.5).abs() < 1e-12);
        assert_eq!(
            tally.fraction_of_time(EventKind::ThermalThrottle, horizon, step),
            0.0
        );
        assert_eq!(
            tally.fraction_of_time(EventKind::PowerCap, SimTime::ZERO, step),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn out_of_order_record_panics() {
        let mut tally = EventTally::default();
        tally.record(EventKind::PowerCap, minutes(10), 1);
        tally.record(EventKind::PowerCap, minutes(5), 1);
    }

    /// Differential check against the per-event log the tally replaced: a `Vec` of
    /// `(time, kind)` events, counted by filtering and bucketed into a `BTreeSet` of
    /// step indices for the capped-time fraction.
    #[test]
    fn tally_matches_a_per_event_log() {
        let mut rng = SimRng::seed_from(0x7a11);
        for case in 0..200u64 {
            let step = SimDuration::from_minutes(1 + rng.next_u64() % 10);
            let steps = rng.next_u64() % 60;
            let horizon = SimTime::from_minutes(steps * step.as_minutes() + rng.next_u64() % 3);
            let mut tally = EventTally::default();
            let mut log: Vec<(SimTime, EventKind)> = Vec::new();
            for index in 0..=steps {
                let now = SimTime::from_minutes(index * step.as_minutes());
                // Some steps record nothing at all; others record every kind, several
                // events per call, or an empty call.
                if rng.next_u64().is_multiple_of(3) {
                    continue;
                }
                for kind in ALL_KINDS {
                    for _ in 0..rng.next_u64() % 3 {
                        let n = (rng.next_u64() % 4) as usize;
                        tally.record(kind, now, n);
                        log.extend(std::iter::repeat_n((now, kind), n));
                    }
                }
            }
            for kind in ALL_KINDS {
                let of_kind = || log.iter().filter(|(_, k)| *k == kind);
                assert_eq!(tally.count(kind), of_kind().count(), "case {case} {kind:?}");
                assert_eq!(
                    tally.last(kind),
                    of_kind().map(|(t, _)| *t).max(),
                    "case {case}"
                );
                let buckets: BTreeSet<u64> = of_kind()
                    .map(|(t, _)| t.as_minutes() / step.as_minutes())
                    .collect();
                let total = horizon.as_minutes().div_ceil(step.as_minutes());
                let reference = if total == 0 {
                    0.0
                } else {
                    buckets.len() as f64 / total as f64
                };
                assert_eq!(
                    tally.fraction_of_time(kind, horizon, step).to_bits(),
                    reference.to_bits(),
                    "case {case} {kind:?}"
                );
            }
        }
    }
}
