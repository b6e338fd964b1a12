//! In-program step profile: wall-clock nanoseconds per fixed step phase.
//!
//! A [`StepProfile`] is a handful of `u64` accumulators, one per [`StepPhase`], plus a
//! step count. It records nothing until [`StepProfile::enable`] is called, so a
//! simulator that carries one pays a single branch per phase boundary when profiling is
//! off. Wall-clock time is observation only: a profile never enters a report or a
//! digest, and enabling it changes no simulated value.
//!
//! Phases are laid end to end with [`StepProfile::lap`]: each call closes the phase that
//! began at the previous mark and returns the next mark, so consecutive phases cost one
//! clock read each and never overlap.

use std::time::Instant;

/// The phases a simulation step is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// Fleet level: filling the per-site signals (headroom routing only) and routing the
    /// step's VM arrivals across sites.
    Fleet,
    /// Fleet level: generating the step's request-fabric arrivals.
    FabricGenerate,
    /// Fleet level: ordering the step's arrivals, routing each to a site and offering it
    /// to its endpoint's scheduler there.
    FabricHandoff,
    /// Cell level: rescaling the per-endpoint schedulers to the step's replicas, with the
    /// cell's own share of the fabric step (replica counts, pressure blending).
    Offer,
    /// Cell level: the schedulers' serving iterations (`advance_to`), which record each
    /// completion into the request metrics as it completes.
    Advance,
    /// Cell level: the per-endpoint pressure and distress update and the step's fold of
    /// the attainment curves.
    Record,
    /// Cell level: retiring expired VMs and placing the pending ones.
    RetirePlace,
    /// Cell level: routing the step's request quanta across the SaaS instances.
    Route,
    /// Cell level: the instance configurator.
    Configure,
    /// Cell level: filling the per-server activity planes.
    Fill,
    /// Cell level: the thermal and power physics step.
    Physics,
    /// Cell level: recording the step's series and events and carrying state into the
    /// next step.
    RecordStep,
}

impl StepPhase {
    /// Every phase, in table order.
    pub const ALL: [StepPhase; 12] = [
        StepPhase::Fleet,
        StepPhase::FabricGenerate,
        StepPhase::FabricHandoff,
        StepPhase::Offer,
        StepPhase::Advance,
        StepPhase::Record,
        StepPhase::RetirePlace,
        StepPhase::Route,
        StepPhase::Configure,
        StepPhase::Fill,
        StepPhase::Physics,
        StepPhase::RecordStep,
    ];

    /// Short column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StepPhase::Fleet => "fleet",
            StepPhase::FabricGenerate => "fabric generate",
            StepPhase::FabricHandoff => "fabric handoff",
            StepPhase::Offer => "offer",
            StepPhase::Advance => "advance",
            StepPhase::Record => "record",
            StepPhase::RetirePlace => "retire+place",
            StepPhase::Route => "route",
            StepPhase::Configure => "configure",
            StepPhase::Fill => "fill",
            StepPhase::Physics => "physics",
            StepPhase::RecordStep => "record step",
        }
    }
}

/// Nanoseconds spent in each [`StepPhase`], and the number of steps they cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepProfile {
    enabled: bool,
    ns: [u64; StepPhase::ALL.len()],
    steps: u64,
}

impl StepProfile {
    /// Starts recording. Accumulated values are kept.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// A mark to time the next phase from: the current instant when recording, `None`
    /// otherwise.
    #[must_use]
    pub fn mark(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Charges the time since `since` to `phase` and returns the new mark (`None`, and
    /// nothing charged, when `since` is `None`).
    pub fn lap(&mut self, phase: StepPhase, since: Option<Instant>) -> Option<Instant> {
        let since = since?;
        let now = Instant::now();
        self.add(phase, now.duration_since(since).as_nanos() as u64);
        Some(now)
    }

    /// Adds `ns` nanoseconds to `phase`.
    pub fn add(&mut self, phase: StepPhase, ns: u64) {
        self.ns[phase as usize] += ns;
    }

    /// Counts one profiled step.
    pub fn count_step(&mut self) {
        if self.enabled {
            self.steps += 1;
        }
    }

    /// Nanoseconds charged to `phase`.
    #[must_use]
    pub fn ns(&self, phase: StepPhase) -> u64 {
        self.ns[phase as usize]
    }

    /// Nanoseconds charged to every phase.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Steps counted.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Adds `other`'s phase times into this profile; the step count is kept (a fleet
    /// folds in its cells, which step once per fleet step).
    pub fn add_phases(&mut self, other: &Self) {
        for (mine, theirs) in self.ns.iter_mut().zip(&other.ns) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiles_record_nothing() {
        let mut profile = StepProfile::default();
        let mark = profile.mark();
        assert!(mark.is_none());
        assert!(profile.lap(StepPhase::Advance, mark).is_none());
        profile.count_step();
        assert_eq!(profile, StepProfile::default());
    }

    #[test]
    fn laps_charge_consecutive_phases() {
        let mut profile = StepProfile::default();
        profile.enable();
        let mark = profile.mark();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mark = profile.lap(StepPhase::Offer, mark);
        let _ = profile.lap(StepPhase::Record, mark);
        profile.count_step();
        assert!(profile.ns(StepPhase::Offer) >= 2_000_000);
        assert_eq!(
            profile.total_ns(),
            profile.ns(StepPhase::Offer) + profile.ns(StepPhase::Record)
        );
        assert_eq!(profile.steps(), 1);

        let mut fleet = StepProfile::default();
        fleet.add(StepPhase::FabricGenerate, 5);
        fleet.add_phases(&profile);
        assert_eq!(fleet.total_ns(), profile.total_ns() + 5);
        assert_eq!(fleet.steps(), 0);
    }
}
