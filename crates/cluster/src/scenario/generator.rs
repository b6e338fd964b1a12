//! Seeded adversarial scenario generation.
//!
//! The Table 2 emergency drills exercise two hand-written failure windows; a robustness
//! benchmark needs *arbitrary* compositions of heatwaves, cold snaps, grid-price spikes,
//! rolling infrastructure failures, operator power caps and demand surges. This module
//! generates such compositions deterministically: [`generate`] is a pure function of
//! `(seed, GeneratorConfig)`, every stochastic choice draws from a [`SimRng`], and the
//! result always passes [`Scenario::validate`] by construction (fractions clamped into
//! `(0, 1]`, windows non-empty and inside the horizon, site ordinals bounded by the
//! configured fleet size).
//!
//! # Determinism rules
//!
//! * Every event family (weather, price, failures, caps, demand) draws from its own
//!   child stream derived from the seed by a domain label, so changing how many events
//!   one family emits never shifts another family's draws.
//! * Events are appended family by family in a fixed order; the timeline order of a
//!   generated scenario is therefore stable across runs, platforms and feature builds.
//! * No wall-clock, no global state: the same `(seed, config)` pair yields a scenario
//!   that serializes to identical bytes everywhere (pinned by the golden-artifact test).

use super::{Scenario, ScenarioEvent, SiteSelector};
use dc_sim::failures::FailureKind;
use dc_sim::ids::{AisleId, UpsId};
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use workload::endpoints::EndpointId;

/// How hard the generated scenario leans on the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntensityTier {
    /// Occasional single-digit weather offsets, shallow caps, no compound failures.
    Mild,
    /// Multiple overlapping episodes, deep price spikes, guaranteed failures and caps.
    Severe,
    /// Everything at once: rolling failures, sub-50 % caps, demand several times nominal.
    Adversarial,
}

impl IntensityTier {
    /// All tiers, mild to adversarial.
    pub const ALL: [IntensityTier; 3] =
        [IntensityTier::Mild, IntensityTier::Severe, IntensityTier::Adversarial];

    /// A short display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IntensityTier::Mild => "mild",
            IntensityTier::Severe => "severe",
            IntensityTier::Adversarial => "adversarial",
        }
    }
}

/// The shape of the world a generated scenario must fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Intensity tier.
    pub tier: IntensityTier,
    /// Number of fleet sites events may target (single-DC experiments use 1).
    pub sites: usize,
    /// The run horizon; every generated window lies inside `[0, duration)`.
    pub duration: SimTime,
    /// Endpoint catalog size for per-endpoint demand ramps.
    pub endpoints: usize,
}

impl GeneratorConfig {
    /// A configuration for `sites` sites over `duration` at the given tier, with the
    /// default 4-endpoint catalog of the experiment presets.
    #[must_use]
    pub fn new(tier: IntensityTier, sites: usize, duration: SimTime) -> Self {
        Self { tier, sites, duration, endpoints: 4 }
    }
}

/// Per-tier knobs: event counts `(min, max)` (inclusive), magnitude ranges, window
/// lengths as fractions of the horizon.
struct TierParams {
    weather_events: (usize, usize),
    weather_delta_c: (f64, f64),
    cold_snap_chance: f64,
    price_events: (usize, usize),
    price_per_mwh: (f64, f64),
    failure_events: (usize, usize),
    failure_fraction: (f64, f64),
    rolling_failures: bool,
    cap_events: (usize, usize),
    cap_fraction: (f64, f64),
    surge_events: (usize, usize),
    surge_multiplier: (f64, f64),
    ramp_chance: f64,
    replica_failure_events: (usize, usize),
    replica_failure_count: (usize, usize),
    replica_endpoint_chance: f64,
    window_frac: (f64, f64),
}

fn params(tier: IntensityTier) -> TierParams {
    match tier {
        IntensityTier::Mild => TierParams {
            weather_events: (1, 2),
            weather_delta_c: (2.0, 6.0),
            cold_snap_chance: 0.2,
            price_events: (1, 2),
            price_per_mwh: (60.0, 150.0),
            failure_events: (0, 1),
            failure_fraction: (0.9, 0.97),
            rolling_failures: false,
            cap_events: (0, 1),
            cap_fraction: (0.9, 0.97),
            surge_events: (1, 2),
            surge_multiplier: (1.1, 1.5),
            ramp_chance: 0.25,
            replica_failure_events: (0, 0),
            replica_failure_count: (1, 1),
            replica_endpoint_chance: 0.5,
            window_frac: (0.05, 0.15),
        },
        IntensityTier::Severe => TierParams {
            weather_events: (2, 4),
            weather_delta_c: (5.0, 12.0),
            cold_snap_chance: 0.3,
            price_events: (2, 4),
            price_per_mwh: (150.0, 400.0),
            failure_events: (1, 3),
            failure_fraction: (0.75, 0.92),
            rolling_failures: false,
            cap_events: (1, 3),
            cap_fraction: (0.7, 0.9),
            surge_events: (2, 4),
            surge_multiplier: (1.4, 2.2),
            ramp_chance: 0.5,
            replica_failure_events: (0, 1),
            replica_failure_count: (2, 6),
            replica_endpoint_chance: 0.5,
            window_frac: (0.1, 0.3),
        },
        IntensityTier::Adversarial => TierParams {
            weather_events: (3, 6),
            weather_delta_c: (8.0, 18.0),
            cold_snap_chance: 0.35,
            price_events: (3, 6),
            price_per_mwh: (250.0, 900.0),
            failure_events: (2, 5),
            failure_fraction: (0.55, 0.85),
            rolling_failures: true,
            cap_events: (2, 5),
            cap_fraction: (0.45, 0.8),
            surge_events: (3, 6),
            surge_multiplier: (1.8, 3.5),
            ramp_chance: 0.6,
            replica_failure_events: (1, 3),
            // Kill counts are sized against realistic pool depths (tens of replicas):
            // the worst draws wipe out an endpoint's entire pool, which the fabric
            // clamps to one virtual replica — the KV commitment then exceeds capacity
            // and the scheduler's preempt/evict/requeue path runs under real load.
            replica_failure_count: (6, 24),
            replica_endpoint_chance: 0.5,
            window_frac: (0.15, 0.5),
        },
    }
}

/// Draws an event count from an inclusive `(min, max)` range.
fn count(rng: &mut SimRng, range: (usize, usize)) -> usize {
    rng.uniform_usize(range.0, range.1 + 1)
}

/// Draws a `[start, end)` window inside `[0, duration)`, non-empty by construction.
fn window(rng: &mut SimRng, duration_minutes: u64, frac: (f64, f64)) -> (SimTime, SimTime) {
    let length = ((duration_minutes as f64 * rng.uniform(frac.0, frac.1)) as u64).max(1);
    // `start <= duration - 2`, so `end >= start + 1` even after clamping to the horizon.
    let start = rng.uniform_usize(0, (duration_minutes - 1) as usize) as u64;
    let end = (start + length).min(duration_minutes);
    (SimTime::from_minutes(start), SimTime::from_minutes(end))
}

/// Draws a site selector: fleet-wide with 40 % probability, one bounded ordinal
/// otherwise (single-site worlds always draw `All`, keeping the stream aligned).
fn selector(rng: &mut SimRng, sites: usize) -> SiteSelector {
    if sites <= 1 || rng.chance(0.4) {
        SiteSelector::All
    } else {
        SiteSelector::Site(rng.uniform_usize(0, sites))
    }
}

/// Clamps a drawn fraction into the validated `(0, 1]` interval.
fn clamp_fraction(fraction: f64) -> f64 {
    fraction.clamp(f64::MIN_POSITIVE, 1.0)
}

/// Generates a deterministic scenario for `(seed, config)`. The result always passes
/// [`Scenario::validate`] against `config.sites` — validity is by construction, and
/// double-checked here so a parameter regression fails loudly at the source.
///
/// # Panics
/// Panics if `config.duration` is shorter than two minutes, `config.sites` is zero, or
/// (in debug builds only, as a backstop) a generated event fails validation.
#[must_use]
pub fn generate(seed: u64, config: &GeneratorConfig) -> Scenario {
    assert!(config.sites > 0, "scenario generation needs at least one site");
    let duration_minutes = config.duration.as_minutes();
    assert!(duration_minutes >= 2, "scenario generation needs a horizon of >= 2 minutes");
    let p = params(config.tier);
    let root = SimRng::seed_from(seed);
    let mut events: Vec<ScenarioEvent> = Vec::new();

    // Weather episodes: heatwaves with an occasional cold snap mixed in.
    let mut rng = root.derive("generator.weather");
    for _ in 0..count(&mut rng, p.weather_events) {
        let (start, end) = window(&mut rng, duration_minutes, p.window_frac);
        let magnitude = rng.uniform(p.weather_delta_c.0, p.weather_delta_c.1);
        let delta_c = if rng.chance(p.cold_snap_chance) { -magnitude } else { magnitude };
        events.push(ScenarioEvent::Weather { site: selector(&mut rng, config.sites), start, end, delta_c });
    }

    // Grid-price spikes (overlaps overwrite; later events win, as resolution defines).
    let mut rng = root.derive("generator.price");
    for _ in 0..count(&mut rng, p.price_events) {
        let (start, end) = window(&mut rng, duration_minutes, p.window_frac);
        let price_per_mwh = rng.uniform(p.price_per_mwh.0, p.price_per_mwh.1);
        events.push(ScenarioEvent::GridPrice { site: selector(&mut rng, config.sites), start, end, price_per_mwh });
    }

    // Infrastructure failures: UPS, cooling-device and single-aisle AHU outages. The
    // adversarial tier rolls consecutive windows across site ordinals, modeling a
    // failure cascade marching through the fleet.
    let mut rng = root.derive("generator.failures");
    let failure_count = count(&mut rng, p.failure_events);
    for index in 0..failure_count {
        let (start, end) = window(&mut rng, duration_minutes, p.window_frac);
        let fraction = clamp_fraction(rng.uniform(p.failure_fraction.0, p.failure_fraction.1));
        let site = if p.rolling_failures && config.sites > 1 {
            SiteSelector::Site(index % config.sites)
        } else {
            selector(&mut rng, config.sites)
        };
        let kind = match rng.weighted_index(&[3.0, 2.0, 1.0]) {
            0 => FailureKind::UpsFailure { ups: UpsId::new(0), capacity_fraction: fraction },
            1 => FailureKind::CoolingDeviceFailure { capacity_fraction: fraction },
            // Aisle 0 exists in every layout; a single failed unit keeps the outage
            // valid regardless of the aisle's AHU provisioning.
            _ => FailureKind::AhuFailure { aisle: AisleId::new(0), failed_units: 1 },
        };
        events.push(ScenarioEvent::Failure { site, start, end, kind });
    }

    // Operator power-cap directives (min-composed at resolution when they overlap).
    let mut rng = root.derive("generator.caps");
    for _ in 0..count(&mut rng, p.cap_events) {
        let (start, end) = window(&mut rng, duration_minutes, p.window_frac);
        let fraction = clamp_fraction(rng.uniform(p.cap_fraction.0, p.cap_fraction.1));
        events.push(ScenarioEvent::PowerCap { site: selector(&mut rng, config.sites), start, end, fraction });
    }

    // Demand shaping: site-wide surges plus per-endpoint ramps.
    let mut rng = root.derive("generator.demand");
    for _ in 0..count(&mut rng, p.surge_events) {
        let (start, end) = window(&mut rng, duration_minutes, p.window_frac);
        let multiplier = rng.uniform(p.surge_multiplier.0, p.surge_multiplier.1);
        let endpoint = (config.endpoints > 0 && rng.chance(p.ramp_chance))
            .then(|| EndpointId(rng.uniform_usize(0, config.endpoints) as u64));
        events.push(ScenarioEvent::Surge { site: selector(&mut rng, config.sites), start, end, endpoint, multiplier });
    }

    // Serving-replica outages feeding the request fabric's preemption path. The family
    // has its own derived stream, appended after every pre-existing family, so scenarios
    // from earlier revisions keep their exact event prefix and RNG draws.
    let mut rng = root.derive("generator.replica-failures");
    for _ in 0..count(&mut rng, p.replica_failure_events) {
        let (start, end) = window(&mut rng, duration_minutes, p.window_frac);
        let replicas = count(&mut rng, p.replica_failure_count).max(1) as u32;
        let endpoint = (config.endpoints > 0 && rng.chance(p.replica_endpoint_chance))
            .then(|| EndpointId(rng.uniform_usize(0, config.endpoints) as u64));
        events.push(ScenarioEvent::ReplicaFailure {
            site: selector(&mut rng, config.sites),
            start,
            end,
            endpoint,
            replicas,
        });
    }

    let mut rng = root.derive("generator.price.base");
    let scenario =
        Scenario { base_grid_price_per_mwh: rng.uniform(30.0, 60.0), events };
    debug_assert!(
        scenario.validate(config.sites).is_ok(),
        "generated scenarios must be valid by construction: {:?}",
        scenario.validate(config.sites)
    );
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(tier: IntensityTier, sites: usize) -> GeneratorConfig {
        GeneratorConfig::new(tier, sites, SimTime::from_days(2))
    }

    #[test]
    fn same_seed_generates_byte_identical_scenarios() {
        for tier in IntensityTier::ALL {
            let a = generate(42, &config(tier, 3));
            let b = generate(42, &config(tier, 3));
            assert_eq!(a, b);
            assert_eq!(
                serde_json::to_string(&a).expect("serialize"),
                serde_json::to_string(&b).expect("serialize")
            );
        }
    }

    #[test]
    fn different_seeds_generate_different_scenarios() {
        let a = generate(1, &config(IntensityTier::Adversarial, 3));
        let b = generate(2, &config(IntensityTier::Adversarial, 3));
        assert_ne!(a, b);
    }

    #[test]
    fn every_tier_and_seed_is_valid_by_construction() {
        for tier in IntensityTier::ALL {
            for sites in [1, 3, 8] {
                for seed in 0..50 {
                    let scenario = generate(seed, &config(tier, sites));
                    scenario
                        .validate(sites)
                        .unwrap_or_else(|error| panic!("{tier:?}/{sites}/{seed}: {error}"));
                    for event in &scenario.events {
                        if let SiteSelector::Site(site) = event.site() {
                            assert!(site < sites);
                        }
                        let (start, end) = event.window();
                        assert!(start < end);
                        assert!(end <= SimTime::from_days(2));
                    }
                }
            }
        }
    }

    #[test]
    fn adversarial_scenarios_guarantee_failures_and_caps() {
        for seed in 0..20 {
            let scenario = generate(seed, &config(IntensityTier::Adversarial, 3));
            let caps = scenario
                .events
                .iter()
                .filter(|e| matches!(e, ScenarioEvent::PowerCap { .. }))
                .count();
            let failures = scenario
                .events
                .iter()
                .filter(|e| matches!(e, ScenarioEvent::Failure { .. }))
                .count();
            assert!(caps >= 2, "seed {seed} produced {caps} caps");
            assert!(failures >= 2, "seed {seed} produced {failures} failures");
            assert!(scenario.events.len() >= 13);
        }
    }

    #[test]
    fn adversarial_scenarios_always_include_replica_failures() {
        for seed in 0..20 {
            let scenario = generate(seed, &config(IntensityTier::Adversarial, 3));
            let replica_failures = scenario
                .events
                .iter()
                .filter(|e| matches!(e, ScenarioEvent::ReplicaFailure { .. }))
                .count();
            assert!(
                (1..=3).contains(&replica_failures),
                "seed {seed} produced {replica_failures} replica failures"
            );
            // The family is appended last: the event prefix matches what older
            // generator revisions produced, keeping their digests bit-identical.
            let first = scenario
                .events
                .iter()
                .position(|e| matches!(e, ScenarioEvent::ReplicaFailure { .. }))
                .expect("at least one replica failure");
            assert!(scenario.events[first..]
                .iter()
                .all(|e| matches!(e, ScenarioEvent::ReplicaFailure { .. })));
        }
        // The mild tier never sheds replicas.
        for seed in 0..20 {
            let scenario = generate(seed, &config(IntensityTier::Mild, 3));
            assert!(!scenario
                .events
                .iter()
                .any(|e| matches!(e, ScenarioEvent::ReplicaFailure { .. })));
        }
    }

    #[test]
    fn tiers_escalate_in_event_count() {
        let mean = |tier| -> f64 {
            (0..30)
                .map(|seed| generate(seed, &config(tier, 3)).events.len())
                .sum::<usize>() as f64
                / 30.0
        };
        assert!(mean(IntensityTier::Mild) < mean(IntensityTier::Severe));
        assert!(mean(IntensityTier::Severe) < mean(IntensityTier::Adversarial));
    }

    #[test]
    fn single_site_worlds_only_target_all() {
        for seed in 0..20 {
            let scenario = generate(seed, &config(IntensityTier::Severe, 1));
            assert!(scenario.events.iter().all(|e| e.site() == SiteSelector::All));
        }
    }

    #[test]
    fn generated_scenarios_resolve_and_cap_windows_land() {
        let scenario = generate(7, &config(IntensityTier::Adversarial, 3));
        let step = simkit::time::SimDuration::from_minutes(10);
        let timeline = scenario.resolve(0, SimTime::from_days(2), step, 4);
        assert!(timeline.power_caps().iter().all(|&f| f > 0.0 && f <= 1.0));
        assert!(timeline.grid_prices().iter().all(|&p| p.is_finite() && p >= 0.0));
    }
}
