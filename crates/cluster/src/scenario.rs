//! The scenario layer: typed, time-indexed event timelines for experiments.
//!
//! TAPAS's evaluation (§5) is a matrix of *scenarios* — heatwaves, UPS/PDU failures
//! (Table 2), diurnal and bursty demand, oversubscription — and related work adds grid
//! energy price and carbon intensity as first-class scheduling inputs. Instead of growing
//! [`crate::experiment::ExperimentConfig`] a field per scenario, experiments compose a
//! [`Scenario`]: an ordered list of [`ScenarioEvent`]s, each active over a window of
//! simulated time and targeted at one site or the whole fleet ([`SiteSelector`]).
//!
//! # Event kinds
//!
//! * **Weather episodes** — additive overlays on the outside-temperature model
//!   (heatwave `> 0`, cold snap `< 0`); the climate presets stay untouched.
//! * **Grid price** — $/MWh curves per site, surfaced to the geo router through
//!   [`tapas::geo::SiteSignals::grid_price_per_mwh`] so placement can weigh energy cost
//!   alongside power headroom and thermal slack.
//! * **Infrastructure failures** — generalizes [`dc_sim::failures::FailureSchedule`] with
//!   per-site targeting; they are the only way an experiment injects a failure.
//! * **Demand shaping** — multiplicative surges on SaaS request rates, fleet-wide or per
//!   endpoint (trace replay enters through
//!   [`crate::fleet::FleetSimulator::with_arrivals`]).
//! * **Power caps** — operator directives (modeled on rack-level power-cap operators)
//!   that clamp every row and UPS budget of the targeted site(s) to a fraction of
//!   provisioned capacity for a window. Unlike failures, a cap is not an outage: the
//!   infrastructure is healthy but the site must live under a reduced envelope (grid
//!   curtailment, demand-response, maintenance derating).
//!
//! # Resolution
//!
//! Before a run starts the scenario is *resolved* once into a [`ResolvedTimeline`]: dense
//! per-step vectors (temperature offset, grid price, demand multipliers) indexed by step
//! ordinal, plus the merged failure schedule. The per-step hot path then performs only
//! index math — no maps, no allocation — per the dense-telemetry contract. Resolution is
//! a pure function of the scenario (no RNG): events apply in insertion order, weather
//! offsets accumulate additively, demand multipliers multiplicatively, price events
//! overwrite their window (later events win), failure windows collapse through
//! [`dc_sim::failures::FailureState`]'s most-severe rules, and overlapping power caps
//! min-compose (the most restrictive cap wins). In the engine a step's cap then
//! *multiplies* the failure-derived capacity fractions, so a UPS failure under a cap is
//! strictly worse than either alone.
//!
//! # Example
//!
//! ```
//! use cluster_sim::scenario::Scenario;
//! use simkit::time::SimTime;
//!
//! let scenario = Scenario::builder()
//!     .heatwave(3..5, 8.0)                                          // fleet-wide, days 3–5
//!     .grid_price_spike(1, SimTime::from_days(2), SimTime::from_days(3), 280.0)
//!     .fail_ups(0, SimTime::from_hours(50), SimTime::from_hours(53), 0.75)
//!     .surge(SimTime::from_days(4), SimTime::from_days(5), 1.8)
//!     .build()
//!     .expect("valid scenario");
//! assert_eq!(scenario.events.len(), 4);
//! assert!(scenario.validate(3).is_ok());
//! assert!(scenario.validate(1).is_err()); // events target sites 0 and 1
//! ```

pub mod generator;

use crate::metrics::RunReport;
use dc_sim::failures::{FailureKind, FailureSchedule, FailureWindow};
use dc_sim::ids::{AisleId, UpsId};
use dc_sim::topology::LayoutError;
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use std::fmt;
use std::ops::Range;
use workload::endpoints::EndpointId;

/// Default grid energy price ($/MWh) every site pays when the scenario does not override
/// it. With no price events every site pays the same price, the geo router's price spread
/// is zero, and routing is bit-identical to a price-less fleet.
pub const DEFAULT_GRID_PRICE_PER_MWH: f64 = 40.0;

/// Which site(s) of a fleet an event applies to. A standalone single-datacenter
/// experiment is site 0 of a 1-site fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteSelector {
    /// The event applies to every site.
    #[default]
    All,
    /// The event applies to one site ordinal.
    Site(usize),
}

impl SiteSelector {
    /// Returns `true` if the selector covers `site`.
    #[must_use]
    pub fn matches(self, site: usize) -> bool {
        match self {
            SiteSelector::All => true,
            SiteSelector::Site(target) => target == site,
        }
    }
}

impl From<usize> for SiteSelector {
    fn from(site: usize) -> Self {
        SiteSelector::Site(site)
    }
}

/// One typed entry of a scenario's event timeline, active during `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Additive outside-temperature overlay in °C (heatwave `> 0`, cold snap `< 0`).
    /// Overlapping weather events sum.
    Weather {
        /// Affected site(s).
        site: SiteSelector,
        /// Start of the episode (inclusive).
        start: SimTime,
        /// End of the episode (exclusive).
        end: SimTime,
        /// Temperature delta added to the climate model's trace.
        delta_c: f64,
    },
    /// Grid energy price override in $/MWh. Overlapping price events overwrite — the
    /// later event in timeline order wins.
    GridPrice {
        /// Affected site(s).
        site: SiteSelector,
        /// Start of the pricing window (inclusive).
        start: SimTime,
        /// End of the pricing window (exclusive).
        end: SimTime,
        /// Price during the window.
        price_per_mwh: f64,
    },
    /// Infrastructure failure window (generalizes
    /// [`dc_sim::failures::FailureSchedule`] with per-site targeting). Overlapping
    /// failures collapse to the most severe residual per entity.
    Failure {
        /// Affected site(s).
        site: SiteSelector,
        /// Start of the outage (inclusive).
        start: SimTime,
        /// End of the outage (exclusive).
        end: SimTime,
        /// What failed.
        kind: FailureKind,
    },
    /// Operator power-cap directive: row and UPS budgets of the targeted site(s) are
    /// clamped to `fraction` of provisioned capacity during the window. Overlapping
    /// caps min-compose (the most restrictive fraction wins).
    PowerCap {
        /// Affected site(s).
        site: SiteSelector,
        /// Start of the cap window (inclusive).
        start: SimTime,
        /// End of the cap window (exclusive).
        end: SimTime,
        /// Budget clamp in `(0, 1]`: effective budgets = provisioned × `fraction`.
        fraction: f64,
    },
    /// Demand multiplier on SaaS request rates. Overlapping surges multiply.
    Surge {
        /// Affected site(s).
        site: SiteSelector,
        /// Start of the surge (inclusive).
        start: SimTime,
        /// End of the surge (exclusive).
        end: SimTime,
        /// `None` scales every endpoint; `Some(id)` ramps one endpoint only.
        endpoint: Option<EndpointId>,
        /// Request-rate multiplier (`> 1` surge, `< 1` trough).
        multiplier: f64,
    },
    /// Serving-replica outage: `replicas` instances of the targeted endpoint(s) are
    /// unavailable to the request fabric during the window. Unlike [`Self::Failure`]
    /// this does not touch the power/cooling hierarchy — it models crashed or drained
    /// serving processes, so only the request fabric's effective replica count shrinks
    /// (in-flight sequences on the lost replicas are preempted and requeued).
    /// Overlapping windows sum their replica counts.
    ReplicaFailure {
        /// Affected site(s).
        site: SiteSelector,
        /// Start of the outage (inclusive).
        start: SimTime,
        /// End of the outage (exclusive).
        end: SimTime,
        /// `None` hits every endpoint; `Some(id)` kills replicas of one endpoint only.
        endpoint: Option<EndpointId>,
        /// Number of replicas lost for the window (must be `> 0`).
        replicas: u32,
    },
}

impl ScenarioEvent {
    /// The site(s) the event targets.
    #[must_use]
    pub fn site(&self) -> SiteSelector {
        match *self {
            ScenarioEvent::Weather { site, .. }
            | ScenarioEvent::GridPrice { site, .. }
            | ScenarioEvent::Failure { site, .. }
            | ScenarioEvent::PowerCap { site, .. }
            | ScenarioEvent::Surge { site, .. }
            | ScenarioEvent::ReplicaFailure { site, .. } => site,
        }
    }

    /// The `[start, end)` window the event is active in.
    #[must_use]
    pub fn window(&self) -> (SimTime, SimTime) {
        match *self {
            ScenarioEvent::Weather { start, end, .. }
            | ScenarioEvent::GridPrice { start, end, .. }
            | ScenarioEvent::Failure { start, end, .. }
            | ScenarioEvent::PowerCap { start, end, .. }
            | ScenarioEvent::Surge { start, end, .. }
            | ScenarioEvent::ReplicaFailure { start, end, .. } => (start, end),
        }
    }

    fn with_site(mut self, selector: SiteSelector) -> Self {
        match &mut self {
            ScenarioEvent::Weather { site, .. }
            | ScenarioEvent::GridPrice { site, .. }
            | ScenarioEvent::Failure { site, .. }
            | ScenarioEvent::PowerCap { site, .. }
            | ScenarioEvent::Surge { site, .. }
            | ScenarioEvent::ReplicaFailure { site, .. } => *site = selector,
        }
        self
    }
}

/// Why a scenario or fleet configuration is invalid. The single typed validation error
/// for the experiment surface: [`Scenario::validate`],
/// [`crate::experiment::ExperimentConfig::validate`] and
/// [`crate::experiment::FleetConfig::check`] all return it.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A fleet was configured with no sites.
    NoSites,
    /// A pinned geo policy names a site ordinal outside the fleet.
    PinnedSiteOutOfRange {
        /// The pinned site ordinal.
        site: usize,
        /// Number of sites in the fleet.
        sites: usize,
    },
    /// The fleet's arrival scale is zero, negative or non-finite.
    NonPositiveArrivalScale {
        /// The offending scale.
        scale: f64,
    },
    /// A round-robin arrival share is negative or non-finite.
    InvalidArrivalShare {
        /// The offending site ordinal.
        site: usize,
        /// The offending share.
        share: f64,
    },
    /// Every round-robin arrival share is zero.
    NoPositiveArrivalShare,
    /// An event targets a site ordinal outside the fleet.
    SiteOutOfRange {
        /// Index of the offending event in the timeline.
        event: usize,
        /// The targeted site ordinal.
        site: usize,
        /// Number of sites in the fleet.
        sites: usize,
    },
    /// An event's window is empty (`start >= end`).
    EmptyWindow {
        /// Index of the offending event in the timeline.
        event: usize,
    },
    /// A weather overlay's temperature delta is not finite.
    NonFiniteWeatherDelta {
        /// Index of the offending event in the timeline.
        event: usize,
    },
    /// A grid price (event or base) is negative or non-finite.
    InvalidPrice {
        /// Index of the offending event, or `None` for the base price.
        event: Option<usize>,
        /// The offending price.
        price: f64,
    },
    /// A failure's residual capacity fraction is outside `(0, 1]` or non-finite.
    InvalidCapacityFraction {
        /// Index of the offending event in the timeline.
        event: usize,
        /// The offending fraction.
        fraction: f64,
    },
    /// An AHU failure fails zero units.
    NoFailedUnits {
        /// Index of the offending event in the timeline.
        event: usize,
    },
    /// A power-cap fraction is outside `(0, 1]` or non-finite.
    InvalidPowerCapFraction {
        /// Index of the offending event in the timeline.
        event: usize,
        /// The offending fraction.
        fraction: f64,
    },
    /// A surge multiplier is zero, negative or non-finite.
    InvalidMultiplier {
        /// Index of the offending event in the timeline.
        event: usize,
        /// The offending multiplier.
        multiplier: f64,
    },
    /// A replica-failure event kills zero replicas.
    NoFailedReplicas {
        /// Index of the offending event in the timeline.
        event: usize,
    },
    /// The request fabric's rate scale is negative, NaN or above
    /// [`RequestFabricConfig::MAX_RATE_SCALE`] (for a fleet: also when multiplied by the
    /// arrival scale).
    ///
    /// [`RequestFabricConfig::MAX_RATE_SCALE`]: crate::experiment::RequestFabricConfig::MAX_RATE_SCALE
    InvalidRateScale {
        /// The offending scale.
        scale: f64,
    },
    /// A workload-shape field of the experiment is outside `[min, max]` (NaN included): a
    /// fraction above one, a rate above its ceiling, no endpoint or more endpoints than
    /// servers, or (for a fleet) an arrival scale that multiplies the initial population
    /// or the daily arrivals past the arrival ceiling.
    InvalidWorkload {
        /// The offending field, e.g. `initial_occupancy`.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// The field's floor.
        min: f64,
        /// The field's ceiling.
        max: f64,
    },
    /// A layout field fails [`dc_sim::topology::LayoutConfig::check`]: a zero dimension,
    /// a provisioning fraction that is not finite and positive, or a server specification
    /// that is not finite or has idle above maximum.
    InvalidLayout {
        /// The fleet site whose layout it is, or `None` for the base experiment's layout.
        site: Option<usize>,
        /// The offending field, its value and what it must be.
        error: LayoutError,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoSites => write!(f, "a fleet needs at least one site"),
            ScenarioError::PinnedSiteOutOfRange { site, sites } => {
                write!(
                    f,
                    "pinned site {site} out of range for a {sites}-site fleet"
                )
            }
            ScenarioError::NonPositiveArrivalScale { scale } => {
                write!(f, "arrival scale must be finite and positive, got {scale}")
            }
            ScenarioError::InvalidArrivalShare { site, share } => write!(
                f,
                "arrival shares must be finite and non-negative, site {site} has {share}"
            ),
            ScenarioError::NoPositiveArrivalShare => {
                write!(f, "at least one site must have a positive arrival share")
            }
            ScenarioError::SiteOutOfRange { event, site, sites } => write!(
                f,
                "event {event} targets site {site}, out of range for a {sites}-site fleet"
            ),
            ScenarioError::EmptyWindow { event } => {
                write!(
                    f,
                    "event {event} has an empty window (start must precede end)"
                )
            }
            ScenarioError::NonFiniteWeatherDelta { event } => {
                write!(f, "event {event} has a non-finite temperature delta")
            }
            ScenarioError::InvalidPrice {
                event: Some(event),
                price,
            } => {
                write!(f, "event {event} has an invalid grid price {price}")
            }
            ScenarioError::InvalidPrice { event: None, price } => {
                write!(f, "base grid price {price} must be finite and non-negative")
            }
            ScenarioError::InvalidCapacityFraction { event, fraction } => write!(
                f,
                "event {event} has capacity fraction {fraction}, expected within (0, 1]"
            ),
            ScenarioError::NoFailedUnits { event } => {
                write!(f, "event {event} is an AHU failure that fails zero units")
            }
            ScenarioError::InvalidPowerCapFraction { event, fraction } => write!(
                f,
                "event {event} has power-cap fraction {fraction}, expected within (0, 1]"
            ),
            ScenarioError::InvalidMultiplier { event, multiplier } => write!(
                f,
                "event {event} has an invalid demand multiplier {multiplier}"
            ),
            ScenarioError::NoFailedReplicas { event } => {
                write!(
                    f,
                    "event {event} is a replica failure that kills zero replicas"
                )
            }
            ScenarioError::InvalidRateScale { scale } => write!(
                f,
                "request-fabric rate scale must be in [0, {}], got {scale}",
                crate::experiment::RequestFabricConfig::MAX_RATE_SCALE
            ),
            ScenarioError::InvalidWorkload {
                field,
                value,
                min,
                max,
            } => {
                write!(f, "{field} must be in [{min}, {max}], got {value}")
            }
            ScenarioError::InvalidLayout {
                site: Some(site),
                error,
            } => {
                write!(f, "site {site}: {error}")
            }
            ScenarioError::InvalidLayout { site: None, error } => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A typed, time-indexed experiment scenario: the base grid price plus an ordered event
/// timeline. Compose one into an [`crate::experiment::ExperimentConfig`] (the empty
/// default scenario reproduces every legacy run bit for bit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Grid energy price ($/MWh) outside any [`ScenarioEvent::GridPrice`] window.
    pub base_grid_price_per_mwh: f64,
    /// The event timeline, applied in insertion order.
    pub events: Vec<ScenarioEvent>,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            base_grid_price_per_mwh: DEFAULT_GRID_PRICE_PER_MWH,
            events: Vec::new(),
        }
    }
}

impl Scenario {
    /// Starts a fluent scenario builder.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario::default(),
        }
    }

    /// Returns `true` when the scenario has no events (the legacy, event-free shape).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The paper's power emergency (§5.4, Table 2): a UPS failure leaving 75 % of power
    /// capacity during `[start, end)`.
    #[must_use]
    pub fn power_emergency(start: SimTime, end: SimTime) -> Self {
        Scenario::builder()
            .fail_ups(SiteSelector::All, start, end, 0.75)
            .build()
            .expect("preset windows are valid")
    }

    /// The paper's thermal emergency (§5.4, Table 2): a cooling-device failure leaving
    /// 90 % of cooling capacity during `[start, end)`.
    #[must_use]
    pub fn thermal_emergency(start: SimTime, end: SimTime) -> Self {
        Scenario::builder()
            .fail_cooling(SiteSelector::All, start, end, 0.9)
            .build()
            .expect("preset windows are valid")
    }

    /// End of the last *emergency* window — failures and power caps, the events that can
    /// force throttling or capping. The robustness harness measures recovery time as how
    /// long after this a policy keeps logging stress events
    /// ([`crate::metrics::RunReport::last_stress_event_minute`]). `None` when the
    /// scenario contains no emergencies.
    #[must_use]
    pub fn last_emergency_end(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter(|event| {
                matches!(
                    event,
                    ScenarioEvent::Failure { .. } | ScenarioEvent::PowerCap { .. }
                )
            })
            .map(|event| event.window().1)
            .max_by_key(|end| end.as_minutes())
    }

    /// Validates the site-independent invariants: non-empty windows, finite deltas,
    /// valid prices/fractions/multipliers.
    ///
    /// # Errors
    /// Returns the first violated invariant in timeline order.
    pub fn validate_events(&self) -> Result<(), ScenarioError> {
        if !self.base_grid_price_per_mwh.is_finite() || self.base_grid_price_per_mwh < 0.0 {
            return Err(ScenarioError::InvalidPrice {
                event: None,
                price: self.base_grid_price_per_mwh,
            });
        }
        for (index, event) in self.events.iter().enumerate() {
            let (start, end) = event.window();
            if start >= end {
                return Err(ScenarioError::EmptyWindow { event: index });
            }
            match *event {
                ScenarioEvent::Weather { delta_c, .. } => {
                    if !delta_c.is_finite() {
                        return Err(ScenarioError::NonFiniteWeatherDelta { event: index });
                    }
                }
                ScenarioEvent::GridPrice { price_per_mwh, .. } => {
                    if !price_per_mwh.is_finite() || price_per_mwh < 0.0 {
                        return Err(ScenarioError::InvalidPrice {
                            event: Some(index),
                            price: price_per_mwh,
                        });
                    }
                }
                ScenarioEvent::Failure { kind, .. } => match kind {
                    FailureKind::AhuFailure { failed_units, .. } => {
                        if failed_units == 0 {
                            return Err(ScenarioError::NoFailedUnits { event: index });
                        }
                    }
                    FailureKind::CoolingDeviceFailure { capacity_fraction }
                    | FailureKind::UpsFailure {
                        capacity_fraction, ..
                    } => {
                        if !capacity_fraction.is_finite()
                            || capacity_fraction <= 0.0
                            || capacity_fraction > 1.0
                        {
                            return Err(ScenarioError::InvalidCapacityFraction {
                                event: index,
                                fraction: capacity_fraction,
                            });
                        }
                    }
                },
                ScenarioEvent::PowerCap { fraction, .. } => {
                    if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
                        return Err(ScenarioError::InvalidPowerCapFraction {
                            event: index,
                            fraction,
                        });
                    }
                }
                ScenarioEvent::Surge { multiplier, .. } => {
                    if !multiplier.is_finite() || multiplier <= 0.0 {
                        return Err(ScenarioError::InvalidMultiplier {
                            event: index,
                            multiplier,
                        });
                    }
                }
                ScenarioEvent::ReplicaFailure { replicas, .. } => {
                    if replicas == 0 {
                        return Err(ScenarioError::NoFailedReplicas { event: index });
                    }
                }
            }
        }
        Ok(())
    }

    /// Full validation against a fleet of `site_count` sites: the event invariants plus
    /// site-selector range checks.
    ///
    /// # Errors
    /// Returns the first violated invariant in timeline order.
    pub fn validate(&self, site_count: usize) -> Result<(), ScenarioError> {
        self.validate_events()?;
        for (index, event) in self.events.iter().enumerate() {
            if let SiteSelector::Site(site) = event.site() {
                if site >= site_count {
                    return Err(ScenarioError::SiteOutOfRange {
                        event: index,
                        site,
                        sites: site_count,
                    });
                }
            }
        }
        Ok(())
    }

    /// The single-site view of the scenario seen by one fleet cell: events targeting
    /// other sites are dropped and matching selectors are normalized to
    /// [`SiteSelector::All`] (a cell is site 0 of its own 1-site world).
    #[must_use]
    pub fn for_site(&self, site: usize) -> Self {
        Self {
            base_grid_price_per_mwh: self.base_grid_price_per_mwh,
            events: self
                .events
                .iter()
                .filter(|event| event.site().matches(site))
                .map(|event| event.with_site(SiteSelector::All))
                .collect(),
        }
    }

    /// Resolves the scenario into dense per-step vectors for one site. Pure (no RNG) and
    /// run once per simulator build; the per-step hot path only indexes the result.
    /// `endpoint_count` sizes the per-endpoint demand columns: an event for an endpoint
    /// outside them shapes nothing.
    #[must_use]
    pub fn resolve(
        &self,
        site: usize,
        duration: SimTime,
        step: SimDuration,
        endpoint_count: usize,
    ) -> ResolvedTimeline {
        let step_minutes = step.as_minutes().max(1);
        let steps = step_count(duration, step_minutes);
        let mut timeline = ResolvedTimeline {
            step_minutes,
            temp_offset_c: vec![0.0; steps],
            grid_price_per_mwh: vec![self.base_grid_price_per_mwh; steps],
            demand_scale: vec![1.0; steps],
            power_cap: vec![1.0; steps],
            endpoint_scale: Vec::new(),
            endpoint_count,
            failures: FailureSchedule::none(),
            replica_failures: Vec::new(),
        };
        for event in self.events.iter().filter(|e| e.site().matches(site)) {
            let (start, end) = event.window();
            let range = step_range(start, end, step_minutes, steps);
            match *event {
                ScenarioEvent::Weather { delta_c, .. } => {
                    for slot in &mut timeline.temp_offset_c[range] {
                        *slot += delta_c;
                    }
                }
                ScenarioEvent::GridPrice { price_per_mwh, .. } => {
                    for slot in &mut timeline.grid_price_per_mwh[range] {
                        *slot = price_per_mwh;
                    }
                }
                ScenarioEvent::Failure { kind, .. } => {
                    timeline.failures.add(FailureWindow { kind, start, end });
                }
                ScenarioEvent::PowerCap { fraction, .. } => {
                    for slot in &mut timeline.power_cap[range] {
                        *slot = slot.min(fraction);
                    }
                }
                ScenarioEvent::ReplicaFailure {
                    endpoint, replicas, ..
                } => {
                    timeline.replica_failures.push(ReplicaFailureWindow {
                        start,
                        end,
                        endpoint,
                        replicas,
                    });
                }
                ScenarioEvent::Surge {
                    endpoint,
                    multiplier,
                    ..
                } => match endpoint {
                    None => {
                        for slot in &mut timeline.demand_scale[range] {
                            *slot *= multiplier;
                        }
                    }
                    Some(id) => {
                        let column = id.0 as usize;
                        if column >= endpoint_count {
                            continue;
                        }
                        if timeline.endpoint_scale.is_empty() {
                            timeline.endpoint_scale = vec![1.0; steps * endpoint_count];
                        }
                        for step_index in range {
                            timeline.endpoint_scale[step_index * endpoint_count + column] *=
                                multiplier;
                        }
                    }
                },
            }
        }
        timeline
    }
}

/// Number of step samples a `[0, duration]` run records (the step loop includes both the
/// zero step and the final, possibly clipped, step).
fn step_count(duration: SimTime, step_minutes: u64) -> usize {
    (duration.as_minutes().div_ceil(step_minutes) + 1) as usize
}

/// The step ordinals whose sample times fall inside `[start, end)`, clamped to the run.
fn step_range(start: SimTime, end: SimTime, step_minutes: u64, steps: usize) -> Range<usize> {
    let first = (start.as_minutes().div_ceil(step_minutes) as usize).min(steps);
    let last = (end.as_minutes().div_ceil(step_minutes) as usize).min(steps);
    first..last.max(first)
}

/// Fluent builder for [`Scenario`]s. Site-targeted methods take anything convertible to a
/// [`SiteSelector`] (`usize` ordinals or [`SiteSelector::All`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the base grid price every site pays outside price-event windows.
    #[must_use]
    pub fn base_grid_price(mut self, price_per_mwh: f64) -> Self {
        self.scenario.base_grid_price_per_mwh = price_per_mwh;
        self
    }

    /// Appends a raw event (escape hatch for shapes without a sugar method).
    #[must_use]
    pub fn event(mut self, event: ScenarioEvent) -> Self {
        self.scenario.events.push(event);
        self
    }

    /// Fleet-wide heatwave over whole days: `+delta_c` °C during `[days.start, days.end)`.
    #[must_use]
    pub fn heatwave(self, days: Range<u64>, delta_c: f64) -> Self {
        self.weather(
            SiteSelector::All,
            SimTime::from_days(days.start),
            SimTime::from_days(days.end),
            delta_c,
        )
    }

    /// Fleet-wide cold snap over whole days: `-drop_c` °C during `[days.start, days.end)`.
    #[must_use]
    pub fn cold_snap(self, days: Range<u64>, drop_c: f64) -> Self {
        self.weather(
            SiteSelector::All,
            SimTime::from_days(days.start),
            SimTime::from_days(days.end),
            -drop_c,
        )
    }

    /// Additive outside-temperature overlay on selected site(s) over an explicit window.
    #[must_use]
    pub fn weather(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        delta_c: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::Weather {
            site: site.into(),
            start,
            end,
            delta_c,
        });
        self
    }

    /// Grid-price override on selected site(s) during `[start, end)`.
    #[must_use]
    pub fn grid_price(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        price_per_mwh: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::GridPrice {
            site: site.into(),
            start,
            end,
            price_per_mwh,
        });
        self
    }

    /// Alias of [`Self::grid_price`] that reads better for short expensive windows.
    #[must_use]
    pub fn grid_price_spike(
        self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        price_per_mwh: f64,
    ) -> Self {
        self.grid_price(site, start, end, price_per_mwh)
    }

    /// UPS failure on selected site(s): `capacity_fraction` of power capacity remains
    /// (the paper's power emergency uses 0.75).
    #[must_use]
    pub fn fail_ups(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        capacity_fraction: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::Failure {
            site: site.into(),
            start,
            end,
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction,
            },
        });
        self
    }

    /// Datacenter-wide cooling-device failure on selected site(s): `capacity_fraction`
    /// of cooling capacity remains (the paper's thermal emergency uses 0.9).
    #[must_use]
    pub fn fail_cooling(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        capacity_fraction: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::Failure {
            site: site.into(),
            start,
            end,
            kind: FailureKind::CoolingDeviceFailure { capacity_fraction },
        });
        self
    }

    /// AHU failure in one aisle of selected site(s).
    #[must_use]
    pub fn fail_ahus(
        mut self,
        site: impl Into<SiteSelector>,
        aisle: usize,
        failed_units: usize,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::Failure {
            site: site.into(),
            start,
            end,
            kind: FailureKind::AhuFailure {
                aisle: AisleId::new(aisle),
                failed_units,
            },
        });
        self
    }

    /// Serving-replica outage on selected site(s): `replicas` instances of `endpoint`
    /// (every endpoint when `None`) are unavailable to the request fabric during
    /// `[start, end)`. In-flight work on the lost replicas is preempted and requeued.
    #[must_use]
    pub fn fail_replicas(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        endpoint: Option<EndpointId>,
        replicas: u32,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::ReplicaFailure {
            site: site.into(),
            start,
            end,
            endpoint,
            replicas,
        });
        self
    }

    /// Operator power-cap directive on selected site(s): row and UPS budgets are
    /// clamped to `fraction` of provisioned capacity during `[start, end)`.
    #[must_use]
    pub fn power_cap(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        fraction: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::PowerCap {
            site: site.into(),
            start,
            end,
            fraction,
        });
        self
    }

    /// Fleet-wide traffic surge: every endpoint's request rate is multiplied during the
    /// window.
    #[must_use]
    pub fn surge(self, start: SimTime, end: SimTime, multiplier: f64) -> Self {
        self.surge_at(SiteSelector::All, start, end, multiplier)
    }

    /// Traffic surge on selected site(s).
    #[must_use]
    pub fn surge_at(
        mut self,
        site: impl Into<SiteSelector>,
        start: SimTime,
        end: SimTime,
        multiplier: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::Surge {
            site: site.into(),
            start,
            end,
            endpoint: None,
            multiplier,
        });
        self
    }

    /// Scale ramp for one endpoint's request rate, on every site.
    #[must_use]
    pub fn endpoint_ramp(
        mut self,
        endpoint: EndpointId,
        start: SimTime,
        end: SimTime,
        multiplier: f64,
    ) -> Self {
        self.scenario.events.push(ScenarioEvent::Surge {
            site: SiteSelector::All,
            start,
            end,
            endpoint: Some(endpoint),
            multiplier,
        });
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    /// Returns the first violated event invariant (site-selector ranges are checked
    /// later, against an actual fleet, by [`Scenario::validate`] /
    /// [`crate::experiment::FleetConfig::check`]).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate_events()?;
        Ok(self.scenario)
    }
}

/// A scenario resolved for one site into dense per-step vectors (step ordinal = index),
/// plus the merged failure schedule. Built once per run; per-step queries are index math
/// with no allocation, per the dense-telemetry contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedTimeline {
    step_minutes: u64,
    temp_offset_c: Vec<f64>,
    grid_price_per_mwh: Vec<f64>,
    demand_scale: Vec<f64>,
    /// Per-step power-cap fraction (1.0 outside cap windows; overlapping caps
    /// min-composed at resolution).
    power_cap: Vec<f64>,
    /// Step-major per-endpoint multipliers; empty unless an endpoint-targeted surge
    /// exists (the common all-endpoint case stays one flat vector).
    endpoint_scale: Vec<f64>,
    endpoint_count: usize,
    failures: FailureSchedule,
    /// Serving-replica outage windows, scanned on demand (scenarios hold a handful of
    /// events, so a linear scan beats a dense per-step × per-endpoint matrix).
    replica_failures: Vec<ReplicaFailureWindow>,
}

/// One resolved [`ScenarioEvent::ReplicaFailure`] window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReplicaFailureWindow {
    start: SimTime,
    end: SimTime,
    endpoint: Option<EndpointId>,
    replicas: u32,
}

impl ResolvedTimeline {
    /// Number of resolved step samples.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.temp_offset_c.len()
    }

    fn index(&self, now: SimTime) -> usize {
        ((now.as_minutes() / self.step_minutes) as usize).min(self.step_count() - 1)
    }

    /// Additive outside-temperature overlay at `now` (°C; 0 outside weather episodes).
    #[must_use]
    pub fn temp_offset_at(&self, now: SimTime) -> f64 {
        self.temp_offset_c[self.index(now)]
    }

    /// Grid price at `now` ($/MWh).
    #[must_use]
    pub fn grid_price_at(&self, now: SimTime) -> f64 {
        self.grid_price_per_mwh[self.index(now)]
    }

    /// The full per-step grid-price curve ($/MWh, step ordinal = index). The fleet layer
    /// reads each cell's curve from here instead of re-resolving it.
    #[must_use]
    pub fn grid_prices(&self) -> &[f64] {
        &self.grid_price_per_mwh
    }

    /// Demand multiplier for one endpoint at `now` (site-wide surges times the
    /// endpoint's own ramps; 1 outside surge windows).
    #[must_use]
    pub fn demand_scale_at(&self, now: SimTime, endpoint: EndpointId) -> f64 {
        let index = self.index(now);
        let site_wide = self.demand_scale[index];
        if self.endpoint_scale.is_empty() {
            return site_wide;
        }
        let column = endpoint.0 as usize;
        if column >= self.endpoint_count {
            return site_wide;
        }
        site_wide * self.endpoint_scale[index * self.endpoint_count + column]
    }

    /// Power-cap fraction at `now` (1.0 outside cap windows; the most restrictive
    /// overlapping cap inside them).
    #[must_use]
    pub fn power_cap_at(&self, now: SimTime) -> f64 {
        self.power_cap[self.index(now)]
    }

    /// The full per-step power-cap curve (step ordinal = index).
    #[must_use]
    pub fn power_caps(&self) -> &[f64] {
        &self.power_cap
    }

    /// Simulated minutes spent under an active power cap (steps with fraction `< 1.0`).
    #[must_use]
    pub fn capped_minutes(&self) -> u64 {
        self.power_cap.iter().filter(|&&f| f < 1.0).count() as u64 * self.step_minutes
    }

    /// The failure schedule the scenario's failure events resolve to.
    #[must_use]
    pub fn failures(&self) -> &FailureSchedule {
        &self.failures
    }

    /// Serving replicas of `endpoint` lost to [`ScenarioEvent::ReplicaFailure`] windows
    /// active at `now` (overlapping windows sum). Zero outside every window.
    #[must_use]
    pub fn failed_replicas_at(&self, now: SimTime, endpoint: EndpointId) -> u32 {
        self.replica_failures
            .iter()
            .filter(|w| now >= w.start && now < w.end && w.endpoint.is_none_or(|id| id == endpoint))
            .map(|w| w.replicas)
            .sum()
    }
}

/// Energy cost of one site's run in dollars: the per-step datacenter power draw priced
/// by the site's resolved grid-price curve. `RunReport` stays byte-compatible — cost is
/// derived on demand from the power series the report already records.
#[must_use]
pub fn energy_cost_usd(report: &RunReport, timeline: &ResolvedTimeline) -> f64 {
    let step_hours = report.step.as_hours();
    report
        .datacenter_power
        .iter()
        .map(|(now, kw)| kw * step_hours * timeline.grid_price_at(now) / 1000.0)
        .sum()
}

/// Fleet-wide energy cost in dollars: every site's power series priced by that site's
/// resolved grid-price curve from the fleet configuration's scenario.
#[must_use]
pub fn fleet_energy_cost_usd(
    report: &crate::metrics::FleetReport,
    config: &crate::experiment::FleetConfig,
) -> f64 {
    report
        .sites
        .iter()
        .enumerate()
        .map(|(site, run)| energy_cost_usd(run, &config.site_timeline(site)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(minutes: u64) -> SimTime {
        SimTime::from_minutes(minutes)
    }

    fn resolve(scenario: &Scenario, site: usize) -> ResolvedTimeline {
        scenario.resolve(
            site,
            SimTime::from_hours(2),
            SimDuration::from_minutes(5),
            4,
        )
    }

    #[test]
    fn empty_scenario_resolves_to_a_neutral_timeline() {
        let timeline = resolve(&Scenario::default(), 0);
        assert_eq!(timeline.step_count(), 25);
        for minutes in [0u64, 5, 60, 120, 500] {
            assert_eq!(timeline.temp_offset_at(t(minutes)), 0.0);
            assert_eq!(
                timeline.grid_price_at(t(minutes)),
                DEFAULT_GRID_PRICE_PER_MWH
            );
            assert_eq!(timeline.demand_scale_at(t(minutes), EndpointId(0)), 1.0);
        }
        assert!(timeline.failures().windows().is_empty());
        assert!(Scenario::default().is_empty());
    }

    #[test]
    fn weather_overlays_sum_over_their_windows() {
        let scenario = Scenario::builder()
            .weather(SiteSelector::All, t(10), t(60), 8.0)
            .weather(0, t(30), t(60), 2.0)
            .build()
            .expect("valid");
        let timeline = resolve(&scenario, 0);
        assert_eq!(timeline.temp_offset_at(t(0)), 0.0);
        assert_eq!(timeline.temp_offset_at(t(10)), 8.0);
        assert_eq!(timeline.temp_offset_at(t(30)), 10.0);
        assert_eq!(timeline.temp_offset_at(t(55)), 10.0);
        assert_eq!(timeline.temp_offset_at(t(60)), 0.0);
        // Half-open window: a step landing exactly on `end` is outside.
        let other_site = resolve(&scenario, 1);
        assert_eq!(
            other_site.temp_offset_at(t(30)),
            8.0,
            "site 1 skips the Site(0) event"
        );
    }

    #[test]
    fn later_price_events_overwrite_earlier_ones() {
        let scenario = Scenario::builder()
            .base_grid_price(50.0)
            .grid_price(SiteSelector::All, t(0), t(60), 100.0)
            .grid_price_spike(SiteSelector::All, t(30), t(45), 400.0)
            .build()
            .expect("valid");
        let timeline = resolve(&scenario, 0);
        assert_eq!(timeline.grid_price_at(t(0)), 100.0);
        assert_eq!(timeline.grid_price_at(t(30)), 400.0);
        assert_eq!(timeline.grid_price_at(t(45)), 100.0);
        assert_eq!(timeline.grid_price_at(t(60)), 50.0);
        assert_eq!(timeline.grid_prices().len(), timeline.step_count());
        assert_eq!(timeline.grid_prices()[0], 100.0);
    }

    #[test]
    fn surges_multiply_and_endpoint_ramps_stay_per_endpoint() {
        let scenario = Scenario::builder()
            .surge(t(0), t(30), 2.0)
            .endpoint_ramp(EndpointId(1), t(15), t(30), 3.0)
            .build()
            .expect("valid");
        let timeline = resolve(&scenario, 0);
        assert_eq!(timeline.demand_scale_at(t(0), EndpointId(0)), 2.0);
        assert_eq!(timeline.demand_scale_at(t(15), EndpointId(0)), 2.0);
        assert_eq!(timeline.demand_scale_at(t(15), EndpointId(1)), 6.0);
        assert_eq!(timeline.demand_scale_at(t(30), EndpointId(1)), 1.0);
        // Endpoints beyond the catalog fall back to the site-wide multiplier.
        assert_eq!(timeline.demand_scale_at(t(15), EndpointId(99)), 2.0);
    }

    #[test]
    fn failure_events_resolve_into_the_failure_schedule() {
        let scenario = Scenario::builder()
            .fail_ups(SiteSelector::All, t(0), t(20), 0.75)
            .fail_cooling(SiteSelector::All, t(10), t(40), 0.9)
            .fail_ahus(0, 1, 2, t(10), t(40))
            .build()
            .expect("valid");
        let timeline = scenario.resolve(0, SimTime::from_hours(1), SimDuration::from_minutes(5), 1);
        assert_eq!(timeline.failures().windows().len(), 3);
        let state = timeline.failures().state_at(t(15));
        assert!((state.global_cooling_fraction - 0.9).abs() < 1e-12);
        assert_eq!(state.failed_upses().len(), 1);
        assert_eq!(state.failed_ahus().len(), 1);
        // Each window ends on schedule.
        assert!(timeline
            .failures()
            .state_at(t(25))
            .failed_upses()
            .is_empty());
        assert_eq!(timeline.failures().state_at(t(25)).failed_ahus().len(), 1);
        // Site 1 sees only the fleet-wide windows.
        let other = scenario.resolve(1, SimTime::from_hours(1), SimDuration::from_minutes(5), 1);
        assert_eq!(other.failures().windows().len(), 2);
    }

    #[test]
    fn power_caps_min_compose_over_their_windows() {
        let scenario = Scenario::builder()
            .power_cap(SiteSelector::All, t(10), t(60), 0.8)
            .power_cap(0, t(30), t(45), 0.6)
            .power_cap(0, t(40), t(50), 0.9)
            .build()
            .expect("valid");
        let timeline = resolve(&scenario, 0);
        assert_eq!(timeline.power_cap_at(t(0)), 1.0);
        assert_eq!(timeline.power_cap_at(t(10)), 0.8);
        assert_eq!(
            timeline.power_cap_at(t(30)),
            0.6,
            "most restrictive cap wins"
        );
        assert_eq!(timeline.power_cap_at(t(40)), 0.6);
        assert_eq!(
            timeline.power_cap_at(t(45)),
            0.8,
            "0.9 is weaker than the 0.8 backdrop"
        );
        assert_eq!(timeline.power_cap_at(t(60)), 1.0, "half-open window");
        assert_eq!(timeline.power_caps().len(), timeline.step_count());
        // Site 1 only sees the fleet-wide cap.
        let other = resolve(&scenario, 1);
        assert_eq!(other.power_cap_at(t(30)), 0.8);
        // Capped minutes count steps with an active cap (10..60 at 5-minute steps).
        assert_eq!(timeline.capped_minutes(), 50);
        assert_eq!(resolve(&Scenario::default(), 0).capped_minutes(), 0);
    }

    #[test]
    fn replica_failures_resolve_to_scannable_windows() {
        let scenario = Scenario::builder()
            .fail_replicas(SiteSelector::All, t(10), t(40), None, 2)
            .fail_replicas(0, t(20), t(40), Some(EndpointId(1)), 1)
            .fail_replicas(1, t(0), t(60), None, 4)
            .build()
            .expect("valid");
        let timeline = resolve(&scenario, 0);
        assert!(!timeline.replica_failures.is_empty());
        assert_eq!(timeline.failed_replicas_at(t(0), EndpointId(0)), 0);
        assert_eq!(timeline.failed_replicas_at(t(10), EndpointId(0)), 2);
        assert_eq!(timeline.failed_replicas_at(t(25), EndpointId(0)), 2);
        assert_eq!(
            timeline.failed_replicas_at(t(25), EndpointId(1)),
            3,
            "overlapping windows sum and endpoint targeting filters"
        );
        assert_eq!(
            timeline.failed_replicas_at(t(40), EndpointId(1)),
            0,
            "half-open window"
        );
        // Site 1 sees its own window but not site 0's endpoint-targeted one.
        let other = resolve(&scenario, 1);
        assert_eq!(other.failed_replicas_at(t(25), EndpointId(1)), 6);
        // Replica failures are not power/cooling emergencies: no failure windows, no
        // contribution to the recovery-time anchor.
        assert!(timeline.failures().windows().is_empty());
        assert_eq!(scenario.last_emergency_end(), None);
        // A fabric-free timeline scans to zero everywhere.
        assert!(resolve(&Scenario::default(), 0).replica_failures.is_empty());

        let zero = Scenario::builder()
            .fail_replicas(SiteSelector::All, t(0), t(30), None, 0)
            .build();
        assert_eq!(
            zero.unwrap_err(),
            ScenarioError::NoFailedReplicas { event: 0 }
        );
        let message = ScenarioError::NoFailedReplicas { event: 3 }.to_string();
        assert!(message.contains("zero replicas"), "{message}");
    }

    #[test]
    fn power_cap_fractions_are_validated() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let result = Scenario::builder()
                .power_cap(SiteSelector::All, t(0), t(30), bad)
                .build();
            match result.unwrap_err() {
                ScenarioError::InvalidPowerCapFraction { event: 0, fraction } => {
                    assert!(fraction.is_nan() || fraction == bad);
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
        // A 1.0 cap is a valid no-op; window and site checks apply like any event.
        assert!(Scenario::builder()
            .power_cap(SiteSelector::All, t(0), t(30), 1.0)
            .build()
            .is_ok());
        let empty = Scenario::builder().power_cap(0, t(30), t(30), 0.8).build();
        assert_eq!(empty.unwrap_err(), ScenarioError::EmptyWindow { event: 0 });
        let scenario = Scenario::builder()
            .power_cap(3, t(0), t(30), 0.8)
            .build()
            .expect("event invariants hold");
        assert_eq!(
            scenario.validate(2).unwrap_err(),
            ScenarioError::SiteOutOfRange {
                event: 0,
                site: 3,
                sites: 2
            }
        );
        let message = ScenarioError::InvalidPowerCapFraction {
            event: 2,
            fraction: 1.5,
        }
        .to_string();
        assert!(message.contains("power-cap fraction"), "{message}");
    }

    #[test]
    fn for_site_filters_and_normalizes_selectors() {
        let scenario = Scenario::builder()
            .heatwave(0..2, 6.0)
            .grid_price(2, t(0), t(60), 300.0)
            .fail_ups(1, t(0), t(30), 0.75)
            .build()
            .expect("valid");
        let site2 = scenario.for_site(2);
        assert_eq!(site2.events.len(), 2);
        assert!(site2.events.iter().all(|e| e.site() == SiteSelector::All));
        let site0 = scenario.for_site(0);
        assert_eq!(site0.events.len(), 1);
        // A filtered view resolves identically whichever site ordinal reads it.
        assert_eq!(resolve(&site2, 0), resolve(&site2, 7));
    }

    #[test]
    fn validation_rejects_bad_events_with_typed_errors() {
        let empty_window = Scenario::builder().surge(t(30), t(30), 2.0).build();
        assert_eq!(
            empty_window.unwrap_err(),
            ScenarioError::EmptyWindow { event: 0 }
        );

        let bad_multiplier = Scenario::builder().surge(t(0), t(30), 0.0).build();
        assert_eq!(
            bad_multiplier.unwrap_err(),
            ScenarioError::InvalidMultiplier {
                event: 0,
                multiplier: 0.0
            }
        );

        let bad_fraction = Scenario::builder()
            .fail_ups(SiteSelector::All, t(0), t(30), 1.5)
            .build();
        assert_eq!(
            bad_fraction.unwrap_err(),
            ScenarioError::InvalidCapacityFraction {
                event: 0,
                fraction: 1.5
            }
        );

        let bad_price = Scenario::builder().base_grid_price(-1.0).build();
        assert_eq!(
            bad_price.unwrap_err(),
            ScenarioError::InvalidPrice {
                event: None,
                price: -1.0
            }
        );

        let bad_delta = Scenario::builder()
            .weather(SiteSelector::All, t(0), t(30), f64::NAN)
            .build();
        assert_eq!(
            bad_delta.unwrap_err(),
            ScenarioError::NonFiniteWeatherDelta { event: 0 }
        );

        let no_units = Scenario::builder().fail_ahus(0, 0, 0, t(0), t(30)).build();
        assert_eq!(
            no_units.unwrap_err(),
            ScenarioError::NoFailedUnits { event: 0 }
        );
    }

    #[test]
    fn validation_checks_site_ranges_against_the_fleet() {
        let scenario = Scenario::builder()
            .grid_price(2, t(0), t(60), 300.0)
            .build()
            .expect("event invariants hold");
        assert!(scenario.validate(3).is_ok());
        assert_eq!(
            scenario.validate(2).unwrap_err(),
            ScenarioError::SiteOutOfRange {
                event: 0,
                site: 2,
                sites: 2
            }
        );
        // Errors render as readable text.
        let message = scenario.validate(2).unwrap_err().to_string();
        assert!(message.contains("out of range"), "{message}");
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = Scenario::builder()
            .heatwave(3..5, 8.0)
            .cold_snap(5..6, 4.0)
            .grid_price_spike(1, t(100), t(200), 280.0)
            .fail_ups(0, t(50), t(90), 0.75)
            .fail_ahus(2, 1, 1, t(60), t(80))
            .power_cap(1, t(70), t(120), 0.7)
            .surge(t(0), t(30), 1.8)
            .endpoint_ramp(EndpointId(2), t(10), t(40), 2.5)
            .fail_replicas(1, t(20), t(50), Some(EndpointId(0)), 2)
            .fail_replicas(SiteSelector::All, t(30), t(60), None, 1)
            .build()
            .expect("valid");
        let json = serde_json::to_string(&scenario).expect("serialize");
        let back: Scenario = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, scenario);
        assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
    }

    #[test]
    fn emergency_presets_match_the_paper() {
        let power = Scenario::power_emergency(t(0), t(5));
        assert_eq!(power.events.len(), 1);
        let state = resolve(&power, 0).failures().state_at(t(0));
        assert_eq!(state.failed_upses(), &[(UpsId::new(0), 0.75)]);
        let thermal = Scenario::thermal_emergency(t(0), t(5));
        let state = resolve(&thermal, 0).failures().state_at(t(0));
        assert!((state.global_cooling_fraction - 0.9).abs() < 1e-12);
    }

    #[test]
    fn energy_cost_prices_the_power_series() {
        let mut report = RunReport::new(
            "Baseline",
            SimTime::from_minutes(30),
            SimDuration::from_minutes(15),
        );
        // Two steps at 1000 kW, one at 2000 kW.
        report.datacenter_power.push(t(0), 1000.0);
        report.datacenter_power.push(t(15), 1000.0);
        report.datacenter_power.push(t(30), 2000.0);
        let scenario = Scenario::builder()
            .base_grid_price(100.0)
            .grid_price(SiteSelector::All, t(30), t(45), 200.0)
            .build()
            .expect("valid");
        let timeline = scenario.resolve(
            0,
            SimTime::from_minutes(30),
            SimDuration::from_minutes(15),
            1,
        );
        // 1 MWh-equivalent pricing: (1000 kW × 0.25 h × $100 + same + 2000 × 0.25 × $200) / 1000.
        let cost = energy_cost_usd(&report, &timeline);
        assert!((cost - (25.0 + 25.0 + 100.0)).abs() < 1e-9, "cost {cost}");
    }
}
