//! Experiment configuration: single-datacenter runs ([`ExperimentConfig`]) and
//! multi-datacenter fleets ([`FleetConfig`], one [`SiteConfig`] per datacenter plus the
//! [`GeoPolicy`] that splits VM arrivals across them).
//!
//! Scenario diversity (heatwaves, grid-price curves, failures, demand surges) does not
//! live in config fields: experiments *compose* a [`crate::scenario::Scenario`] and the
//! simulators resolve it into dense per-step inputs. Validation across the whole surface
//! is typed — [`ExperimentConfig::validate`] and [`FleetConfig::check`] return
//! [`ScenarioError`] instead of panicking.

use crate::scenario::{ResolvedTimeline, Scenario, ScenarioError};
use dc_sim::topology::LayoutConfig;
use dc_sim::weather::Climate;
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use tapas::policy::Policy;
use workload::arrivals::{ArrivalConfig, VmArrivalGenerator};
use workload::endpoints::EndpointCatalog;
use workload::vm::Vm;

/// Tunables of the per-request serving fabric (see `crate::fabric`). The fabric is
/// opt-in: [`ExperimentConfig::request_fabric`] is `None` by default, and no fabric RNG
/// draw or request happens until it is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestFabricConfig {
    /// Scales the generated request rate relative to the endpoint catalog's diurnal
    /// per-VM peak rates (`1.0` = the catalog's calibrated demand).
    pub rate_scale: f64,
    /// Enables deadline shedding: a queued request that cannot start within 5× its
    /// endpoint's unloaded TTFT (the headline SLO) is shed (counted, never served)
    /// instead of burning KV budget after its SLO is already blown. Off by default so
    /// pre-fault-tolerance runs keep their exact request outcomes. A preempted request is
    /// retried at most 3 times, after a 256 ms backoff doubled per attempt.
    pub deadline_shedding: bool,
}

impl Default for RequestFabricConfig {
    fn default() -> Self {
        Self {
            rate_scale: 1.0,
            deadline_shedding: false,
        }
    }
}

impl RequestFabricConfig {
    /// The largest accepted `rate_scale` (for a fleet: `rate_scale × arrival_scale`):
    /// 1000× the catalog's calibrated demand, about 2.5 M requests per simulated minute on
    /// 80 servers. The generator materializes every request, so a larger scale only adds
    /// generation time and memory, without bound (1e12 never finishes a step).
    pub const MAX_RATE_SCALE: f64 = 1e3;

    /// Checks the rate scale the generator draws with. The test names the accepting
    /// range, so NaN fails too.
    ///
    /// # Errors
    /// Returns [`ScenarioError::InvalidRateScale`] for a rate scale outside
    /// `[0, MAX_RATE_SCALE]` (NaN included).
    pub fn check(&self) -> Result<(), ScenarioError> {
        if !(self.rate_scale >= 0.0 && self.rate_scale <= Self::MAX_RATE_SCALE) {
            return Err(ScenarioError::InvalidRateScale {
                scale: self.rate_scale,
            });
        }
        Ok(())
    }
}

/// Everything that defines one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Physical layout of the datacenter.
    pub layout: LayoutConfig,
    /// Scheduling policy under test.
    pub policy: Policy,
    /// Fraction of VMs that are SaaS (the rest are IaaS), in `[0, 1]`.
    pub saas_fraction: f64,
    /// Regional climate for the outside-temperature model.
    pub climate: Climate,
    /// Simulated duration.
    pub duration: SimTime,
    /// Step length.
    pub step: SimDuration,
    /// Number of SaaS endpoints, from one to one per server.
    pub endpoint_count: usize,
    /// Peak request rate per SaaS VM (requests per minute at the top of the diurnal cycle),
    /// at most [`Self::MAX_REQUESTS_PER_VM_PER_MINUTE`].
    pub requests_per_vm_per_minute: f64,
    /// Fraction of servers occupied at time zero, in `[0, 1]`.
    pub initial_occupancy: f64,
    /// Overrides the mean number of additional VM arrivals per day (before any fleet
    /// scaling). `None` keeps the evaluation-week default of 5 % of the server count per
    /// day (at least one); arrival-driven scenarios (e.g. fleet geo-routing studies) raise
    /// it so load builds over the horizon instead of arriving entirely at time zero. At
    /// most [`RequestFabricConfig::MAX_RATE_SCALE`] times that default: the generator
    /// materializes every arrival.
    pub arrivals_per_day: Option<f64>,
    /// The typed event timeline this experiment runs under (weather episodes,
    /// grid-price curves, failures, demand shaping); the default is the empty scenario.
    /// For fleets this is shared fleet-wide with per-site targeting;
    /// [`FleetConfig::site_experiment`] hands each cell its single-site view.
    pub scenario: Scenario,
    /// Random seed (drives weather, arrivals, request shapes and per-entity offsets).
    pub seed: u64,
    /// Per-request serving fabric, off by default. `None` runs the quantum serving model
    /// alone.
    pub request_fabric: Option<RequestFabricConfig>,
}

impl ExperimentConfig {
    /// The largest accepted [`Self::requests_per_vm_per_minute`]: the paper-scale presets'
    /// 170 requests per VM per minute times [`RequestFabricConfig::MAX_RATE_SCALE`].
    pub const MAX_REQUESTS_PER_VM_PER_MINUTE: f64 = 170.0 * RequestFabricConfig::MAX_RATE_SCALE;

    /// A tiny configuration for unit tests and doctests: 8 servers, 2 simulated hours at
    /// 5-minute steps.
    #[must_use]
    pub fn small_smoke_test() -> Self {
        Self {
            layout: LayoutConfig::small_test_cluster(),
            policy: Policy::Baseline,
            saas_fraction: 0.5,
            climate: Climate::temperate(),
            duration: SimTime::from_hours(2),
            step: SimDuration::from_minutes(5),
            endpoint_count: 2,
            requests_per_vm_per_minute: 12.0,
            initial_occupancy: 0.9,
            arrivals_per_day: None,
            scenario: Scenario::default(),
            seed: 42,
            request_fabric: None,
        }
    }

    /// The real-cluster experiment of Fig. 18: two rows of 80 A100 servers, one hour at
    /// 1-minute resolution, 50/50 IaaS/SaaS.
    #[must_use]
    pub fn real_cluster_hour(policy: Policy) -> Self {
        Self {
            layout: LayoutConfig::real_cluster_two_rows(),
            policy,
            saas_fraction: 0.5,
            climate: Climate::hot(),
            duration: SimTime::from_hours(1),
            step: SimDuration::from_minutes(1),
            endpoint_count: 4,
            requests_per_vm_per_minute: 170.0,
            initial_occupancy: 0.95,
            arrivals_per_day: None,
            scenario: Scenario::default(),
            seed: 7,
            request_fabric: None,
        }
    }

    /// The large-scale week-long simulation of Fig. 19/20: ~1000 servers, one week at
    /// 5-minute resolution.
    #[must_use]
    pub fn production_week(policy: Policy) -> Self {
        Self {
            layout: LayoutConfig::production_datacenter(),
            policy,
            saas_fraction: 0.5,
            climate: Climate::hot(),
            duration: SimTime::from_days(7),
            step: SimDuration::from_minutes(5),
            endpoint_count: 10,
            requests_per_vm_per_minute: 170.0,
            initial_occupancy: 0.92,
            arrivals_per_day: None,
            scenario: Scenario::default(),
            seed: 11,
            request_fabric: None,
        }
    }

    /// A medium configuration (one aisle pair, two days) used by integration tests and the
    /// ablation bench when the full week would be too slow.
    #[must_use]
    pub fn medium(policy: Policy) -> Self {
        Self {
            layout: LayoutConfig::real_cluster_two_rows(),
            policy,
            saas_fraction: 0.5,
            climate: Climate::hot(),
            duration: SimTime::from_days(2),
            step: SimDuration::from_minutes(10),
            endpoint_count: 4,
            requests_per_vm_per_minute: 170.0,
            initial_occupancy: 0.92,
            arrivals_per_day: None,
            scenario: Scenario::default(),
            seed: 13,
            request_fabric: None,
        }
    }

    /// Sets the IaaS/SaaS mix (Fig. 20's sensitivity axis).
    #[must_use]
    pub fn with_saas_fraction(mut self, fraction: f64) -> Self {
        self.saas_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the scheduling policy under test.
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the regional climate.
    #[must_use]
    pub fn with_climate(mut self, climate: Climate) -> Self {
        self.climate = climate;
        self
    }

    /// Sets the simulated horizon.
    #[must_use]
    pub fn with_duration(mut self, duration: SimTime) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the step length.
    #[must_use]
    pub fn with_step(mut self, step: SimDuration) -> Self {
        self.step = step;
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fraction of servers occupied at time zero.
    #[must_use]
    pub fn with_initial_occupancy(mut self, occupancy: f64) -> Self {
        self.initial_occupancy = occupancy.clamp(0.0, 1.0);
        self
    }

    /// Overrides the mean additional VM arrivals per day (see
    /// [`Self::arrivals_per_day`]).
    #[must_use]
    pub fn with_arrivals_per_day(mut self, rate: f64) -> Self {
        self.arrivals_per_day = Some(rate);
        self
    }

    /// Composes a scenario into the experiment.
    #[must_use]
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Enables the per-request serving fabric (see `crate::fabric`).
    #[must_use]
    pub fn with_request_fabric(mut self, fabric: RequestFabricConfig) -> Self {
        self.request_fabric = Some(fabric);
        self
    }

    /// Validates the layout ([`LayoutConfig::check`]), the workload shape (the ranges its
    /// fields document), the request-fabric knobs ([`RequestFabricConfig::check`]) and the
    /// configuration's scenario (a standalone experiment is site 0 of a 1-site
    /// fleet, but site-targeted events are allowed here because the config may be the
    /// shared base of a larger fleet — [`FleetConfig::check`] bounds them).
    ///
    /// # Errors
    /// Returns the first violated layout, workload, fabric or event invariant as a
    /// [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.layout
            .check()
            .map_err(|error| ScenarioError::InvalidLayout { site: None, error })?;
        self.check_workload()?;
        if let Some(fabric) = &self.request_fabric {
            fabric.check()?;
        }
        self.scenario.validate_events()
    }

    /// Checks the workload-shape numbers the generators draw with against the ranges their
    /// fields document (NaN fails), after the layout check: ceilings scale with servers.
    fn check_workload(&self) -> Result<(), ScenarioError> {
        let servers = self.server_count();
        let arrivals = self.arrivals_per_day.unwrap_or(0.0);
        let rate = self.requests_per_vm_per_minute;
        let max_rate = Self::MAX_REQUESTS_PER_VM_PER_MINUTE;
        let fields = [
            ("saas_fraction", self.saas_fraction, 0.0, 1.0),
            ("initial_occupancy", self.initial_occupancy, 0.0, 1.0),
            ("arrivals_per_day", arrivals, 0.0, self.max_arrivals()),
            ("requests_per_vm_per_minute", rate, 0.0, max_rate),
            (
                "endpoint_count",
                self.endpoint_count as f64,
                1.0,
                servers as f64,
            ),
        ];
        check_ranges(fields)
    }

    /// The most VM arrivals a day the generator is asked for:
    /// [`RequestFabricConfig::MAX_RATE_SCALE`] times the evaluation-week default.
    fn max_arrivals(&self) -> f64 {
        RequestFabricConfig::MAX_RATE_SCALE
            * ArrivalConfig::evaluation_week(self.server_count()).arrivals_per_day
    }

    /// Resolves the composed scenario into the dense per-step timeline this experiment
    /// runs under, viewed as site 0.
    #[must_use]
    pub fn resolved_timeline(&self) -> ResolvedTimeline {
        self.scenario
            .resolve(0, self.duration, self.step, self.endpoint_count)
    }

    /// Adds extra servers beyond the provisioned budgets to model oversubscription (Fig. 21):
    /// the budgets stay fixed while `extra_fraction` more racks are installed per row.
    #[must_use]
    pub fn with_oversubscription(mut self, extra_fraction: f64) -> Self {
        let base = self.layout.racks_per_row as f64;
        let extra = (base * extra_fraction).round() as usize;
        // Keep the budgets at the original provisioning by shrinking the provisioning
        // fractions in proportion to the added racks.
        let scale = base / (base + extra as f64);
        self.layout.racks_per_row += extra;
        self.layout.row_power_provisioning *= scale;
        self.layout.aisle_airflow_provisioning *= scale;
        self
    }

    /// Total number of servers in the configured layout.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.layout.server_count()
    }

    /// The SaaS endpoint catalog this configuration implies.
    ///
    /// **This is the single shared generation path**: the single-datacenter simulator,
    /// the fleet-level arrival stream and any external tooling must all obtain their
    /// catalog here (and their VM stream from [`Self::vm_stream`] over it) so every
    /// consumer draws the same endpoints in the same order. Building a catalog any other
    /// way forfeits the pinned-fleet/single-DC equivalence; [`Self::vm_stream`] debug-asserts
    /// the catalog shape to catch drift. It holds `endpoint_count` endpoints, which
    /// [`Self::validate`] keeps at least one.
    #[must_use]
    pub fn endpoint_catalog(&self) -> EndpointCatalog {
        let saas_target = (self.server_count() as f64 * self.initial_occupancy * self.saas_fraction)
            .round() as usize;
        EndpointCatalog::evaluation(
            self.endpoint_count,
            self.requests_per_vm_per_minute,
            self.seed,
        )
        .scaled_to_total_vms(saas_target.max(self.endpoint_count))
    }

    /// Generates the VM arrival stream (initial population followed by the sorted arrival
    /// process), scaled by `scale` for fleets of several sites. `scale = 1.0` is the
    /// single-datacenter stream, so a multi-site fleet pinned to site 0 at that scale
    /// reproduces the single-site run of its site 0 bit for bit.
    ///
    /// Together with [`Self::endpoint_catalog`] this is the single shared
    /// workload-generation path — `catalog` must come from that method on the *same*
    /// configuration (replayed external traces enter through
    /// [`crate::fleet::FleetSimulator::with_arrivals`] instead).
    #[must_use]
    pub fn vm_stream(&self, catalog: &EndpointCatalog, scale: f64) -> Vec<Vm> {
        assert!(scale > 0.0, "arrival scale must be positive");
        debug_assert_eq!(
            catalog.len(),
            self.endpoint_count,
            "vm_stream must be fed the catalog produced by endpoint_catalog() on this \
             configuration — it is the single shared generation path"
        );
        let mut arrival_config = ArrivalConfig::evaluation_week(self.server_count());
        arrival_config.saas_fraction = self.saas_fraction;
        let [initial_population, arrivals_per_day] = self.scaled_arrivals(scale);
        arrival_config.initial_population = initial_population.round() as usize;
        arrival_config.arrivals_per_day = arrivals_per_day;
        arrival_config.horizon = self.duration;
        VmArrivalGenerator::new(arrival_config, self.seed).generate(catalog)
    }

    /// The initial population (before rounding) and the daily arrivals the generator is
    /// asked for at arrival scale `scale`.
    fn scaled_arrivals(&self, scale: f64) -> [f64; 2] {
        let servers = self.server_count();
        let arrivals_per_day = self
            .arrivals_per_day
            .unwrap_or(ArrivalConfig::evaluation_week(servers).arrivals_per_day);
        [
            servers as f64 * self.initial_occupancy * scale,
            arrivals_per_day * scale,
        ]
    }
}

/// The first of `(field, value, min, max)` whose value is outside `[min, max]` (NaN
/// included), as a [`ScenarioError::InvalidWorkload`].
fn check_ranges<const N: usize>(
    fields: [(&'static str, f64, f64, f64); N],
) -> Result<(), ScenarioError> {
    for (field, value, min, max) in fields {
        if !(value >= min && value <= max) {
            return Err(ScenarioError::InvalidWorkload {
                field,
                value,
                min,
                max,
            });
        }
    }
    Ok(())
}

/// How a fleet splits each step's VM arrivals across its sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeoPolicy {
    /// Every arrival goes to one site. A pinned 1-site fleet (or a pinned site of a larger
    /// fleet) reproduces the single-datacenter simulation bit for bit.
    Pinned(usize),
    /// Deterministic weighted round-robin over the sites' [`SiteConfig::arrival_share`]s,
    /// oblivious to telemetry — the naive baseline geo routing is compared against.
    RoundRobin,
    /// TAPAS geo routing: steer each arrival to the site with the most power headroom and
    /// thermal slack, and shift load away from sites in power/thermal emergencies.
    Headroom,
}

impl GeoPolicy {
    /// Short label used in fleet reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            GeoPolicy::Pinned(site) => format!("Pinned({site})"),
            GeoPolicy::RoundRobin => "RoundRobin".to_string(),
            GeoPolicy::Headroom => "Headroom".to_string(),
        }
    }
}

/// One datacenter cell of a fleet: its physical layout, regional climate and seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteConfig {
    /// Human-readable site name (used in fleet reports).
    pub name: String,
    /// Physical layout of the site's datacenter.
    pub layout: LayoutConfig,
    /// Regional climate of the site.
    pub climate: Climate,
    /// Site seed: drives the site's weather trace, physics offsets and request draws.
    /// Distinct per site so site telemetry is statistically independent.
    pub seed: u64,
    /// Relative share of arrivals the site receives under [`GeoPolicy::RoundRobin`].
    pub arrival_share: f64,
}

/// A multi-datacenter experiment: the shared workload/policy shape plus one
/// [`SiteConfig`] per datacenter and the geo placement policy that splits arrivals.
///
/// By construction (`single_site`, `evaluation`) the base configuration's layout, climate
/// and seed equal site 0's, so the single-datacenter path is exactly the 1-site fleet and
/// existing digests are preserved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Workload shape, scheduling policy, duration, step and scenario shared by
    /// every site (each site overrides layout, climate and seed from its [`SiteConfig`]).
    pub base: ExperimentConfig,
    /// The fleet's datacenters, in site-ordinal order.
    pub sites: Vec<SiteConfig>,
    /// How arrivals are split across sites.
    pub geo: GeoPolicy,
    /// Scales the fleet-wide arrival stream relative to what `base` alone would generate
    /// (`1.0` = the single-datacenter stream, `sites.len()` = a fleet-sized stream).
    pub arrival_scale: f64,
}

/// A named climate preset constructor, as cycled by `FleetConfig::evaluation`.
type ClimatePreset = (&'static str, fn() -> Climate);

/// The climate presets `FleetConfig::evaluation` cycles through, with their name suffixes.
const EVALUATION_CLIMATES: [ClimatePreset; 3] = [
    ("hot", Climate::hot),
    ("temperate", Climate::temperate),
    ("cold", Climate::cold),
];

impl FleetConfig {
    /// Expresses a single-datacenter experiment as a 1-site fleet pinned to site 0: the
    /// fleet `ClusterSimulator::new(base).run()` runs.
    #[must_use]
    pub fn single_site(base: ExperimentConfig) -> Self {
        let site = SiteConfig {
            name: "site0".to_string(),
            layout: base.layout.clone(),
            climate: base.climate,
            seed: base.seed,
            arrival_share: 1.0,
        };
        Self {
            base,
            sites: vec![site],
            geo: GeoPolicy::Pinned(0),
            arrival_scale: 1.0,
        }
    }

    /// An evaluation fleet of `site_count` copies of `base`'s layout spread across the
    /// paper's three regional climates (hot, temperate, cold, cycling), with distinct
    /// per-site seeds, a fleet-sized arrival stream and TAPAS geo routing. Site 0 keeps
    /// `base`'s seed; `base.climate` is normalized to site 0's so the base-equals-site-0
    /// invariant holds.
    ///
    /// # Panics
    /// Panics if `site_count` is zero.
    #[must_use]
    pub fn evaluation(mut base: ExperimentConfig, site_count: usize) -> Self {
        assert!(site_count > 0, "a fleet needs at least one site");
        let sites: Vec<SiteConfig> = (0..site_count)
            .map(|site| {
                let (suffix, climate) = EVALUATION_CLIMATES[site % EVALUATION_CLIMATES.len()];
                SiteConfig {
                    name: format!("site{site}-{suffix}"),
                    layout: base.layout.clone(),
                    climate: climate(),
                    // Golden-ratio stride keeps per-site streams far apart; site 0 keeps
                    // the base seed.
                    seed: base
                        .seed
                        .wrapping_add((site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    arrival_share: 1.0,
                }
            })
            .collect();
        base.climate = sites[0].climate;
        Self {
            base,
            sites,
            geo: GeoPolicy::Headroom,
            arrival_scale: site_count as f64,
        }
    }

    /// Returns a copy with a different geo policy (for baseline comparisons).
    #[must_use]
    pub fn with_geo(mut self, geo: GeoPolicy) -> Self {
        self.geo = geo;
        self
    }

    /// Number of sites.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The full [`ExperimentConfig`] of one site: the base with the site's layout,
    /// climate and seed substituted, and the fleet scenario reduced to the site's view
    /// ([`Scenario::for_site`] — events targeting other sites are dropped).
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn site_experiment(&self, site: usize) -> ExperimentConfig {
        let ordinal = site;
        let site = &self.sites[site];
        let mut config = self.base.clone();
        config.layout = site.layout.clone();
        config.climate = site.climate;
        config.seed = site.seed;
        config.scenario = self.base.scenario.for_site(ordinal);
        config
    }

    /// Validates the cross-field invariants the simulator relies on: at least one site,
    /// valid base and site layouts ([`LayoutConfig::check`]; the base layout sizes the
    /// fleet's arrival stream), the base's workload shape (as [`ExperimentConfig::validate`]
    /// checks it), a positive arrival scale that keeps the scaled initial population and
    /// daily arrivals under the base's arrival ceiling, an in-range pinned site, valid
    /// arrival shares under [`GeoPolicy::RoundRobin`] (the only policy that consumes
    /// them), and the composed scenario's event and site-range invariants.
    ///
    /// # Errors
    /// Returns the first violated invariant as a [`ScenarioError`] — the single typed
    /// validation path for the whole experiment surface.
    pub fn check(&self) -> Result<(), ScenarioError> {
        if self.sites.is_empty() {
            return Err(ScenarioError::NoSites);
        }
        let layouts = std::iter::once((None, &self.base.layout)).chain(
            self.sites
                .iter()
                .enumerate()
                .map(|(site, s)| (Some(site), &s.layout)),
        );
        for (site, layout) in layouts {
            layout
                .check()
                .map_err(|error| ScenarioError::InvalidLayout { site, error })?;
        }
        self.base.check_workload()?;
        // NaN must fail too, so test the accepting range rather than its negation.
        if !(self.arrival_scale.is_finite() && self.arrival_scale > 0.0) {
            return Err(ScenarioError::NonPositiveArrivalScale {
                scale: self.arrival_scale,
            });
        }
        if let Some(fabric) = &self.base.request_fabric {
            fabric.check()?;
            // The fleet generates at `rate_scale × arrival_scale`, which can pass the
            // ceiling (or overflow) while each factor is in range.
            let scaled = fabric.rate_scale * self.arrival_scale;
            if scaled > RequestFabricConfig::MAX_RATE_SCALE {
                return Err(ScenarioError::InvalidRateScale { scale: scaled });
            }
        }
        // The fleet's stream multiplies the base's initial population and daily arrivals
        // by the arrival scale; each product stays under the base's arrival ceiling.
        let [initial, daily] = self.base.scaled_arrivals(self.arrival_scale);
        let max = self.base.max_arrivals();
        check_ranges([
            (
                "initial_occupancy × servers × arrival_scale",
                initial,
                0.0,
                max,
            ),
            ("arrivals_per_day × arrival_scale", daily, 0.0, max),
        ])?;
        if let GeoPolicy::Pinned(site) = self.geo {
            if site >= self.sites.len() {
                return Err(ScenarioError::PinnedSiteOutOfRange {
                    site,
                    sites: self.sites.len(),
                });
            }
        }
        if self.geo == GeoPolicy::RoundRobin {
            for (site, config) in self.sites.iter().enumerate() {
                if !config.arrival_share.is_finite() || config.arrival_share < 0.0 {
                    return Err(ScenarioError::InvalidArrivalShare {
                        site,
                        share: config.arrival_share,
                    });
                }
            }
            if !self.sites.iter().any(|s| s.arrival_share > 0.0) {
                return Err(ScenarioError::NoPositiveArrivalShare);
            }
        }
        self.base.scenario.validate(self.sites.len())
    }

    /// The dense per-step timeline one site runs under: the site view of the fleet
    /// scenario resolved against the base duration/step (used e.g. to price a site's
    /// power series via [`crate::scenario::energy_cost_usd`]).
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn site_timeline(&self, site: usize) -> ResolvedTimeline {
        self.site_experiment(site).resolved_timeline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::{CubicFeetPerMinute, Kilowatts};

    #[test]
    fn presets_have_expected_scale() {
        assert_eq!(ExperimentConfig::small_smoke_test().server_count(), 8);
        assert_eq!(
            ExperimentConfig::real_cluster_hour(Policy::Tapas).server_count(),
            80
        );
        assert_eq!(
            ExperimentConfig::production_week(Policy::Tapas).server_count(),
            1040
        );
        assert_eq!(
            ExperimentConfig::medium(Policy::Baseline).policy,
            Policy::Baseline
        );
    }

    #[test]
    fn saas_fraction_is_clamped() {
        let config = ExperimentConfig::small_smoke_test().with_saas_fraction(1.4);
        assert_eq!(config.saas_fraction, 1.0);
        let config = ExperimentConfig::small_smoke_test().with_saas_fraction(-0.2);
        assert_eq!(config.saas_fraction, 0.0);
    }

    #[test]
    fn evaluation_fleet_cycles_climates_with_distinct_seeds() {
        let fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 4);
        fleet.check().expect("evaluation preset is valid");
        assert_eq!(fleet.site_count(), 4);
        assert_eq!(fleet.geo, GeoPolicy::Headroom);
        assert_eq!(fleet.arrival_scale, 4.0);
        // Climates cycle hot/temperate/cold and the base is normalized to site 0.
        assert_eq!(fleet.sites[0].climate, Climate::hot());
        assert_eq!(fleet.sites[1].climate, Climate::temperate());
        assert_eq!(fleet.sites[2].climate, Climate::cold());
        assert_eq!(fleet.sites[3].climate, Climate::hot());
        assert_eq!(fleet.base.climate, Climate::hot());
        // Seeds are pairwise distinct and site 0 keeps the base seed.
        assert_eq!(fleet.sites[0].seed, fleet.base.seed);
        let mut seeds: Vec<u64> = fleet.sites.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
        // Site experiments carry the overrides.
        let site2 = fleet.site_experiment(2);
        assert_eq!(site2.climate, Climate::cold());
        assert_eq!(site2.seed, fleet.sites[2].seed);
        assert_eq!(site2.policy, fleet.base.policy);
    }

    #[test]
    fn single_site_fleet_mirrors_the_base() {
        let base = ExperimentConfig::real_cluster_hour(Policy::Tapas);
        let fleet = FleetConfig::single_site(base.clone());
        fleet.check().expect("single-site preset is valid");
        assert_eq!(fleet.site_count(), 1);
        assert_eq!(fleet.geo, GeoPolicy::Pinned(0));
        assert_eq!(fleet.arrival_scale, 1.0);
        assert_eq!(fleet.site_experiment(0), base);
    }

    #[test]
    fn pinned_site_out_of_range_fails_validation() {
        let error = FleetConfig::single_site(ExperimentConfig::small_smoke_test())
            .with_geo(GeoPolicy::Pinned(3))
            .check()
            .unwrap_err();
        assert_eq!(
            error,
            ScenarioError::PinnedSiteOutOfRange { site: 3, sites: 1 }
        );
        assert!(error.to_string().contains("out of range"));
    }

    #[test]
    fn fleet_check_bounds_scenario_site_targets() {
        let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 2);
        fleet.base.scenario = Scenario::builder()
            .grid_price(5, SimTime::ZERO, SimTime::from_hours(1), 200.0)
            .build()
            .expect("event invariants hold");
        assert_eq!(
            fleet.check().unwrap_err(),
            ScenarioError::SiteOutOfRange {
                event: 0,
                site: 5,
                sites: 2
            }
        );
        fleet.base.scenario = Scenario::builder()
            .grid_price(1, SimTime::ZERO, SimTime::from_hours(1), 200.0)
            .build()
            .expect("event invariants hold");
        fleet.check().expect("in-range target is valid");
    }

    #[test]
    fn bad_layouts_end_in_typed_errors_naming_the_field() {
        type Corruption = fn(&mut LayoutConfig);
        let bad_layouts: [(&str, Corruption); 8] = [
            ("racks_per_row", |l| l.racks_per_row = 0),
            ("row_power_provisioning", |l| {
                l.row_power_provisioning = -0.5
            }),
            ("aisle_airflow_provisioning", |l| {
                l.aisle_airflow_provisioning = f64::NAN
            }),
            ("ups_power_provisioning", |l| {
                l.ups_power_provisioning = f64::INFINITY
            }),
            ("server_spec.idle_power", |l| {
                l.server_spec.idle_power = Kilowatts::new(f64::NAN)
            }),
            ("server_spec.max_airflow", |l| {
                l.server_spec.max_airflow = CubicFeetPerMinute::new(f64::INFINITY);
            }),
            ("server_spec.idle_power", |l| {
                l.server_spec.max_power = Kilowatts::new(1.0)
            }),
            ("server_spec.gpus_per_server", |l| {
                l.server_spec.gpus_per_server = 0
            }),
        ];
        for (field, corrupt) in bad_layouts {
            let mut config = ExperimentConfig::small_smoke_test();
            corrupt(&mut config.layout);
            match config.validate() {
                Err(ScenarioError::InvalidLayout { site: None, error }) => {
                    assert_eq!(error.field, field);
                }
                other => panic!("{field}: expected an invalid base layout, got {other:?}"),
            }
            let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 3);
            corrupt(&mut fleet.sites[2].layout);
            let error = fleet.check().unwrap_err();
            assert!(
                matches!(
                    &error,
                    ScenarioError::InvalidLayout { site: Some(2), error } if error.field == field
                ),
                "{field}: {error:?}"
            );
            assert!(
                error.to_string().starts_with("site 2: layout field"),
                "{error}"
            );
            let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 2);
            corrupt(&mut fleet.base.layout);
            assert!(matches!(
                fleet.check(),
                Err(ScenarioError::InvalidLayout { site: None, .. })
            ));
        }
        ExperimentConfig::production_week(Policy::Tapas)
            .validate()
            .expect("presets are valid");
    }

    #[test]
    fn experiment_config_round_trips_through_json() {
        let config = ExperimentConfig::production_week(Policy::PlaceRoute).with_scenario(
            Scenario::power_emergency(SimTime::from_hours(3), SimTime::from_hours(5)),
        );
        let json = serde_json::to_string(&config).expect("serialize");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, config);
    }

    /// `value` with one top-level map key removed (the removal must happen).
    fn without_key(mut value: serde::Value, key: &str) -> serde::Value {
        let serde::Value::Map(entries) = &mut value else {
            panic!("expected a map")
        };
        let before = entries.len();
        entries.retain(|(name, _)| name != key);
        assert_eq!(
            entries.len(),
            before - 1,
            "`{key}` must be present to strip"
        );
        value
    }

    #[test]
    fn configs_missing_the_arrivals_or_scenario_key_fail_to_deserialize() {
        // Every key is written, `None` as `null`, and every key is required on load: an
        // artifact without `arrivals_per_day` or `scenario` is an error, never a default.
        let config = ExperimentConfig::small_smoke_test();
        for key in ["arrivals_per_day", "scenario"] {
            let json =
                serde_json::to_string(&without_key(config.to_value(), key)).expect("serialize");
            let error = serde_json::from_str::<ExperimentConfig>(&json).unwrap_err();
            assert!(error.to_string().contains(key), "{key}: {error}");
        }
    }

    #[test]
    fn disabled_fabric_writes_the_key_as_null_and_requires_it() {
        let disabled = ExperimentConfig::small_smoke_test();
        let json = serde_json::to_string(&disabled).expect("serialize");
        assert!(json.ends_with("\"request_fabric\":null}"), "{json}");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, disabled);
        let enabled = ExperimentConfig::small_smoke_test()
            .with_request_fabric(RequestFabricConfig::default());
        for config in [disabled, enabled] {
            let json = serde_json::to_string(&without_key(config.to_value(), "request_fabric"))
                .expect("serialize");
            let error = serde_json::from_str::<ExperimentConfig>(&json).unwrap_err();
            assert!(error.to_string().contains("request_fabric"), "{error}");
        }
    }

    #[test]
    fn enabled_fabric_round_trips_through_json() {
        let config =
            ExperimentConfig::small_smoke_test().with_request_fabric(RequestFabricConfig {
                rate_scale: 2.5,
                ..RequestFabricConfig::default()
            });
        let json = serde_json::to_string(&config).expect("serialize");
        assert!(
            json.ends_with("\"request_fabric\":{\"rate_scale\":2.5,\"deadline_shedding\":false}}"),
            "{json}"
        );
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, config);
    }

    #[test]
    fn fault_policy_knobs_always_serialize_and_round_trip() {
        let config =
            ExperimentConfig::small_smoke_test().with_request_fabric(RequestFabricConfig {
                deadline_shedding: true,
                ..RequestFabricConfig::default()
            });
        let json = serde_json::to_string(&config).expect("serialize");
        assert!(
            json.ends_with("\"request_fabric\":{\"rate_scale\":1,\"deadline_shedding\":true}}"),
            "{json}"
        );
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, config);
        // The knob is written at its default too, so it is required on load.
        let fabric = RequestFabricConfig::default().to_value();
        let key = "deadline_shedding";
        let error = RequestFabricConfig::from_value(&without_key(fabric, key)).unwrap_err();
        assert!(error.to_string().contains(key), "{key}: {error}");
    }

    #[test]
    fn with_builders_compose_a_full_experiment() {
        let scenario = Scenario::builder()
            .heatwave(0..1, 6.0)
            .build()
            .expect("valid scenario");
        let config = ExperimentConfig::small_smoke_test()
            .with_policy(Policy::Tapas)
            .with_climate(Climate::cold())
            .with_duration(SimTime::from_hours(6))
            .with_step(SimDuration::from_minutes(10))
            .with_seed(99)
            .with_initial_occupancy(0.4)
            .with_arrivals_per_day(12.0)
            .with_scenario(scenario.clone());
        assert_eq!(config.policy, Policy::Tapas);
        assert_eq!(config.climate, Climate::cold());
        assert_eq!(config.duration, SimTime::from_hours(6));
        assert_eq!(config.step, SimDuration::from_minutes(10));
        assert_eq!(config.seed, 99);
        assert_eq!(config.initial_occupancy, 0.4);
        assert_eq!(config.arrivals_per_day, Some(12.0));
        assert_eq!(config.scenario, scenario);
        config.validate().expect("valid config");
        // Occupancy is clamped like the saas fraction.
        assert_eq!(
            ExperimentConfig::small_smoke_test()
                .with_initial_occupancy(1.7)
                .initial_occupancy,
            1.0
        );
    }

    #[test]
    fn site_experiment_reduces_the_scenario_to_the_site_view() {
        let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 3);
        fleet.base.scenario = Scenario::builder()
            .heatwave(0..1, 5.0)
            .grid_price(1, SimTime::ZERO, SimTime::from_hours(1), 250.0)
            .build()
            .expect("valid scenario");
        fleet.check().expect("valid fleet");
        assert_eq!(fleet.site_experiment(0).scenario.events.len(), 1);
        assert_eq!(fleet.site_experiment(1).scenario.events.len(), 2);
        assert!(fleet
            .site_experiment(1)
            .scenario
            .events
            .iter()
            .all(|e| e.site() == crate::scenario::SiteSelector::All));
    }

    #[test]
    fn negative_arrival_share_fails_round_robin_validation() {
        let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 2)
            .with_geo(GeoPolicy::RoundRobin);
        fleet.sites[0].arrival_share = -1.0;
        let error = fleet.check().unwrap_err();
        assert_eq!(
            error,
            ScenarioError::InvalidArrivalShare {
                site: 0,
                share: -1.0
            }
        );
        assert!(error.to_string().contains("finite and non-negative"));
    }

    #[test]
    fn nan_arrival_share_fails_round_robin_validation() {
        let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 2)
            .with_geo(GeoPolicy::RoundRobin);
        fleet.sites[1].arrival_share = f64::NAN;
        assert!(matches!(
            fleet.check().unwrap_err(),
            ScenarioError::InvalidArrivalShare { site: 1, .. }
        ));
        fleet.sites[1].arrival_share = 1.0;
        fleet.sites[0].arrival_share = 0.0;
        fleet.check().expect("one positive share is enough");
        fleet.sites[1].arrival_share = 0.0;
        assert_eq!(
            fleet.check().unwrap_err(),
            ScenarioError::NoPositiveArrivalShare
        );
    }

    /// Checks that `fabric` fails both entry points (a standalone experiment's
    /// `validate` and a fleet's `check`) with an error `expected` accepts.
    fn assert_fabric_rejected(
        fabric: RequestFabricConfig,
        expected: impl Fn(&ScenarioError) -> bool,
    ) {
        let config = ExperimentConfig::small_smoke_test().with_request_fabric(fabric);
        let error = config.validate().unwrap_err();
        assert!(expected(&error), "validate: {error}");
        let error = FleetConfig::evaluation(config, 2).check().unwrap_err();
        assert!(expected(&error), "check: {error}");
    }

    fn fabric(rate_scale: f64) -> RequestFabricConfig {
        RequestFabricConfig {
            rate_scale,
            ..RequestFabricConfig::default()
        }
    }

    #[test]
    fn nan_rate_scale_is_rejected() {
        assert_fabric_rejected(
            fabric(f64::NAN),
            |e| matches!(e, ScenarioError::InvalidRateScale { scale } if scale.is_nan()),
        );
    }

    #[test]
    fn infinite_rate_scale_is_rejected() {
        assert_fabric_rejected(fabric(f64::INFINITY), |e| {
            *e == ScenarioError::InvalidRateScale {
                scale: f64::INFINITY,
            }
        });
    }

    #[test]
    fn negative_rate_scale_is_rejected() {
        assert_fabric_rejected(fabric(-0.5), |e| {
            *e == ScenarioError::InvalidRateScale { scale: -0.5 }
        });
    }

    #[test]
    fn in_range_fabric_knobs_pass_both_entry_points() {
        // A zero rate is legal (the fabric generates nothing); only the bounds fail.
        // The two-site fleet generates at twice the rate scale, so half the ceiling is the
        // largest scale both entry points accept.
        let ceiling = RequestFabricConfig::MAX_RATE_SCALE;
        for rate_scale in [0.0, 1.0, ceiling / 2.0] {
            let config =
                ExperimentConfig::small_smoke_test().with_request_fabric(fabric(rate_scale));
            config.validate().expect("in-range knobs are valid");
            FleetConfig::evaluation(config, 2)
                .check()
                .expect("in-range knobs are valid");
        }
        ExperimentConfig::small_smoke_test()
            .with_request_fabric(fabric(ceiling))
            .validate()
            .expect("a scale at the ceiling is valid");
    }

    /// Checks that each of `values`, written into a fabric-enabled config by `set`, fails
    /// both entry points with an [`ScenarioError::InvalidWorkload`] naming `field`.
    fn assert_workload_rejected(
        field: &str,
        values: &[f64],
        set: impl Fn(&mut ExperimentConfig, f64),
    ) {
        for &value in values {
            let mut config = ExperimentConfig::small_smoke_test()
                .with_request_fabric(RequestFabricConfig::default());
            set(&mut config, value);
            let fleet = FleetConfig::evaluation(config.clone(), 2);
            for error in [config.validate().unwrap_err(), fleet.check().unwrap_err()] {
                assert!(
                    matches!(
                        error,
                        ScenarioError::InvalidWorkload { field: f, value: v, .. }
                            if f == field && (v == value || v.is_nan() && value.is_nan())
                    ),
                    "{field} = {value}: {error}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_initial_occupancy_is_rejected() {
        assert_workload_rejected("initial_occupancy", &[1e9, f64::NAN, -0.1, 1.5], |c, v| {
            c.initial_occupancy = v;
        });
    }

    #[test]
    fn out_of_range_saas_fraction_is_rejected() {
        assert_workload_rejected("saas_fraction", &[-3.0, f64::NAN, 1.0001], |c, v| {
            c.saas_fraction = v;
        });
    }

    #[test]
    fn out_of_range_arrivals_per_day_is_rejected() {
        // The 8-server config's default is one arrival a day, so its ceiling is 1000.
        let ceiling = RequestFabricConfig::MAX_RATE_SCALE;
        assert_workload_rejected(
            "arrivals_per_day",
            &[
                1e15,
                f64::NAN,
                f64::INFINITY,
                -1.0,
                ceiling * (1.0 + f64::EPSILON),
            ],
            |c, v| c.arrivals_per_day = Some(v),
        );
        let error = ScenarioError::InvalidWorkload {
            field: "arrivals_per_day",
            value: 1e15,
            min: 0.0,
            max: ceiling,
        };
        assert!(
            error
                .to_string()
                .contains("arrivals_per_day must be in [0, 1000]"),
            "{error}"
        );
    }

    #[test]
    fn out_of_range_requests_per_vm_per_minute_is_rejected() {
        let ceiling = ExperimentConfig::MAX_REQUESTS_PER_VM_PER_MINUTE;
        assert_workload_rejected(
            "requests_per_vm_per_minute",
            &[
                1e12,
                f64::NAN,
                f64::INFINITY,
                -1.0,
                ceiling * (1.0 + f64::EPSILON),
            ],
            |c, v| c.requests_per_vm_per_minute = v,
        );
    }

    #[test]
    fn more_endpoints_than_servers_are_rejected() {
        assert_workload_rejected("endpoint_count", &[9.0, 1e6], |c, v| {
            c.endpoint_count = v as usize;
        });
    }

    #[test]
    fn workload_shapes_at_their_bounds_pass_both_entry_points() {
        let bounds: [fn(&mut ExperimentConfig); 6] = [
            |c| c.initial_occupancy = 0.0,
            |c| (c.initial_occupancy, c.saas_fraction) = (1.0, 1.0),
            |c| c.saas_fraction = 0.0,
            |c| c.arrivals_per_day = Some(RequestFabricConfig::MAX_RATE_SCALE),
            |c| c.requests_per_vm_per_minute = ExperimentConfig::MAX_REQUESTS_PER_VM_PER_MINUTE,
            |c| c.endpoint_count = c.server_count(),
        ];
        for set in bounds {
            let mut config = ExperimentConfig::small_smoke_test()
                .with_request_fabric(RequestFabricConfig::default());
            set(&mut config);
            config.validate().expect("a bound is valid");
            // A two-site fleet at arrival scale 1 generates the base's own stream (at the
            // default scale 2, arrivals at their ceiling would double past it).
            let mut fleet = FleetConfig::evaluation(config, 2);
            fleet.arrival_scale = 1.0;
            fleet.check().expect("a bound is valid");
        }
    }

    #[test]
    fn no_endpoint_is_rejected() {
        assert_workload_rejected("endpoint_count", &[0.0], |c, v| {
            c.endpoint_count = v as usize;
        });
        let error = ExperimentConfig {
            endpoint_count: 0,
            ..ExperimentConfig::small_smoke_test()
        }
        .validate()
        .unwrap_err();
        assert!(
            error
                .to_string()
                .contains("endpoint_count must be in [1, 8], got 0"),
            "{error}"
        );
    }

    #[test]
    fn arrival_scale_past_the_arrival_ceiling_is_rejected_with_the_fabric_off() {
        // The 8-server config asks for 0.9 × 8 initial VMs and one arrival a day, under a
        // ceiling of 1000: a scale of 1e15 or f64::MAX passes the finite-and-positive test
        // but not the products. Checked only; the stream is never built.
        let base = ExperimentConfig::small_smoke_test();
        assert!(base.request_fabric.is_none());
        for scale in [1e15, f64::MAX] {
            let mut fleet = FleetConfig::evaluation(base.clone(), 2);
            fleet.arrival_scale = scale;
            assert_eq!(
                fleet.check().unwrap_err(),
                ScenarioError::InvalidWorkload {
                    field: "initial_occupancy × servers × arrival_scale",
                    value: 8.0 * 0.9 * scale,
                    min: 0.0,
                    max: 1000.0,
                }
            );
        }
        // Daily arrivals at their ceiling pass at scale 1 and fail doubled.
        let mut fleet = FleetConfig::evaluation(base, 2);
        fleet.base.arrivals_per_day = Some(1000.0);
        fleet.arrival_scale = 1.0;
        fleet.check().expect("arrivals at the ceiling are valid");
        fleet.arrival_scale = 2.0;
        assert_eq!(
            fleet.check().unwrap_err(),
            ScenarioError::InvalidWorkload {
                field: "arrivals_per_day × arrival_scale",
                value: 2000.0,
                min: 0.0,
                max: 1000.0,
            }
        );
    }

    #[test]
    fn infinite_arrival_scale_is_rejected() {
        let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 2);
        fleet.arrival_scale = f64::INFINITY;
        let error = fleet.check().unwrap_err();
        assert_eq!(
            error,
            ScenarioError::NonPositiveArrivalScale {
                scale: f64::INFINITY
            }
        );
        assert!(error.to_string().contains("finite and positive"));
    }

    #[test]
    fn rate_scale_above_the_ceiling_is_rejected() {
        // A huge finite scale would never finish generating a step.
        for scale in [
            1e12,
            RequestFabricConfig::MAX_RATE_SCALE * (1.0 + f64::EPSILON),
        ] {
            assert_fabric_rejected(fabric(scale), |e| {
                *e == ScenarioError::InvalidRateScale { scale }
            });
        }
        let error = ScenarioError::InvalidRateScale { scale: 1e12 };
        assert!(error.to_string().contains("in [0, 1000]"), "{error}");
    }

    #[test]
    fn fleet_rate_scale_times_arrival_scale_above_the_ceiling_is_rejected() {
        // Each factor is in range; the fleet generator's product is not.
        let mut fleet = FleetConfig::evaluation(
            ExperimentConfig::small_smoke_test().with_request_fabric(fabric(500.0)),
            4,
        );
        fleet.base.validate().expect("the base alone is valid");
        assert_eq!(fleet.arrival_scale, 4.0);
        assert_eq!(
            fleet.check().unwrap_err(),
            ScenarioError::InvalidRateScale { scale: 2000.0 }
        );
        // Exactly at the ceiling passes.
        fleet.arrival_scale = 2.0;
        fleet.check().expect("a product at the ceiling is valid");
    }

    #[test]
    fn fleet_rate_scale_overflowing_the_arrival_scale_is_rejected() {
        // Each factor is finite and in range; the fleet generator's product is not.
        let ceiling = RequestFabricConfig::MAX_RATE_SCALE;
        let mut fleet = FleetConfig::evaluation(
            ExperimentConfig::small_smoke_test().with_request_fabric(fabric(ceiling)),
            2,
        );
        fleet.arrival_scale = f64::MAX;
        fleet.base.validate().expect("the base alone is valid");
        assert_eq!(
            fleet.check().unwrap_err(),
            ScenarioError::InvalidRateScale {
                scale: f64::INFINITY
            }
        );
    }

    #[test]
    fn shares_are_ignored_by_policies_that_do_not_split_on_them() {
        // A Headroom fleet with all-zero shares is valid: shares only weight round-robin.
        let mut fleet = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 2);
        for site in &mut fleet.sites {
            site.arrival_share = 0.0;
        }
        fleet.check().expect("headroom ignores shares");
        fleet
            .clone()
            .with_geo(GeoPolicy::Pinned(0))
            .check()
            .expect("pinned ignores shares");
    }

    #[test]
    fn fleet_config_round_trips_through_json() {
        for geo in [
            GeoPolicy::Pinned(1),
            GeoPolicy::RoundRobin,
            GeoPolicy::Headroom,
        ] {
            let fleet =
                FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 3).with_geo(geo);
            let json = serde_json::to_string(&fleet).expect("serialize");
            let back: FleetConfig = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, fleet);
            // Reproducible artifact: re-serializing the round-tripped value is stable.
            assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
        }
    }

    #[test]
    fn fleet_arrival_stream_scales_and_matches_the_single_dc_stream_at_one() {
        let config = ExperimentConfig::small_smoke_test();
        let catalog = config.endpoint_catalog();
        let single = config.vm_stream(&catalog, 1.0);
        let again = config.vm_stream(&catalog, 1.0);
        assert_eq!(single, again, "stream generation must be deterministic");
        let tripled = config.vm_stream(&catalog, 3.0);
        assert!(
            tripled.len() > single.len() * 2,
            "scale must grow the stream"
        );
    }

    #[test]
    fn oversubscription_adds_racks_but_keeps_budgets() {
        let base = ExperimentConfig::real_cluster_hour(Policy::Baseline);
        let over = base.clone().with_oversubscription(0.4);
        assert!(over.server_count() > base.server_count());
        // Budgets stay roughly the same: provisioning fraction × racks is constant.
        let base_budget = base.layout.racks_per_row as f64 * base.layout.row_power_provisioning;
        let over_budget = over.layout.racks_per_row as f64 * over.layout.row_power_provisioning;
        assert!((base_budget - over_budget).abs() < 1e-9);
        // Zero oversubscription changes nothing.
        let same = base.clone().with_oversubscription(0.0);
        assert_eq!(same.server_count(), base.server_count());
    }
}
