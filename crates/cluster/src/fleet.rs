//! The multi-datacenter fleet simulation loop.
//!
//! A [`FleetSimulator`] owns N datacenter cells — each a full [`ClusterSimulator`] with
//! its own layout, climate, weather seed, power hierarchy and local TAPAS control loop —
//! plus the geo placement stage that splits each step's VM arrivals across sites. One
//! fleet step performs, in order:
//!
//! 0. **Price injection** — write each site's exogenous grid price for this step (dense
//!    per-site curves resolved once from the scenario) into its [`SiteSignals`] slot.
//! 1. **Arrival routing** — pop the arrivals due this step from the fleet-wide stream (in
//!    arrival order) and assign each to a site: pinned, weighted round-robin
//!    ([`workload::arrivals::WeightedSplitter`]) or TAPAS geo routing
//!    ([`tapas::geo::GeoPlacement`] over the per-site [`SiteSignals`] refreshed from the
//!    previous step's telemetry — power headroom, thermal slack, load, emergencies — plus
//!    the current step's grid price, weighed across the fleet's price spread).
//! 2. **Cell stepping** — advance every cell one step. Cells are independent within a
//!    step, so with the `parallel` feature they run on scoped threads (the outer
//!    across-datacenter parallel dimension) with bit-identical results.
//! 3. **Signal refresh** — summarize each cell's dense telemetry grids into its
//!    [`SiteSignals`] slot, in fixed site order.
//!
//! The steady-state fleet loop allocates no maps: the stream is a `VecDeque`, signals and
//! routing counters live in pre-sized site-ordinal vectors, and each cell's step loop is
//! allocation-free per the dense-telemetry contract.

use crate::experiment::{FleetConfig, GeoPolicy, RequestFabricConfig};
use crate::fabric::{ArrivalBuffer, FabricGenerator, MS_PER_MINUTE};
use crate::metrics::{FleetReport, RunReport};
use crate::scenario::ResolvedTimeline;
use crate::simulator::ClusterSimulator;
use simkit::profile::{StepPhase, StepProfile};
use simkit::time::{SimClock, SimTime};
use std::collections::VecDeque;
use tapas::geo::{GeoPlacement, SiteSignals};
use workload::arrivals::WeightedSplitter;
use workload::trace::{TraceError, TraceRecord};
use workload::vm::Vm;

/// The multi-datacenter fleet simulator.
#[derive(Debug, Clone)]
pub struct FleetSimulator {
    config: FleetConfig,
    cells: Vec<ClusterSimulator>,
    /// Fleet-wide arrival stream, sorted by arrival time.
    stream: VecDeque<Vm>,
    /// Per-site signals, refreshed after every step (site ordinal = index).
    signals: Vec<SiteSignals>,
    geo: GeoPlacement,
    splitter: WeightedSplitter,
    /// VM arrivals routed to each site so far.
    routed: Vec<u64>,
    emergency_diversions: u64,
    /// Fleet-wide request-fabric generator (None unless the base experiment opts in, or
    /// when a replayed trace preloaded the queue instead).
    fabric_generator: Option<FabricGenerator>,
    /// The fleet-wide fabric stream, drained by millisecond timestamp (FIFO on ties).
    fabric_queue: ArrivalBuffer,
    /// The base scenario's resolved timeline, driving fleet-wide fabric demand shaping.
    /// (Per-site demand events still shape each cell's *legacy* serving path; the fabric
    /// stream is generated once fleet-wide from the base view.)
    base_timeline: ResolvedTimeline,
    /// Round-robin splitter for per-request routing — a separate instance from the VM
    /// splitter so request traffic never perturbs the VM round-robin phase.
    request_splitter: WeightedSplitter,
    /// Wall-clock time of the fleet-level fabric phases (filled only after
    /// [`Self::enable_phase_profile`]; never part of the report).
    profile: StepProfile,
}

impl FleetSimulator {
    /// Builds a fleet simulator: one cell per site plus the fleet-wide arrival stream.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FleetConfig::check`].
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        config.check().unwrap_or_else(|error| panic!("{error}"));
        let catalog = config.base.endpoint_catalog();
        let stream: VecDeque<Vm> =
            config.base.vm_stream(&catalog, config.arrival_scale).into();
        let cells: Vec<ClusterSimulator> = (0..config.sites.len())
            .map(|site| ClusterSimulator::fleet_cell(config.site_experiment(site)))
            .collect();
        // Each cell already resolved its site view of the scenario into a dense
        // timeline; grid prices are read from there rather than resolved a second time.
        let mut signals: Vec<SiteSignals> =
            cells.iter().map(ClusterSimulator::site_signals).collect();
        for (signal, cell) in signals.iter_mut().zip(&cells) {
            signal.grid_price_per_mwh = cell.timeline().grid_price_at(SimTime::ZERO);
        }
        // Shares are only meaningful (and only validated) under round-robin; other
        // policies get a uniform splitter that is never consulted.
        let shares: Vec<f64> = if config.geo == GeoPolicy::RoundRobin {
            config.sites.iter().map(|s| s.arrival_share).collect()
        } else {
            vec![1.0; cells.len()]
        };
        let routed = vec![0; cells.len()];
        // The fabric stream is generated once fleet-wide, from the base seed and base
        // catalog, and scaled with the fleet's arrival scale exactly like the VM stream
        // (for a single-site fleet both scales are 1.0 and the stream is bit-identical
        // to the one a standalone simulator generates for itself).
        let fabric_generator = config.base.request_fabric.map(|mut fabric_config| {
            fabric_config.rate_scale *= config.arrival_scale;
            FabricGenerator::new(config.base.seed, &catalog, fabric_config)
        });
        let base_timeline = config.base.resolved_timeline();
        let mut geo = GeoPlacement::default();
        geo.set_request_endpoints(catalog.len());
        Self {
            geo,
            splitter: WeightedSplitter::new(&shares),
            request_splitter: WeightedSplitter::new(&shares),
            stream,
            signals,
            routed,
            emergency_diversions: 0,
            fabric_generator,
            fabric_queue: ArrivalBuffer::new(),
            base_timeline,
            profile: StepProfile::default(),
            cells,
            config,
        }
    }

    /// Builds a fleet that replays an externally supplied request trace through the
    /// fabric instead of generating a stream (the fleet-level trace-replay entry; the
    /// VM arrival stream is still generated as usual). Requests are geo-routed across
    /// sites per record exactly like generated traffic. Records may come in any
    /// timestamp order; ties replay in record order.
    ///
    /// # Errors
    /// Returns [`TraceError::UnknownEndpoint`] if a record names an endpoint outside the
    /// base experiment's catalog.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FleetConfig::check`].
    pub fn with_request_trace(
        mut config: FleetConfig,
        records: &[TraceRecord],
    ) -> Result<Self, TraceError> {
        if config.base.request_fabric.is_none() {
            config.base.request_fabric = Some(RequestFabricConfig::default());
        }
        let mut queue = ArrivalBuffer::new();
        queue.load_trace(records, config.base.endpoint_catalog().len())?;
        let mut fleet = Self::new(config);
        fleet.fabric_generator = None;
        fleet.fabric_queue = queue;
        Ok(fleet)
    }

    /// The fleet configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of datacenter cells.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.cells.len()
    }

    /// The current per-site signals (exposed for tests and examples).
    #[must_use]
    pub fn signals(&self) -> &[SiteSignals] {
        &self.signals
    }

    /// Starts filling the phase profile: the fleet's fabric generation and handoff, and
    /// in every cell the fabric's offer, advance and record phases and the rest of the
    /// cell step. Profiling reads the clock only; it changes no simulated value.
    pub fn enable_phase_profile(&mut self) {
        self.profile.enable();
        for cell in &mut self.cells {
            cell.enable_phase_profile();
        }
    }

    /// Wall-clock nanoseconds per step phase since [`Self::enable_phase_profile`], cell
    /// phases summed over sites; the step count is the fleet's.
    #[must_use]
    pub fn phase_profile(&self) -> StepProfile {
        let mut profile = self.profile;
        for cell in &self.cells {
            profile.add_phases(&cell.phase_profile());
        }
        profile
    }

    /// Advances the whole fleet by one step at simulated time `now`.
    pub fn step(&mut self, now: SimTime) {
        // 0. Inject the step's exogenous grid prices from the cells' resolved timelines
        //    (telemetry fields keep the values of the previous step). With a
        //    price-event-free scenario every site pays the base price, the router's
        //    price spread is zero, and routing is bit-identical to a fleet without the
        //    price signal.
        for (signal, cell) in self.signals.iter_mut().zip(&self.cells) {
            signal.grid_price_per_mwh = cell.timeline().grid_price_at(now);
        }

        // 1. Route this step's arrivals using the signals of the previous step.
        self.geo.begin_step(self.cells.len());
        while let Some(front) = self.stream.front() {
            if front.arrival > now {
                break;
            }
            let vm = self.stream.pop_front().expect("front checked");
            let site = match self.config.geo {
                GeoPolicy::Pinned(site) => site,
                GeoPolicy::RoundRobin => self.splitter.next_site(),
                GeoPolicy::Headroom => {
                    let site = self.geo.choose(&self.signals);
                    if !self.signals[site].in_emergency()
                        && self.signals.iter().any(SiteSignals::in_emergency)
                    {
                        self.emergency_diversions += 1;
                    }
                    site
                }
            };
            self.routed[site] += 1;
            self.cells[site].enqueue(vm);
        }

        // 1b. Generate this step's fabric requests fleet-wide and route them per request
        //     (in millisecond-timestamp order, FIFO on ties) into the cells' inboxes.
        //     Routing happens before the cells step, so serial and `parallel` execution
        //     see identical per-cell event sequences.
        let mut mark = self.profile.mark();
        if let Some(generator) = self.fabric_generator.as_mut() {
            let queue = &mut self.fabric_queue;
            generator.generate_with(now, self.config.base.step, &self.base_timeline, |t, r| {
                queue.push(t, r);
            });
            mark = self.profile.lap(StepPhase::FabricGenerate, mark);
        }
        if !self.fabric_queue.is_empty() {
            let end_ms =
                (now.as_minutes() + self.config.base.step.as_minutes()) * MS_PER_MINUTE;
            let geo_policy = self.config.geo;
            // Publish each site's effective per-endpoint serving capacity (from the
            // previous step, like every other routing signal) for the failover spread.
            for (site, cell) in self.cells.iter().enumerate() {
                self.geo.set_request_capacity(site, cell.fabric_effective_replicas());
            }
            let cells = &mut self.cells;
            let signals = &self.signals;
            let geo = &mut self.geo;
            let request_splitter = &mut self.request_splitter;
            self.fabric_queue.drain_before(end_ms, |time_ms, request| {
                let site = match geo_policy {
                    GeoPolicy::Pinned(site) => site,
                    GeoPolicy::RoundRobin => request_splitter.next_site(),
                    GeoPolicy::Headroom => {
                        geo.choose_request(signals, request.endpoint as usize)
                    }
                };
                cells[site].deliver_request(time_ms, request);
            });
            self.profile.lap(StepPhase::FabricHandoff, mark);
        }

        // 2. Step every cell (the outer across-datacenter parallel dimension).
        step_cells(&mut self.cells, now);

        // 3. Refresh the per-site signals in fixed site order. Cells report price-less
        //    telemetry; the step's exogenous price is re-read from the timelines.
        for (signal, cell) in self.signals.iter_mut().zip(&self.cells) {
            *signal = cell.site_signals();
            signal.grid_price_per_mwh = cell.timeline().grid_price_at(now);
        }
        self.profile.count_step();
    }

    /// Runs the whole fleet experiment and returns the fleet report.
    #[must_use]
    pub fn run(mut self) -> FleetReport {
        let mut clock = SimClock::new(self.config.base.step, self.config.base.duration);
        loop {
            let now = clock.now();
            self.step(now);
            if clock.tick().is_none() {
                break;
            }
        }
        let sites: Vec<RunReport> =
            self.cells.into_iter().map(ClusterSimulator::into_report).collect();
        FleetReport {
            geo: self.config.geo.label(),
            site_names: self.config.sites.iter().map(|s| s.name.clone()).collect(),
            sites,
            vms_routed: self.routed,
            emergency_diversions: self.emergency_diversions,
        }
    }
}

/// Steps every cell once. With the `parallel` feature and at least two cells and cores,
/// cells run on scoped threads; cells are fully independent within a step (routing
/// happened before, signal refresh happens after, in fixed site order), so the result is
/// bit-identical to the serial order.
#[cfg(feature = "parallel")]
fn step_cells(cells: &mut [ClusterSimulator], now: SimTime) {
    let threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cells.len() < 2 || threads < 2 {
        for cell in cells {
            cell.step_at(now);
        }
        return;
    }
    // Chunk cells across at most `threads` workers so large fleets don't oversubscribe
    // the scheduler with one thread per datacenter.
    let chunk = cells.len().div_ceil(threads.min(cells.len()));
    std::thread::scope(|scope| {
        for group in cells.chunks_mut(chunk) {
            scope.spawn(move || {
                for cell in group {
                    cell.step_at(now);
                }
            });
        }
    });
}

#[cfg(not(feature = "parallel"))]
fn step_cells(cells: &mut [ClusterSimulator], now: SimTime) {
    for cell in cells {
        cell.step_at(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, SiteConfig};
    use dc_sim::weather::Climate;
    use simkit::events::EventKind;
    use tapas::policy::Policy;

    fn smoke_fleet(sites: usize) -> FleetConfig {
        let mut base = ExperimentConfig::small_smoke_test();
        base.policy = Policy::Tapas;
        FleetConfig::evaluation(base, sites)
    }

    #[test]
    fn three_site_fleet_smoke_run_records_per_site_metrics() {
        let report = FleetSimulator::new(smoke_fleet(3)).run();
        assert_eq!(report.site_count(), 3);
        assert_eq!(report.geo, "Headroom");
        for site in &report.sites {
            assert_eq!(site.max_gpu_temp.len(), 24 + 1);
            assert!(site.peak_temperature_c() > 20.0);
        }
        // The fleet-sized stream spreads across every site.
        assert!(report.vms_routed.iter().all(|&n| n > 0), "{:?}", report.vms_routed);
        assert!(report.total_requests_served() > 0);
        assert!(report.sites.iter().any(|s| s.events.count(EventKind::VmPlaced) > 0));
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = FleetSimulator::new(smoke_fleet(3)).run();
        let b = FleetSimulator::new(smoke_fleet(3)).run();
        assert_eq!(a.vms_routed, b.vms_routed);
        assert_eq!(a.emergency_diversions, b.emergency_diversions);
        for (site_a, site_b) in a.sites.iter().zip(&b.sites) {
            assert_eq!(site_a.max_gpu_temp.values(), site_b.max_gpu_temp.values());
            assert_eq!(site_a.requests_served, site_b.requests_served);
        }
        let json_a = serde_json::to_string(&a).expect("serialize");
        let json_b = serde_json::to_string(&b).expect("serialize");
        assert_eq!(json_a, json_b, "fleet reports must serialize identically");
    }

    #[test]
    fn round_robin_split_follows_the_arrival_shares() {
        let mut fleet = smoke_fleet(2).with_geo(GeoPolicy::RoundRobin);
        fleet.sites[0].arrival_share = 3.0;
        fleet.sites[1].arrival_share = 1.0;
        let report = FleetSimulator::new(fleet).run();
        let [a, b] = [report.vms_routed[0], report.vms_routed[1]];
        assert!(a + b > 0);
        // Smooth weighted round-robin tracks the 3:1 shares to within one round.
        assert!(a.abs_diff(3 * b) <= 4, "split {a}:{b} should track 3:1");
    }

    #[test]
    fn pinned_geo_routes_everything_to_one_site() {
        let report =
            FleetSimulator::new(smoke_fleet(3).with_geo(GeoPolicy::Pinned(1))).run();
        assert_eq!(report.vms_routed[0], 0);
        assert_eq!(report.vms_routed[2], 0);
        assert!(report.vms_routed[1] > 0);
        // The untouched sites still simulate (idle physics) but serve nothing.
        assert_eq!(report.sites[0].requests_served, 0);
        assert!(report.sites[1].requests_served > 0);
    }

    #[test]
    fn single_site_fleet_wraps_the_plain_simulator() {
        let base = ExperimentConfig::small_smoke_test();
        let fleet = FleetSimulator::new(FleetConfig::single_site(base.clone())).run();
        let single = ClusterSimulator::new(base).run();
        assert_eq!(
            serde_json::to_string(&fleet.sites[0]).expect("serialize"),
            serde_json::to_string(&single).expect("serialize"),
            "a 1-site fleet must reproduce the single-datacenter run bit for bit"
        );
        assert_eq!(fleet.total_requests_served(), single.requests_served);
    }

    #[test]
    fn heterogeneous_site_layouts_are_supported() {
        let mut fleet = smoke_fleet(2);
        // Site 1 gets twice the racks of site 0.
        fleet.sites[1].layout.racks_per_row *= 2;
        let report = FleetSimulator::new(fleet).run();
        assert_eq!(report.site_count(), 2);
        assert!(report.vms_routed[1] > 0);
    }

    #[test]
    fn fleet_signals_reflect_site_state_after_a_step() {
        let mut sim = FleetSimulator::new(smoke_fleet(3));
        let cold: Vec<u32> = sim.signals().iter().map(|s| s.free_servers).collect();
        assert!(cold.iter().all(|&f| f == 8), "all sites start fully free: {cold:?}");
        sim.step(SimTime::ZERO);
        let signals = sim.signals();
        assert_eq!(signals.len(), 3);
        // After the initial placement wave, free capacity dropped somewhere and the
        // telemetry is live (cold-start signals report zero load).
        assert!(signals.iter().any(|s| s.free_servers < 8));
        assert!(signals.iter().all(|s| s.power_headroom_kw > 0.0));
        assert!(signals.iter().any(|s| s.dc_load > 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_fleet_is_rejected() {
        let _ = FleetSimulator::new(FleetConfig {
            base: ExperimentConfig::small_smoke_test(),
            sites: Vec::<SiteConfig>::new(),
            geo: GeoPolicy::RoundRobin,
            arrival_scale: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "rate scale must be in [0, 1000], got NaN")]
    fn nan_fabric_rate_fails_the_config_check_not_the_generator() {
        let mut fleet = smoke_fleet(2);
        fleet.base.request_fabric =
            Some(RequestFabricConfig { rate_scale: f64::NAN, ..RequestFabricConfig::default() });
        let _ = FleetSimulator::new(fleet);
    }

    #[test]
    fn distinct_climates_produce_distinct_site_weather() {
        use dc_sim::weather::WeatherModel;
        let fleet = smoke_fleet(3);
        assert_eq!(fleet.sites[0].climate, Climate::hot());
        assert_eq!(fleet.sites[2].climate, Climate::cold());
        let mut hot = WeatherModel::new(fleet.sites[0].climate, fleet.sites[0].seed);
        let mut cold = WeatherModel::new(fleet.sites[2].climate, fleet.sites[2].seed);
        let hot_mean: f64 = (0..48)
            .map(|h| hot.outside_temp(SimTime::from_hours(h)).value())
            .sum::<f64>()
            / 48.0;
        let cold_mean: f64 = (0..48)
            .map(|h| cold.outside_temp(SimTime::from_hours(h)).value())
            .sum::<f64>()
            / 48.0;
        assert!(hot_mean > cold_mean + 10.0);
    }
}
