//! The discrete-time cluster simulation loop.
//!
//! One step (1–10 simulated minutes) performs, in order: VM retirements and placements,
//! endpoint request routing, instance reconfiguration, IaaS load replay, datacenter physics
//! evaluation (temperatures, powers, airflow, capping), metric recording, and carry-over of
//! throttling/capping effects into the next step — the same control structure the paper's
//! simulator uses (§5.1).
//!
//! # Hot-path layout
//!
//! The simulator owns an `InstanceRegistry`: a per-endpoint struct-of-arrays store of every
//! SaaS instance's runtime state (utilization, outstanding requests, recent customers,
//! configuration, cached profile figures). The registry is updated in place on VM
//! place/retire/reconfigure and mutated per routing quantum through the index the router
//! returns, so routing never rebuilds or clones snapshot lists. All carry-over state
//! (row power, aisle airflow, carry-over frequencies, row histories) lives in dense vectors
//! indexed by the id newtypes, the physics engine runs through a persistent
//! [`StepWorkspace`] whose telemetry grids (`TempGrid`, per-level `OrdinalMap`s) are
//! ordinal-aligned with those vectors, and metric recording walks the grids without any
//! map lookups — the steady-state step loop is allocation-free end to end.

use crate::experiment::{ExperimentConfig, RequestFabricConfig};
use crate::fabric::{FabricRequest, RequestFabric};
use crate::metrics::RunReport;
use crate::scenario::ResolvedTimeline;
use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::weather::WeatherModel;
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::request::{CustomerId, InferenceRequest, RequestId};
use simkit::events::EventKind;
use simkit::profile::{StepPhase, StepProfile};
use simkit::rng::SimRng;
use simkit::time::{SimClock, SimTime};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::collections::VecDeque;
use std::sync::Arc;
use tapas::configurator::{InstanceConfigurator, InstanceLimits};
use tapas::geo::SiteSignals;
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::profiles::ProfileStore;
use tapas::routing::{
    BaselineRouter, CandidateView, PreparedRoutingContext, RecentIndex, RecentWindow, RouteKeys,
    RouterScratch, RoutingContext, TapasRouter,
};
use tapas::state::{ClusterState, VmSlotMap};
use workload::diurnal::DiurnalPattern;
use workload::endpoints::{EndpointCatalog, EndpointId};
use workload::iaas::IaasLoadModel;
use workload::trace::{TraceError, TraceRecord};
use workload::vm::{IaasCustomerId, Vm, VmId, VmKind};

/// Mean tokens processed per request (prompt + output) used to convert request rates into
/// token throughput demands.
const MEAN_TOKENS_PER_REQUEST: f64 = 712.0;
/// Latency factor assigned to requests on an overloaded instance.
const OVERLOAD_LATENCY_FACTOR: f64 = 12.0;
/// The SLO expressed as a latency factor over the unloaded latency.
const SLO_LATENCY_FACTOR: f64 = 5.0;
/// Goodput assumed for configurations missing from the profile sweep (tokens/s).
const FALLBACK_GOODPUT: f64 = 1000.0;

/// Struct-of-arrays runtime state of one endpoint's SaaS instances.
///
/// Column `i` across all vectors describes one instance. The router consumes the columns
/// directly as a [`CandidateView`]; per-quantum updates mutate them in place.
#[derive(Debug, Clone, Default)]
struct EndpointPool {
    vm: Vec<VmId>,
    server: Vec<dc_sim::ids::ServerId>,
    outstanding: Vec<u32>,
    utilization: Vec<f64>,
    in_transition: Vec<bool>,
    recent: RecentIndex,
    config: Vec<InstanceConfig>,
    /// Profiled goodput of `config` (NaN when the configuration was not in the sweep).
    goodput: Vec<f64>,
    /// Saturated per-GPU utilization of `config`'s decode phase.
    sat_util: Vec<f64>,
    /// Memory-boundedness of `config`'s decode phase.
    boundedness: Vec<f64>,
    transition_until: Vec<Option<SimTime>>,
    /// Requests offered to the instance during the current step.
    offered: Vec<f64>,
    /// Unclamped demand pressure: last step's offered load over effective goodput,
    /// saturated at 1.5. Equals `utilization` below 1.0, but keeps signalling excess
    /// demand above it so the configurator can upsize during surges.
    pressure: Vec<f64>,
}

impl EndpointPool {
    fn len(&self) -> usize {
        self.vm.len()
    }

    fn view(&self) -> CandidateView<'_> {
        CandidateView {
            vm: &self.vm,
            server: &self.server,
            outstanding: &self.outstanding,
            utilization: &self.utilization,
            in_transition: &self.in_transition,
            recent: self.recent.windows(),
        }
    }

    fn swap_remove(&mut self, index: usize) {
        self.vm.swap_remove(index);
        self.server.swap_remove(index);
        self.outstanding.swap_remove(index);
        self.utilization.swap_remove(index);
        self.in_transition.swap_remove(index);
        self.recent.swap_remove(index);
        self.config.swap_remove(index);
        self.goodput.swap_remove(index);
        self.sat_util.swap_remove(index);
        self.boundedness.swap_remove(index);
        self.transition_until.swap_remove(index);
        self.offered.swap_remove(index);
        self.pressure.swap_remove(index);
    }
}

/// The simulator's persistent, incrementally updated store of SaaS instance runtime state.
#[derive(Debug, Clone, Default)]
pub(crate) struct InstanceRegistry {
    pools: Vec<EndpointPool>,
    endpoint_of: VmSlotMap,
    position_of: VmSlotMap,
    total: usize,
}

impl InstanceRegistry {
    fn lookup(&self, vm: VmId) -> Option<(usize, usize)> {
        let endpoint = self.endpoint_of.get(vm)? as usize;
        let position = self.position_of.get(vm)? as usize;
        Some((endpoint, position))
    }

    fn insert(
        &mut self,
        vm: VmId,
        server: dc_sim::ids::ServerId,
        endpoint: EndpointId,
        config: InstanceConfig,
        profiles: &ProfileStore,
    ) {
        let index = endpoint.0 as usize;
        if index >= self.pools.len() {
            self.pools.resize_with(index + 1, EndpointPool::default);
        }
        let pool = &mut self.pools[index];
        let position = pool.len();
        pool.vm.push(vm);
        pool.server.push(server);
        pool.outstanding.push(0);
        pool.utilization.push(0.0);
        pool.in_transition.push(false);
        pool.recent.add(RecentWindow::new());
        pool.config.push(config);
        let (goodput, sat_util, boundedness) = profile_figures(profiles, &config);
        pool.goodput.push(goodput);
        pool.sat_util.push(sat_util);
        pool.boundedness.push(boundedness);
        pool.transition_until.push(None);
        pool.offered.push(0.0);
        pool.pressure.push(0.0);
        self.endpoint_of.insert(vm, index as u32);
        self.position_of.insert(vm, position as u32);
        self.total += 1;
    }

    fn remove(&mut self, vm: VmId) {
        let Some((endpoint, position)) = self.lookup(vm) else {
            return;
        };
        self.endpoint_of.remove(vm);
        self.position_of.remove(vm);
        let pool = &mut self.pools[endpoint];
        pool.swap_remove(position);
        if let Some(&moved) = pool.vm.get(position) {
            self.position_of.insert(moved, position as u32);
        }
        self.total -= 1;
    }

    fn set_config(
        &mut self,
        vm: VmId,
        config: InstanceConfig,
        transition_until: Option<SimTime>,
        profiles: &ProfileStore,
    ) {
        if let Some((endpoint, position)) = self.lookup(vm) {
            let pool = &mut self.pools[endpoint];
            pool.config[position] = config;
            let (goodput, sat_util, boundedness) = profile_figures(profiles, &config);
            pool.goodput[position] = goodput;
            pool.sat_util[position] = sat_util;
            pool.boundedness[position] = boundedness;
            if transition_until.is_some() {
                pool.transition_until[position] = transition_until;
            }
        }
    }

    /// Refreshes per-step flags and resets offered-load accumulators.
    fn begin_step(&mut self, now: SimTime) {
        for pool in &mut self.pools {
            for i in 0..pool.len() {
                pool.in_transition[i] =
                    pool.transition_until[i].map(|until| until > now).unwrap_or(false);
                pool.offered[i] = 0.0;
            }
        }
    }

    /// Total number of registered instances (used by consistency checks).
    #[cfg(test)]
    fn instance_count(&self) -> usize {
        self.total
    }

    fn mean_utilization(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .pools
            .iter()
            .flat_map(|pool| pool.utilization.iter())
            .sum();
        sum / self.total as f64
    }
}

/// Cached profile figures for a configuration: `(goodput, saturated GPU utilization,
/// memory boundedness)`. Goodput is NaN when the configuration was not profiled so call
/// sites can apply their own fallback.
fn profile_figures(profiles: &ProfileStore, config: &InstanceConfig) -> (f64, f64, f64) {
    match profiles.profile_for(config) {
        Some(profile) => (
            profile.goodput_tokens_per_s,
            profile.decode.gpu_utilization,
            profile.decode.memory_boundedness,
        ),
        None => (f64::NAN, 0.6, 0.7),
    }
}

/// The end-to-end cluster simulator.
#[derive(Debug, Clone)]
pub struct ClusterSimulator {
    config: ExperimentConfig,
    /// The config's scenario resolved once into dense per-step vectors (weather overlay,
    /// demand multipliers, merged failure schedule); the step loop only indexes it.
    timeline: ResolvedTimeline,
    dc: Datacenter,
    profiles: Arc<ProfileStore>,
    state: ClusterState,
    weather: WeatherModel,
    catalog: EndpointCatalog,
    iaas_model: IaasLoadModel,
    /// Scratch: each IaaS customer's shared load this step, indexed by customer id.
    iaas_customer_load: Vec<f64>,
    /// Per-server wobble of the IaaS VM on it (`IaasLoadModel::vm_wobble`), written when
    /// the VM lands; stale on other servers and never read there.
    iaas_wobble: Vec<f64>,
    /// Diurnal pattern per endpoint, indexed by `EndpointId`.
    endpoint_patterns: Vec<DiurnalPattern>,
    pending: VecDeque<Vm>,
    registry: InstanceRegistry,
    planner: PlacementPlanner,
    tapas_placement: TapasPlacement,
    router_tapas: TapasRouter,
    /// Infrastructure state the router consults; row power and aisle airflow are carried
    /// over from the previous step's physics outcome.
    routing_context: RoutingContext,
    prepared_routing: PreparedRoutingContext,
    router_scratch: RouterScratch,
    /// Per-step TAPAS risk flags and decision keys of the endpoint being routed.
    risk_flags: Vec<bool>,
    route_keys: RouteKeys,
    carryover_freq: Vec<f64>,
    carryover_next: Vec<f64>,
    prev_dc_load: f64,
    /// Observed row power history per row, for the weekly template refinement.
    row_history: Vec<Vec<(SimTime, f64)>>,
    /// SaaS instance count per row (for headroom sharing in reconfiguration), kept
    /// current on every SaaS placement and retirement.
    saas_per_row: Vec<u32>,
    last_refinement: SimTime,
    rng: SimRng,
    next_request_id: u64,
    step_input: StepInput,
    workspace: StepWorkspace,
    /// The opt-in per-request serving overlay (None unless the experiment enables it).
    fabric: Option<RequestFabric>,
    /// Scratch: per-endpoint placed-instance counts handed to the fabric each step.
    fabric_replicas: Vec<u32>,
    /// Worst fabric pressure across endpoints after the last served step (clamped to
    /// the pools' 1.5 saturation ceiling; `0.0` with the fabric off). Feeds
    /// [`SiteSignals::request_pressure`] so fleet request routing diverts away from
    /// sites whose schedulers are saturated (e.g. under replica failures).
    fabric_pressure: f64,
    /// Wall-clock time of the step outside the fabric's own phases (filled only after
    /// [`Self::enable_phase_profile`]; never part of the report).
    profile: StepProfile,
    report: RunReport,
}

impl ClusterSimulator {
    /// Builds a simulator for an experiment configuration, generating its own VM arrival
    /// stream.
    ///
    /// # Panics
    /// Panics with the [`crate::scenario::ScenarioError`]'s message if the composed
    /// scenario fails [`ExperimentConfig::validate`].
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        let catalog = config.endpoint_catalog();
        let pending: VecDeque<Vm> = config.vm_stream(&catalog, 1.0).into();
        Self::build(config, catalog, pending, true)
    }

    /// Builds a fleet cell: identical to [`Self::new`] except that the arrival queue
    /// starts empty — the fleet step loop generates the stream once fleet-wide and feeds
    /// each cell its routed share through [`Self::enqueue`].
    #[must_use]
    pub(crate) fn fleet_cell(config: ExperimentConfig) -> Self {
        let catalog = config.endpoint_catalog();
        // Fleet cells never self-generate fabric traffic: the fleet loop generates the
        // stream once fleet-wide and routes per request into each cell's inbox.
        Self::build(config, catalog, VecDeque::new(), false)
    }

    /// Builds a simulator that replays an externally supplied VM arrival trace instead
    /// of generating one — the trace-ingestion hook for real workloads. `arrivals` must
    /// be sorted by non-decreasing arrival time (the order
    /// [`ExperimentConfig::vm_stream`] produces).
    ///
    /// # Panics
    /// Panics with the [`crate::scenario::ScenarioError`]'s message if the composed
    /// scenario fails [`ExperimentConfig::validate`].
    #[must_use]
    pub fn with_arrivals(config: ExperimentConfig, arrivals: Vec<Vm>) -> Self {
        debug_assert!(
            arrivals.windows(2).all(|pair| pair[0].arrival <= pair[1].arrival),
            "replayed arrival traces must be sorted by arrival time"
        );
        let catalog = config.endpoint_catalog();
        Self::build(config, catalog, arrivals.into(), true)
    }

    /// Builds a simulator that replays an externally supplied *request* trace through the
    /// request fabric (the inference-side trace-ingestion hook, mirroring
    /// [`Self::with_arrivals`] on the VM side). The fabric is enabled with its default
    /// configuration if the experiment did not opt in explicitly; the VM arrival stream
    /// is still generated as in [`Self::new`] so the trace has instances to land on.
    ///
    /// # Errors
    /// Returns [`TraceError::UnknownEndpoint`] if a record names an endpoint outside the
    /// experiment's catalog.
    ///
    /// # Panics
    /// Panics with the [`crate::scenario::ScenarioError`]'s message if the composed
    /// scenario fails [`ExperimentConfig::validate`].
    pub fn with_request_trace(
        mut config: ExperimentConfig,
        records: &[TraceRecord],
    ) -> Result<Self, TraceError> {
        if config.request_fabric.is_none() {
            config.request_fabric = Some(RequestFabricConfig::default());
        }
        let catalog = config.endpoint_catalog();
        let pending: VecDeque<Vm> = config.vm_stream(&catalog, 1.0).into();
        let mut sim = Self::build(config, catalog, pending, false);
        sim.fabric
            .as_mut()
            .expect("request_fabric was just enabled")
            .load_trace(records)?;
        Ok(sim)
    }

    fn build(
        config: ExperimentConfig,
        catalog: EndpointCatalog,
        pending: VecDeque<Vm>,
        generate_fabric: bool,
    ) -> Self {
        // Scenarios reach here from three entry points (generated stream, replayed
        // trace, fleet cell); deserialized or hand-mutated ones may have skipped
        // `ScenarioBuilder::build`, so the event invariants are (re-)checked before
        // resolution can bake e.g. a NaN delta into the dense timeline.
        config.validate().unwrap_or_else(|error| panic!("{error}"));
        let layout = config.layout.build();
        let dc = Datacenter::new(layout, config.seed);
        let profiles = ProfileStore::offline_profiling_shared(&dc, &GpuHardware::a100());
        profiles.check().unwrap_or_else(|error| panic!("{error}"));
        let state = ClusterState::with_layout(dc.layout());
        let weather = WeatherModel::new(config.climate, config.seed);

        let iaas_model = IaasLoadModel::new(12, config.seed);
        let mut pattern_rng = SimRng::seed_from(config.seed).derive("endpoint-patterns");
        let endpoint_patterns: Vec<DiurnalPattern> = catalog
            .endpoints()
            .iter()
            .map(|e| {
                DiurnalPattern::interactive(config.seed ^ e.id.0)
                    .with_peak_hour(pattern_rng.uniform(10.0, 20.0))
            })
            .collect();

        let mut report = RunReport::new(config.policy.label(), config.duration, config.step);
        report.row_power_budget_kw = dc
            .layout()
            .rows()
            .iter()
            .map(|r| r.power_budget.value())
            .fold(0.0, f64::max);
        report.gpu_throttle_temp_c = dc.layout().servers()[0].spec.gpu_throttle_temp_c;

        let server_count = dc.layout().server_count();
        let row_count = dc.layout().rows().len();
        let aisle_count = dc.layout().aisles().len();
        let tapas_placement = TapasPlacement::default();
        let planner =
            PlacementPlanner::new(&state, dc.layout(), &profiles, tapas_placement.config.design);
        let router_tapas = TapasRouter::default();
        let routing_context = RoutingContext {
            outside_temp: Celsius::new(20.0),
            dc_load: 0.5,
            row_power: vec![Kilowatts::ZERO; row_count],
            aisle_airflow: vec![CubicFeetPerMinute::ZERO; aisle_count],
        };
        let prepared_routing =
            PreparedRoutingContext::new(&routing_context, &router_tapas.config, &profiles);
        let step_input = StepInput::idle(dc.layout(), Celsius::new(20.0));
        let workspace = StepWorkspace::for_topology(Arc::clone(dc.topology()));
        let timeline = config.resolved_timeline();
        let fabric = config
            .request_fabric
            .map(|fc| RequestFabric::new(config.seed, &catalog, fc, generate_fabric));
        Self {
            timeline,
            rng: SimRng::seed_from(config.seed).derive("cluster-sim"),
            profiles,
            state,
            weather,
            catalog,
            iaas_model,
            iaas_customer_load: Vec::new(),
            iaas_wobble: vec![1.0; server_count],
            endpoint_patterns,
            pending,
            registry: InstanceRegistry::default(),
            planner,
            tapas_placement,
            router_tapas,
            routing_context,
            prepared_routing,
            router_scratch: RouterScratch::default(),
            risk_flags: Vec::new(),
            route_keys: RouteKeys::default(),
            carryover_freq: vec![1.0; server_count],
            carryover_next: vec![1.0; server_count],
            prev_dc_load: 0.5,
            row_history: vec![Vec::new(); row_count],
            saas_per_row: vec![0; row_count],
            last_refinement: SimTime::ZERO,
            next_request_id: 0,
            step_input,
            workspace,
            fabric,
            fabric_replicas: Vec::new(),
            fabric_pressure: 0.0,
            profile: StepProfile::default(),
            report,
            dc,
            config,
        }
    }

    /// The profile store (exposed for tests and examples).
    #[must_use]
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// The datacenter under simulation.
    #[must_use]
    pub fn datacenter(&self) -> &Datacenter {
        &self.dc
    }

    /// Runs the whole experiment and returns the report.
    #[must_use]
    pub fn run(mut self) -> RunReport {
        let mut clock = SimClock::new(self.config.step, self.config.duration);
        loop {
            let now = clock.now();
            self.step(now);
            if clock.tick().is_none() {
                break;
            }
        }
        self.into_report()
    }

    /// Queues a fleet-routed VM arrival. Arrivals must be enqueued in the same
    /// non-decreasing arrival order the fleet stream produces.
    pub(crate) fn enqueue(&mut self, vm: Vm) {
        self.pending.push_back(vm);
    }

    /// Delivers a fleet-routed fabric request into this cell's inbox (no-op unless the
    /// cell's experiment enabled the fabric). The inbox is an arrival buffer that drains
    /// by millisecond timestamp, so delivery order only tie-breaks among equal
    /// timestamps; in-order delivery (the fleet's) never needs a sort.
    pub(crate) fn deliver_request(&mut self, time_ms: u64, request: FabricRequest) {
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.deliver(time_ms, request);
        }
    }

    /// Advances the cell by one step (the fleet step loop's per-site entry point).
    pub(crate) fn step_at(&mut self, now: SimTime) {
        self.step(now);
    }

    /// Starts filling the cell's phase profile (its fabric's phases included).
    pub(crate) fn enable_phase_profile(&mut self) {
        self.profile.enable();
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.enable_phase_profile();
        }
    }

    /// The cell's phase profile: the fabric's phases plus the rest of each step.
    pub(crate) fn phase_profile(&self) -> StepProfile {
        let mut profile = self.profile;
        if let Some(fabric) = &self.fabric {
            profile.add_phases(fabric.phase_profile());
        }
        profile
    }

    fn fabric_profile_ns(&self) -> u64 {
        self.fabric.as_ref().map_or(0, |fabric| fabric.phase_profile().total_ns())
    }

    /// This site's current scheduling signals, summarized from the last step's dense
    /// telemetry grids. Before the first step (no telemetry yet) the site reports
    /// cold-start signals: fully free, full row budget as headroom, no emergencies.
    pub(crate) fn site_signals(&self) -> SiteSignals {
        let free_servers = self.state.free_count() as u32;
        if self.report.max_gpu_temp.is_empty() {
            let provisioned: f64 = self
                .dc
                .layout()
                .rows()
                .iter()
                .map(|row| row.power_budget.value())
                .sum();
            return SiteSignals::cold_start(free_servers, provisioned);
        }
        let outcome = &self.workspace.outcome;
        SiteSignals {
            power_headroom_kw: outcome.power.total_row_headroom().value(),
            worst_power_utilization: outcome.power.worst_level_utilization(),
            thermal_slack_c: self.report.gpu_throttle_temp_c - outcome.max_gpu_temp().value(),
            dc_load: outcome.datacenter_load,
            free_servers,
            throttled_gpus: outcome.thermal_throttles.len() as u32,
            capped_servers: outcome.power.capping.len() as u32,
            // Grid price is exogenous (scenario-resolved); the fleet injects it.
            grid_price_per_mwh: 0.0,
            request_pressure: self.fabric_pressure,
        }
    }

    /// The per-endpoint effective serving-instance counts of the last fabric step
    /// (placed replicas minus currently failed ones; empty before the first step or
    /// with the fabric off). The fleet publishes these to the request router so its
    /// failover spread can deal each endpoint's stream to where that endpoint's
    /// capacity actually lives.
    pub(crate) fn fabric_effective_replicas(&self) -> &[u32] {
        &self.fabric_replicas
    }

    /// Consumes the cell and returns its report (the fleet's end-of-run collection),
    /// folding the fabric's per-request metrics in when the fabric ran.
    pub(crate) fn into_report(mut self) -> RunReport {
        if let Some(fabric) = self.fabric.as_mut() {
            self.report.request_fabric = Some(fabric.take_metrics());
        }
        self.report
    }

    /// The cell's resolved scenario timeline (the fleet reads per-site grid prices from
    /// here instead of resolving the scenario a second time).
    pub(crate) fn timeline(&self) -> &ResolvedTimeline {
        &self.timeline
    }

    /// Predicted peak mean-GPU load for a VM (from the customer's or endpoint's history).
    fn predicted_peak_load(&self, vm: &Vm) -> f64 {
        match vm.kind {
            VmKind::Iaas { customer } => self.iaas_model.predicted_peak(customer),
            VmKind::Saas { .. } => 0.9,
        }
    }

    fn place_pending_vms(&mut self, now: SimTime) {
        while let Some(front) = self.pending.front() {
            if front.arrival > now {
                break;
            }
            let vm = self.pending.pop_front().expect("front checked");
            if vm.departure() <= now {
                continue;
            }
            let request = PlacementRequest { vm, predicted_peak_load: self.predicted_peak_load(&vm) };
            let chosen = if self.config.policy.placement_enabled() {
                self.tapas_placement.place_with(
                    &request,
                    &self.state,
                    self.dc.layout(),
                    &self.profiles,
                    &mut self.planner,
                )
            } else {
                // The thermal- and power-oblivious baseline packs the first free server.
                self.state.first_free()
            };
            match chosen {
                Some(server) => {
                    let config = match vm.kind {
                        VmKind::Saas { endpoint } => {
                            let default = self
                                .catalog
                                .get(endpoint)
                                .map(|e| e.default_config)
                                .unwrap_or_else(InstanceConfig::default_70b);
                            self.registry.insert(vm.id, server, endpoint, default, &self.profiles);
                            self.saas_per_row[self.profiles.server(server).row.index()] += 1;
                            Some(default)
                        }
                        VmKind::Iaas { .. } => {
                            self.iaas_wobble[server.index()] = self.iaas_model.vm_wobble(vm.id);
                            None
                        }
                    };
                    self.state
                        .place(vm, server, request.predicted_peak_load, config)
                        .expect("chosen server is free");
                    self.planner.on_place(server, request.predicted_peak_load, &self.profiles);
                    self.report.events.record(EventKind::VmPlaced, now, 1);
                }
                None => self.report.events.record(EventKind::VmRejected, now, 1),
            }
        }
    }

    fn retire_vms(&mut self, now: SimTime) {
        for retired in self.state.retire_expired(now) {
            if retired.vm.kind.is_saas() {
                self.saas_per_row[self.profiles.server(retired.server).row.index()] -= 1;
            }
            self.registry.remove(retired.vm.id);
            self.planner
                .on_remove(retired.server, retired.predicted_peak_load, &self.profiles);
            self.report.events.record(EventKind::VmRetired, now, 1);
        }
    }

    /// Routes this step's requests for every endpoint, updating instance utilization and
    /// the report's served-quality and SLO counters. Returns the number of instances whose
    /// latency factor exceeded the SLO this step.
    ///
    /// Routing operates directly on the registry's per-endpoint columns: each quantum picks
    /// a candidate index, and the chosen column entries are updated in place — no snapshot
    /// rebuild, no clone, no linear search.
    fn route_requests(&mut self, now: SimTime, outside: Celsius) -> u64 {
        let step_minutes = self.config.step.as_minutes() as f64;
        self.routing_context.outside_temp = outside;
        self.routing_context.dc_load = self.prev_dc_load;
        self.prepared_routing.refresh(
            &self.routing_context,
            &self.router_tapas.config,
            &self.profiles,
        );
        self.router_scratch.begin_step(self.profiles.server_count());
        self.registry.begin_step(now);
        let routing_enabled = self.config.policy.routing_enabled();
        let step_seconds = step_minutes * 60.0;

        for endpoint in self.catalog.endpoints() {
            let pattern = &self.endpoint_patterns[endpoint.id.0 as usize];
            // Scenario demand shaping: surges/ramps multiply the diurnal rate (the
            // neutral multiplier 1.0 leaves the legacy rate bit-identical).
            let rate_per_minute = endpoint.peak_requests_per_minute
                * pattern.load_at(now)
                * self.timeline.demand_scale_at(now, endpoint.id);
            let total_requests = rate_per_minute * step_minutes;
            if total_requests <= 0.0 {
                continue;
            }
            let Some(pool) = self.registry.pools.get_mut(endpoint.id.0 as usize) else {
                continue;
            };
            if pool.len() == 0 {
                continue;
            }

            // Route the step's load in quanta to keep routing cost bounded while still
            // exercising the policy's ordering. Risk flags and decision keys are computed
            // once per endpoint per step; each quantum then refreshes only the key of the
            // instance it loaded.
            if routing_enabled {
                self.router_tapas.fill_risk_flags(
                    &pool.view(),
                    &self.profiles,
                    &self.prepared_routing,
                    &mut self.router_scratch,
                    &mut self.risk_flags,
                );
                self.router_tapas.fill_route_keys(
                    &pool.view(),
                    &self.risk_flags,
                    &mut self.route_keys,
                );
            }
            let quanta = (pool.len() * 2).clamp(1, 64);
            let requests_per_quantum = total_requests / quanta as f64;
            for _ in 0..quanta {
                let customer = CustomerId(self.rng.next_u64() % endpoint.customers.max(1));
                let request = InferenceRequest {
                    id: RequestId(self.next_request_id),
                    customer,
                    arrival: now,
                    prompt_tokens: 512,
                    output_tokens: 200,
                };
                self.next_request_id += 1;
                let choice = if routing_enabled {
                    self.router_tapas.route_keyed(
                        &request,
                        &pool.view(),
                        &self.route_keys,
                        &pool.recent,
                    )
                } else {
                    BaselineRouter.route_view(&pool.view())
                };
                let Some(index) = choice else { continue };
                // Update the live columns so subsequent quanta see the added load (both the
                // outstanding count and the utilization the quantum will cause).
                pool.offered[index] += requests_per_quantum;
                pool.outstanding[index] += requests_per_quantum.ceil() as u32;
                let goodput = if pool.goodput[index].is_nan() {
                    FALLBACK_GOODPUT
                } else {
                    pool.goodput[index]
                };
                let capacity =
                    (goodput * step_seconds / MEAN_TOKENS_PER_REQUEST).max(1.0);
                pool.utilization[index] =
                    (pool.utilization[index] + requests_per_quantum / capacity).min(1.5);
                pool.recent.push(index, customer);
                if routing_enabled {
                    let risky = self.router_tapas.candidate_risk(
                        pool.server[index],
                        pool.utilization[index],
                        &self.profiles,
                        &self.prepared_routing,
                        &mut self.router_scratch,
                    );
                    self.router_tapas.refresh_route_key(
                        &pool.view(),
                        index,
                        risky,
                        &mut self.route_keys,
                    );
                }
            }
        }

        // Convert offered load to utilization and account served quality and SLO
        // violations.
        let carryover = &self.carryover_freq;
        let mut slo_violating_instances = 0u64;
        for pool in &mut self.registry.pools {
            for i in 0..pool.len() {
                let offered = pool.offered[i];
                let offered_tokens_per_s = offered * MEAN_TOKENS_PER_REQUEST / step_seconds;
                let goodput = if pool.goodput[i].is_nan() {
                    1.0
                } else {
                    pool.goodput[i]
                }
                .max(1.0);
                let in_transition = pool.in_transition[i];
                // A hardware-throttled server serves proportionally fewer tokens: the
                // carryover frequency scale from last step's thermal-throttle and
                // power-capping directives degrades goodput exactly as it degrades the
                // physics-side clock (1.0 on a healthy server is a bit-identical no-op).
                let throttle = carryover[pool.server[i].index()];
                let effective_goodput =
                    if in_transition { goodput * 0.5 } else { goodput } * throttle;
                let utilization = (offered_tokens_per_s / effective_goodput).min(1.5);
                pool.pressure[i] = utilization;
                pool.utilization[i] = utilization.min(1.0);
                pool.outstanding[i] = offered.ceil() as u32;

                if offered > 0.0 {
                    let latency_factor = if utilization >= 1.0 {
                        OVERLOAD_LATENCY_FACTOR
                    } else {
                        (1.0 / (1.0 - utilization)).min(OVERLOAD_LATENCY_FACTOR)
                    };
                    let quality = pool.config[i].quality();
                    let requests = offered.round().max(1.0) as u64;
                    self.report.requests_served += requests;
                    if latency_factor > SLO_LATENCY_FACTOR {
                        self.report.slo_violations += requests;
                        slo_violating_instances += 1;
                    }
                    self.report.quality_sum += quality;
                    self.report.quality_samples += 1;
                }
            }
        }
        slo_violating_instances
    }

    /// Advances the request fabric by one step (no-op unless the experiment enabled it):
    /// generates the step's arrivals (single-site mode), admits and serves them through
    /// the per-endpoint continuous-batching schedulers, and blends the fabric's
    /// KV/backlog pressure into the endpoint pools' demand pressure so the instance
    /// configurator reacts to request-level congestion, not just aggregate rates.
    fn step_fabric(&mut self, now: SimTime) {
        if self.fabric.is_none() {
            return;
        }
        self.fabric_replicas.clear();
        for ordinal in 0..self.catalog.len() {
            let placed = self.registry.pools.get(ordinal).map_or(0, |pool| pool.len() as u32);
            // Replica-failure windows kill serving processes without touching VM
            // placement: the placed instances survive on the books, but the fabric
            // serves on whatever capacity is actually up. Shrinking below the KV
            // commitment triggers the scheduler's preempt-and-requeue path.
            let failed = self
                .timeline
                .failed_replicas_at(now, EndpointId(ordinal as u64));
            self.fabric_replicas.push(placed.saturating_sub(failed));
        }
        let fabric = self.fabric.as_mut().expect("checked above");
        fabric.generate_step(now, self.config.step, &self.timeline);
        fabric.serve_step(now, self.config.step, &self.fabric_replicas);
        self.fabric_pressure = 0.0;
        for (ordinal, pool) in self.registry.pools.iter_mut().enumerate() {
            // The fabric's pressure can exceed the legacy saturation point (deep KV
            // backlogs); clamp to the pool's own 1.5 ceiling so the configurator sees
            // one consistent scale.
            let request_pressure = fabric.pressure(ordinal).min(1.5);
            self.fabric_pressure = self.fabric_pressure.max(request_pressure);
            if request_pressure <= 0.0 {
                continue;
            }
            for pressure in &mut pool.pressure {
                *pressure = pressure.max(request_pressure);
            }
        }
    }

    /// Reconfigures SaaS instances within their thermal/power headroom (§4.3).
    fn reconfigure_instances(&mut self, now: SimTime, outside: Celsius) {
        if !self.config.policy.config_enabled() {
            return;
        }
        let configurator = InstanceConfigurator::new(0.9);
        let power_cap = self.timeline.power_cap_at(now);

        for endpoint_index in 0..self.registry.pools.len() {
            for position in 0..self.registry.pools[endpoint_index].len() {
                let pool = &self.registry.pools[endpoint_index];
                let vm_id = pool.vm[position];
                let server = pool.server[position];
                let current_config = pool.config[position];
                let utilization = pool.utilization[position];
                // Demand pressure is the unclamped utilization: identical to
                // `utilization` below 1.0, above it it keeps signalling the surplus so
                // the configurator upsizes under surges instead of mistaking a
                // saturated instance for one that exactly meets its demand.
                let pressure = pool.pressure[position];
                let cached_goodput = pool.goodput[position];
                let profile = self.profiles.server(server);
                let row = profile.row;

                // Thermal headroom -> per-GPU power budget.
                let inlet = profile.predicted_inlet(outside, self.prev_dc_load);
                let max_gpu_power =
                    profile.gpu_power_budget(inlet, self.profiles.thermal_headroom_target);

                // Row power headroom -> per-instance server power budget. An active
                // power cap shrinks the budget the configurator plans against, so the
                // TAPAS response to a cap window is proactive reconfiguration rather
                // than reactive throttling (×1.0 outside cap windows is bit-identical).
                let row_budget = self.profiles.row_budget(row) * power_cap;
                let row_now = self.routing_context.row_power[row.index()];
                let headroom = row_budget * 0.97 - row_now;
                let current_power = profile.predicted_power(utilization);
                let max_server_power = if headroom.value() >= 0.0 {
                    let share =
                        headroom / self.saas_per_row[row.index()].max(1) as f64;
                    Kilowatts::new((current_power + share).value().max(0.3))
                } else {
                    // Over budget (deep power cap or a demand spike): scale every
                    // instance's envelope proportionally to its current draw instead of
                    // subtracting the same absolute deficit from each — uniform
                    // subtraction zeroes the smallest instances first and collapses
                    // their SLOs while large ones barely notice.
                    let scale = (row_budget * 0.97).value() / row_now.value();
                    Kilowatts::new((current_power.value() * scale).max(0.3))
                };

                let goodput = if cached_goodput.is_nan() {
                    FALLBACK_GOODPUT
                } else {
                    cached_goodput
                };
                let limits = InstanceLimits {
                    max_gpu_power: Watts::new(max_gpu_power.value().max(1.0)),
                    max_server_power,
                    demand_tokens_per_s: pressure * goodput,
                };
                let decision = configurator.select(&current_config, &limits, &self.profiles);
                if decision.config != current_config {
                    let downtime = decision.cost.downtime_seconds();
                    let transition_until =
                        (downtime > 0.0).then(|| now + self.config.step);
                    self.registry.set_config(
                        vm_id,
                        decision.config,
                        transition_until,
                        &self.profiles,
                    );
                    self.state.set_config(vm_id, decision.config).expect("placed instance");
                    assert!(
                        self.profiles.profile_slot(&decision.config).is_some(),
                        "decisions come from the sweep"
                    );
                    self.report.events.record(EventKind::InstanceReconfigured, now, 1);
                }
            }
        }
    }

    /// Fills the per-server activity planes for the physics engine in place: each quantum
    /// writes directly into the flat SoA planes, never rebuilding per-server `Vec`s.
    ///
    /// IaaS loads reproduce `IaasLoadModel::load_at` bit for bit from one shared load per
    /// customer per step and the wobble cached when the VM landed, so no server reseeds
    /// the model's random streams.
    fn fill_activity(&mut self, now: SimTime) {
        let customers = self.iaas_model.customer_count() as u64;
        self.iaas_customer_load.clear();
        self.iaas_customer_load.extend((0..customers).map(|customer| {
            self.iaas_model
                .customer_load(IaasCustomerId(customer), now)
                .expect("customer ids are 0..customer_count()")
        }));
        let layout = self.dc.layout();
        for server in layout.servers() {
            let gpus = server.spec.gpus_per_server;
            let carry = self.carryover_freq[server.id.index()];
            let index = server.id.index();
            match self.state.vm_on(server.id) {
                None => self.step_input.activity.set_idle(index),
                Some(placed) => match placed.vm.kind {
                    VmKind::Iaas { customer } => {
                        // `IaasLoadModel::load_at`, from this step's customer loads.
                        let shared = usize::try_from(customer.0)
                            .ok()
                            .and_then(|c| self.iaas_customer_load.get(c));
                        let load = if !placed.vm.is_alive_at(now) {
                            0.0
                        } else if let Some(&shared) = shared {
                            (shared * self.iaas_wobble[index]).clamp(0.0, 1.0)
                        } else {
                            // Unknown customer: the conservative peak.
                            1.0
                        };
                        let activity = self.step_input.activity.server_mut(index);
                        activity.gpu_utilization.fill(load);
                        activity.frequency_scale.fill(carry);
                        *activity.memory_boundedness = 0.5;
                    }
                    VmKind::Saas { .. } => {
                        let Some((endpoint, position)) = self.registry.lookup(placed.vm.id)
                        else {
                            self.step_input.activity.set_idle(index);
                            continue;
                        };
                        let pool = &self.registry.pools[endpoint];
                        let config = &pool.config[position];
                        let active_gpus = config.parallelism.gpus().min(gpus);
                        let util =
                            (pool.sat_util[position] * pool.utilization[position]).clamp(0.0, 1.0);
                        let freq = config.frequency.value() * carry;
                        let activity = self.step_input.activity.server_mut(index);
                        activity.gpu_utilization.fill(0.0);
                        activity.frequency_scale.fill(1.0);
                        for slot in 0..active_gpus {
                            activity.gpu_utilization[slot] = util;
                            activity.frequency_scale[slot] = freq;
                        }
                        *activity.memory_boundedness = pool.boundedness[position];
                    }
                },
            }
        }
    }

    /// One simulation step, timed into the phase profile when it is enabled: the
    /// fabric charges its own phases, the remainder is [`StepPhase::CellRest`].
    fn step(&mut self, now: SimTime) {
        let Some(start) = self.profile.mark() else {
            self.step_body(now);
            return;
        };
        let fabric_before = self.fabric_profile_ns();
        self.step_body(now);
        let total = start.elapsed().as_nanos() as u64;
        let fabric = self.fabric_profile_ns() - fabric_before;
        self.profile.add(StepPhase::CellRest, total.saturating_sub(fabric));
    }

    fn step_body(&mut self, now: SimTime) {
        // Scenario weather episodes overlay the climate trace additively (the neutral
        // offset 0.0 leaves the legacy trace bit-identical).
        let outside = Celsius::new(
            self.weather.outside_temp(now).value() + self.timeline.temp_offset_at(now),
        );
        self.retire_vms(now);
        self.place_pending_vms(now);
        let slo_violating_instances = self.route_requests(now, outside);
        self.step_fabric(now);
        self.reconfigure_instances(now, outside);

        self.fill_activity(now);
        self.step_input.outside_temp = outside;
        // The resolved timeline holds the scenario's failure windows; the step's power
        // cap rides along the same way (1.0 outside cap windows keeps the engine's
        // uncapped path untouched).
        self.timeline.failures().state_into(now, &mut self.step_input.failures);
        self.step_input.power_cap = self.timeline.power_cap_at(now);
        self.dc.evaluate_into(&self.step_input, &mut self.workspace);
        let outcome = &self.workspace.outcome;

        // Record metrics.
        self.report
            .max_gpu_temp
            .push(now, outcome.max_gpu_temp().value());
        self.report
            .peak_row_power
            .push(now, outcome.peak_row_power().value());
        self.report
            .datacenter_power
            .push(now, outcome.power.datacenter.draw.value());
        self.report
            .saas_utilization
            .push(now, self.registry.mean_utilization());
        self.report
            .slo_violating_instances
            .push(now, slo_violating_instances as f64);

        let events = &mut self.report.events;
        events.record(EventKind::ThermalThrottle, now, outcome.thermal_throttles.len());
        let over_budget_rows = outcome.power.rows.iter().filter(|(_, u)| u.is_over_budget());
        events.record(EventKind::PowerCap, now, over_budget_rows.count());
        let violated_aisles = outcome.aisle_airflow.iter().filter(|(_, a)| a.is_violated());
        events.record(EventKind::AirflowViolation, now, violated_aisles.count());

        // Carry throttling and capping into the next step's effective frequency, and let
        // unaffected servers recover.
        self.carryover_next.fill(1.0);
        for throttle in &outcome.thermal_throttles {
            let slot = &mut self.carryover_next[throttle.gpu.server.index()];
            *slot = slot.min(throttle.frequency_scale);
        }
        for directive in &outcome.power.capping {
            let slot = &mut self.carryover_next[directive.server.index()];
            *slot = slot.min(directive.power_fraction.cbrt());
        }
        std::mem::swap(&mut self.carryover_freq, &mut self.carryover_next);

        // Infrastructure state the router and configurator will see next step: straight
        // ordinal-aligned copies out of the dense assessment grids.
        for (carry, utilization) in self
            .routing_context
            .row_power
            .iter_mut()
            .zip(outcome.power.rows.values())
        {
            *carry = utilization.draw;
        }
        for (carry, assessment) in self
            .routing_context
            .aisle_airflow
            .iter_mut()
            .zip(outcome.aisle_airflow.values())
        {
            *carry = assessment.demand;
        }
        self.prev_dc_load = outcome.datacenter_load;

        // Weekly refinement of the row power templates (§4.5). The history is accumulated
        // directly in row-ordinal order, so the refinement consumes it without any
        // per-step or per-week map rebuilds.
        for (history, utilization) in
            self.row_history.iter_mut().zip(outcome.power.rows.values())
        {
            history.push((now, utilization.draw.value()));
        }
        if (now - self.last_refinement).as_days() >= 7.0 {
            Arc::make_mut(&mut self.profiles).refine_row_templates(&self.row_history);
            for samples in &mut self.row_history {
                samples.clear();
            }
            self.last_refinement = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use tapas::policy::Policy;

    #[test]
    fn smoke_test_runs_and_records_metrics() {
        let report = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        assert_eq!(report.max_gpu_temp.len(), 24 + 1);
        assert!(report.peak_temperature_c() > 20.0);
        assert!(report.peak_row_power_kw() > 0.0);
        assert!(report.events.count(EventKind::VmPlaced) > 0);
        assert!(report.requests_served > 0);
        assert!(report.mean_quality() > 0.5);
    }

    #[test]
    fn tapas_policy_runs_on_small_cluster() {
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        let report = ClusterSimulator::new(config).run();
        assert_eq!(report.policy, "TAPAS");
        assert!(report.peak_temperature_c() > 20.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        let b = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        assert_eq!(a.max_gpu_temp.values(), b.max_gpu_temp.values());
        assert_eq!(a.peak_row_power.values(), b.peak_row_power.values());
        assert_eq!(a.requests_served, b.requests_served);
    }

    #[test]
    fn different_policies_produce_different_trajectories() {
        let baseline = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        let tapas = ClusterSimulator::new(config).run();
        assert_ne!(baseline.policy, tapas.policy);
        // The trajectories should not be identical (placement and routing differ).
        assert!(
            baseline.peak_row_power.values() != tapas.peak_row_power.values()
                || baseline.max_gpu_temp.values() != tapas.max_gpu_temp.values()
        );
    }

    #[test]
    fn failure_schedule_is_honoured() {
        let config = ExperimentConfig::small_smoke_test().with_scenario(
            crate::scenario::Scenario::power_emergency(
                SimTime::from_minutes(30),
                SimTime::from_minutes(90),
            ),
        );
        let report = ClusterSimulator::new(config).run();
        // During the emergency the reduced capacity should trigger capping on a loaded
        // cluster, or at least be recorded as events if load is high enough; the run must in
        // any case complete and keep recording.
        assert_eq!(report.max_gpu_temp.len(), 25);
    }

    #[test]
    fn out_of_window_scenario_events_do_not_change_the_run() {
        use crate::scenario::Scenario;
        let plain = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        // Events entirely beyond the 2-hour horizon resolve to nothing.
        let scenario = Scenario::builder()
            .heatwave(1..2, 10.0)
            .surge(SimTime::from_hours(30), SimTime::from_hours(31), 3.0)
            .build()
            .expect("valid scenario");
        let staged = ClusterSimulator::new(
            ExperimentConfig::small_smoke_test().with_scenario(scenario),
        )
        .run();
        assert_eq!(
            serde_json::to_string(&plain).expect("serialize"),
            serde_json::to_string(&staged).expect("serialize"),
            "inactive scenario events must leave the run bit-identical"
        );
    }

    #[test]
    fn power_cap_window_binds_then_the_site_returns_to_its_uncapped_trajectory() {
        use crate::scenario::Scenario;
        let start = SimTime::from_minutes(30);
        let end = SimTime::from_minutes(60);
        // An idle site (no VM arrivals) under a deep cap: even idle draw exceeds 5 % of
        // the row budgets, so the cap binds hard during the window. Idle physics takes
        // no control-loop feedback, which makes the recovery assertion exact: once the
        // window closes every recorded sample must be bit-identical to the uncapped
        // run — the pre-cap digest trajectory, not merely "close to it".
        let uncapped =
            ClusterSimulator::with_arrivals(ExperimentConfig::small_smoke_test(), Vec::new())
                .run();
        let scenario = Scenario::builder()
            .power_cap(crate::scenario::SiteSelector::All, start, end, 0.05)
            .build()
            .expect("valid scenario");
        let config = ExperimentConfig::small_smoke_test().with_scenario(scenario);
        let mut clock = SimClock::new(config.step, config.duration);
        let mut sim = ClusterSimulator::with_arrivals(config, Vec::new());

        // The cap binds: over-budget rows are recorded, and only inside the window. Each
        // step's tally is checked: nothing before `start`, nothing new from `end` on.
        let mut in_window = None;
        loop {
            let now = clock.now();
            sim.step_at(now);
            let events = &sim.report.events;
            let caps = (events.count(EventKind::PowerCap), events.last(EventKind::PowerCap));
            if now < start {
                assert_eq!(caps.0, 0, "cap event before the window, at {now}");
            } else if now < end {
                in_window = Some(caps);
            } else {
                assert_eq!(Some(caps), in_window, "cap event after the window, at {now}");
            }
            if clock.tick().is_none() {
                break;
            }
        }
        let (count, last) = in_window.expect("the window lies inside the run");
        assert!(count > 0, "a 5 % cap must put idle rows over budget");
        assert!(last.is_some_and(|last| last >= start && last < end), "last cap at {last:?}");
        let capped = sim.into_report();

        // Recovery: the physical trajectory never left the uncapped one (budgets moved,
        // physics did not), so every series matches bit for bit — including after `end`.
        assert_eq!(capped.max_gpu_temp.values(), uncapped.max_gpu_temp.values());
        assert_eq!(capped.peak_row_power.values(), uncapped.peak_row_power.values());
        assert_eq!(capped.datacenter_power.values(), uncapped.datacenter_power.values());
        assert_eq!(capped.requests_served, uncapped.requests_served);
    }

    #[test]
    fn loaded_site_recovers_headroom_after_a_power_cap_window() {
        use crate::scenario::Scenario;
        let start = SimTime::from_minutes(60);
        let end = SimTime::from_minutes(90);
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        let scenario = Scenario::builder()
            .power_cap(crate::scenario::SiteSelector::All, start, end, 0.4)
            .build()
            .expect("valid scenario");
        let mut sim = ClusterSimulator::new(config.with_scenario(scenario));

        // Step through the run recording the router-visible power headroom.
        let mut headroom = Vec::new();
        let mut clock = simkit::time::SimClock::new(
            simkit::time::SimDuration::from_minutes(5),
            SimTime::from_hours(2),
        );
        loop {
            let now = clock.now();
            sim.step_at(now);
            headroom.push((now, sim.site_signals().power_headroom_kw));
            if clock.tick().is_none() {
                break;
            }
        }
        let mean = |samples: &[(SimTime, f64)], lo: SimTime, hi: SimTime| {
            let picked: Vec<f64> = samples
                .iter()
                .filter(|(t, _)| *t >= lo && *t < hi)
                .map(|(_, h)| *h)
                .collect();
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        let before = mean(&headroom, SimTime::from_minutes(30), start);
        let during = mean(&headroom, start, end);
        let after = mean(&headroom, end, SimTime::from_hours(2));
        // The cap visibly shrinks the headroom the geo router sees, and the site
        // recovers most of it once the window closes (recovery asserted, not assumed).
        assert!(during < before * 0.75, "cap must bite: {before} -> {during}");
        assert!(after > during, "headroom must recover after the window: {during} -> {after}");
        assert!(after > before * 0.8, "recovery must approach the pre-cap level: {before} -> {after}");

        // Once recovered, the run keeps serving and tallies the cap.
        let report = sim.into_report();
        assert!(report.events.count(EventKind::PowerCap) > 0);
        assert!(report.requests_served > 0);
    }

    #[test]
    fn heatwave_overlay_raises_the_temperature_trace() {
        use crate::scenario::Scenario;
        let plain = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        let heatwave = Scenario::builder()
            .weather(
                crate::scenario::SiteSelector::All,
                SimTime::ZERO,
                SimTime::from_hours(2),
                12.0,
            )
            .build()
            .expect("valid scenario");
        let hot = ClusterSimulator::new(
            ExperimentConfig::small_smoke_test().with_scenario(heatwave),
        )
        .run();
        assert!(
            hot.peak_temperature_c() > plain.peak_temperature_c() + 2.0,
            "heatwave {} vs plain {}",
            hot.peak_temperature_c(),
            plain.peak_temperature_c()
        );
    }

    #[test]
    fn surge_scales_served_request_volume() {
        use crate::scenario::Scenario;
        let plain = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
        let surge = Scenario::builder()
            .surge(SimTime::ZERO, SimTime::from_hours(2), 2.0)
            .build()
            .expect("valid scenario");
        let surged = ClusterSimulator::new(
            ExperimentConfig::small_smoke_test().with_scenario(surge),
        )
        .run();
        assert!(
            surged.requests_served as f64 > plain.requests_served as f64 * 1.5,
            "surge {} vs plain {}",
            surged.requests_served,
            plain.requests_served
        );
    }

    #[test]
    #[should_panic(expected = "demand multiplier")]
    fn invalid_hand_built_scenarios_are_rejected_at_build() {
        use crate::scenario::{ScenarioEvent, SiteSelector};
        // Mutating the public events field bypasses ScenarioBuilder::build, so the
        // simulator re-checks the invariants before resolving the timeline.
        let mut config = ExperimentConfig::small_smoke_test();
        config.scenario.events.push(ScenarioEvent::Surge {
            site: SiteSelector::All,
            start: SimTime::ZERO,
            end: SimTime::from_hours(1),
            endpoint: None,
            multiplier: 0.0,
        });
        let _ = ClusterSimulator::new(config);
    }

    #[test]
    fn replaying_the_generated_trace_reproduces_the_run() {
        let config = ExperimentConfig::small_smoke_test();
        let catalog = config.endpoint_catalog();
        let trace = config.vm_stream(&catalog, 1.0);
        let replayed = ClusterSimulator::with_arrivals(config.clone(), trace).run();
        let generated = ClusterSimulator::new(config).run();
        assert_eq!(
            serde_json::to_string(&replayed).expect("serialize"),
            serde_json::to_string(&generated).expect("serialize"),
            "replaying the generated trace must be bit-identical to generating it"
        );
    }

    /// The per-row SaaS counts the configurator shares headroom by match a recount of the
    /// registry.
    fn assert_saas_rows_current(sim: &ClusterSimulator) {
        let mut per_row = vec![0u32; sim.saas_per_row.len()];
        for pool in &sim.registry.pools {
            for &server in &pool.server {
                per_row[sim.dc.layout().server(server).row.index()] += 1;
            }
        }
        assert_eq!(sim.saas_per_row, per_row);
    }

    #[test]
    fn churn_keeps_iaas_activity_bit_exact_and_saas_rows_current() {
        use simkit::time::SimDuration;
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        config.duration = SimTime::from_hours(36);
        config.step = SimDuration::from_minutes(20);
        // Short-lived VMs so servers are freed and re-occupied; customers 12 and 13 are
        // unknown to the 12-customer load model (its conservative fallback).
        let arrivals = (0..600u64)
            .map(|i| Vm {
                id: VmId(i),
                kind: if i % 4 == 0 {
                    VmKind::Saas { endpoint: EndpointId(i % 2) }
                } else {
                    VmKind::Iaas { customer: IaasCustomerId(i % 14) }
                },
                arrival: SimTime::from_minutes(i * 3),
                lifetime: SimDuration::from_minutes(60 + (i * 37) % 300),
            })
            .collect();
        let mut sim = ClusterSimulator::with_arrivals(config, arrivals);
        let mut clock = SimClock::new(sim.config.step, sim.config.duration);
        // Last IaaS VM seen on each server: a different one later means the server was
        // freed by a retirement and re-occupied.
        let mut tenant: Vec<Option<VmId>> = vec![None; sim.state.server_count()];
        let (mut checked, mut reoccupied) = (0usize, 0usize);
        loop {
            let now = clock.now();
            sim.step(now);
            assert_saas_rows_current(&sim);
            for placed in sim.state.placed().filter(|p| !p.vm.kind.is_saas()) {
                let index = placed.server.index();
                let expected = sim.iaas_model.load_at(&placed.vm, now).to_bits();
                let plane = sim.step_input.activity.server(index).gpu_utilization;
                assert!(
                    plane.iter().all(|u| u.to_bits() == expected),
                    "{} on {} at {now:?}",
                    placed.vm.id,
                    placed.server
                );
                checked += 1;
                if tenant[index].is_some_and(|previous| previous != placed.vm.id) {
                    reoccupied += 1;
                }
                tenant[index] = Some(placed.vm.id);
            }
            if clock.tick().is_none() {
                break;
            }
        }
        assert!(checked > 500, "{checked}");
        assert!(reoccupied >= 10, "{reoccupied} servers changed IaaS tenant");
    }

    #[test]
    fn registry_tracks_placements_and_retirements() {
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        let mut sim = ClusterSimulator::new(config);
        let mut clock = SimClock::new(sim.config.step, sim.config.duration);
        loop {
            let now = clock.now();
            sim.step(now);
            // Registry and cluster state must agree after every step.
            let saas_in_state = sim.state.placed().filter(|p| p.vm.kind.is_saas()).count();
            assert_eq!(sim.registry.instance_count(), saas_in_state);
            assert_saas_rows_current(&sim);
            for (endpoint_index, pool) in sim.registry.pools.iter().enumerate() {
                // Every column must stay aligned with the vm column.
                let n = pool.vm.len();
                assert_eq!(pool.server.len(), n);
                assert_eq!(pool.outstanding.len(), n);
                assert_eq!(pool.utilization.len(), n);
                assert_eq!(pool.in_transition.len(), n);
                assert_eq!(pool.recent.windows().len(), n);
                assert_eq!(pool.config.len(), n);
                assert_eq!(pool.goodput.len(), n);
                assert_eq!(pool.sat_util.len(), n);
                assert_eq!(pool.boundedness.len(), n);
                assert_eq!(pool.transition_until.len(), n);
                assert_eq!(pool.offered.len(), n);
                for (position, &vm) in pool.vm.iter().enumerate() {
                    assert_eq!(
                        sim.registry.lookup(vm),
                        Some((endpoint_index, position)),
                        "index maps must stay consistent"
                    );
                    assert_eq!(sim.state.server_of(vm), Some(pool.server[position]));
                }
            }
            if clock.tick().is_none() {
                break;
            }
        }
    }
}
