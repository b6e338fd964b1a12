//! One datacenter's discrete-time simulation step; the run loop that drives it is the
//! fleet's ([`crate::fleet`]), for a single site too.
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
//! configuration, cached profile figures), indexed by the server each instance runs on.
//! The registry is updated in place on VM place/retire/reconfigure and mutated per routing
//! quantum through the index the router returns, so routing never rebuilds or clones
//! snapshot lists. All carry-over state (row power, aisle airflow, carry-over frequencies)
//! lives in dense vectors indexed by the id newtypes, the physics engine runs through a
//! persistent [`StepWorkspace`] whose telemetry grids (`TempGrid`,
//! per-level `OrdinalMap`s) are ordinal-aligned with those vectors, and metric recording
//! walks the grids without any map lookups — the steady-state step loop is
//! allocation-free end to end.

use crate::experiment::{ExperimentConfig, FleetConfig};
use crate::fabric::{FabricRequest, RequestFabric};
use crate::fleet::FleetSimulator;
use crate::metrics::RunReport;
use crate::scenario::ResolvedTimeline;
use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::ids::{RowId, ServerId};
use dc_sim::weather::WeatherModel;
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::request::CustomerId;
use simkit::events::EventKind;
use simkit::profile::{StepPhase, StepProfile};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use tapas::configurator::{InstanceConfigurator, InstanceLimits};
use tapas::geo::SiteSignals;
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::profiles::ProfileStore;
use tapas::routing::{
    BaselineRouter, CandidateView, PreparedRoutingContext, RecentIndex, RecentWindow, RiskRow,
    RouteKeys, RoutingContext, TapasRouter,
};
use tapas::state::ClusterState;
use workload::diurnal::DiurnalPattern;
use workload::endpoints::{EndpointCatalog, EndpointId};
use workload::iaas::IaasLoadModel;
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
#[derive(Debug, Clone)]
struct EndpointPool {
    vm: Vec<VmId>,
    server: Vec<ServerId>,
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
    /// The server's fitted models, copied when the instance is registered and prepared
    /// for the step's weather and load by [`InstanceRegistry::begin_step`].
    risk: Vec<RiskRow>,
}

impl EndpointPool {
    /// An empty pool whose requests come from customer ids `0..customers`.
    fn new(customers: u64) -> Self {
        Self {
            vm: Vec::new(),
            server: Vec::new(),
            outstanding: Vec::new(),
            utilization: Vec::new(),
            in_transition: Vec::new(),
            recent: RecentIndex::new(customers),
            config: Vec::new(),
            goodput: Vec::new(),
            sat_util: Vec::new(),
            boundedness: Vec::new(),
            transition_until: Vec::new(),
            offered: Vec::new(),
            pressure: Vec::new(),
            risk: Vec::new(),
        }
    }

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
        self.risk.swap_remove(index);
    }
}

/// `InstanceRegistry::position` entry of a server that hosts no SaaS instance.
const NO_INSTANCE: u32 = u32::MAX;

/// The simulator's persistent, incrementally updated store of SaaS instance runtime state.
///
/// An instance's endpoint is its VM's `VmKind::Saas { endpoint }`; its place in that
/// endpoint's pool is looked up by the server it runs on.
#[derive(Debug, Clone)]
pub(crate) struct InstanceRegistry {
    pools: Vec<EndpointPool>,
    /// Position in its endpoint's pool of the instance on each server ([`NO_INSTANCE`] on
    /// free and IaaS servers).
    position: Vec<u32>,
}

impl InstanceRegistry {
    fn new(server_count: usize) -> Self {
        Self {
            pools: Vec::new(),
            position: vec![NO_INSTANCE; server_count],
        }
    }

    /// The pool position of the instance on `server`, if one runs there.
    fn position(&self, server: ServerId) -> Option<usize> {
        let position = self.position[server.index()];
        (position != NO_INSTANCE).then_some(position as usize)
    }

    fn insert(
        &mut self,
        vm: VmId,
        server: ServerId,
        endpoint: EndpointId,
        config: InstanceConfig,
        profiles: &ProfileStore,
        catalog: &EndpointCatalog,
    ) {
        let index = endpoint.0 as usize;
        while self.pools.len() <= index {
            // A pool's recent index covers the ids its quanta draw, `0..customers.max(1)`;
            // an endpoint outside the catalog is never routed and indexes no customer.
            let id = EndpointId(self.pools.len() as u64);
            let bound = catalog
                .get(id)
                .map_or(0, |endpoint| endpoint.customers.max(1));
            self.pools.push(EndpointPool::new(bound));
        }
        let pool = &mut self.pools[index];
        self.position[server.index()] = pool.len() as u32;
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
        pool.risk.push(RiskRow::of(profiles.server(server)));
    }

    fn remove(&mut self, server: ServerId, endpoint: EndpointId) {
        let position = self
            .position(server)
            .expect("every placed SaaS VM is registered");
        self.position[server.index()] = NO_INSTANCE;
        let pool = &mut self.pools[endpoint.0 as usize];
        pool.swap_remove(position);
        if let Some(&moved) = pool.server.get(position) {
            self.position[moved.index()] = position as u32;
        }
    }

    fn set_config(
        &mut self,
        endpoint: usize,
        position: usize,
        config: InstanceConfig,
        transition_until: Option<SimTime>,
        profiles: &ProfileStore,
    ) {
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

    /// Refreshes per-step flags, resets offered-load accumulators and prepares every
    /// risk row for the step's outside temperature and datacenter load.
    fn begin_step(&mut self, now: SimTime, outside: Celsius, dc_load: f64) {
        for pool in &mut self.pools {
            for i in 0..pool.len() {
                pool.in_transition[i] = pool.transition_until[i]
                    .map(|until| until > now)
                    .unwrap_or(false);
                pool.offered[i] = 0.0;
                pool.risk[i].prepare(outside, dc_load);
            }
        }
    }

    fn mean_utilization(&self) -> f64 {
        let count: usize = self.pools.iter().map(EndpointPool::len).sum();
        if count == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .pools
            .iter()
            .flat_map(|pool| pool.utilization.iter())
            .sum();
        sum / count as f64
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

/// One row's power envelope for a configurator step: the capped budget's headroom over
/// the row's current draw, shared evenly among the row's SaaS instances, or, when the row
/// is over its capped budget, the factor that scales every instance's draw back to it.
#[derive(Debug, Clone, Copy)]
struct RowEnvelope {
    /// `capped budget × 0.97 − current draw`.
    headroom: Kilowatts,
    /// `headroom` per SaaS instance of the row.
    share: Kilowatts,
    /// `(capped budget × 0.97) / current draw`, used when `headroom` is negative.
    scale: f64,
}

impl RowEnvelope {
    fn new(capped_budget: Kilowatts, row_now: Kilowatts, saas_in_row: usize) -> Self {
        let headroom = capped_budget * 0.97 - row_now;
        Self {
            headroom,
            share: headroom / saas_in_row.max(1) as f64,
            scale: (capped_budget * 0.97).value() / row_now.value(),
        }
    }

    /// The server power an instance drawing `current_power` may plan for.
    fn max_server_power(&self, current_power: Kilowatts) -> Kilowatts {
        if self.headroom.value() >= 0.0 {
            Kilowatts::new((current_power + self.share).value().max(0.3))
        } else {
            // Over budget (deep power cap or a demand spike): scale every instance's
            // envelope proportionally to its current draw instead of subtracting the same
            // absolute deficit from each — uniform subtraction zeroes the smallest
            // instances first and collapses their SLOs while large ones barely notice.
            Kilowatts::new((current_power.value() * self.scale).max(0.3))
        }
    }
}

/// The configurator's limits for an instance at `utilization` on the server of `risk`, in
/// the row of `envelope`: the per-GPU power that keeps the hottest GPU at `thermal_target`
/// at the step's predicted inlet, and the row's share of server power.
fn instance_limits(
    risk: &RiskRow,
    envelope: &RowEnvelope,
    thermal_target: Celsius,
    utilization: f64,
    demand_tokens_per_s: f64,
) -> InstanceLimits {
    InstanceLimits {
        max_gpu_power: Watts::new(risk.gpu_power_budget(thermal_target).value().max(1.0)),
        max_server_power: envelope.max_server_power(risk.predicted_power(utilization)),
        demand_tokens_per_s,
    }
}

/// One datacenter of the end-to-end simulation: the cell a [`FleetSimulator`] steps per
/// site, and a single-site run through [`Self::run`].
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
    /// Per-step TAPAS risk flags and decision keys of the endpoint being routed.
    risk_flags: Vec<bool>,
    route_keys: RouteKeys,
    /// Per-step power envelope of every row, indexed by `RowId::index`.
    row_envelopes: Vec<RowEnvelope>,
    carryover_freq: Vec<f64>,
    carryover_next: Vec<f64>,
    prev_dc_load: f64,
    rng: SimRng,
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
    /// Builds one datacenter cell for an experiment configuration: an empty VM arrival
    /// queue and, if the experiment opts in, a request fabric whose stream is delivered
    /// from outside. [`Self::run`] drives it as site 0 of a pinned one-site fleet, which
    /// generates both streams.
    ///
    /// # Panics
    /// Panics with the [`crate::scenario::ScenarioError`]'s message if the composed
    /// scenario fails [`ExperimentConfig::validate`].
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        // Deserialized or hand-mutated scenarios may have skipped `ScenarioBuilder::build`,
        // so the event invariants are (re-)checked before resolution can bake e.g. a NaN
        // delta into the dense timeline.
        config.validate().unwrap_or_else(|error| panic!("{error}"));
        let catalog = config.endpoint_catalog();
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
        let planner = PlacementPlanner::new(
            &state,
            dc.layout(),
            &profiles,
            tapas_placement.config.design,
        );
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
            .map(|fc| RequestFabric::new(config.seed, &catalog, fc, false));
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
            pending: VecDeque::new(),
            registry: InstanceRegistry::new(server_count),
            planner,
            tapas_placement,
            router_tapas,
            routing_context,
            prepared_routing,
            risk_flags: Vec::new(),
            route_keys: RouteKeys::default(),
            row_envelopes: Vec::new(),
            carryover_freq: vec![1.0; server_count],
            carryover_next: vec![1.0; server_count],
            prev_dc_load: 0.5,
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

    /// Runs the whole experiment as site 0 of a pinned one-site fleet and returns the
    /// site's report.
    #[must_use]
    pub fn run(self) -> RunReport {
        let config = FleetConfig::single_site(self.config.clone());
        let mut report = FleetSimulator::with_cells(config, vec![self], None, None).run();
        report
            .sites
            .pop()
            .expect("a one-site fleet reports one site")
    }

    /// Queues a fleet-routed VM arrival. Arrivals must be enqueued in the same
    /// non-decreasing arrival order the fleet stream produces.
    pub(crate) fn enqueue(&mut self, vm: Vm) {
        self.pending.push_back(vm);
    }

    /// Delivers a fleet-routed fabric request straight into its endpoint's scheduler queue
    /// (no-op unless the cell's experiment enabled the fabric). The fleet delivers in
    /// timestamp order, and only requests due inside the step the cell serves next
    /// ([`RequestFabric::deliver`]).
    pub(crate) fn deliver_request(&mut self, time_ms: u64, request: FabricRequest) {
        if let Some(fabric) = self.fabric.as_mut() {
            fabric.deliver(time_ms, request);
        }
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
        self.fabric
            .as_ref()
            .map_or(0, |fabric| fabric.phase_profile().total_ns())
    }

    /// This site's scheduling signals at `now`: the grid price `now` pays on the cell's
    /// resolved timeline, and the telemetry of the last recorded step. Before the first
    /// step (no telemetry yet) the site reports cold-start telemetry: fully free, full
    /// row budget as headroom, no emergencies.
    pub(crate) fn site_signals(&self, now: SimTime) -> SiteSignals {
        let free_servers = self.state.free_count() as u32;
        let grid_price_per_mwh = self.timeline.grid_price_at(now);
        let Some((_, max_gpu_temp)) = self.report.max_gpu_temp.last() else {
            let provisioned: f64 = self
                .dc
                .layout()
                .rows()
                .iter()
                .map(|row| row.power_budget.value())
                .sum();
            return SiteSignals {
                grid_price_per_mwh,
                ..SiteSignals::cold_start(free_servers, provisioned)
            };
        };
        let outcome = &self.workspace.outcome;
        SiteSignals {
            power_headroom_kw: outcome.power.total_row_headroom().value(),
            worst_power_utilization: outcome.power.worst_level_utilization(),
            thermal_slack_c: self.report.gpu_throttle_temp_c - max_gpu_temp,
            dc_load: outcome.datacenter_load,
            free_servers,
            throttled_gpus: outcome.thermal_throttles.len() as u32,
            capped_servers: outcome.power.capping.len() as u32,
            grid_price_per_mwh,
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
            let request = PlacementRequest {
                vm,
                predicted_peak_load: self.predicted_peak_load(&vm),
            };
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
                            self.registry.insert(
                                vm.id,
                                server,
                                endpoint,
                                default,
                                &self.profiles,
                                &self.catalog,
                            );
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
                    self.planner
                        .on_place(server, request.predicted_peak_load, &self.profiles);
                    self.report.events.record(EventKind::VmPlaced, now, 1);
                }
                None => self.report.events.record(EventKind::VmRejected, now, 1),
            }
        }
    }

    fn retire_vms(&mut self, now: SimTime) {
        self.state.retire_expired(now, |retired| {
            if let VmKind::Saas { endpoint } = retired.vm.kind {
                self.registry.remove(retired.server, endpoint);
            }
            self.planner
                .on_remove(retired.server, retired.predicted_peak_load, &self.profiles);
            self.report.events.record(EventKind::VmRetired, now, 1);
        });
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
        self.registry.begin_step(now, outside, self.prev_dc_load);
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
                let (router, prepared) = (&self.router_tapas, &self.prepared_routing);
                self.risk_flags.clear();
                self.risk_flags.extend(
                    pool.risk
                        .iter()
                        .zip(&pool.utilization)
                        .map(|(row, &utilization)| router.row_risk(row, utilization, prepared)),
                );
                self.router_tapas.fill_route_keys(
                    &pool.view(),
                    &self.risk_flags,
                    &mut self.route_keys,
                );
            }
            let quanta = (pool.len() * 2).clamp(1, 64);
            let requests_per_quantum = total_requests / quanta as f64;
            let outstanding_per_quantum = requests_per_quantum.ceil() as u32;
            let customers = endpoint.customers.max(1);
            for _ in 0..quanta {
                let customer = CustomerId(self.rng.next_u64() % customers);
                let choice = if routing_enabled {
                    self.router_tapas.route_keyed(
                        customer,
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
                pool.outstanding[index] += outstanding_per_quantum;
                let goodput = if pool.goodput[index].is_nan() {
                    FALLBACK_GOODPUT
                } else {
                    pool.goodput[index]
                };
                let capacity = (goodput * step_seconds / MEAN_TOKENS_PER_REQUEST).max(1.0);
                pool.utilization[index] =
                    (pool.utilization[index] + requests_per_quantum / capacity).min(1.5);
                pool.recent.push(index, customer);
                if routing_enabled {
                    let risky = self.router_tapas.row_risk(
                        &pool.risk[index],
                        pool.utilization[index],
                        &self.prepared_routing,
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
                let effective_goodput = if in_transition {
                    goodput * 0.5
                } else {
                    goodput
                } * throttle;
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
    /// admits the step's delivered arrivals and serves them through the per-endpoint
    /// continuous-batching schedulers, and blends the fabric's KV/backlog pressure into
    /// the endpoint pools' demand pressure so the instance configurator reacts to
    /// request-level congestion, not just aggregate rates.
    fn step_fabric(&mut self, now: SimTime) {
        if self.fabric.is_none() {
            return;
        }
        self.fabric_replicas.clear();
        for ordinal in 0..self.catalog.len() {
            let placed = self
                .registry
                .pools
                .get(ordinal)
                .map_or(0, |pool| pool.len() as u32);
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
    ///
    /// An instance's thermal limit reads its [`RiskRow`], prepared by the registry's
    /// `begin_step` under the same outside temperature and datacenter load the router read,
    /// and its power limit reads its row's [`RowEnvelope`], built once per row per step.
    fn reconfigure_instances(&mut self, now: SimTime) {
        if !self.config.policy.config_enabled() {
            return;
        }
        let configurator = InstanceConfigurator::new(0.9);
        // An active power cap shrinks the budget the configurator plans against, so the
        // TAPAS response to a cap window is proactive reconfiguration rather than
        // reactive throttling (×1.0 outside cap windows is bit-identical).
        let power_cap = self.timeline.power_cap_at(now);
        let layout = self.dc.layout();
        self.row_envelopes.clear();
        self.row_envelopes
            .extend((0..self.profiles.row_count()).map(|ordinal| {
                let row = RowId::new(ordinal);
                RowEnvelope::new(
                    self.profiles.row_budget(row) * power_cap,
                    self.routing_context.row_power[ordinal],
                    self.state.row_mix(layout, row).1,
                )
            }));
        let thermal_target = self.profiles.thermal_headroom_target;

        for endpoint_index in 0..self.registry.pools.len() {
            for position in 0..self.registry.pools[endpoint_index].len() {
                let pool = &self.registry.pools[endpoint_index];
                let current_config = pool.config[position];
                let goodput = if pool.goodput[position].is_nan() {
                    FALLBACK_GOODPUT
                } else {
                    pool.goodput[position]
                };
                // Demand pressure is the unclamped utilization: identical to
                // `utilization` below 1.0, above it it keeps signalling the surplus so
                // the configurator upsizes under surges instead of mistaking a
                // saturated instance for one that exactly meets its demand.
                let demand = pool.pressure[position] * goodput;
                let utilization = pool.utilization[position];
                let risk = &pool.risk[position];
                let envelope = &self.row_envelopes[risk.row().index()];
                let limits = instance_limits(risk, envelope, thermal_target, utilization, demand);
                let decision = configurator.select(&current_config, &limits, &self.profiles);
                if decision.config != current_config {
                    let downtime = decision.cost.downtime_seconds();
                    let transition_until = (downtime > 0.0).then(|| now + self.config.step);
                    self.registry.set_config(
                        endpoint_index,
                        position,
                        decision.config,
                        transition_until,
                        &self.profiles,
                    );
                    assert!(
                        self.profiles.profile_slot(&decision.config).is_some(),
                        "decisions come from the sweep"
                    );
                    self.report
                        .events
                        .record(EventKind::InstanceReconfigured, now, 1);
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
        self.iaas_customer_load
            .extend((0..customers).map(|customer| {
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
                    VmKind::Saas { endpoint } => {
                        let position = self
                            .registry
                            .position(server.id)
                            .expect("every placed SaaS VM is registered");
                        let pool = &self.registry.pools[endpoint.0 as usize];
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

    /// The outside temperature at `now`: scenario weather episodes overlay the climate
    /// trace additively (the neutral offset 0.0 leaves the legacy trace bit-identical).
    fn outside_temp(&mut self, now: SimTime) -> Celsius {
        Celsius::new(self.weather.outside_temp(now).value() + self.timeline.temp_offset_at(now))
    }

    /// Advances the cell by one step (the fleet step loop's per-site entry point). With
    /// the phase profile enabled, each stage is lapped into its [`StepPhase`] at the call
    /// boundaries; the fabric charges its own phases, and the rest of its call is charged
    /// to [`StepPhase::Offer`].
    pub(crate) fn step(&mut self, now: SimTime) {
        let mut mark = self.profile.mark();
        let outside = self.outside_temp(now);
        self.retire_vms(now);
        self.place_pending_vms(now);
        mark = self.profile.lap(StepPhase::RetirePlace, mark);
        let slo_violating_instances = self.route_requests(now, outside);
        mark = self.profile.lap(StepPhase::Route, mark);
        let fabric_before = self.fabric_profile_ns();
        self.step_fabric(now);
        if let Some(since) = mark {
            let lap_end = Instant::now();
            let elapsed = lap_end.duration_since(since).as_nanos() as u64;
            let fabric = self.fabric_profile_ns() - fabric_before;
            self.profile
                .add(StepPhase::Offer, elapsed.saturating_sub(fabric));
            mark = Some(lap_end);
        }
        self.reconfigure_instances(now);
        mark = self.profile.lap(StepPhase::Configure, mark);

        self.fill_activity(now);
        mark = self.profile.lap(StepPhase::Fill, mark);
        self.step_input.outside_temp = outside;
        // The resolved timeline holds the scenario's failure windows; the step's power
        // cap rides along the same way (1.0 outside cap windows keeps the engine's
        // uncapped path untouched).
        self.timeline
            .failures()
            .state_into(now, &mut self.step_input.failures);
        self.step_input.power_cap = self.timeline.power_cap_at(now);
        self.dc.evaluate_into(&self.step_input, &mut self.workspace);
        mark = self.profile.lap(StepPhase::Physics, mark);
        self.record_step(now, slo_violating_instances);
        self.profile.lap(StepPhase::RecordStep, mark);
    }

    /// Records the step's series and events, and carries throttling, capping and the
    /// infrastructure state into the next step.
    fn record_step(&mut self, now: SimTime, slo_violating_instances: u64) {
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
        events.record(
            EventKind::ThermalThrottle,
            now,
            outcome.thermal_throttles.len(),
        );
        let over_budget_rows = outcome
            .power
            .rows
            .iter()
            .filter(|(_, u)| u.is_over_budget());
        events.record(EventKind::PowerCap, now, over_budget_rows.count());
        let violated_aisles = outcome
            .aisle_airflow
            .iter()
            .filter(|(_, a)| a.is_violated());
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::RequestFabricConfig;
    use simkit::time::SimClock;
    use tapas::policy::Policy;

    /// A cell to step by hand, fed `arrivals` up front (the fleet feeds them step by step;
    /// the cell places only those already due either way).
    fn cell_with(config: ExperimentConfig, arrivals: Vec<Vm>) -> ClusterSimulator {
        let mut sim = ClusterSimulator::new(config);
        arrivals.into_iter().for_each(|vm| sim.enqueue(vm));
        sim
    }

    /// A cell to step by hand, fed its experiment's generated VM stream.
    fn cell(config: ExperimentConfig) -> ClusterSimulator {
        let stream = config.vm_stream(&config.endpoint_catalog(), 1.0);
        cell_with(config, stream)
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Pins the serialized report of a single-site run, fabric off and on, to digests read
    /// before single-site runs went through the fleet loop.
    #[test]
    fn single_site_run_reports_are_pinned() {
        let digest = |config: ExperimentConfig| {
            let report = ClusterSimulator::new(config).run();
            fnv1a(
                serde_json::to_string(&report)
                    .expect("serialize")
                    .as_bytes(),
            )
        };
        let plain = ExperimentConfig::small_smoke_test();
        assert_eq!(digest(plain.clone()), 0x9c60_7ecb_1a76_30f5);
        let fabric = plain.with_request_fabric(RequestFabricConfig::default());
        assert_eq!(digest(fabric), 0x5942_9e02_884a_d217);
    }

    /// Pins the serialized report and VM split of a three-site headroom-routed TAPAS fleet
    /// with the request fabric on and a grid-price spike on site 1, to values read before
    /// the fleet computed site signals only on headroom steps. The second run adds a
    /// replica outage and deadline shedding on site 0, which latches the request router
    /// into its failover spread, so the pin covers the per-endpoint serving capacities too.
    #[test]
    fn headroom_fleet_reports_are_pinned() {
        let run = |failover: bool| {
            let mut scenario = crate::scenario::Scenario::builder().grid_price_spike(
                1,
                SimTime::from_minutes(30),
                SimTime::from_minutes(90),
                400.0,
            );
            if failover {
                let (start, end) = (SimTime::from_minutes(20), SimTime::from_minutes(80));
                scenario = scenario.fail_replicas(0, start, end, None, 8);
            }
            let fabric = RequestFabricConfig {
                deadline_shedding: failover,
                ..RequestFabricConfig::default()
            };
            let mut base = ExperimentConfig::small_smoke_test()
                .with_request_fabric(fabric)
                .with_scenario(scenario.build().expect("valid scenario"));
            base.policy = Policy::Tapas;
            let report = FleetSimulator::new(FleetConfig::evaluation(base, 3)).run();
            let json = serde_json::to_string(&report).expect("serialize");
            (report.vms_routed, fnv1a(json.as_bytes()))
        };
        assert_eq!(run(false), (vec![8, 7, 8], 0x51b3_b5d8_b315_fbba));
        assert_eq!(run(true), (vec![8, 7, 8], 0x4d3a_412d_7035_2850));
    }

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
        let staged =
            ClusterSimulator::new(ExperimentConfig::small_smoke_test().with_scenario(scenario))
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
        let idle = FleetConfig::single_site(ExperimentConfig::small_smoke_test());
        let uncapped = FleetSimulator::with_arrivals(idle, Vec::new())
            .run()
            .sites
            .remove(0);
        let scenario = Scenario::builder()
            .power_cap(crate::scenario::SiteSelector::All, start, end, 0.05)
            .build()
            .expect("valid scenario");
        let config = ExperimentConfig::small_smoke_test().with_scenario(scenario);
        let mut clock = SimClock::new(config.step, config.duration);
        let mut sim = ClusterSimulator::new(config);

        // The cap binds: over-budget rows are recorded, and only inside the window. Each
        // step's tally is checked: nothing before `start`, nothing new from `end` on.
        let mut in_window = None;
        loop {
            let now = clock.now();
            sim.step(now);
            let events = &sim.report.events;
            let caps = (
                events.count(EventKind::PowerCap),
                events.last(EventKind::PowerCap),
            );
            if now < start {
                assert_eq!(caps.0, 0, "cap event before the window, at {now}");
            } else if now < end {
                in_window = Some(caps);
            } else {
                assert_eq!(
                    Some(caps),
                    in_window,
                    "cap event after the window, at {now}"
                );
            }
            if clock.tick().is_none() {
                break;
            }
        }
        let (count, last) = in_window.expect("the window lies inside the run");
        assert!(count > 0, "a 5 % cap must put idle rows over budget");
        assert!(
            last.is_some_and(|last| last >= start && last < end),
            "last cap at {last:?}"
        );
        let capped = sim.into_report();

        // Recovery: the physical trajectory never left the uncapped one (budgets moved,
        // physics did not), so every series matches bit for bit — including after `end`.
        assert_eq!(capped.max_gpu_temp.values(), uncapped.max_gpu_temp.values());
        assert_eq!(
            capped.peak_row_power.values(),
            uncapped.peak_row_power.values()
        );
        assert_eq!(
            capped.datacenter_power.values(),
            uncapped.datacenter_power.values()
        );
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
        let mut sim = cell(config.with_scenario(scenario));

        // Step through the run recording the router-visible power headroom.
        let mut headroom = Vec::new();
        let mut clock = simkit::time::SimClock::new(
            simkit::time::SimDuration::from_minutes(5),
            SimTime::from_hours(2),
        );
        loop {
            let now = clock.now();
            sim.step(now);
            headroom.push((now, sim.site_signals(now).power_headroom_kw));
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
        assert!(
            during < before * 0.75,
            "cap must bite: {before} -> {during}"
        );
        assert!(
            after > during,
            "headroom must recover after the window: {during} -> {after}"
        );
        assert!(
            after > before * 0.8,
            "recovery must approach the pre-cap level: {before} -> {after}"
        );

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
        let hot =
            ClusterSimulator::new(ExperimentConfig::small_smoke_test().with_scenario(heatwave))
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
        let surged =
            ClusterSimulator::new(ExperimentConfig::small_smoke_test().with_scenario(surge)).run();
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
        let fleet = FleetConfig::single_site(config.clone());
        let replayed = FleetSimulator::with_arrivals(fleet, trace)
            .run()
            .sites
            .remove(0);
        let generated = ClusterSimulator::new(config).run();
        assert_eq!(
            serde_json::to_string(&replayed).expect("serialize"),
            serde_json::to_string(&generated).expect("serialize"),
            "replaying the generated trace must be bit-identical to generating it"
        );
    }

    /// Steps the simulator at `now` and checks that the registry is the one copy of the
    /// placed SaaS instances: the state's per-row SaaS counts (the configurator's headroom
    /// share) equal a recount of its pools, its per-server position index round-trips every
    /// pool entry, every other server reads the sentinel, and every instance's risk row is
    /// a fresh [`RiskRow::of`] its server prepared for the step (so each row moved with its
    /// instance through every swap-remove). Returns the number of rows checked.
    fn step_and_check_registry(sim: &mut ClusterSimulator, now: SimTime) -> usize {
        // The step prepares its rows under the carried-over load, which it then replaces.
        let (outside, dc_load) = (sim.outside_temp(now), sim.prev_dc_load);
        sim.step(now);
        let mut rows = 0;
        for pool in &sim.registry.pools {
            for (row, &server) in pool.risk.iter().zip(&pool.server) {
                let mut fresh = RiskRow::of(sim.profiles.server(server));
                fresh.prepare(outside, dc_load);
                assert_eq!(
                    format!("{row:?}"),
                    format!("{fresh:?}"),
                    "{server} at {now:?}"
                );
                rows += 1;
            }
        }
        let layout = sim.dc.layout();
        let mut per_row = vec![0usize; layout.rows().len()];
        let mut indexed = vec![false; layout.server_count()];
        for (endpoint, pool) in sim.registry.pools.iter().enumerate() {
            for (position, (&vm, &server)) in pool.vm.iter().zip(&pool.server).enumerate() {
                per_row[layout.server(server).row.index()] += 1;
                assert_eq!(
                    sim.registry.position(server),
                    Some(position),
                    "{vm} on {server}"
                );
                let placed = sim
                    .state
                    .vm_on(server)
                    .expect("an instance's server is occupied");
                assert_eq!(placed.vm.id, vm);
                assert_eq!(placed.vm.kind.endpoint(), Some(EndpointId(endpoint as u64)));
                indexed[server.index()] = true;
            }
        }
        for row in layout.rows() {
            assert_eq!(
                sim.state.row_mix(layout, row.id).1,
                per_row[row.id.index()],
                "{}",
                row.id
            );
        }
        for server in layout.servers() {
            if !indexed[server.id.index()] {
                assert_eq!(sim.registry.position(server.id), None, "{}", server.id);
                assert!(sim
                    .state
                    .vm_on(server.id)
                    .is_none_or(|p| !p.vm.kind.is_saas()));
            }
        }
        rows
    }

    /// The configurator's limits for instance `position` of pool `endpoint`, built from the
    /// server's profile per instance, as the configurator did before it read the
    /// registry's risk rows.
    fn per_instance_limits(
        sim: &ClusterSimulator,
        (endpoint, position): (usize, usize),
        (outside, power_cap, thermal_target): (Celsius, f64, Celsius),
    ) -> InstanceLimits {
        let pool = &sim.registry.pools[endpoint];
        let profile = sim.profiles.server(pool.server[position]);
        let row = profile.row;
        let inlet = profile.predicted_inlet(outside, sim.prev_dc_load);
        let max_gpu_power = profile.gpu_power_budget(inlet, thermal_target);
        let row_budget = sim.profiles.row_budget(row) * power_cap;
        let row_now = sim.routing_context.row_power[row.index()];
        let headroom = row_budget * 0.97 - row_now;
        let current_power = profile.predicted_power(pool.utilization[position]);
        let max_server_power = if headroom.value() >= 0.0 {
            let saas_in_row = sim.state.row_mix(sim.dc.layout(), row).1;
            let share = headroom / saas_in_row.max(1) as f64;
            Kilowatts::new((current_power + share).value().max(0.3))
        } else {
            let scale = (row_budget * 0.97).value() / row_now.value();
            Kilowatts::new((current_power.value() * scale).max(0.3))
        };
        let goodput = if pool.goodput[position].is_nan() {
            FALLBACK_GOODPUT
        } else {
            pool.goodput[position]
        };
        InstanceLimits {
            max_gpu_power: Watts::new(max_gpu_power.value().max(1.0)),
            max_server_power,
            demand_tokens_per_s: pool.pressure[position] * goodput,
        }
    }

    #[test]
    fn shared_risk_rows_give_the_per_instance_configurator_limits() {
        let mut sim = cell(ExperimentConfig::real_cluster_hour(Policy::Tapas));
        let mut clock = SimClock::new(sim.config.step, sim.config.duration);
        let (mut compared, mut over_budget, mut gpu_floored) = (0usize, 0usize, 0usize);
        loop {
            let now = clock.now();
            sim.step(now);
            // The registry's rows prepared as `begin_step` prepares them, under three
            // contexts. The last context's thermal target is below the inlet, so its
            // per-GPU budgets hit the 1 W floor.
            let target = sim.profiles.thermal_headroom_target;
            let contexts = [
                (18.0, 1.0, target),
                (41.0, 0.6, target),
                (30.0, 0.05, Celsius::new(25.0)),
            ];
            for (outside, power_cap, thermal_target) in contexts {
                let outside = Celsius::new(outside);
                let dc_load = sim.prev_dc_load;
                for row in sim
                    .registry
                    .pools
                    .iter_mut()
                    .flat_map(|pool| &mut pool.risk)
                {
                    row.prepare(outside, dc_load);
                }
                let layout = sim.dc.layout();
                let envelopes: Vec<RowEnvelope> = (0..sim.profiles.row_count())
                    .map(|ordinal| {
                        let row = RowId::new(ordinal);
                        RowEnvelope::new(
                            sim.profiles.row_budget(row) * power_cap,
                            sim.routing_context.row_power[ordinal],
                            sim.state.row_mix(layout, row).1,
                        )
                    })
                    .collect();
                for (endpoint, pool) in sim.registry.pools.iter().enumerate() {
                    for position in 0..pool.len() {
                        let context = (outside, power_cap, thermal_target);
                        let expected = per_instance_limits(&sim, (endpoint, position), context);
                        let risk = &pool.risk[position];
                        let envelope = &envelopes[risk.row().index()];
                        let utilization = pool.utilization[position];
                        let demand = expected.demand_tokens_per_s;
                        let limits =
                            instance_limits(risk, envelope, thermal_target, utilization, demand);
                        let bits = |l: &InstanceLimits| {
                            [
                                l.max_gpu_power.value().to_bits(),
                                l.max_server_power.value().to_bits(),
                                l.demand_tokens_per_s.to_bits(),
                            ]
                        };
                        let server = pool.server[position];
                        assert_eq!(bits(&limits), bits(&expected), "{server} at {now:?}");
                        compared += 1;
                        over_budget += usize::from(envelope.headroom.value() < 0.0);
                        gpu_floored += usize::from(limits.max_gpu_power.value() == 1.0);
                    }
                }
            }
            if clock.tick().is_none() {
                break;
            }
        }
        assert!(compared > 5000, "only {compared} instances compared");
        assert!(
            over_budget > 2000,
            "only {over_budget} instances in over-budget rows"
        );
        let with_headroom = compared - over_budget;
        assert!(
            with_headroom > 2000,
            "only {with_headroom} instances in rows with headroom"
        );
        assert!(
            gpu_floored > 1000,
            "only {gpu_floored} per-GPU budgets at the floor"
        );
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
                    VmKind::Saas {
                        endpoint: EndpointId(i % 2),
                    }
                } else {
                    VmKind::Iaas {
                        customer: IaasCustomerId(i % 14),
                    }
                },
                arrival: SimTime::from_minutes(i * 3),
                lifetime: SimDuration::from_minutes(60 + (i * 37) % 300),
            })
            .collect();
        let mut sim = cell_with(config, arrivals);
        let mut clock = SimClock::new(sim.config.step, sim.config.duration);
        // Last IaaS VM seen on each server: a different one later means the server was
        // freed by a retirement and re-occupied.
        let mut tenant: Vec<Option<VmId>> = vec![None; sim.state.server_count()];
        let (mut checked, mut reoccupied, mut rows) = (0usize, 0usize, 0usize);
        loop {
            let now = clock.now();
            rows += step_and_check_registry(&mut sim, now);
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
        assert!(rows >= 50, "only {rows} risk rows checked");
    }

    #[test]
    fn registry_tracks_placements_and_retirements() {
        use simkit::time::SimDuration;
        use std::collections::HashMap;
        let mut config = ExperimentConfig::small_smoke_test();
        config.policy = Policy::Tapas;
        config.endpoint_count = 3;
        config.duration = SimTime::from_hours(24);
        config.step = SimDuration::from_minutes(10);
        // Mostly SaaS VMs over three endpoints, short-lived so that instances retire from
        // the middle of their pools and the swap-remove moves another one into the gap.
        let arrivals = (0..150u64)
            .map(|i| Vm {
                id: VmId(i),
                kind: if i % 4 == 3 {
                    VmKind::Iaas {
                        customer: IaasCustomerId(i % 12),
                    }
                } else {
                    VmKind::Saas {
                        endpoint: EndpointId(i % 3),
                    }
                },
                arrival: SimTime::from_minutes(i * 9),
                lifetime: SimDuration::from_minutes(30 + (i * 53) % 150),
            })
            .collect();
        let mut sim = cell_with(config, arrivals);
        let mut clock = SimClock::new(sim.config.step, sim.config.duration);
        let mut positions: HashMap<VmId, usize> = HashMap::new();
        let (mut retired, mut moved) = (0usize, 0usize);
        loop {
            let now = clock.now();
            step_and_check_registry(&mut sim, now);
            // Registry and cluster state must agree after every step.
            let saas_in_state = sim.state.placed().filter(|p| p.vm.kind.is_saas()).count();
            let registered: usize = sim.registry.pools.iter().map(EndpointPool::len).sum();
            assert_eq!(registered, saas_in_state);
            let previous = std::mem::take(&mut positions);
            for pool in &sim.registry.pools {
                for (position, &vm) in pool.vm.iter().enumerate() {
                    moved += usize::from(previous.get(&vm).is_some_and(|&p| p != position));
                    positions.insert(vm, position);
                }
            }
            retired += previous
                .keys()
                .filter(|vm| !positions.contains_key(vm))
                .count();
            for pool in &sim.registry.pools {
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
                assert_eq!(pool.pressure.len(), n);
                assert_eq!(pool.risk.len(), n);
            }
            if clock.tick().is_none() {
                break;
            }
        }
        assert!(retired >= 50, "only {retired} SaaS retirements");
        assert!(moved >= 25, "only {moved} instances moved by a swap-remove");
    }

    /// The quantum loop of [`ClusterSimulator::route_requests`] without route keys or
    /// risk rows: every quantum's risk flags come fresh from `fill_risk_flags` over the
    /// current columns and its pick from `route_prescored`, with the same draws and column
    /// updates. Returns the number of quanta routed and how many saw both risky and safe
    /// candidates.
    fn route_quanta_prescored(
        sim: &mut ClusterSimulator,
        now: SimTime,
        outside: Celsius,
    ) -> (usize, usize) {
        use llm_sim::request::{InferenceRequest, RequestId};
        use tapas::routing::RouterScratch;
        sim.routing_context.outside_temp = outside;
        sim.routing_context.dc_load = sim.prev_dc_load;
        let config = &sim.router_tapas.config;
        sim.prepared_routing
            .refresh(&sim.routing_context, config, &sim.profiles);
        sim.registry.begin_step(now, outside, sim.prev_dc_load);
        let mut scratch = RouterScratch::default();
        scratch.begin_step(sim.profiles.server_count());
        let mut flags = Vec::new();
        let step_minutes = sim.config.step.as_minutes() as f64;
        let step_seconds = step_minutes * 60.0;
        let (mut routed, mut mixed) = (0, 0);
        for endpoint in sim.catalog.endpoints() {
            let pattern = &sim.endpoint_patterns[endpoint.id.0 as usize];
            let total_requests = endpoint.peak_requests_per_minute
                * pattern.load_at(now)
                * sim.timeline.demand_scale_at(now, endpoint.id)
                * step_minutes;
            let pool = &mut sim.registry.pools[endpoint.id.0 as usize];
            if total_requests <= 0.0 || pool.len() == 0 {
                continue;
            }
            let quanta = (pool.len() * 2).clamp(1, 64);
            let requests_per_quantum = total_requests / quanta as f64;
            for _ in 0..quanta {
                let customer = CustomerId(sim.rng.next_u64() % endpoint.customers.max(1));
                let (router, prepared) = (&sim.router_tapas, &sim.prepared_routing);
                let view = pool.view();
                router.fill_risk_flags(&view, &sim.profiles, prepared, &mut scratch, &mut flags);
                let request = InferenceRequest {
                    id: RequestId(routed as u64),
                    customer,
                    arrival: now,
                    prompt_tokens: 512,
                    output_tokens: 200,
                };
                let index = router
                    .route_prescored(&request, &view, &flags)
                    .expect("a non-empty pool always routes");
                pool.offered[index] += requests_per_quantum;
                pool.outstanding[index] += requests_per_quantum.ceil() as u32;
                let goodput = if pool.goodput[index].is_nan() {
                    FALLBACK_GOODPUT
                } else {
                    pool.goodput[index]
                };
                let capacity = (goodput * step_seconds / MEAN_TOKENS_PER_REQUEST).max(1.0);
                pool.utilization[index] =
                    (pool.utilization[index] + requests_per_quantum / capacity).min(1.5);
                pool.recent.push(index, customer);
                routed += 1;
                mixed += usize::from(flags.contains(&true) && flags.contains(&false));
            }
        }
        (routed, mixed)
    }

    #[test]
    fn keyed_quantum_routing_matches_the_prescored_reference() {
        let mut sim = cell(ExperimentConfig::real_cluster_hour(Policy::Tapas));
        let mut clock = SimClock::new(sim.config.step, sim.config.duration);
        let (mut quanta, mut split) = (0, 0);
        loop {
            let now = clock.now();
            // One row at its routing budget each step, alternating, so the risk flags split
            // by row and a pick's refreshed flag depends on whose risk row it reads.
            let row = now.as_minutes() as usize % sim.profiles.row_count();
            let fraction = sim.router_tapas.config.row_power_risk_fraction;
            let budget = sim.profiles.row_budget(RowId::new(row)).value() * fraction;
            sim.routing_context.row_power[row] = Kilowatts::new(budget);
            let mut reference = sim.clone();
            sim.step(now);
            let outside = reference.outside_temp(now);
            reference.retire_vms(now);
            reference.place_pending_vms(now);
            let (routed, mixed) = route_quanta_prescored(&mut reference, now, outside);
            quanta += routed;
            split += mixed;
            // Each quantum's pick adds to its instance's offered load and pushes its
            // customer into the instance's recent window, so equal columns mean each
            // instance took the same quanta, for the same customers, in the same order.
            for (pool, expected) in sim.registry.pools.iter().zip(&reference.registry.pools) {
                let bits = |p: &EndpointPool| p.offered.iter().map(|o| o.to_bits()).collect();
                let offered: Vec<u64> = bits(pool);
                assert_eq!(offered, bits(expected), "offered load at {now:?}");
                assert_eq!(
                    format!("{:?}", pool.recent.windows()),
                    format!("{:?}", expected.recent.windows()),
                    "recent windows at {now:?}"
                );
            }
            if clock.tick().is_none() {
                break;
            }
        }
        assert!(quanta > 5000, "only {quanta} quanta compared");
        assert!(
            split > quanta / 4,
            "only {split} of {quanta} quanta saw mixed risk flags"
        );
    }
}
