//! The traced run and the per-layer replays.
//!
//! The simulator is not instrumented. The traced run times each `FleetSimulator::step`
//! call from outside; every other layer number comes from calling that layer's public
//! functions from here, fed with the workload's own inputs: its VM stream, its layouts,
//! its endpoint catalogs, the placement the replay itself produced, and the site signals
//! the traced run recorded after each step.
//!
//! Layer → the end-to-end metric it should move, and on which workload:
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | `cluster` (step loop) | `cluster.*` | `run_s` everywhere; `cluster.first_step_ms` is most of `run_s` on `site10240_day` |
//! | `core.placement` | `placement.*` | `run_s` on `site10240_day`; no change on `site1040_week`, `fabric80_day` |
//! | `core.routing` | `routing.*` | `run_s` on `site1040_week` and the steady steps of `site10240_day` |
//! | `core.configurator` | `configurator.*` | `run_s` on `site1040_week`, `site10240_day` |
//! | `datacenter` (physics) | `physics.*` | at most its ≤5 % share of `run_s` anywhere |
//! | `cluster.fabric` + `llm.batch` | `fabric.*` | `run_s` on `fabric80_day`, `fleet4_chaos`; no change on the `site*` workloads |
//! | `core.geo` | `geo.*` | `run_s` on `fleet4_chaos` only |
//! | `workload`, `core.profiles` | `workload.vm_stream_ms`, `profiles.build_ms` | `setup_s` |
//!
//! `layers.coverage` is the replayed per-step cost of routing, configurator, physics and
//! (where they run in situ) fabric and geo, over the traced median step: how much of a
//! steady step the replays explain. Replays of layers a workload does not run in situ (the
//! fabric with the fabric off, geo routing on a pinned single site) are counterfactual:
//! they are measured over a bounded window, reported, and left out of the coverage.

use crate::Metric;
use cluster_sim::experiment::{FleetConfig, GeoPolicy};
use cluster_sim::fabric::{FabricGenerator, FabricRequest, RequestFabric, MS_PER_MINUTE};
use cluster_sim::fleet::FleetSimulator;
use cluster_sim::metrics::RequestMetrics;
use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::ids::ServerId;
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::request::{CustomerId, InferenceRequest, RequestId};
use simkit::queue::EventQueue;
use simkit::rng::SimRng;
use simkit::time::{SimClock, SimTime};
use simkit::units::{Celsius, Kilowatts, Watts};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tapas::configurator::{InstanceConfigurator, InstanceLimits};
use tapas::geo::{GeoPlacement, SiteSignals};
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::profiles::ProfileStore;
use tapas::routing::{
    CandidateView, PreparedRoutingContext, RecentWindow, RouterScratch, RoutingContext, TapasRouter,
};
use tapas::state::ClusterState;
use workload::endpoints::EndpointId;
use workload::iaas::IaasLoadModel;
use workload::vm::{Vm, VmId, VmKind};

/// The per-layer metrics a `--trace 1` run reports, in order.
pub const PER_LAYER: [&str; 31] = [
    "cluster.first_step_ms",
    "cluster.step_p50_ms",
    "cluster.step_p95_ms",
    "cluster.step_tail_ms",
    "cluster.step_tail_pct",
    "cluster.step_samples",
    "cluster.steps",
    "cluster.vms_placed",
    "cluster.reconfigurations",
    "trace.overhead",
    "placement.calls",
    "placement.ns_per_call",
    "placement.rejected",
    "routing.quanta_per_step",
    "routing.ns_per_quantum",
    "routing.us_per_step",
    "configurator.selects_per_step",
    "configurator.ns_per_select",
    "physics.us_per_step",
    "physics.ns_per_server",
    "fabric.requests",
    "fabric.ns_per_request",
    "fabric.preemptions",
    "fabric.shed",
    "fabric.goodput_fraction",
    "fabric.ttft_p50_ms",
    "geo.requests",
    "geo.ns_per_request",
    "workload.vm_stream_ms",
    "profiles.build_ms",
    "layers.coverage",
];

/// Steady steps the routing, configurator and physics replays run.
const REPLAY_STEPS: usize = 100;

/// Requests after which a counterfactual fabric replay (fabric off in situ) stops.
const COUNTERFACTUAL_REQUESTS: u64 = 200_000;

/// Outside temperature, datacenter load, and row/aisle fill the steady replays assume.
const REPLAY_OUTSIDE_C: f64 = 25.0;
const REPLAY_DC_LOAD: f64 = 0.6;
const REPLAY_BUDGET_FILL: f64 = 0.85;
const REPLAY_GPU_UTILIZATION: f64 = 0.6;

/// Per-step wall time and the signals each step left behind.
pub struct Traced {
    /// Wall time of each `FleetSimulator::step` call (ms).
    pub step_ms: Vec<f64>,
    /// Site signals before step 0.
    cold_signals: Vec<SiteSignals>,
    /// Site signals after each step.
    signals: Vec<Vec<SiteSignals>>,
}

/// Drives `FleetSimulator::step` over the horizon with a span per call.
pub fn traced_run(config: &FleetConfig) -> Traced {
    let mut sim = FleetSimulator::new(config.clone());
    let cold_signals = sim.signals().to_vec();
    let mut clock = SimClock::new(config.base.step, config.base.duration);
    let mut step_ms = Vec::new();
    let mut signals = Vec::new();
    loop {
        let now = clock.now();
        let start = Instant::now();
        sim.step(now);
        step_ms.push(start.elapsed().as_secs_f64() * 1e3);
        signals.push(sim.signals().to_vec());
        if clock.tick().is_none() {
            break;
        }
    }
    Traced {
        step_ms,
        cold_signals,
        signals,
    }
}

/// One site as the placement replay left it.
struct Site {
    dc: Datacenter,
    profiles: ProfileStore,
    /// Servers hosting a VM after the t = 0 wave.
    occupied: Vec<ServerId>,
    /// Placed SaaS instances per endpoint ordinal: `(vm, server, config)`.
    instances: Vec<Vec<(VmId, ServerId, InstanceConfig)>>,
    /// Customer count per endpoint ordinal (for the routing replay's request draws).
    customers: Vec<u64>,
}

impl Site {
    fn replicas(&self) -> impl Iterator<Item = u32> + '_ {
        self.instances.iter().map(|pool| pool.len() as u32)
    }
}

/// Everything the replays measured.
pub struct Replays {
    metrics: Vec<Metric>,
    /// Replayed µs per steady step of the layers that run in situ.
    covered_us_per_step: f64,
    /// Human-readable remarks (counterfactual replays, check results).
    pub notes: Vec<String>,
}

impl Replays {
    /// The replay metrics plus `layers.coverage` against the traced median step.
    pub fn metrics(self, step_p50_ms: f64) -> Vec<Metric> {
        let mut metrics = self.metrics;
        metrics.push(Metric::new(
            "layers.coverage",
            self.covered_us_per_step / (step_p50_ms * 1e3),
            "ratio",
        ));
        metrics
    }
}

fn ns(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// Runs every layer replay on the workload's inputs.
pub fn replay(config: &FleetConfig, traced: &Traced) -> Result<Replays, String> {
    if !config.base.policy.placement_enabled() {
        return Err("the placement replay assumes TAPAS placement".into());
    }
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut covered_ns_per_step = 0.0;

    // workload: the fleet-wide catalog and VM stream.
    let start = Instant::now();
    let catalog = config.base.endpoint_catalog();
    let stream = config.base.vm_stream(&catalog, config.arrival_scale);
    metrics.push(Metric::new("workload.vm_stream_ms", ns(start) / 1e6, "ms"));

    // Split the t = 0 wave across sites exactly as step 0 does.
    let site_count = config.site_count();
    let mut waves: Vec<Vec<Vm>> = vec![Vec::new(); site_count];
    let mut geo = GeoPlacement::default();
    geo.begin_step(site_count);
    for vm in stream.iter().take_while(|vm| vm.arrival <= SimTime::ZERO) {
        let site = match config.geo {
            GeoPolicy::Pinned(site) => site,
            GeoPolicy::Headroom => geo.choose(&traced.cold_signals),
            GeoPolicy::RoundRobin => return Err("round-robin geo routing is not replayed".into()),
        };
        waves[site].push(*vm);
    }

    // core.profiles + core.placement, per site.
    let gpu = GpuHardware::a100();
    let placement = TapasPlacement::default();
    let (mut profiles_ns, mut placement_ns, mut calls, mut rejected) = (0.0, 0.0, 0u64, 0u64);
    let mut sites = Vec::with_capacity(site_count);
    for (ordinal, wave) in waves.iter().enumerate() {
        let experiment = config.site_experiment(ordinal);
        let dc = Datacenter::new(experiment.layout.build(), experiment.seed);
        let start = Instant::now();
        let profiles = ProfileStore::offline_profiling(&dc, &gpu);
        profiles_ns += ns(start);
        let site_catalog = experiment.endpoint_catalog();
        let iaas = IaasLoadModel::new(12, experiment.seed);
        let mut state = ClusterState::with_layout(dc.layout());
        let mut planner =
            PlacementPlanner::new(&state, dc.layout(), &profiles, placement.config.design);
        let mut site = Site {
            occupied: Vec::new(),
            instances: vec![Vec::new(); site_catalog.len()],
            customers: site_catalog
                .endpoints()
                .iter()
                .map(|e| e.customers.max(1))
                .collect(),
            dc,
            profiles,
        };
        for &vm in wave {
            if vm.departure() <= SimTime::ZERO {
                continue;
            }
            let predicted_peak_load = match vm.kind {
                VmKind::Iaas { customer } => iaas.predicted_peak(customer),
                VmKind::Saas { .. } => 0.9,
            };
            let request = PlacementRequest {
                vm,
                predicted_peak_load,
            };
            let start = Instant::now();
            let chosen = placement.place_with(
                &request,
                &state,
                site.dc.layout(),
                &site.profiles,
                &mut planner,
            );
            placement_ns += ns(start);
            calls += 1;
            let Some(server) = chosen else {
                rejected += 1;
                continue;
            };
            let instance_config = match vm.kind {
                VmKind::Saas { endpoint } => {
                    let default = site_catalog
                        .get(endpoint)
                        .map_or_else(InstanceConfig::default_70b, |e| e.default_config);
                    site.instances[endpoint.0 as usize].push((vm.id, server, default));
                    Some(default)
                }
                VmKind::Iaas { .. } => None,
            };
            state
                .place(vm, server, predicted_peak_load, instance_config)
                .map_err(|e| format!("placement replay chose an occupied server: {e}"))?;
            planner.on_place(server, predicted_peak_load, &site.profiles);
            site.occupied.push(server);
        }
        sites.push(site);
    }
    // The replay must reproduce the in-situ wave on site 0.
    let site0_servers = sites[0].dc.layout().server_count();
    let free_after_step0 = traced.signals[0][0].free_servers as usize;
    if sites[0].occupied.len() != site0_servers - free_after_step0 {
        return Err(format!(
            "placement replay placed {} VMs on site 0, but step 0 left {} of {} servers free",
            sites[0].occupied.len(),
            free_after_step0,
            site0_servers
        ));
    }
    notes.push(format!(
        "placement replay matches step 0 on site 0: {} placed, {} free",
        sites[0].occupied.len(),
        free_after_step0
    ));
    metrics.push(Metric::new("profiles.build_ms", profiles_ns / 1e6, "ms"));
    metrics.push(Metric::new("placement.calls", calls as f64, "count"));
    metrics.push(Metric::new(
        "placement.ns_per_call",
        placement_ns / calls.max(1) as f64,
        "ns",
    ));
    metrics.push(Metric::new("placement.rejected", rejected as f64, "count"));

    // core.routing
    let (routing_ns, quanta) = replay_routing(&sites, config.base.seed);
    let per_step = routing_ns / REPLAY_STEPS as f64;
    covered_ns_per_step += per_step;
    metrics.push(Metric::new(
        "routing.quanta_per_step",
        quanta as f64 / REPLAY_STEPS as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "routing.ns_per_quantum",
        routing_ns / quanta.max(1) as f64,
        "ns",
    ));
    metrics.push(Metric::new("routing.us_per_step", per_step / 1e3, "us"));

    // core.configurator
    let (select_ns, selects) = replay_configurator(&sites);
    covered_ns_per_step += select_ns / REPLAY_STEPS as f64;
    metrics.push(Metric::new(
        "configurator.selects_per_step",
        selects as f64 / REPLAY_STEPS as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "configurator.ns_per_select",
        select_ns / selects.max(1) as f64,
        "ns",
    ));

    // datacenter physics
    let physics_ns = replay_physics(&sites);
    let servers: usize = sites.iter().map(|s| s.dc.layout().server_count()).sum();
    let per_step = physics_ns / REPLAY_STEPS as f64;
    covered_ns_per_step += per_step;
    metrics.push(Metric::new("physics.us_per_step", per_step / 1e3, "us"));
    metrics.push(Metric::new(
        "physics.ns_per_server",
        per_step / servers as f64,
        "ns",
    ));

    // cluster.fabric + llm.batch, and core.geo
    let fabric = replay_fabric(config, traced, &sites)?;
    let in_situ_fabric = config.base.request_fabric.is_some();
    let in_situ_geo = in_situ_fabric && config.geo == GeoPolicy::Headroom;
    if in_situ_fabric {
        covered_ns_per_step += fabric.fabric_ns / fabric.steps as f64;
    } else {
        notes.push(format!(
            "fabric off in situ: fabric.* replay the default fabric over the first {} steps \
             (counterfactual, not in layers.coverage)",
            fabric.steps
        ));
    }
    if in_situ_geo {
        covered_ns_per_step += fabric.geo_ns / fabric.steps as f64;
    } else {
        notes.push(
            "no per-request geo routing in situ: geo.* are counterfactual, not in layers.coverage"
                .into(),
        );
    }
    let life = fabric.metrics.lifecycle;
    metrics.push(Metric::new("fabric.requests", life.arrived as f64, "count"));
    metrics.push(Metric::new(
        "fabric.ns_per_request",
        fabric.fabric_ns / life.arrived.max(1) as f64,
        "ns",
    ));
    metrics.push(Metric::new(
        "fabric.preemptions",
        life.preemptions as f64,
        "count",
    ));
    metrics.push(Metric::new("fabric.shed", life.shed as f64, "count"));
    metrics.push(Metric::new(
        "fabric.goodput_fraction",
        life.goodput_fraction(),
        "fraction",
    ));
    metrics.push(Metric::new(
        "fabric.ttft_p50_ms",
        fabric.metrics.ttft.quantile_edge_ms(0.5) as f64,
        "sim_ms",
    ));
    metrics.push(Metric::new(
        "geo.requests",
        fabric.geo_requests as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "geo.ns_per_request",
        fabric.geo_ns / fabric.geo_requests.max(1) as f64,
        "ns",
    ));

    Ok(Replays {
        metrics,
        covered_us_per_step: covered_ns_per_step / 1e3,
        notes,
    })
}

/// One endpoint's routable instances, as struct-of-arrays columns.
struct Pool {
    vm: Vec<VmId>,
    server: Vec<ServerId>,
    outstanding: Vec<u32>,
    utilization: Vec<f64>,
    in_transition: Vec<bool>,
    recent: Vec<RecentWindow>,
    risky: Vec<bool>,
    customers: u64,
}

impl Pool {
    fn view(&self) -> CandidateView<'_> {
        CandidateView {
            vm: &self.vm,
            server: &self.server,
            outstanding: &self.outstanding,
            utilization: &self.utilization,
            in_transition: &self.in_transition,
            recent: &self.recent,
        }
    }

    fn reset(&mut self) {
        self.outstanding.fill(0);
        self.utilization.fill(0.5);
    }
}

/// `fill_risk_flags` + `route_prescored` over every placed pool, at the simulator's
/// min(2 × pool, 64) quanta per endpoint per step. Returns `(ns, quanta routed)`.
fn replay_routing(sites: &[Site], seed: u64) -> (f64, u64) {
    let router = TapasRouter::default();
    let mut rng = SimRng::seed_from(seed).derive("perfbench-routing");
    let (mut total_ns, mut quanta_routed, mut next_id) = (0.0, 0u64, 0u64);
    for site in sites {
        let profiles = &site.profiles;
        let context = RoutingContext::uniform(
            profiles,
            Celsius::new(REPLAY_OUTSIDE_C),
            REPLAY_DC_LOAD,
            REPLAY_BUDGET_FILL,
            REPLAY_BUDGET_FILL,
        );
        let mut prepared = PreparedRoutingContext::new(&context, &router.config, profiles);
        let mut scratch = RouterScratch::default();
        let mut pools: Vec<Pool> = site
            .instances
            .iter()
            .zip(&site.customers)
            .filter(|(instances, _)| !instances.is_empty())
            .map(|(instances, &customers)| Pool {
                vm: instances.iter().map(|i| i.0).collect(),
                server: instances.iter().map(|i| i.1).collect(),
                outstanding: vec![0; instances.len()],
                utilization: vec![0.5; instances.len()],
                in_transition: vec![false; instances.len()],
                recent: vec![RecentWindow::new(); instances.len()],
                risky: Vec::new(),
                customers,
            })
            .collect();
        for _ in 0..REPLAY_STEPS {
            let start = Instant::now();
            prepared.refresh(&context, &router.config, profiles);
            scratch.begin_step(profiles.server_count());
            for pool in &mut pools {
                let mut risky = std::mem::take(&mut pool.risky);
                router.fill_risk_flags(&pool.view(), profiles, &prepared, &mut scratch, &mut risky);
                pool.risky = risky;
                for _ in 0..(pool.vm.len() * 2).clamp(1, 64) {
                    let request = InferenceRequest {
                        id: RequestId(next_id),
                        customer: CustomerId(rng.next_u64() % pool.customers),
                        arrival: SimTime::ZERO,
                        prompt_tokens: 512,
                        output_tokens: 200,
                    };
                    next_id += 1;
                    let Some(i) = router.route_prescored(&request, &pool.view(), &pool.risky)
                    else {
                        continue;
                    };
                    quanta_routed += 1;
                    pool.outstanding[i] += 1;
                    pool.utilization[i] = (pool.utilization[i] + 0.02).min(1.5);
                    pool.recent[i].push(request.customer);
                    pool.risky[i] = router.candidate_risk(
                        pool.server[i],
                        pool.utilization[i],
                        profiles,
                        &prepared,
                        &mut scratch,
                    );
                }
            }
            total_ns += ns(start);
            pools.iter_mut().for_each(Pool::reset);
        }
    }
    (total_ns, quanta_routed)
}

/// `InstanceConfigurator::select` for every placed SaaS instance, under limits derived
/// the way the simulator derives them (thermal budget at the replay inlet, a share of the
/// row's power headroom, demand at the replay utilization). Returns `(ns, selects)`.
fn replay_configurator(sites: &[Site]) -> (f64, u64) {
    let configurator = InstanceConfigurator::new(0.9);
    let (mut total_ns, mut selects) = (0.0, 0u64);
    for site in sites {
        let profiles = &site.profiles;
        let mut saas_per_row = vec![0u32; profiles.row_count()];
        for &(_, server, _) in site.instances.iter().flatten() {
            saas_per_row[profiles.server(server).row.index()] += 1;
        }
        let work: Vec<(InstanceConfig, InstanceLimits)> = site
            .instances
            .iter()
            .flatten()
            .map(|&(_, server, config)| {
                let profile = profiles.server(server);
                let inlet = profile.predicted_inlet(Celsius::new(REPLAY_OUTSIDE_C), REPLAY_DC_LOAD);
                let max_gpu_power =
                    profile.gpu_power_budget(inlet, profiles.thermal_headroom_target);
                let row_budget = profiles.row_budget(profile.row);
                let headroom = row_budget * 0.97 - row_budget * REPLAY_BUDGET_FILL;
                let share = headroom / f64::from(saas_per_row[profile.row.index()].max(1));
                let current = profile.predicted_power(REPLAY_GPU_UTILIZATION);
                let goodput = profiles
                    .profile_for(&config)
                    .map_or(1000.0, |p| p.goodput_tokens_per_s);
                let limits = InstanceLimits {
                    max_gpu_power: Watts::new(max_gpu_power.value().max(1.0)),
                    max_server_power: Kilowatts::new((current + share).value().max(0.3)),
                    demand_tokens_per_s: REPLAY_GPU_UTILIZATION * goodput,
                };
                (config, limits)
            })
            .collect();
        for _ in 0..REPLAY_STEPS {
            let start = Instant::now();
            for (config, limits) in &work {
                black_box(configurator.select(config, limits, profiles));
            }
            total_ns += ns(start);
            selects += work.len() as u64;
        }
    }
    (total_ns, selects)
}

/// `Datacenter::evaluate_into` on each site's layout with the replayed placement loaded.
/// Returns the ns summed over sites and steps.
fn replay_physics(sites: &[Site]) -> f64 {
    let mut total_ns = 0.0;
    for site in sites {
        let mut input = StepInput::idle(site.dc.layout(), Celsius::new(REPLAY_OUTSIDE_C));
        for server in &site.occupied {
            let activity = input.activity.server_mut(server.index());
            activity.gpu_utilization.fill(REPLAY_GPU_UTILIZATION);
            activity.frequency_scale.fill(1.0);
            *activity.memory_boundedness = 0.5;
        }
        let mut workspace = StepWorkspace::for_topology(Arc::clone(site.dc.topology()));
        site.dc.evaluate_into(&input, &mut workspace);
        let start = Instant::now();
        for _ in 0..REPLAY_STEPS {
            site.dc.evaluate_into(black_box(&input), &mut workspace);
        }
        total_ns += ns(start);
        black_box(&workspace);
    }
    total_ns
}

struct FabricReplay {
    metrics: RequestMetrics,
    fabric_ns: f64,
    geo_ns: f64,
    geo_requests: u64,
    steps: usize,
}

/// The fleet's request path, layer by layer: `FabricGenerator::generate_step` into the
/// event queue, `GeoPlacement::choose_request` per request against the signals the traced
/// run recorded, then `RequestFabric::deliver` + `serve_step` per site with the replayed
/// placement's replicas (minus the scenario's failed replicas). Geo routing is timed on
/// its own; everything else counts as fabric time.
fn replay_fabric(
    config: &FleetConfig,
    traced: &Traced,
    sites: &[Site],
) -> Result<FabricReplay, String> {
    let in_situ = config.base.request_fabric;
    let fabric_config = in_situ.unwrap_or_default();
    let mut generated = fabric_config;
    generated.rate_scale *= config.arrival_scale;
    let catalog = config.base.endpoint_catalog();
    let mut generator = FabricGenerator::new(config.base.seed, &catalog, generated);
    let base_timeline = config.base.resolved_timeline();
    let timelines: Vec<_> = (0..sites.len()).map(|s| config.site_timeline(s)).collect();
    let mut fabrics: Vec<RequestFabric> = (0..sites.len())
        .map(|s| {
            let experiment = config.site_experiment(s);
            RequestFabric::new(
                experiment.seed,
                &experiment.endpoint_catalog(),
                fabric_config,
                false,
            )
        })
        .collect();
    let mut geo = GeoPlacement::default();
    geo.set_request_endpoints(catalog.len());
    let mut queue = EventQueue::new();
    let mut batch: Vec<(u64, FabricRequest)> = Vec::new();
    let mut routed: Vec<usize> = Vec::new();
    let mut replicas: Vec<Vec<u32>> = sites.iter().map(|s| s.replicas().collect()).collect();
    let mut signals = traced.cold_signals.clone();
    let step = config.base.step;
    let (mut fabric_ns, mut geo_ns, mut geo_requests, mut steps) = (0.0, 0.0, 0u64, 0usize);
    let mut clock = SimClock::new(step, config.base.duration);
    loop {
        let now = clock.now();
        if steps > 0 {
            signals.clone_from(&traced.signals[steps - 1]);
        }
        for ((signal, timeline), (site, counts)) in signals
            .iter_mut()
            .zip(&timelines)
            .zip(sites.iter().zip(&mut replicas))
        {
            signal.grid_price_per_mwh = timeline.grid_price_at(now);
            for ((count, placed), endpoint) in counts.iter_mut().zip(site.replicas()).zip(0u64..) {
                *count =
                    placed.saturating_sub(timeline.failed_replicas_at(now, EndpointId(endpoint)));
            }
        }
        let end_ms = (now.as_minutes() + step.as_minutes()) * MS_PER_MINUTE;

        let start = Instant::now();
        generator.generate_step(now, step, &base_timeline, &mut queue);
        batch.clear();
        queue.drain_until(end_ms - 1, |time, request| batch.push((time, request)));
        fabric_ns += ns(start);

        let start = Instant::now();
        geo.begin_step(sites.len());
        for (site, counts) in replicas.iter().enumerate() {
            geo.set_request_capacity(site, counts);
        }
        routed.clear();
        routed.extend(
            batch
                .iter()
                .map(|(_, r)| geo.choose_request(&signals, r.endpoint as usize)),
        );
        geo_ns += ns(start);
        geo_requests += batch.len() as u64;

        let start = Instant::now();
        for (&(time, request), &chosen) in batch.iter().zip(&routed) {
            let site = match config.geo {
                GeoPolicy::Pinned(site) => site,
                _ => chosen,
            };
            fabrics[site].deliver(time, request);
        }
        for (fabric, counts) in fabrics.iter_mut().zip(&replicas) {
            fabric.serve_step(now, step, counts);
        }
        fabric_ns += ns(start);

        steps += 1;
        let counterfactual_done =
            in_situ.is_none() && generator.generated() >= COUNTERFACTUAL_REQUESTS;
        if counterfactual_done || clock.tick().is_none() {
            break;
        }
    }
    let mut metrics = RequestMetrics::new();
    for fabric in &mut fabrics {
        metrics.merge(&fabric.take_metrics());
    }
    let life = metrics.lifecycle;
    if life.arrived != metrics.completed + life.shed + life.timeouts + life.in_flight_at_horizon {
        return Err("fabric replay broke the request conservation identity".into());
    }
    Ok(FabricReplay {
        metrics,
        fabric_ns,
        geo_ns,
        geo_requests,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        for (i, name) in PER_LAYER.iter().enumerate() {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(!PER_LAYER[..i].contains(name), "{name} listed twice");
        }
    }
}
