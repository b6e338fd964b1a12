//! Differential tests pinning the linear-time TAPAS allocator
//! (`TapasPlacement::place_with`: dense per-server constants, one validator scan, tercile
//! selection) to its executable reference (`TapasPlacement::place_with_reference`:
//! allocating, sort-based, computed from the profile store directly), in the same
//! driven-from-a-seeded-rng shape as `tests/soa_physics.rs`.
//!
//! Both paths see the same state and planner aggregates, and the planner is updated after
//! every pick, so every call of a case checks the next decision of a growing cluster.
//! Cases cover random layouts (some mixing A100 and H100 racks, so the planner holds
//! several hardware classes), occupancy and IaaS/SaaS mixes, states with and without the
//! topology cache, temperature ties (servers sharing one cloned profile, so the server-id
//! tie-break decides), the last few free servers (tercile edges at n = 1..4), both
//! fallbacks, and predicted peaks outside `[0, 1]`.

use cluster_sim::experiment::ExperimentConfig;
use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::{Layout, LayoutConfig, ServerSpec};
use llm_sim::hardware::GpuHardware;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simkit::units::Celsius;
use tapas::placement::{
    DesignConditions, PlacementPlanner, PlacementRequest, TapasPlacement, TapasPlacementConfig,
};
use tapas::policy::Policy;
use tapas::profiles::{ProfileStore, ServerProfile};
use tapas::state::ClusterState;
use workload::endpoints::EndpointId;
use workload::iaas::IaasLoadModel;
use workload::vm::{IaasCustomerId, Vm, VmId, VmKind};

const CASES: usize = 32;

/// Predicted peaks the random requests draw from: in range, out of range and non-finite.
const ODD_LOADS: [f64; 6] = [-0.5, 1.7, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0];

fn vm(id: u64, saas: bool) -> Vm {
    Vm {
        id: VmId(id),
        kind: if saas {
            VmKind::Saas { endpoint: EndpointId(id % 3) }
        } else {
            VmKind::Iaas { customer: IaasCustomerId(id % 5) }
        },
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_days(14),
    }
}

fn random_layout(rng: &mut SimRng) -> Layout {
    let layout = LayoutConfig {
        aisles: rng.uniform_usize(1, 4),
        racks_per_row: rng.uniform_usize(1, 4),
        servers_per_rack: rng.uniform_usize(1, 4),
        server_spec: if rng.chance(0.5) { ServerSpec::dgx_a100() } else { ServerSpec::dgx_h100() },
        row_power_provisioning: rng.uniform(0.4, 1.1),
        aisle_airflow_provisioning: rng.uniform(0.5, 1.1),
        pdu_power_provisioning: rng.uniform(0.8, 1.05),
        ups_power_provisioning: rng.uniform(0.8, 1.05),
        pdus_per_ups: rng.uniform_usize(1, 3),
        ahus_per_aisle: rng.uniform_usize(1, 3),
    }
    .build();
    if rng.chance(0.5) {
        // A mixed fleet: A100 and H100 racks, so the planner holds several hardware classes.
        layout.map_server_specs(|server| {
            if server.rack.index() % 2 == 0 {
                ServerSpec::dgx_a100()
            } else {
                ServerSpec::dgx_h100()
            }
        })
    } else {
        layout
    }
}

fn profile(layout: &Layout, seed: u64) -> ProfileStore {
    ProfileStore::offline_profiling(&Datacenter::new(layout.clone(), seed), &GpuHardware::a100())
}

/// Gives every server in `targets` the fitted models of `donor` (keeping its own id, row
/// and aisle), so their temperature estimates tie exactly.
fn clone_models(profiles: &mut ProfileStore, donor: usize, targets: &[usize]) {
    let models = profiles.servers[donor].clone();
    for &target in targets {
        let own = &profiles.servers[target];
        profiles.servers[target] =
            ServerProfile { server: own.server, row: own.row, aisle: own.aisle, ..models.clone() };
    }
}

fn random_load(rng: &mut SimRng) -> f64 {
    if rng.chance(0.15) {
        ODD_LOADS[rng.uniform_usize(0, ODD_LOADS.len())]
    } else {
        rng.uniform(0.0, 1.0)
    }
}

fn random_policy(rng: &mut SimRng) -> TapasPlacement {
    let mut config = TapasPlacementConfig::default();
    if rng.chance(0.5) {
        config.design = DesignConditions {
            design_outside_temp: Celsius::new(rng.uniform(-5.0, 45.0)),
            design_dc_load: rng.uniform(0.0, 1.0),
        };
        config.power_safety_fraction = rng.uniform(0.3, 1.05);
        config.airflow_safety_fraction = rng.uniform(0.3, 1.05);
        config.thermal_weight = rng.uniform(0.0, 2.0);
        config.balance_weight = rng.uniform(0.0, 2.0);
    }
    if rng.chance(0.1) {
        // A validator that rejects every server: both paths fall back to every free server.
        config.power_safety_fraction = 0.0;
    }
    TapasPlacement { config }
}

/// Places VMs until the cluster is full (retiring one now and then), asserting after every
/// call that both paths chose the same server. Returns the number of calls.
fn drive(
    rng: &mut SimRng,
    policy: &TapasPlacement,
    layout: &Layout,
    profiles: &ProfileStore,
    state: &mut ClusterState,
    case: usize,
) -> usize {
    let mut planner = PlacementPlanner::new(state, layout, profiles, policy.config.design);
    let mut placed: Vec<(VmId, ServerId, f64)> =
        state.placed().map(|p| (p.vm.id, p.server, p.predicted_peak_load)).collect();
    let mut next_id = 10_000;
    let mut calls = 0;
    while state.free_count() > 0 {
        if !placed.is_empty() && rng.chance(0.1) {
            let (id, server, load) = placed.swap_remove(rng.uniform_usize(0, placed.len()));
            state.remove(id).unwrap();
            planner.on_remove(server, load, profiles);
        }
        let saas = rng.chance(0.5);
        let request =
            PlacementRequest { vm: vm(next_id, saas), predicted_peak_load: random_load(rng) };
        next_id += 1;
        let fast = policy.place_with(&request, state, layout, profiles, &mut planner);
        let reference = policy.place_with_reference(&request, state, layout, profiles, &planner);
        assert_eq!(
            fast,
            reference,
            "case {case}, call {calls}: {} free, SaaS {saas}, load {}",
            state.free_count(),
            request.predicted_peak_load
        );
        calls += 1;
        let server = fast.expect("a free server always yields a placement");
        let load = request.predicted_peak_load;
        state.place(request.vm, server, load, None).unwrap();
        planner.on_place(server, load, profiles);
        placed.push((request.vm.id, server, load));
    }
    let full = PlacementRequest { vm: vm(next_id, false), predicted_peak_load: 0.5 };
    assert_eq!(policy.place_with(&full, state, layout, profiles, &mut planner), None);
    assert_eq!(policy.place_with_reference(&full, state, layout, profiles, &planner), None);
    calls
}

#[test]
fn fast_path_matches_reference_on_random_clusters() {
    let mut rng = SimRng::seed_from(0x7A7A5);
    let mut total_calls = 0;
    for case in 0..CASES {
        let layout = random_layout(&mut rng);
        let servers = layout.server_count();
        let mut profiles = profile(&layout, rng.next_u64());
        if rng.chance(0.5) {
            // Ties: most servers share one profile, so only the id tie-break separates them.
            let donor = rng.uniform_usize(0, servers);
            let targets: Vec<usize> = (0..servers).filter(|_| rng.chance(0.7)).collect();
            clone_models(&mut profiles, donor, &targets);
        }
        if rng.chance(0.15) {
            // Every candidate predicts a violation: SaaS falls back to the coolest server.
            profiles.thermal_headroom_target = Celsius::new(-100.0);
        } else if rng.chance(0.3) {
            profiles.thermal_headroom_target = Celsius::new(rng.uniform(40.0, 90.0));
        }
        let mut state = if rng.chance(0.5) {
            ClusterState::with_layout(&layout)
        } else {
            ClusterState::new(servers)
        };
        let occupancy = rng.uniform(0.0, 0.9);
        for server in 0..servers {
            if rng.chance(occupancy) {
                let load = random_load(&mut rng);
                state
                    .place(vm(server as u64, rng.chance(0.5)), ServerId::new(server), load, None)
                    .unwrap();
            }
        }
        let policy = random_policy(&mut rng);
        total_calls += drive(&mut rng, &policy, &layout, &profiles, &mut state, case);
    }
    assert!(total_calls > 200, "too few placement calls checked: {total_calls}");
}

#[test]
fn tercile_edges_and_fallbacks_match_reference() {
    let layout = LayoutConfig::real_cluster_two_rows().build();
    let mut profiles = profile(&layout, 42);
    let servers = layout.server_count();
    // Ties everywhere but on the last four servers, so equal temperatures straddle tercile
    // bounds.
    clone_models(&mut profiles, 0, &(1..servers - 4).collect::<Vec<_>>());
    let default_limit = profiles.thermal_headroom_target;
    for free in 1..=4 {
        for (power_safety_fraction, limit) in
            [(0.97, default_limit), (0.0, default_limit), (0.97, Celsius::new(-100.0))]
        {
            profiles.thermal_headroom_target = limit;
            let policy = TapasPlacement {
                config: TapasPlacementConfig { power_safety_fraction, ..Default::default() },
            };
            for cached in [true, false] {
                let mut state = if cached {
                    ClusterState::with_layout(&layout)
                } else {
                    ClusterState::new(servers)
                };
                // Leave `free` servers spread across both rows.
                let keep: Vec<usize> = (0..free).map(|i| i * (servers / free) + 3).collect();
                for server in (0..servers).filter(|s| !keep.contains(s)) {
                    state
                        .place(vm(server as u64, server % 3 == 0), ServerId::new(server), 0.8, None)
                        .unwrap();
                }
                let mut planner =
                    PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
                for saas in [false, true] {
                    for load in [0.0, 0.6, 1.0, 1.5, f64::NAN] {
                        let request =
                            PlacementRequest { vm: vm(9_999, saas), predicted_peak_load: load };
                        let fast =
                            policy.place_with(&request, &state, &layout, &profiles, &mut planner);
                        let reference = policy
                            .place_with_reference(&request, &state, &layout, &profiles, &planner);
                        assert_eq!(
                            fast, reference,
                            "{free} free, safety {power_safety_fraction}, SaaS {saas}, load {load}"
                        );
                        assert!(fast.is_some_and(|s| keep.contains(&s.index())));
                    }
                }
            }
        }
    }
}

/// Replays the t = 0 wave of the paper's 1040-server week (the simulator's step-0 inputs:
/// its stream, its predicted peaks, a topology-cached state) through both paths.
#[test]
fn production_week_wave_matches_reference_on_every_call() {
    let config = ExperimentConfig::production_week(Policy::Tapas);
    let dc = Datacenter::new(config.layout.build(), config.seed);
    let layout = dc.layout();
    let profiles = ProfileStore::offline_profiling_shared(&dc, &GpuHardware::a100());
    let iaas = IaasLoadModel::new(12, config.seed);
    let policy = TapasPlacement::default();
    let mut state = ClusterState::with_layout(layout);
    let mut planner = PlacementPlanner::new(&state, layout, &profiles, policy.config.design);
    let stream = config.vm_stream(&config.endpoint_catalog(), 1.0);
    let mut calls = 0;
    for vm in stream.into_iter().take_while(|vm| vm.arrival <= SimTime::ZERO) {
        if vm.departure() <= SimTime::ZERO {
            continue;
        }
        let predicted_peak_load = match vm.kind {
            VmKind::Iaas { customer } => iaas.predicted_peak(customer),
            VmKind::Saas { .. } => 0.9,
        };
        let request = PlacementRequest { vm, predicted_peak_load };
        let fast = policy.place_with(&request, &state, layout, &profiles, &mut planner);
        let reference = policy.place_with_reference(&request, &state, layout, &profiles, &planner);
        assert_eq!(fast, reference, "call {calls} ({vm:?})");
        calls += 1;
        if let Some(server) = fast {
            state.place(vm, server, predicted_peak_load, None).unwrap();
            planner.on_place(server, predicted_peak_load, &profiles);
        }
    }
    assert!(calls > 900, "the wave should place ~92 % of 1040 servers, got {calls} calls");
}
