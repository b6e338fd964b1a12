//! Differential tests pinning the indexed TAPAS allocator (`TapasPlacement::place_with`:
//! per-load views of the servers in temperature order, per-cell validator verdicts,
//! tercile cuts by k-th selection) to its executable reference
//! (`TapasPlacement::place_with_reference`: allocating, sort-based, computed from the
//! profile store directly), in the same driven-from-a-seeded-rng shape as
//! `tests/soa_physics.rs`.
//!
//! Both paths see the same state and planner aggregates, and the planner is updated after
//! every pick, so every call of a case checks the next decision of a growing cluster.
//! After every update the planner is audited: its aggregates against
//! `TapasPlacement::predicted_row_power`/`predicted_aisle_airflow`, and every cached view
//! against a from-scratch rebuild. Cases cover random layouts (some mixing A100 and H100
//! racks, so the planner holds several hardware classes), rows wider than 64 servers,
//! occupancy and IaaS/SaaS mixes, states with and without the topology cache, temperature
//! ties (servers sharing one cloned profile, so the server-id tie-break decides), the last
//! few free servers (tercile edges at n = 1..4), both fallbacks, SaaS estimates exactly at
//! the thermal limit, predicted peaks outside `[0, 1]`, negative balance weights, one
//! planner shared by policies with different safety fractions and weights, loads repeated
//! (views reused) and more distinct loads than the view cache holds (views evicted and
//! rebuilt).

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
            VmKind::Saas {
                endpoint: EndpointId(id % 3),
            }
        } else {
            VmKind::Iaas {
                customer: IaasCustomerId(id % 5),
            }
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
        server_spec: if rng.chance(0.5) {
            ServerSpec::dgx_a100()
        } else {
            ServerSpec::dgx_h100()
        },
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
        profiles.servers[target] = ServerProfile {
            server: own.server,
            row: own.row,
            aisle: own.aisle,
            ..models.clone()
        };
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
        if rng.chance(0.3) {
            // A negative balance weight prefers one-sided rows.
            config.balance_weight = -config.balance_weight;
        }
    }
    if rng.chance(0.1) {
        // A validator that rejects every server: both paths fall back to every free server.
        config.power_safety_fraction = 0.0;
    }
    TapasPlacement { config }
}

/// Policies that share one planner: `base` and up to two more with other safety fractions
/// and weights. They keep `base`'s design conditions, which the planner's estimates fix.
fn shared_policies(rng: &mut SimRng, base: TapasPlacement) -> Vec<TapasPlacement> {
    let mut policies = vec![base];
    for _ in 0..rng.uniform_usize(0, 3) {
        let mut config = random_policy(rng).config;
        config.design = base.config.design;
        policies.push(TapasPlacement { config });
    }
    policies
}

/// `count` predicted peaks for requests to draw from, so views are reused; more than the
/// planner's view cache holds (16) makes it evict and rebuild.
fn load_palette(rng: &mut SimRng, count: usize) -> Vec<f64> {
    (0..count).map(|_| random_load(rng)).collect()
}

fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Checks the planner after an update: its row and aisle aggregates against the reference
/// recomputation (to 1e-9 relative, as the incremental sums add in another order) and
/// every cached view against a from-scratch rebuild, exactly.
fn audit(
    planner: &PlacementPlanner,
    state: &ClusterState,
    layout: &Layout,
    profiles: &ProfileStore,
    context: &str,
) {
    for (row, power) in TapasPlacement::predicted_row_power(state, layout, profiles) {
        let gap = relative_gap(planner.row_power_kw(row), power.value());
        assert!(gap <= 1e-9, "{context}: row {row} power off by {gap:e}");
    }
    for (aisle, airflow) in TapasPlacement::predicted_aisle_airflow(state, layout, profiles) {
        let gap = relative_gap(planner.aisle_airflow_cfm(aisle), airflow.value());
        assert!(
            gap <= 1e-9,
            "{context}: aisle {aisle} airflow off by {gap:e}"
        );
    }
    if let Err(stale) = planner.audit_views(state, profiles) {
        panic!("{context}: {stale}");
    }
}

/// Places VMs until the cluster is full (retiring one now and then), asserting after every
/// call that both paths chose the same server and auditing the planner after every update.
/// Each request picks one of `policies`, which share one planner, and draws its predicted
/// peak from `loads` most of the time. Returns the number of calls.
fn drive(
    rng: &mut SimRng,
    policies: &[TapasPlacement],
    loads: &[f64],
    layout: &Layout,
    profiles: &ProfileStore,
    state: &mut ClusterState,
    case: &str,
) -> usize {
    let design = policies[0].config.design;
    let mut planner = PlacementPlanner::new(state, layout, profiles, design);
    let mut placed: Vec<(VmId, ServerId, f64)> = state
        .placed()
        .map(|p| (p.vm.id, p.server, p.predicted_peak_load))
        .collect();
    let mut next_id = 10_000;
    let mut calls = 0;
    while state.free_count() > 0 {
        if !placed.is_empty() && rng.chance(0.1) {
            let (id, server, load) = placed.swap_remove(rng.uniform_usize(0, placed.len()));
            state.remove(id).unwrap();
            planner.on_remove(server, load, profiles);
            let context = format!("{case}, retire before call {calls}");
            audit(&planner, state, layout, profiles, &context);
        }
        let policy = &policies[rng.uniform_usize(0, policies.len())];
        let saas = rng.chance(0.5);
        let load = if loads.is_empty() || rng.chance(0.2) {
            random_load(rng)
        } else {
            loads[rng.uniform_usize(0, loads.len())]
        };
        let request = PlacementRequest {
            vm: vm(next_id, saas),
            predicted_peak_load: load,
        };
        next_id += 1;
        let fast = policy.place_with(&request, state, layout, profiles, &mut planner);
        let reference = policy.place_with_reference(&request, state, layout, profiles, &planner);
        assert_eq!(
            fast,
            reference,
            "{case}, call {calls}: {} free, SaaS {saas}, load {load}, {:?}",
            state.free_count(),
            policy.config
        );
        calls += 1;
        let server = fast.expect("a free server always yields a placement");
        state.place(request.vm, server, load, None).unwrap();
        planner.on_place(server, load, profiles);
        audit(
            &planner,
            state,
            layout,
            profiles,
            &format!("{case}, call {calls}"),
        );
        placed.push((request.vm.id, server, load));
    }
    let full = PlacementRequest {
        vm: vm(next_id, false),
        predicted_peak_load: 0.5,
    };
    for policy in policies {
        assert_eq!(
            policy.place_with(&full, state, layout, profiles, &mut planner),
            None
        );
        assert_eq!(
            policy.place_with_reference(&full, state, layout, profiles, &planner),
            None
        );
    }
    calls
}

/// Fills `state` to a random occupancy with random kinds and predicted peaks.
fn occupy(rng: &mut SimRng, state: &mut ClusterState, occupancy: f64) {
    for server in 0..state.server_count() {
        if rng.chance(occupancy) {
            let load = random_load(rng);
            state
                .place(
                    vm(server as u64, rng.chance(0.5)),
                    ServerId::new(server),
                    load,
                    None,
                )
                .unwrap();
        }
    }
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
        occupy(&mut rng, &mut state, occupancy);
        let base = random_policy(&mut rng);
        let policies = shared_policies(&mut rng, base);
        let palette = rng.uniform_usize(0, 25);
        let loads = load_palette(&mut rng, palette);
        let case = format!("case {case}");
        total_calls += drive(
            &mut rng, &policies, &loads, &layout, &profiles, &mut state, &case,
        );
    }
    assert!(
        total_calls > 200,
        "too few placement calls checked: {total_calls}"
    );
}

/// Rows of 68 and 130 servers: each row's bitmaps span two or three words.
#[test]
fn wide_rows_match_reference() {
    let mut rng = SimRng::seed_from(0x3C3C);
    for (racks_per_row, servers_per_rack) in [(17, 4), (26, 5)] {
        let layout = LayoutConfig {
            aisles: 1,
            racks_per_row,
            servers_per_rack,
            ..LayoutConfig::real_cluster_two_rows()
        }
        .build();
        let profiles = profile(&layout, rng.next_u64());
        let mut state = ClusterState::with_layout(&layout);
        occupy(&mut rng, &mut state, 0.3);
        let policies = shared_policies(&mut rng, TapasPlacement::default());
        let loads = load_palette(&mut rng, 6);
        let case = format!("{} servers per row", racks_per_row * servers_per_rack);
        let calls = drive(
            &mut rng, &policies, &loads, &layout, &profiles, &mut state, &case,
        );
        assert!(calls > 90, "{case}: {calls} calls");
    }
}

/// One planner shared by policies with different safety fractions and weights, cycling
/// through more distinct loads than its view cache holds (so every view is evicted and
/// rebuilt), then repeating a few (so views are reused).
#[test]
fn shared_planner_and_view_cache_match_reference() {
    let layout = LayoutConfig::real_cluster_two_rows().build();
    let profiles = profile(&layout, 9);
    let configs = [
        (0.97, 0.97, 1.0, 0.5),
        (0.6, 0.9, 0.3, 1.5),
        (0.9, 0.55, 2.0, 0.0),
    ];
    let policies: Vec<TapasPlacement> = configs
        .into_iter()
        .map(
            |(power, airflow, thermal_weight, balance_weight)| TapasPlacement {
                config: TapasPlacementConfig {
                    power_safety_fraction: power,
                    airflow_safety_fraction: airflow,
                    thermal_weight,
                    balance_weight,
                    ..Default::default()
                },
            },
        )
        .collect();
    let mut state = ClusterState::with_layout(&layout);
    let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policies[0].config.design);
    let cycle: Vec<f64> = (0..20).map(|i| 0.3 + 0.035 * f64::from(i)).collect();
    let repeated = [0.45, 0.9, 0.45];
    let loads = cycle
        .iter()
        .chain(&cycle)
        .chain(repeated.iter().cycle().take(30));
    for (call, &load) in loads.enumerate() {
        let policy = &policies[call % policies.len()];
        let request = PlacementRequest {
            vm: vm(call as u64, call % 3 == 0),
            predicted_peak_load: load,
        };
        let fast = policy.place_with(&request, &state, &layout, &profiles, &mut planner);
        let reference = policy.place_with_reference(&request, &state, &layout, &profiles, &planner);
        assert_eq!(
            fast, reference,
            "call {call}, load {load}, {:?}",
            policy.config
        );
        let server = fast.unwrap();
        state.place(request.vm, server, load, None).unwrap();
        planner.on_place(server, load, &profiles);
        audit(
            &planner,
            &state,
            &layout,
            &profiles,
            &format!("call {call}"),
        );
    }
}

/// Profiles whose rows change their temperature order with the load (each server's
/// per-GPU power coefficient scaled by 0.5 to 1.5, its intercept moved so the estimates
/// agree at 200 W), placed through a cycle of more distinct loads than the view cache
/// holds: from the 17th call on, every call rebuilds the least recently used view (the
/// load of 16 calls before) for a new load that orders some row differently. A rebuild
/// that kept any of the evicted view's arrays (its slot array included) fails the audit.
#[test]
fn views_rebuilt_over_evicted_ones_match_reference() {
    let layout = LayoutConfig::real_cluster_two_rows().build();
    let mut profiles = profile(&layout, 21);
    for (i, server) in profiles.servers.iter_mut().enumerate() {
        let model = &mut server.worst_gpu_temp;
        let power = model.power_coeff;
        let scaled = power * (0.5 + 0.25 * (i % 5) as f64);
        model.intercept += (power - scaled) * 200.0;
        model.power_coeff = scaled;
    }
    let policy = TapasPlacement::default();
    let cycle: Vec<f64> = (0..20).map(|i| 0.05 * f64::from(i)).collect();
    // Each row's servers in (temperature, id) order at a load.
    let row_orders = |load: f64| -> Vec<Vec<ServerId>> {
        layout
            .rows()
            .iter()
            .map(|row| {
                let mut servers = row.servers.clone();
                servers.sort_by(|&a, &b| {
                    let estimate = |s| policy.thermal_estimate(&profiles, s, load).value();
                    estimate(a).total_cmp(&estimate(b)).then(a.cmp(&b))
                });
                servers
            })
            .collect()
    };
    let evicted = |k: usize| cycle[(k + cycle.len() - 16) % cycle.len()];
    let reordered = (0..cycle.len())
        .filter(|&k| row_orders(cycle[k]) != row_orders(evicted(k)))
        .count();
    assert_eq!(reordered, cycle.len(), "every rebuild reorders a row");
    let mut state = ClusterState::with_layout(&layout);
    let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
    for (call, &load) in cycle.iter().cycle().take(60).enumerate() {
        let request = PlacementRequest {
            vm: vm(call as u64, call % 3 == 0),
            predicted_peak_load: load,
        };
        let fast = policy.place_with(&request, &state, &layout, &profiles, &mut planner);
        let reference = policy.place_with_reference(&request, &state, &layout, &profiles, &planner);
        assert_eq!(fast, reference, "call {call}, load {load}");
        let server = fast.unwrap();
        state.place(request.vm, server, load, None).unwrap();
        planner.on_place(server, load, &profiles);
        audit(
            &planner,
            &state,
            &layout,
            &profiles,
            &format!("call {call}, load {load}"),
        );
    }
}

/// SaaS requests whose estimates straddle `thermal_headroom_target` exactly: the limit is
/// set to one server's estimate at the request's load, so servers at the limit stay
/// allowed and the next warmer ones do not; tied profiles put several servers on it.
#[test]
fn saas_limit_straddling_estimates_match_reference() {
    let layout = LayoutConfig::real_cluster_two_rows().build();
    let mut profiles = profile(&layout, 11);
    clone_models(&mut profiles, 5, &[17, 23, 41, 60]);
    let policy = TapasPlacement::default();
    for (load, pivot) in [(0.9, 5), (0.6, 30), (1.0, 0), (0.2, 79)] {
        let estimate = policy.thermal_estimate(&profiles, ServerId::new(pivot), load);
        profiles.thermal_headroom_target = estimate;
        let mut state = ClusterState::with_layout(&layout);
        let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        let mut call = 0;
        while state.free_count() > 0 {
            let saas = call % 4 != 3;
            let request = PlacementRequest {
                vm: vm(call, saas),
                predicted_peak_load: load,
            };
            let fast = policy.place_with(&request, &state, &layout, &profiles, &mut planner);
            let reference =
                policy.place_with_reference(&request, &state, &layout, &profiles, &planner);
            assert_eq!(
                fast, reference,
                "limit {estimate} at load {load}, call {call}"
            );
            let server = fast.unwrap();
            state.place(request.vm, server, load, None).unwrap();
            planner.on_place(server, load, &profiles);
            call += 1;
        }
        audit(
            &planner,
            &state,
            &layout,
            &profiles,
            &format!("limit {estimate}"),
        );
    }
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
        for (power_safety_fraction, limit) in [
            (0.97, default_limit),
            (0.0, default_limit),
            (0.97, Celsius::new(-100.0)),
        ] {
            profiles.thermal_headroom_target = limit;
            let policy = TapasPlacement {
                config: TapasPlacementConfig {
                    power_safety_fraction,
                    ..Default::default()
                },
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
                        .place(
                            vm(server as u64, server % 3 == 0),
                            ServerId::new(server),
                            0.8,
                            None,
                        )
                        .unwrap();
                }
                let mut planner =
                    PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
                for saas in [false, true] {
                    for load in [0.0, 0.6, 1.0, 1.5, f64::NAN] {
                        let request = PlacementRequest {
                            vm: vm(9_999, saas),
                            predicted_peak_load: load,
                        };
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

/// Replays the t = 0 wave of `config` (the simulator's step-0 inputs: its stream, its
/// predicted peaks, a topology-cached state) through both paths, auditing the planner
/// every `audit_every` calls. Returns the number of calls.
fn replay_wave(config: &ExperimentConfig, audit_every: usize) -> usize {
    let dc = Datacenter::new(config.layout.build(), config.seed);
    let layout = dc.layout();
    let profiles = ProfileStore::offline_profiling_shared(&dc, &GpuHardware::a100());
    let iaas = IaasLoadModel::new(12, config.seed);
    let policy = TapasPlacement::default();
    let mut state = ClusterState::with_layout(layout);
    let mut planner = PlacementPlanner::new(&state, layout, &profiles, policy.config.design);
    let stream = config.vm_stream(&config.endpoint_catalog(), 1.0);
    let mut calls = 0;
    for vm in stream
        .into_iter()
        .take_while(|vm| vm.arrival <= SimTime::ZERO)
    {
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
        let fast = policy.place_with(&request, &state, layout, &profiles, &mut planner);
        let reference = policy.place_with_reference(&request, &state, layout, &profiles, &planner);
        assert_eq!(fast, reference, "call {calls} ({vm:?})");
        calls += 1;
        if let Some(server) = fast {
            state.place(vm, server, predicted_peak_load, None).unwrap();
            planner.on_place(server, predicted_peak_load, &profiles);
        }
        if calls % audit_every == 0 {
            audit(
                &planner,
                &state,
                layout,
                &profiles,
                &format!("call {calls}"),
            );
        }
    }
    calls
}

/// The t = 0 wave of the paper's 1040-server week.
#[test]
fn production_week_wave_matches_reference_on_every_call() {
    let calls = replay_wave(&ExperimentConfig::production_week(Policy::Tapas), 100);
    assert!(
        calls > 900,
        "the wave should place ~92 % of 1040 servers, got {calls} calls"
    );
}

/// The t = 0 wave of the benchmark's 10240-server day (the 1040-server week widened to 128
/// aisles, seed 7): ~9421 picks. The reference sorts every free server per call, too slow
/// for an unoptimized build, so it runs on request:
/// `cargo test --release --test placement_reference -- --include-ignored`.
#[test]
#[ignore = "slow: the reference costs ~1 ms per pick at 10240 servers in a release build"]
fn hyperscale_day_wave_matches_reference_on_every_call() {
    let mut config = ExperimentConfig::production_week(Policy::Tapas).with_seed(7);
    config.layout.aisles = 128;
    let calls = replay_wave(&config, 1000);
    assert!(
        calls > 9000,
        "the wave should place ~92 % of 10240 servers, got {calls} calls"
    );
}
