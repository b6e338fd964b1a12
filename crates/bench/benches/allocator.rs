//! Criterion micro-benchmarks for the VM allocator: one placement decision on a partially
//! occupied 80-server cluster, Baseline vs TAPAS, and the initial VM wave of the paper's
//! production layout (1040 servers) and of its 128-aisle widening (10240 servers) placed
//! through the TAPAS hot path, the isolated form of the simulator's step-0 placement phase.

use cluster_sim::experiment::ExperimentConfig;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::{Layout, LayoutConfig};
use llm_sim::hardware::GpuHardware;
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use tapas::placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
use tapas::policy::Policy;
use tapas::profiles::ProfileStore;
use tapas::state::ClusterState;
use workload::endpoints::EndpointId;
use workload::iaas::IaasLoadModel;
use workload::vm::{IaasCustomerId, Vm, VmId, VmKind};

fn vm(id: u64, saas: bool) -> Vm {
    Vm {
        id: VmId(id),
        kind: if saas {
            VmKind::Saas {
                endpoint: EndpointId(0),
            }
        } else {
            VmKind::Iaas {
                customer: IaasCustomerId(0),
            }
        },
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_days(14),
    }
}

fn bench_allocator(c: &mut Criterion) {
    let layout = LayoutConfig::real_cluster_two_rows().build();
    let dc = Datacenter::new(layout.clone(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let mut state = ClusterState::new(layout.server_count());
    for i in 0..50u64 {
        state
            .place(vm(i, i % 2 == 0), ServerId::new(i as usize), 0.8, None)
            .unwrap();
    }
    let request = PlacementRequest {
        vm: vm(999, true),
        predicted_peak_load: 0.85,
    };

    c.bench_function("placement_baseline", |b| {
        b.iter(|| black_box(&state).first_free())
    });
    // A decision from a cold start: the planner build (O(servers)) is part of the timed work.
    c.bench_function("placement_tapas_80_servers", |b| {
        b.iter(|| {
            let policy = TapasPlacement::default();
            let mut planner =
                PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
            policy.place_with(
                black_box(&request),
                &state,
                &layout,
                &profiles,
                &mut planner,
            )
        })
    });
}

/// The t = 0 VM wave of `production_week` widened to `aisles` cold aisles, as placement
/// requests carrying the simulator's predicted peaks, with the site's datacenter and
/// profiles.
fn production_wave(aisles: usize) -> (Datacenter, ProfileStore, Vec<PlacementRequest>) {
    let mut config = ExperimentConfig::production_week(Policy::Tapas);
    config.layout.aisles = aisles;
    let dc = Datacenter::new(config.layout.build(), config.seed);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let iaas = IaasLoadModel::new(12, config.seed);
    let requests = config
        .vm_stream(&config.endpoint_catalog(), 1.0)
        .into_iter()
        .take_while(|vm| vm.arrival <= SimTime::ZERO)
        .filter(|vm| vm.departure() > SimTime::ZERO)
        .map(|vm| PlacementRequest {
            vm,
            predicted_peak_load: match vm.kind {
                VmKind::Iaas { customer } => iaas.predicted_peak(customer),
                VmKind::Saas { .. } => 0.9,
            },
        })
        .collect();
    (dc, profiles, requests)
}

/// Places `requests` in order on an empty site through `place_with`, reporting every pick
/// to the planner as the simulator does; returns the filled site.
fn place_wave(
    requests: &[PlacementRequest],
    layout: &Layout,
    profiles: &ProfileStore,
    (mut state, mut planner): (ClusterState, PlacementPlanner),
) -> (ClusterState, PlacementPlanner) {
    let policy = TapasPlacement::default();
    for request in requests {
        if let Some(server) = policy.place_with(request, &state, layout, profiles, &mut planner) {
            state
                .place(request.vm, server, request.predicted_peak_load, None)
                .unwrap();
            planner.on_place(server, request.predicted_peak_load, profiles);
        }
    }
    (state, planner)
}

fn bench_placement_wave(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group.sample_size(3);
    for (aisles, name) in [
        (13, "placement_wave_1040_servers"),
        (128, "placement_wave_10240_servers"),
    ] {
        let (dc, profiles, requests) = production_wave(aisles);
        let layout = dc.layout();
        let fresh = || {
            let state = ClusterState::with_layout(layout);
            let planner = PlacementPlanner::new(
                &state,
                layout,
                &profiles,
                TapasPlacement::default().config.design,
            );
            (state, planner)
        };
        group.bench_function(name, |b| {
            b.iter_batched(
                fresh,
                |site| place_wave(&requests, layout, &profiles, site),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_allocator, bench_placement_wave
}
criterion_main!(benches);
