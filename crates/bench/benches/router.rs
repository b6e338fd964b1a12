//! Criterion micro-benchmarks for the request router: one routing decision across a
//! 100-instance endpoint, Baseline vs TAPAS, over the struct-of-arrays candidate view with a
//! per-step prepared context and scratch. `routing_tapas_keyed_100_instances` is the
//! decision exactly as `ClusterSimulator::route_requests` drives it;
//! `routing_tapas_100_instances` times its reference, `route_prescored`.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::LayoutConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::request::{CustomerId, InferenceRequest, RequestId};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use simkit::units::Celsius;
use std::hint::black_box;
use tapas::profiles::ProfileStore;
use tapas::routing::{
    BaselineRouter, CandidateView, PreparedRoutingContext, RecentWindow, RouteKeys, RouterScratch,
    RoutingContext, TapasRouter, RECENT_WINDOW,
};
use workload::vm::VmId;

fn bench_router(c: &mut Criterion) {
    let dc = Datacenter::new(LayoutConfig::production_datacenter().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());

    // One endpoint with 100 instances, as struct-of-arrays registry columns. In a running
    // simulation every window is full, with customers drawn from an endpoint-sized range.
    let count = 100u64;
    let customers = 1000u64;
    let mut rng = SimRng::seed_from(42);
    let vm: Vec<VmId> = (0..count).map(VmId).collect();
    let server: Vec<ServerId> = (0..count)
        .map(|i| ServerId::new((i * 7) as usize % dc.layout().server_count()))
        .collect();
    let outstanding: Vec<u32> = (0..count).map(|i| (i % 9) as u32).collect();
    let utilization: Vec<f64> = (0..count).map(|i| (i % 10) as f64 / 10.0).collect();
    let in_transition: Vec<bool> = vec![false; count as usize];
    let recent: Vec<RecentWindow> = (0..count)
        .map(|_| {
            let mut window = RecentWindow::new();
            for _ in 0..RECENT_WINDOW {
                window.push(CustomerId(rng.next_u64() % customers));
            }
            window
        })
        .collect();
    let view = CandidateView {
        vm: &vm,
        server: &server,
        outstanding: &outstanding,
        utilization: &utilization,
        in_transition: &in_transition,
        recent: &recent,
    };

    let context = RoutingContext::uniform(&profiles, Celsius::new(30.0), 0.7, 0.8, 0.8);
    let request = InferenceRequest {
        id: RequestId(1),
        customer: CustomerId(5),
        arrival: SimTime::ZERO,
        prompt_tokens: 512,
        output_tokens: 200,
    };

    let baseline = BaselineRouter;
    c.bench_function("routing_baseline_100_instances", |b| {
        b.iter(|| baseline.route_view(black_box(&view)))
    });

    // The TAPAS per-decision hot path as the simulator drives it: risk flags are computed
    // once per endpoint per step, each decision is one prescored pass, and the routed
    // candidate's flag is refreshed afterwards.
    let tapas = TapasRouter::default();
    let prepared = PreparedRoutingContext::new(&context, &tapas.config, &profiles);
    let mut scratch = RouterScratch::default();
    scratch.begin_step(profiles.server_count());
    let mut flags = Vec::new();
    tapas.fill_risk_flags(&view, &profiles, &prepared, &mut scratch, &mut flags);
    c.bench_function("routing_tapas_100_instances", |b| {
        b.iter(|| {
            let choice = tapas.route_prescored(black_box(&request), black_box(&view), &flags);
            if let Some(index) = choice {
                flags[index] = tapas.candidate_risk(
                    server[index],
                    utilization[index],
                    &profiles,
                    &prepared,
                    &mut scratch,
                );
            }
            choice
        })
    });

    // The keyed decision: keys are filled once per endpoint per step, each decision is one
    // keyed pass, and the routed candidate's flag and key are refreshed afterwards.
    let mut keys = RouteKeys::default();
    tapas.fill_risk_flags(&view, &profiles, &prepared, &mut scratch, &mut flags);
    tapas.fill_route_keys(&view, &flags, &mut keys);
    c.bench_function("routing_tapas_keyed_100_instances", |b| {
        b.iter(|| {
            let choice = tapas.route_keyed(black_box(&request), black_box(&view), &keys);
            if let Some(index) = choice {
                let risky = tapas.candidate_risk(
                    server[index],
                    utilization[index],
                    &profiles,
                    &prepared,
                    &mut scratch,
                );
                tapas.refresh_route_key(&view, index, risky, &mut keys);
            }
            choice
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_router
}
criterion_main!(benches);
