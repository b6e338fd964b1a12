//! Criterion micro-benchmarks for the request router over the struct-of-arrays candidate
//! view with a per-step prepared context and scratch.
//!
//! * `routing_baseline_100_instances`, `routing_tapas_100_instances` and
//!   `routing_tapas_keyed_100_instances`: one decision across a 100-instance endpoint whose
//!   columns stay fixed. `routing_tapas_100_instances` times the reference,
//!   `route_prescored`, with the routed candidate's flag read through a `RouterScratch`;
//!   the keyed one times `route_keyed` plus the routed candidate's `row_risk` over its
//!   `RiskRow` and its key refresh.
//! * `routing_tapas_quantum_{50,470}_instances`: one routed quantum exactly as
//!   `ClusterSimulator::route_requests` drives it (`route_keyed`, `RecentIndex::push`, the
//!   load update, `row_risk` over the candidate's `RiskRow`, `refresh_route_key`), at the
//!   mean pool sizes of the 1040- and 10240-server sites. Every `min(2 × pool, 64)` quanta
//!   the columns are reset, the risk rows prepared, the flags recomputed from the row
//!   column and the keys refilled, as a step boundary does, so that cost is amortized as
//!   in a run.

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
    BaselineRouter, CandidateView, PreparedRoutingContext, RecentIndex, RecentWindow, RiskRow,
    RouteKeys, RouterScratch, RoutingContext, TapasRouter, RECENT_WINDOW,
};
use workload::vm::VmId;

/// Distinct customers per endpoint, inside the catalog's 100–5100 range.
const CUSTOMERS: u64 = 1000;

/// One endpoint's instances as struct-of-arrays registry columns. In a running simulation
/// every window is full, with customers drawn from an endpoint-sized range.
struct Endpoint {
    vm: Vec<VmId>,
    server: Vec<ServerId>,
    outstanding: Vec<u32>,
    utilization: Vec<f64>,
    in_transition: Vec<bool>,
    recent: RecentIndex,
    risk: Vec<RiskRow>,
}

impl Endpoint {
    fn new(count: usize, profiles: &ProfileStore, rng: &mut SimRng) -> Self {
        let server_count = profiles.server_count();
        let mut recent = RecentIndex::new(CUSTOMERS);
        for _ in 0..count {
            let mut window = RecentWindow::new();
            for _ in 0..RECENT_WINDOW {
                window.push(CustomerId(rng.next_u64() % CUSTOMERS));
            }
            recent.add(window);
        }
        let server: Vec<ServerId> = (0..count)
            .map(|i| ServerId::new(i * 7 % server_count))
            .collect();
        Self {
            vm: (0..count as u64).map(VmId).collect(),
            risk: server
                .iter()
                .map(|&s| RiskRow::of(profiles.server(s)))
                .collect(),
            server,
            outstanding: (0..count).map(|i| (i % 9) as u32).collect(),
            utilization: (0..count).map(|i| (i % 10) as f64 / 10.0).collect(),
            in_transition: vec![false; count],
            recent,
        }
    }

    /// Prepares every risk row for the context, as the registry's step boundary does.
    fn prepare(&mut self, context: &RoutingContext) {
        for row in &mut self.risk {
            row.prepare(context.outside_temp, context.dc_load);
        }
    }

    /// Every candidate's risk flag from its row, as `route_requests` computes them.
    fn fill_flags(
        &self,
        tapas: &TapasRouter,
        prepared: &PreparedRoutingContext,
        flags: &mut Vec<bool>,
    ) {
        flags.clear();
        flags.extend(
            self.risk
                .iter()
                .zip(&self.utilization)
                .map(|(row, &utilization)| tapas.row_risk(row, utilization, prepared)),
        );
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
}

fn request(customer: u64) -> InferenceRequest {
    InferenceRequest {
        id: RequestId(1),
        customer: CustomerId(customer),
        arrival: SimTime::ZERO,
        prompt_tokens: 512,
        output_tokens: 200,
    }
}

fn bench_router(c: &mut Criterion) {
    let dc = Datacenter::new(LayoutConfig::production_datacenter().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let mut rng = SimRng::seed_from(42);
    let context = RoutingContext::uniform(&profiles, Celsius::new(30.0), 0.7, 0.8, 0.8);
    let mut endpoint = Endpoint::new(100, &profiles, &mut rng);
    endpoint.prepare(&context);
    let view = endpoint.view();
    let fixed_request = request(5);

    let baseline = BaselineRouter;
    c.bench_function("routing_baseline_100_instances", |b| {
        b.iter(|| baseline.route_view(black_box(&view)))
    });

    // The reference decision: risk flags are computed once per endpoint per step, each
    // decision is one prescored pass, and the routed candidate's flag is refreshed
    // afterwards.
    let tapas = TapasRouter::default();
    let prepared = PreparedRoutingContext::new(&context, &tapas.config, &profiles);
    let mut scratch = RouterScratch::default();
    scratch.begin_step(profiles.server_count());
    let mut flags = Vec::new();
    tapas.fill_risk_flags(&view, &profiles, &prepared, &mut scratch, &mut flags);
    c.bench_function("routing_tapas_100_instances", |b| {
        b.iter(|| {
            let choice = tapas.route_prescored(black_box(&fixed_request), black_box(&view), &flags);
            if let Some(index) = choice {
                flags[index] = tapas.candidate_risk(
                    endpoint.server[index],
                    endpoint.utilization[index],
                    &profiles,
                    &prepared,
                    &mut scratch,
                );
            }
            choice
        })
    });

    // The keyed decision over the same fixed columns: keys are filled once, each decision
    // reads them, and the routed candidate's flag and key are refreshed afterwards.
    let mut keys = RouteKeys::default();
    endpoint.fill_flags(&tapas, &prepared, &mut flags);
    tapas.fill_route_keys(&view, &flags, &mut keys);
    c.bench_function("routing_tapas_keyed_100_instances", |b| {
        b.iter(|| {
            let choice = tapas.route_keyed(
                black_box(fixed_request.customer),
                black_box(&view),
                &keys,
                &endpoint.recent,
            );
            if let Some(index) = choice {
                let risky = tapas.row_risk(
                    &endpoint.risk[index],
                    endpoint.utilization[index],
                    &prepared,
                );
                tapas.refresh_route_key(&view, index, risky, &mut keys);
            }
            choice
        })
    });

    for count in [50, 470] {
        let mut endpoint = Endpoint::new(count, &profiles, &mut rng);
        let (outstanding, utilization) =
            (endpoint.outstanding.clone(), endpoint.utilization.clone());
        let quanta = (count * 2).clamp(1, 64);
        let mut quantum = 0;
        c.bench_function(&format!("routing_tapas_quantum_{count}_instances"), |b| {
            b.iter(|| {
                if quantum == 0 {
                    endpoint.outstanding.copy_from_slice(&outstanding);
                    endpoint.utilization.copy_from_slice(&utilization);
                    endpoint.prepare(&context);
                    endpoint.fill_flags(&tapas, &prepared, &mut flags);
                    tapas.fill_route_keys(&endpoint.view(), &flags, &mut keys);
                }
                quantum = (quantum + 1) % quanta;
                let customer = CustomerId(rng.next_u64() % CUSTOMERS);
                let choice = tapas.route_keyed(customer, &endpoint.view(), &keys, &endpoint.recent);
                let Some(index) = choice else { return choice };
                endpoint.outstanding[index] += 1;
                endpoint.utilization[index] = (endpoint.utilization[index] + 0.02).min(1.5);
                endpoint.recent.push(index, customer);
                let risky = tapas.row_risk(
                    &endpoint.risk[index],
                    endpoint.utilization[index],
                    &prepared,
                );
                tapas.refresh_route_key(&endpoint.view(), index, risky, &mut keys);
                choice
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_router
}
criterion_main!(benches);
