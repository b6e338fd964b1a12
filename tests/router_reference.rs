//! Differential tests pinning the keyed TAPAS router (`TapasRouter::route_keyed` over
//! per-step `RouteKeys`) to its reference, the four-tier scan behind
//! `TapasRouter::route_prescored`, on every quantum of random multi-step sequences.
//!
//! Each quantum applies the simulator's update rule to the routed candidate: outstanding
//! grows by `⌈q⌉`, utilization by `q / capacity` saturating at 1.5, the customer enters the
//! recent window, and the candidate's risk flag and key are refreshed. Cases cover pool
//! sizes 1–120, utilizations at 0, at the knee, past it and at 1.5, score ties between
//! shuffled (and occasionally repeated) VM ids, pools that are wholly in transition or
//! wholly risky, customers that share one filter bit, and windows wrapped many times with
//! repeated customers. A model test holds `RecentWindow` to a 32-entry `VecDeque`.

use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::LayoutConfig;
use llm_sim::hardware::GpuHardware;
use llm_sim::request::{CustomerId, InferenceRequest, RequestId};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use simkit::units::Celsius;
use std::collections::VecDeque;
use tapas::profiles::ProfileStore;
use tapas::routing::{
    CandidateView, PreparedRoutingContext, RecentWindow, RouteKeys, RouterScratch,
    RoutingContext, TapasRouter, RECENT_WINDOW,
};
use workload::vm::VmId;

const CASES: usize = 160;

/// `RecentWindow`'s filter slot of a customer (its 9-bit multiplicative hash), used only to
/// build customer sets that all land on one filter bit.
fn filter_slot(customer: u64) -> u64 {
    customer.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55
}

/// `count` distinct customers sharing one filter bit.
fn colliding_customers(count: usize) -> Vec<u64> {
    let slot = filter_slot(1);
    (1..).filter(|&c| filter_slot(c) == slot).take(count).collect()
}

/// One endpoint's instances as the simulator's struct-of-arrays columns.
struct Pool {
    vm: Vec<VmId>,
    server: Vec<ServerId>,
    outstanding: Vec<u32>,
    utilization: Vec<f64>,
    in_transition: Vec<bool>,
    recent: Vec<RecentWindow>,
    /// Requests per step the instance serves at full utilization.
    capacity: Vec<f64>,
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
}

/// Where a case's risk flags come from.
#[derive(Clone, Copy, Debug)]
enum RiskSource {
    /// The router's risk model under the case's context.
    Model,
    /// An independent coin with the given probability of "risky".
    Coin(f64),
}

fn random_utilization(rng: &mut SimRng, knee: f64) -> f64 {
    match rng.uniform_usize(0, 6) {
        0 => 0.0,
        1 => knee,
        2 => knee + 1e-9,
        3 => 1.5,
        4 => [0.1, 0.35, 0.5][rng.uniform_usize(0, 3)],
        _ => rng.uniform(0.0, 1.5),
    }
}

fn random_pool(
    rng: &mut SimRng,
    size: usize,
    servers: usize,
    knee: f64,
    customers: &[u64],
) -> Pool {
    // Distinct VM ids in shuffled order, so the vm-id tie-break is not index order; a few
    // cases repeat ids to pin "first in candidate order" among fully equal keys.
    let mut vm: Vec<VmId> = (0..size as u64).map(|i| VmId(1000 + 7 * i)).collect();
    rng.shuffle(&mut vm);
    if size > 1 && rng.chance(0.2) {
        vm[size - 1] = vm[0];
    }
    // A few (outstanding, utilization) classes, so many candidates tie on score.
    let classes = rng.uniform_usize(1, 5);
    let class_state: Vec<(u32, f64)> = (0..classes)
        .map(|_| (rng.uniform_usize(0, 4) as u32, random_utilization(rng, knee)))
        .collect();
    let transition_p = [0.0, 0.3, 1.0][rng.uniform_usize(0, 3)];
    let mut pool = Pool {
        vm,
        server: Vec::with_capacity(size),
        outstanding: Vec::with_capacity(size),
        utilization: Vec::with_capacity(size),
        in_transition: Vec::with_capacity(size),
        recent: Vec::with_capacity(size),
        capacity: Vec::with_capacity(size),
    };
    for _ in 0..size {
        let (outstanding, utilization) = if rng.chance(0.6) {
            class_state[rng.uniform_usize(0, classes)]
        } else {
            (rng.uniform_usize(0, 20) as u32, random_utilization(rng, knee))
        };
        pool.server.push(ServerId::new(rng.uniform_usize(0, servers)));
        pool.outstanding.push(outstanding);
        pool.utilization.push(utilization);
        pool.in_transition.push(rng.chance(transition_p));
        let mut window = RecentWindow::new();
        // Up to three wraps of the ring, customers drawn with repeats.
        for _ in 0..rng.uniform_usize(0, 3 * RECENT_WINDOW + 5) {
            window.push(CustomerId(customers[rng.uniform_usize(0, customers.len())]));
        }
        pool.recent.push(window);
        pool.capacity.push(rng.uniform(1.0, 200.0));
    }
    pool
}

fn random_customers(rng: &mut SimRng) -> Vec<u64> {
    match rng.uniform_usize(0, 4) {
        0 => vec![3],
        1 => (0..rng.uniform_usize(2, 60) as u64).collect(),
        2 => colliding_customers(rng.uniform_usize(2, 50)),
        _ => (0..40).map(|_| rng.next_u64()).collect(),
    }
}

fn random_context(rng: &mut SimRng, profiles: &ProfileStore) -> RoutingContext {
    // A row fill at or above the 0.95 risk fraction leaves no headroom: every instance
    // is risky. Below it, hot outside air and tight fills mix safe and risky instances.
    let row_fill = [0.3, 0.9, 0.94, 1.0][rng.uniform_usize(0, 4)];
    RoutingContext::uniform(
        profiles,
        Celsius::new(rng.uniform(10.0, 45.0)),
        rng.uniform(0.2, 1.0),
        row_fill,
        rng.uniform(0.3, 0.96),
    )
}

#[test]
fn keyed_router_matches_the_reference_on_every_quantum() {
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let mut rng = SimRng::seed_from(2025).derive("router-reference");
    let mut router = TapasRouter::default();
    let knee = router.config.concentration_knee;
    let mut scratch = RouterScratch::default();
    let mut keys = RouteKeys::default();
    let mut flags = Vec::new();
    let (mut decisions, mut affinity_hits, mut tiers_seen) = (0usize, 0usize, [false; 4]);
    let mut next_id = 0u64;

    for case in 0..CASES {
        router.config.thermal_margin_c = [3.0, 10.0][rng.uniform_usize(0, 2)];
        let size = match case {
            0..=2 => case + 1,
            3 => 120,
            _ => rng.uniform_usize(1, 121),
        };
        let customers = random_customers(&mut rng);
        let mut pool = random_pool(&mut rng, size, profiles.server_count(), knee, &customers);
        let source = if rng.chance(0.5) {
            RiskSource::Model
        } else {
            RiskSource::Coin([0.0, 0.3, 1.0][rng.uniform_usize(0, 3)])
        };
        let context = random_context(&mut rng, &profiles);
        let prepared = PreparedRoutingContext::new(&context, &router.config, &profiles);

        for _step in 0..rng.uniform_usize(1, 4) {
            scratch.begin_step(profiles.server_count());
            match source {
                RiskSource::Model => router.fill_risk_flags(
                    &pool.view(),
                    &profiles,
                    &prepared,
                    &mut scratch,
                    &mut flags,
                ),
                RiskSource::Coin(p) => {
                    flags.clear();
                    flags.extend((0..size).map(|_| rng.chance(p)));
                }
            }
            router.fill_route_keys(&pool.view(), &flags, &mut keys);

            let quanta = (size * 2).clamp(1, 64);
            let per_quantum = rng.uniform(0.05, 5.0);
            for quantum in 0..quanta {
                let customer = CustomerId(customers[rng.uniform_usize(0, customers.len())]);
                let request = InferenceRequest {
                    id: RequestId(next_id),
                    customer,
                    arrival: SimTime::ZERO,
                    prompt_tokens: 512,
                    output_tokens: 200,
                };
                next_id += 1;
                let expected = router.route_prescored(&request, &pool.view(), &flags);
                let keyed = router.route_keyed(&request, &pool.view(), &keys);
                assert_eq!(
                    keyed, expected,
                    "case {case} ({size} instances, {source:?}), quantum {quantum}"
                );
                let index = keyed.expect("a non-empty pool always routes");
                decisions += 1;
                let tier = 2 * usize::from(!pool.in_transition[index]) + usize::from(!flags[index]);
                tiers_seen[tier] = true;
                if pool.utilization[index] <= knee && pool.recent[index].contains(customer) {
                    affinity_hits += 1;
                }

                // The simulator's per-quantum update of the routed candidate.
                pool.outstanding[index] += per_quantum.ceil() as u32;
                pool.utilization[index] =
                    (pool.utilization[index] + per_quantum / pool.capacity[index]).min(1.5);
                pool.recent[index].push(customer);
                flags[index] = match source {
                    RiskSource::Model => router.candidate_risk(
                        pool.server[index],
                        pool.utilization[index],
                        &profiles,
                        &prepared,
                        &mut scratch,
                    ),
                    RiskSource::Coin(p) => rng.chance(p),
                };
                router.refresh_route_key(&pool.view(), index, flags[index], &mut keys);
            }
        }
    }
    // The sequences must reach every tier and exercise the affinity branch.
    assert!(tiers_seen.iter().all(|&seen| seen), "tiers seen: {tiers_seen:?}");
    assert!(affinity_hits > 100, "only {affinity_hits} affinity wins in {decisions} decisions");
}

#[test]
fn keyed_router_handles_an_empty_pool() {
    let router = TapasRouter::default();
    let pool = Pool {
        vm: Vec::new(),
        server: Vec::new(),
        outstanding: Vec::new(),
        utilization: Vec::new(),
        in_transition: Vec::new(),
        recent: Vec::new(),
        capacity: Vec::new(),
    };
    let mut keys = RouteKeys::default();
    router.fill_route_keys(&pool.view(), &[], &mut keys);
    let request = InferenceRequest {
        id: RequestId(0),
        customer: CustomerId(1),
        arrival: SimTime::ZERO,
        prompt_tokens: 512,
        output_tokens: 200,
    };
    assert_eq!(router.route_keyed(&request, &pool.view(), &keys), None);
}

#[test]
fn recent_window_matches_a_bounded_deque() {
    let mut rng = SimRng::seed_from(11).derive("recent-window-model");
    for case in 0..64 {
        let customers: Vec<u64> = if case % 2 == 0 {
            (0..rng.uniform_usize(1, 80) as u64).collect()
        } else {
            colliding_customers(rng.uniform_usize(1, 48))
        };
        let mut window = RecentWindow::new();
        let mut model: VecDeque<u64> = VecDeque::with_capacity(RECENT_WINDOW);
        for _ in 0..rng.uniform_usize(0, 4 * RECENT_WINDOW) {
            let customer = customers[rng.uniform_usize(0, customers.len())];
            window.push(CustomerId(customer));
            if model.len() == RECENT_WINDOW {
                model.pop_front();
            }
            model.push_back(customer);

            assert_eq!(window.len(), model.len());
            assert_eq!(window.is_empty(), model.is_empty());
            for &probe in &customers {
                assert_eq!(
                    window.contains(CustomerId(probe)),
                    model.contains(&probe),
                    "case {case}: customer {probe}"
                );
            }
            // Cloning keeps the contents.
            let copy = window.clone();
            assert_eq!(copy, window);
        }
        // Customers never pushed are absent, whatever their filter bit.
        assert!(!window.contains(CustomerId(u64::MAX)));
    }
}
