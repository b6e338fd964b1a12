//! Differential tests pinning the keyed TAPAS router (`TapasRouter::route_keyed` over
//! per-step `RouteKeys` and the pool's `RecentIndex`) to its reference, the four-tier scan
//! behind `TapasRouter::route_prescored`, on every quantum of random multi-step sequences.
//!
//! Each quantum applies the simulator's update rule to the routed candidate: outstanding
//! grows by `⌈q⌉`, utilization by `q / capacity` saturating at 1.5, the customer enters the
//! recent index, and the candidate's risk flag and key are refreshed. Between steps some
//! instances retire (`swap_remove`) and new ones join before the keys are refilled. Cases
//! cover pool sizes 1–512, utilizations at 0, at the knee, past it and at 1.5, score ties
//! between shuffled (and occasionally repeated) VM ids, pools that are wholly in transition
//! or wholly risky, dense customer ids and sparse ones over the whole `0..bound` range of
//! the pool's index (always including `bound − 1`), and windows wrapped many times with
//! repeated customers. Model tests hold `RecentWindow` to a 32-entry `VecDeque` and
//! `RecentIndex` to a brute-force scan of its windows, and an id at the bound panics.

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
    CandidateView, PreparedRoutingContext, RecentIndex, RecentWindow, RouteKeys, RouterScratch,
    RoutingContext, TapasRouter, RECENT_WINDOW,
};
use workload::vm::VmId;

const CASES: usize = 160;
/// The largest pool; `site10240_day` pools average about 460 instances.
const MAX_POOL: usize = 512;

/// One endpoint's instances as the simulator's struct-of-arrays columns.
struct Pool {
    vm: Vec<VmId>,
    server: Vec<ServerId>,
    outstanding: Vec<u32>,
    utilization: Vec<f64>,
    in_transition: Vec<bool>,
    recent: RecentIndex,
    /// Requests per step the instance serves at full utilization.
    capacity: Vec<f64>,
}

impl Pool {
    /// An empty pool whose customers are `0..bound`.
    fn new(bound: u64) -> Self {
        Self {
            vm: Vec::new(),
            server: Vec::new(),
            outstanding: Vec::new(),
            utilization: Vec::new(),
            in_transition: Vec::new(),
            recent: RecentIndex::new(bound),
            capacity: Vec::new(),
        }
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

    fn len(&self) -> usize {
        self.vm.len()
    }

    /// The registry's retirement: the last instance moves into `index`.
    fn swap_remove(&mut self, index: usize) {
        self.vm.swap_remove(index);
        self.server.swap_remove(index);
        self.outstanding.swap_remove(index);
        self.utilization.swap_remove(index);
        self.in_transition.swap_remove(index);
        self.recent.swap_remove(index);
        self.capacity.swap_remove(index);
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

/// The per-case distributions new instances are drawn from.
struct Shape {
    servers: usize,
    knee: f64,
    /// The recent index's bound: every customer id is below it.
    bound: u64,
    customers: Vec<u64>,
    /// A few shared (outstanding, utilization) classes, so many candidates tie on score.
    classes: Vec<(u32, f64)>,
    transition_p: f64,
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

fn random_window(rng: &mut SimRng, customers: &[u64]) -> RecentWindow {
    let mut window = RecentWindow::new();
    // Up to three wraps of the ring, customers drawn with repeats.
    for _ in 0..rng.uniform_usize(0, 3 * RECENT_WINDOW + 5) {
        window.push(CustomerId(customers[rng.uniform_usize(0, customers.len())]));
    }
    window
}

/// Appends one instance drawn from `shape` with VM id `vm`.
fn add_instance(pool: &mut Pool, rng: &mut SimRng, shape: &Shape, vm: VmId) {
    let (outstanding, utilization) = if rng.chance(0.6) {
        shape.classes[rng.uniform_usize(0, shape.classes.len())]
    } else {
        (
            rng.uniform_usize(0, 20) as u32,
            random_utilization(rng, shape.knee),
        )
    };
    pool.vm.push(vm);
    pool.server
        .push(ServerId::new(rng.uniform_usize(0, shape.servers)));
    pool.outstanding.push(outstanding);
    pool.utilization.push(utilization);
    pool.in_transition.push(rng.chance(shape.transition_p));
    pool.recent.add(random_window(rng, &shape.customers));
    pool.capacity.push(rng.uniform(1.0, 200.0));
}

fn random_pool(rng: &mut SimRng, size: usize, shape: &Shape) -> Pool {
    // Distinct VM ids in shuffled order, so the vm-id tie-break is not index order; some
    // cases repeat ids to pin "first in candidate order" among fully equal keys.
    let mut vm: Vec<VmId> = (0..size as u64).map(|i| VmId(1000 + 7 * i)).collect();
    rng.shuffle(&mut vm);
    if size > 1 && rng.chance(0.3) {
        let distinct = rng.uniform_usize(1, 4).min(size);
        for i in distinct..size {
            if rng.chance(0.5) {
                vm[i] = vm[rng.uniform_usize(0, distinct)];
            }
        }
    }
    let mut pool = Pool::new(shape.bound);
    for id in vm {
        add_instance(&mut pool, rng, shape, id);
    }
    pool
}

/// Retires a few random instances and adds a few new ones, as placement and retirement do
/// between steps. New instances may reuse a live VM id, keeping duplicate ids in play.
fn churn(pool: &mut Pool, rng: &mut SimRng, shape: &Shape, next_vm: &mut u64) {
    for _ in 0..rng.uniform_usize(0, 4).min(pool.len().saturating_sub(1)) {
        // Half the retirements take the last position, which moves nothing.
        let index = if rng.chance(0.5) {
            pool.len() - 1
        } else {
            rng.uniform_usize(0, pool.len())
        };
        pool.swap_remove(index);
    }
    for _ in 0..rng.uniform_usize(0, 4) {
        if pool.len() >= MAX_POOL {
            break;
        }
        let vm = if pool.len() > 0 && rng.chance(0.1) {
            pool.vm[rng.uniform_usize(0, pool.len())]
        } else {
            *next_vm += 1;
            VmId(*next_vm)
        };
        add_instance(pool, rng, shape, vm);
    }
}

/// `count` customer ids spread over `0..bound`, always including `bound − 1`.
fn sparse_customers(rng: &mut SimRng, count: usize, bound: u64) -> Vec<u64> {
    let mut customers: Vec<u64> = (1..count).map(|_| rng.next_u64() % bound).collect();
    customers.push(bound - 1);
    customers
}

/// A case's `(bound, customers)`: one customer, dense ids filling the bound, or sparse
/// ids over a bound up to the catalog's largest endpoint and well past it.
fn random_customers(rng: &mut SimRng) -> (u64, Vec<u64>) {
    match rng.uniform_usize(0, 4) {
        0 => (4, vec![3]),
        1 => {
            let bound = rng.uniform_usize(2, 60) as u64;
            (bound, (0..bound).collect())
        }
        2 => {
            let bound = rng.uniform_usize(60, 3000) as u64;
            (bound, (0..bound).collect())
        }
        _ => {
            let bound = [5100, 200_000][rng.uniform_usize(0, 2)];
            let count = rng.uniform_usize(1, 200);
            (bound, sparse_customers(rng, count, bound))
        }
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
    let (mut largest_pool, mut churned_steps, mut index_ties) = (0usize, 0usize, 0usize);
    let (mut next_id, mut next_vm) = (0u64, 1u64 << 40);

    for case in 0..CASES {
        router.config.thermal_margin_c = [3.0, 10.0][rng.uniform_usize(0, 2)];
        let size = match case {
            0..=2 => case + 1,
            3 => MAX_POOL,
            4 => 470,
            _ if rng.chance(0.25) => rng.uniform_usize(120, MAX_POOL + 1),
            _ => rng.uniform_usize(1, 121),
        };
        let classes = rng.uniform_usize(1, 5);
        let (bound, customers) = random_customers(&mut rng);
        let shape = Shape {
            servers: profiles.server_count(),
            knee,
            bound,
            customers,
            classes: (0..classes)
                .map(|_| {
                    (
                        rng.uniform_usize(0, 4) as u32,
                        random_utilization(&mut rng, knee),
                    )
                })
                .collect(),
            transition_p: [0.0, 0.3, 1.0][rng.uniform_usize(0, 3)],
        };
        let mut pool = random_pool(&mut rng, size, &shape);
        let source = if rng.chance(0.5) {
            RiskSource::Model
        } else {
            RiskSource::Coin([0.0, 0.3, 1.0][rng.uniform_usize(0, 3)])
        };
        let context = random_context(&mut rng, &profiles);
        let prepared = PreparedRoutingContext::new(&context, &router.config, &profiles);

        for step in 0..rng.uniform_usize(1, 4) {
            if step > 0 {
                churn(&mut pool, &mut rng, &shape, &mut next_vm);
                churned_steps += 1;
            }
            largest_pool = largest_pool.max(pool.len());
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
                    flags.extend((0..pool.len()).map(|_| rng.chance(p)));
                }
            }
            router.fill_route_keys(&pool.view(), &flags, &mut keys);

            let quanta = (pool.len() * 2).clamp(1, 64);
            let per_quantum = rng.uniform(0.05, 5.0);
            for quantum in 0..quanta {
                let customers = &shape.customers;
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
                let keyed = router.route_keyed(customer, &pool.view(), &keys, &pool.recent);
                assert_eq!(
                    keyed,
                    expected,
                    "case {case} ({} instances, {source:?}), step {step}, quantum {quantum}",
                    pool.len()
                );
                let index = keyed.expect("a non-empty pool always routes");
                decisions += 1;
                let tier = 2 * usize::from(!pool.in_transition[index]) + usize::from(!flags[index]);
                tiers_seen[tier] = true;
                let affinity = |i: usize| {
                    pool.utilization[i] <= knee && pool.recent.windows()[i].contains(customer)
                };
                affinity_hits += usize::from(affinity(index));
                // A later candidate with the same VM id and the same decision inputs lost
                // only on candidate order.
                index_ties += usize::from((index + 1..pool.len()).any(|j| {
                    pool.vm[j] == pool.vm[index]
                        && pool.in_transition[j] == pool.in_transition[index]
                        && flags[j] == flags[index]
                        && pool.outstanding[j] == pool.outstanding[index]
                        && pool.utilization[j] == pool.utilization[index]
                        && affinity(j) == affinity(index)
                }));

                // The simulator's per-quantum update of the routed candidate.
                pool.outstanding[index] += per_quantum.ceil() as u32;
                pool.utilization[index] =
                    (pool.utilization[index] + per_quantum / pool.capacity[index]).min(1.5);
                pool.recent.push(index, customer);
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
    // The sequences must reach every tier, exercise the affinity branch and the final
    // tie-break, reach the largest pools and churn between steps.
    assert!(
        tiers_seen.iter().all(|&seen| seen),
        "tiers seen: {tiers_seen:?}"
    );
    assert!(
        index_ties > 100,
        "only {index_ties} decisions broken on candidate order"
    );
    assert!(
        affinity_hits > 100,
        "only {affinity_hits} affinity wins in {decisions} decisions"
    );
    assert!(largest_pool >= MAX_POOL, "largest pool {largest_pool}");
    assert!(churned_steps > 50, "only {churned_steps} churned steps");
}

#[test]
fn keyed_router_handles_an_empty_pool() {
    let router = TapasRouter::default();
    let pool = Pool::new(1);
    let mut keys = RouteKeys::default();
    router.fill_route_keys(&pool.view(), &[], &mut keys);
    assert_eq!(
        router.route_keyed(CustomerId(1), &pool.view(), &keys, &pool.recent),
        None
    );
}

#[test]
fn recent_window_matches_a_bounded_deque() {
    let mut rng = SimRng::seed_from(11).derive("recent-window-model");
    for case in 0..64 {
        let customers: Vec<u64> = if case % 2 == 0 {
            (0..rng.uniform_usize(1, 80) as u64).collect()
        } else {
            (0..rng.uniform_usize(1, 48))
                .map(|_| rng.next_u64())
                .collect()
        };
        let mut window = RecentWindow::new();
        let mut model: VecDeque<u64> = VecDeque::with_capacity(RECENT_WINDOW);
        for _ in 0..rng.uniform_usize(0, 4 * RECENT_WINDOW) {
            let customer = customers[rng.uniform_usize(0, customers.len())];
            let evicted = window.push(CustomerId(customer));
            let expected = if model.len() == RECENT_WINDOW {
                model.pop_front()
            } else {
                None
            };
            model.push_back(customer);
            assert_eq!(evicted, expected.map(CustomerId), "case {case}");

            assert_eq!(window.len(), model.len());
            assert_eq!(window.is_empty(), model.is_empty());
            let mut held: Vec<u64> = window.customers().iter().map(|c| c.0).collect();
            let mut expected_held: Vec<u64> = model.iter().copied().collect();
            held.sort_unstable();
            expected_held.sort_unstable();
            assert_eq!(held, expected_held, "case {case}");
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
        // Customers never pushed are absent.
        assert!(!window.contains(CustomerId(u64::MAX)));
    }
}

/// The position of every window holding `customer`, once per entry equal to it, sorted,
/// from a scan.
fn scanned_holders(windows: &[RecentWindow], customer: CustomerId) -> Vec<usize> {
    windows
        .iter()
        .enumerate()
        .flat_map(|(position, window)| {
            let count = window
                .customers()
                .iter()
                .filter(|&&c| c == customer)
                .count();
            std::iter::repeat_n(position, count)
        })
        .collect()
}

#[test]
fn recent_index_matches_a_brute_force_scan() {
    let mut rng = SimRng::seed_from(17).derive("recent-index-model");
    let (mut removed_last, mut removed_repeating, mut evicted_self) = (0usize, 0usize, 0usize);
    for case in 0..96 {
        // Dense ids filling the bound in even cases, sparse ids over a wider bound in odd
        // ones; few customers make repeats and self-evictions common.
        let count = [1, 2, 5, 40][rng.uniform_usize(0, 4)];
        let (bound, customers) = if case % 2 == 0 {
            (count as u64, (0..count as u64).collect::<Vec<u64>>())
        } else {
            let bound = [count as u64 + 1, 64, 5100][rng.uniform_usize(0, 3)];
            (bound, sparse_customers(&mut rng, count, bound))
        };
        // Every id the case holds, the bound's ends, and a few ids no window holds.
        let mut probes = customers.clone();
        probes.extend([0, bound - 1]);
        probes.extend((0..4).map(|_| rng.next_u64() % bound));
        let mut index = RecentIndex::new(bound);
        // Each window's contents as a multiset, moved the way `swap_remove` moves them.
        let mut model: Vec<Vec<u64>> = Vec::new();
        for _ in 0..rng.uniform_usize(50, 400) {
            let len = model.len();
            match rng.uniform_usize(0, 10) {
                0 | 1 if len < 24 => {
                    let window = random_window(&mut rng, &customers);
                    model.push(window.customers().iter().map(|c| c.0).collect());
                    index.add(window);
                }
                2 if len > 0 => {
                    let position = if rng.chance(0.4) {
                        len - 1
                    } else {
                        rng.uniform_usize(0, len)
                    };
                    removed_last += usize::from(position == len - 1);
                    let held = index.windows()[position].customers();
                    removed_repeating +=
                        usize::from(held.iter().enumerate().any(|(k, c)| held[..k].contains(c)));
                    index.swap_remove(position);
                    model.swap_remove(position);
                }
                _ if len > 0 => {
                    let position = rng.uniform_usize(0, len);
                    let customer = CustomerId(customers[rng.uniform_usize(0, customers.len())]);
                    let evicted = index.windows()[position].clone().push(customer);
                    evicted_self += usize::from(evicted == Some(customer));
                    index.push(position, customer);
                    let held = &mut model[position];
                    if let Some(evicted) = evicted {
                        let at = held.iter().position(|&c| c == evicted.0).expect("evicted");
                        held.swap_remove(at);
                    }
                    held.push(customer.0);
                }
                _ => {}
            }

            assert_eq!(index.windows().len(), model.len(), "case {case}");
            for (window, expected) in index.windows().iter().zip(&model) {
                let mut held: Vec<u64> = window.customers().iter().map(|c| c.0).collect();
                let mut expected = expected.clone();
                held.sort_unstable();
                expected.sort_unstable();
                assert_eq!(held, expected, "case {case}: window contents");
            }
            for &customer in &probes {
                let customer = CustomerId(customer);
                let mut holders: Vec<usize> = index.holders(customer).collect();
                holders.sort_unstable();
                assert_eq!(
                    holders,
                    scanned_holders(index.windows(), customer),
                    "case {case}: customer {customer:?}"
                );
            }
        }
    }
    assert!(
        removed_last > 100,
        "only {removed_last} removals of the last position"
    );
    assert!(
        removed_repeating > 100,
        "only {removed_repeating} removals of repeating windows"
    );
    assert!(evicted_self > 100, "only {evicted_self} self-evictions");
}

/// An index over `0..40` holding one window of customer 39.
fn index_with_bound_40() -> RecentIndex {
    let mut index = RecentIndex::new(40);
    let mut window = RecentWindow::new();
    window.push(CustomerId(39));
    index.add(window);
    index.push(0, CustomerId(39));
    assert_eq!(index.holders(CustomerId(39)).count(), 2);
    index
}

#[test]
#[should_panic(expected = "customer id 40 is outside the recent index's bound 40")]
fn pushing_a_customer_at_the_bound_panics() {
    index_with_bound_40().push(0, CustomerId(40));
}

#[test]
#[should_panic(expected = "customer id 40 is outside the recent index's bound 40")]
fn asking_for_holders_at_the_bound_panics() {
    let _ = index_with_bound_40().holders(CustomerId(40));
}

#[test]
#[should_panic(expected = "customer id 40 is outside the recent index's bound 40")]
fn adding_a_window_with_a_customer_at_the_bound_panics() {
    let mut window = RecentWindow::new();
    window.push(CustomerId(40));
    index_with_bound_40().add(window);
}
