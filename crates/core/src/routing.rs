//! LLM inference request routing (§4.2, §4.5 "Load Balancer").
//!
//! Each SaaS endpoint routes its requests across its VM instances. The baseline router is the
//! conventional latency-oriented policy: send the request to the instance with the fewest
//! outstanding requests. The TAPAS router first *filters out* instances with a high risk of
//! violating one of the three operational limits — aisle airflow, row power, or server GPU
//! temperature — using the profiled models and the current (cached, periodically refreshed)
//! infrastructure state, and then applies the state-of-the-art ordering: (1) KV-cache
//! affinity (prefer an instance that recently served the same customer), (2) energy
//! concentration (prefer busier instances below a utilization knee so idle instances can stay
//! quiet), (3) spread for performance.
//!
//! # Hot path
//!
//! The simulator routes millions of request quanta per experiment. Every entry point works
//! on a [`CandidateView`] (a struct-of-arrays view of an endpoint's instances maintained
//! incrementally by the caller) with a [`PreparedRoutingContext`] that
//! pre-computes per-row/per-aisle headrooms and memoizes per-server inlet predictions in a
//! [`RouterScratch`], and returns a candidate *index* so the caller can update its registry
//! in O(1).
//!
//! [`TapasRouter::route_keyed`] is the simulator's decision. It reads per-candidate keys
//! ([`RouteKeys`]) cached once per step and refreshed for the one candidate each quantum
//! loads, with a tournament tree over them that holds the best candidate by plain
//! (no-affinity) score. A [`RecentIndex`] keeps the pool's recent-customer windows and maps
//! each customer to the positions whose window holds it, so a decision weighs the tree root
//! against the request customer's holders only: O(log pool + holders) per quantum instead
//! of a pass over the pool. [`TapasRouter::route_prescored`], a four-tier scan over the
//! pool, is its reference; both choose the candidate maximizing `(available, safe, score,
//! smaller vm id)`. [`BaselineRouter::route_view`] is the simulator's baseline decision,
//! with [`BaselineRouter::route_candidates`] as its reference.

use crate::profiles::ProfileStore;
use dc_sim::ids::ServerId;
use llm_sim::request::{CustomerId, InferenceRequest};
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use workload::vm::VmId;

/// Length of the per-instance recent-customer window used for KV-affinity scoring.
pub const RECENT_WINDOW: usize = 32;
// `RecentWindow` keeps its length and head in `u8`s.
const _: () = assert!(RECENT_WINDOW <= u8::MAX as usize);

/// A bounded ring of recently served customers.
///
/// Mirrors the instance runtime's bounded window: pushes evict the oldest entry once the
/// window is full, and membership checks scan at most [`RECENT_WINDOW`] entries, so the
/// scoring cost cannot drift upward over long simulations. The ring is stored inline, so a
/// pool's windows sit contiguously in its column.
#[derive(Debug, Clone, PartialEq)]
pub struct RecentWindow {
    items: [CustomerId; RECENT_WINDOW],
    len: u8,
    head: u8,
}

impl Default for RecentWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RecentWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self { items: [CustomerId(0); RECENT_WINDOW], len: 0, head: 0 }
    }

    /// Records a served customer, evicting the oldest entry when full. Returns the evicted
    /// customer, if any.
    pub fn push(&mut self, customer: CustomerId) -> Option<CustomerId> {
        if usize::from(self.len) < RECENT_WINDOW {
            self.items[usize::from(self.len)] = customer;
            self.len += 1;
            None
        } else {
            let evicted = std::mem::replace(&mut self.items[usize::from(self.head)], customer);
            self.head = ((usize::from(self.head) + 1) % RECENT_WINDOW) as u8;
            Some(evicted)
        }
    }

    /// Returns `true` if the customer is within the window (an exact scan).
    #[inline]
    #[must_use]
    pub fn contains(&self, customer: CustomerId) -> bool {
        self.customers().contains(&customer)
    }

    /// The recorded customers, with repeats, in ring order (not oldest first).
    #[must_use]
    pub fn customers(&self) -> &[CustomerId] {
        &self.items[..usize::from(self.len)]
    }

    /// Number of recorded customers (at most [`RECENT_WINDOW`]).
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if no customer was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A pool's recent-customer windows plus an inverted index from each customer to the
/// positions whose window holds it.
///
/// The index is exact: after every operation, `holders(c)` lists each position whose window
/// holds `c`, once, with the number of window entries equal to `c`. It is what lets
/// [`TapasRouter::route_keyed`] visit only the candidates a request has affinity with.
#[derive(Debug, Clone, Default)]
pub struct RecentIndex {
    windows: Vec<RecentWindow>,
    holders: HashMap<u64, Vec<(u32, u32)>, BuildHasherDefault<CustomerHasher>>,
    /// Emptied holder lists, kept for reuse so customers entering and leaving the index do
    /// not allocate.
    spare: Vec<Vec<(u32, u32)>>,
}

impl RecentIndex {
    /// Appends `window` as the last position, indexing its contents.
    pub fn add(&mut self, window: RecentWindow) {
        let position = position_u32(self.windows.len());
        for &customer in window.customers() {
            self.increment(customer, position);
        }
        self.windows.push(window);
    }

    /// Records `customer` in the window at `position` (see [`RecentWindow::push`]).
    ///
    /// # Panics
    /// Panics if `position` is out of range.
    pub fn push(&mut self, position: usize, customer: CustomerId) {
        let evicted = self.windows[position].push(customer);
        if evicted == Some(customer) {
            return;
        }
        let position = position_u32(position);
        self.increment(customer, position);
        if let Some(evicted) = evicted {
            self.decrement(evicted, position);
        }
    }

    /// Removes the window at `position`, moving the last window into its place (the
    /// registry's `swap_remove`).
    ///
    /// # Panics
    /// Panics if `position` is out of range.
    pub fn swap_remove(&mut self, position: usize) {
        let last = self.windows.len() - 1;
        let removed = self.windows.swap_remove(position);
        let (position, last) = (position_u32(position), position_u32(last));
        for &customer in removed.customers() {
            self.decrement(customer, position);
        }
        if position != last {
            // The moved window's entries are renamed; a repeated customer's entry is
            // renamed on its first occurrence and not found again.
            for &customer in self.windows[position as usize].customers() {
                let list = self.holders.get_mut(&customer.0).expect("window entries are indexed");
                if let Some(entry) = list.iter_mut().find(|entry| entry.0 == last) {
                    entry.0 = position;
                }
            }
        }
    }

    /// `(position, occurrences)` for every window holding `customer`, in no fixed order.
    #[must_use]
    pub fn holders(&self, customer: CustomerId) -> &[(u32, u32)] {
        self.holders.get(&customer.0).map_or(&[], Vec::as_slice)
    }

    /// The windows, indexed by position.
    #[must_use]
    pub fn windows(&self) -> &[RecentWindow] {
        &self.windows
    }

    fn increment(&mut self, customer: CustomerId, position: u32) {
        let list =
            self.holders.entry(customer.0).or_insert_with(|| self.spare.pop().unwrap_or_default());
        match list.iter_mut().find(|entry| entry.0 == position) {
            Some(entry) => entry.1 += 1,
            None => list.push((position, 1)),
        }
    }

    fn decrement(&mut self, customer: CustomerId, position: u32) {
        let list = self.holders.get_mut(&customer.0).expect("window entries are indexed");
        let at =
            list.iter().position(|entry| entry.0 == position).expect("window entries are indexed");
        list[at].1 -= 1;
        if list[at].1 == 0 {
            list.swap_remove(at);
            if list.is_empty() {
                self.spare.extend(self.holders.remove(&customer.0));
            }
        }
    }
}

fn position_u32(position: usize) -> u32 {
    u32::try_from(position).expect("pool positions fit in u32")
}

/// A one-multiply hasher for `u64` customer ids: the folded 128-bit product with a 64-bit
/// odd constant, so both the low (bucket) and high (tag) bits depend on every input bit.
#[derive(Debug, Clone, Copy, Default)]
struct CustomerHasher(u64);

impl Hasher for CustomerHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Customer ids hash through `write_u64`; other input is folded in byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, value: u64) {
        let product = u128::from(value) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// The infrastructure state the router consults (recomputed every few minutes, §4.2).
///
/// Per-row power and per-aisle airflow are dense vectors indexed by `RowId::index` /
/// `AisleId::index`, matching the carry-over state the simulator maintains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingContext {
    /// Current outside temperature.
    pub outside_temp: Celsius,
    /// Current normalized datacenter load.
    pub dc_load: f64,
    /// Current power draw per row, indexed by `RowId::index`.
    pub row_power: Vec<Kilowatts>,
    /// Current airflow demand per aisle, indexed by `AisleId::index`.
    pub aisle_airflow: Vec<CubicFeetPerMinute>,
}

impl RoutingContext {
    /// A context with every row and aisle at the given fill fractions of their budgets.
    #[must_use]
    pub fn uniform(
        profiles: &ProfileStore,
        outside_temp: Celsius,
        dc_load: f64,
        row_fill: f64,
        aisle_fill: f64,
    ) -> Self {
        Self {
            outside_temp,
            dc_load,
            row_power: profiles
                .budgets
                .row_power
                .values()
                .map(|&b| b * row_fill)
                .collect(),
            aisle_airflow: profiles
                .budgets
                .aisle_airflow
                .values()
                .map(|&b| b * aisle_fill)
                .collect(),
        }
    }
}

/// A struct-of-arrays view over one endpoint's routable instances.
///
/// All slices have equal length; index `i` describes one instance. The caller (the cluster
/// simulator's instance registry) maintains these columns incrementally and updates them in
/// place as quanta are routed.
#[derive(Debug)]
pub struct CandidateView<'a> {
    /// VM ids.
    pub vm: &'a [VmId],
    /// Hosting servers.
    pub server: &'a [ServerId],
    /// Outstanding request counts.
    pub outstanding: &'a [u32],
    /// Current utilizations.
    pub utilization: &'a [f64],
    /// Transition (reload) flags.
    pub in_transition: &'a [bool],
    /// Recent-customer windows.
    pub recent: &'a [RecentWindow],
}

/// The conventional baseline: least outstanding requests, ignoring thermal/power state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BaselineRouter;

impl BaselineRouter {
    /// The reference decision, returning the chosen candidate index.
    ///
    /// Single pass, allocation-free: tracks the best available and the best overall
    /// candidate by `(outstanding, vm)` and falls back to the overall best only when every
    /// instance is in transition.
    #[must_use]
    pub fn route_candidates(&self, view: &CandidateView<'_>) -> Option<usize> {
        let mut best_available: Option<(u32, u64, usize)> = None;
        let mut best_any: Option<(u32, u64, usize)> = None;
        for i in 0..view.vm.len() {
            let key = (view.outstanding[i], view.vm[i].0);
            let better = |best: &Option<(u32, u64, usize)>| match best {
                Some((outstanding, vm, _)) => key < (*outstanding, *vm),
                None => true,
            };
            if better(&best_any) {
                best_any = Some((key.0, key.1, i));
            }
            if !view.in_transition[i] && better(&best_available) {
                best_available = Some((key.0, key.1, i));
            }
        }
        best_available.or(best_any).map(|(_, _, i)| i)
    }

    /// The simulator's decision: one pass tracking the minimum of a packed
    /// `(outstanding, vm)` key, with transitioning instances forced to the maximum key so
    /// they never win. Falls back to [`Self::route_candidates`] only when every instance is
    /// transitioning.
    #[must_use]
    pub fn route_view(&self, view: &CandidateView<'_>) -> Option<usize> {
        let n = view.vm.len();
        if n == 0 {
            return None;
        }
        let mut best_key = u128::MAX;
        let mut best = usize::MAX;
        for (i, ((&outstanding, &transitioning), &vm)) in view
            .outstanding
            .iter()
            .zip(view.in_transition)
            .zip(view.vm)
            .enumerate()
        {
            let key = ((u128::from(outstanding) << 64) | u128::from(vm.0))
                | (transitioning as u128).wrapping_neg();
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        if best == usize::MAX {
            // Every instance is in transition: the reference handles the degenerate tier.
            return self.route_candidates(view);
        }
        Some(best)
    }
}

/// Tuning parameters of the TAPAS router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TapasRouterConfig {
    /// Fraction of the row budget above which a row is considered at risk.
    pub row_power_risk_fraction: f64,
    /// Fraction of the aisle airflow provisioning above which an aisle is considered at risk.
    pub aisle_airflow_risk_fraction: f64,
    /// Safety margin (°C) below the throttle temperature at which a server is considered at
    /// risk.
    pub thermal_margin_c: f64,
    /// Utilization knee for the energy-concentration preference: instances below the knee are
    /// filled up before idle instances are woken.
    pub concentration_knee: f64,
    /// Additional utilization a routed request is assumed to add (used in risk estimates).
    pub marginal_utilization: f64,
}

impl Default for TapasRouterConfig {
    fn default() -> Self {
        Self {
            row_power_risk_fraction: 0.95,
            aisle_airflow_risk_fraction: 0.95,
            thermal_margin_c: 3.0,
            concentration_knee: 0.7,
            marginal_utilization: 0.05,
        }
    }
}

/// Per-step pre-computation for the TAPAS risk filter.
///
/// Row and aisle headrooms collapse the budget comparison to one subtraction per candidate,
/// and per-server inlet predictions are memoized in the [`RouterScratch`] so each server's
/// piecewise-polynomial inlet model is evaluated at most once per step regardless of how many
/// quanta route to instances on it.
#[derive(Debug, Clone)]
pub struct PreparedRoutingContext {
    outside_temp: Celsius,
    dc_load: f64,
    /// `budget × risk_fraction − current draw` per row (kW).
    row_headroom_kw: Vec<f64>,
    /// `provisioned × risk_fraction − current demand` per aisle (CFM).
    aisle_headroom_cfm: Vec<f64>,
}

impl PreparedRoutingContext {
    /// Builds the prepared context for one step.
    #[must_use]
    pub fn new(
        context: &RoutingContext,
        config: &TapasRouterConfig,
        profiles: &ProfileStore,
    ) -> Self {
        let mut prepared = Self {
            outside_temp: context.outside_temp,
            dc_load: context.dc_load,
            row_headroom_kw: Vec::new(),
            aisle_headroom_cfm: Vec::new(),
        };
        prepared.refresh(context, config, profiles);
        prepared
    }

    /// Recomputes the prepared state for a new step, reusing the headroom buffers.
    pub fn refresh(
        &mut self,
        context: &RoutingContext,
        config: &TapasRouterConfig,
        profiles: &ProfileStore,
    ) {
        self.outside_temp = context.outside_temp;
        self.dc_load = context.dc_load;
        // Iterate the profiled layout's rows/aisles, not the context vectors: a context
        // shorter than the layout (e.g. no telemetry yet) reads as zero draw, matching the
        // previous map-based `get().unwrap_or(ZERO)` tolerance.
        self.row_headroom_kw.clear();
        self.row_headroom_kw.extend((0..profiles.row_count()).map(|row| {
            let now = context.row_power.get(row).copied().unwrap_or(Kilowatts::ZERO);
            profiles.row_budget(dc_sim::ids::RowId::new(row)).value()
                * config.row_power_risk_fraction
                - now.value()
        }));
        self.aisle_headroom_cfm.clear();
        self.aisle_headroom_cfm.extend((0..profiles.aisle_count()).map(|aisle| {
            let now = context
                .aisle_airflow
                .get(aisle)
                .copied()
                .unwrap_or(CubicFeetPerMinute::ZERO);
            profiles.aisle_budget(dc_sim::ids::AisleId::new(aisle)).value()
                * config.aisle_airflow_risk_fraction
                - now.value()
        }));
    }
}

/// Reusable per-step buffers for the routing hot path.
#[derive(Debug, Default, Clone)]
pub struct RouterScratch {
    /// Memoized per-server predicted inlet (°C); NaN marks "not yet computed this step".
    inlet_c: Vec<f64>,
}

impl RouterScratch {
    /// Resets the memo for a new step.
    pub fn begin_step(&mut self, server_count: usize) {
        self.inlet_c.clear();
        self.inlet_c.resize(server_count, f64::NAN);
    }
}

/// The customer-independent part of one candidate's decision key.
#[derive(Debug, Clone, Copy)]
struct RouteKey {
    /// Score without a KV-affinity hit.
    plain: f64,
    /// Score with a KV-affinity hit (equal to `plain` past the knee, never below it).
    affinity: f64,
    /// The candidate's VM id, the tie-break after the score.
    vm: u64,
    /// `2 × available + safe`: the fallback tier, higher is better.
    tier: u8,
}

/// `true` if candidate `a` with `score_a` beats candidate `b` with `score_b` in the decision
/// order `(tier, score, smaller vm id, smaller index)`, a strict total order.
#[inline]
fn beats(a: (&RouteKey, f64, usize), b: (&RouteKey, f64, usize)) -> bool {
    let ((key_a, score_a, index_a), (key_b, score_b, index_b)) = (a, b);
    // Non-short-circuit operators: the outcome is data-dependent, so a select beats a branch.
    (key_a.tier > key_b.tier)
        | ((key_a.tier == key_b.tier)
            & ((score_a > score_b)
                | ((score_a == score_b)
                    & ((key_a.vm < key_b.vm) | ((key_a.vm == key_b.vm) & (index_a < index_b))))))
}

/// Reusable per-candidate decision keys for [`TapasRouter::route_keyed`].
///
/// Filled once per endpoint per step with [`TapasRouter::fill_route_keys`]; after each routed
/// quantum the caller refreshes the routed candidate with [`TapasRouter::refresh_route_key`].
/// A bottom-up tournament tree over the candidates holds the best by plain score: `tree[1]`
/// is the root, `tree[p + i] = i` are the leaves of a `p`-candidate pool, and node `n`
/// holds the winner of nodes `2n` and `2n + 1`.
#[derive(Debug, Default, Clone)]
pub struct RouteKeys {
    keys: Vec<RouteKey>,
    tree: Vec<u32>,
}

impl RouteKeys {
    /// The winner of tree nodes `2 × node` and `2 × node + 1` by plain score.
    #[inline]
    fn play(&self, node: usize) -> u32 {
        let (left, right) = (self.tree[2 * node], self.tree[2 * node + 1]);
        let (l, r) = (left as usize, right as usize);
        let (key_l, key_r) = (&self.keys[l], &self.keys[r]);
        if beats((key_r, key_r.plain, r), (key_l, key_l.plain, l)) {
            right
        } else {
            left
        }
    }

    /// Rebuilds the whole tree from the keys in O(pool).
    fn build(&mut self) {
        let count = self.keys.len();
        self.tree.clear();
        self.tree.resize(count, 0);
        self.tree.extend(0..position_u32(count));
        for node in (1..count).rev() {
            self.tree[node] = self.play(node);
        }
    }

    /// Replays the matches on the path from leaf `index` to the root, carrying the winner
    /// up so each level reads only the sibling.
    fn replay(&mut self, index: usize) {
        let mut node = self.keys.len() + index;
        let mut winner = index;
        while node > 1 {
            let sibling = self.tree[node ^ 1] as usize;
            let (key_w, key_s) = (&self.keys[winner], &self.keys[sibling]);
            if beats((key_s, key_s.plain, sibling), (key_w, key_w.plain, winner)) {
                winner = sibling;
            }
            node /= 2;
            let previous = std::mem::replace(&mut self.tree[node], winner as u32);
            // A node whose winner is unchanged and is not `index` hands its parent the same
            // key as before, so nothing above it changes either.
            if previous as usize == winner && winner != index {
                break;
            }
        }
    }
}

/// The TAPAS thermal- and power-aware request router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[derive(Default)]
pub struct TapasRouter {
    /// Tuning parameters.
    pub config: TapasRouterConfig,
}


impl TapasRouter {
    /// Returns `true` if routing another request to this instance risks violating one of the
    /// three operational limits. `inlet` is the server's predicted inlet temperature.
    fn is_risky_with_inlet(
        &self,
        server: ServerId,
        utilization: f64,
        inlet: Celsius,
        profiles: &ProfileStore,
        row_headroom_kw: f64,
        aisle_headroom_cfm: f64,
    ) -> bool {
        let profile = profiles.server(server);

        // Server-level thermal risk (Eq. 2 with the current inlet estimate).
        let next_util = (utilization + self.config.marginal_utilization).clamp(0.0, 1.0);
        let gpu_max = profile.spec.gpu_max_power.to_watts().value();
        let gpu_power = simkit::units::Watts::new(gpu_max * (0.15 + 0.85 * next_util));
        let predicted_temp = profile.predicted_worst_gpu_temp(inlet, gpu_power);
        let limit = profile.spec.gpu_throttle_temp_c - self.config.thermal_margin_c;
        if predicted_temp.value() > limit {
            return true;
        }

        // Row-level power risk (Eq. 4).
        let marginal_power = profile.predicted_power(next_util)
            - profile.predicted_power(utilization.clamp(0.0, 1.0));
        if marginal_power.value() > row_headroom_kw {
            return true;
        }

        // Aisle-level airflow risk (Eq. 3).
        let marginal_airflow = profile.predicted_airflow(next_util)
            - profile.predicted_airflow(utilization.clamp(0.0, 1.0));
        if marginal_airflow.value() > aisle_headroom_cfm {
            return true;
        }

        false
    }

    /// Scores an eligible candidate; higher is better. `affinity` is evaluated lazily so the
    /// recent-customer window is only scanned for instances below the concentration knee.
    fn score(
        &self,
        outstanding: usize,
        utilization: f64,
        affinity: impl FnOnce() -> bool,
    ) -> f64 {
        // (3) Spread: fewer outstanding requests is better. This is the only criterion that
        // applies to instances already past the utilization knee — sending them affinity or
        // concentration traffic would trade latency for locality/energy, which the paper's
        // ordering never does.
        let spread = 1.0 / (1.0 + outstanding as f64);
        if utilization > self.config.concentration_knee {
            return spread;
        }
        // (1) KV-cache affinity dominates among instances with headroom.
        let affinity = if affinity() { 1.0 } else { 0.0 };
        // (2) Energy concentration: prefer the most-utilized instance below the knee.
        let concentration = utilization / self.config.concentration_knee;
        100.0 * affinity + 2.0 * concentration + spread
    }

    /// Routing with pre-computed risk flags: the reference for [`Self::route_keyed`].
    ///
    /// One pass over the candidates, tracking the best candidate of each fallback tier
    /// (available+safe, available, safe, any). Ties break toward the smaller VM id, so the
    /// result is independent of candidate order. This is the routing contract
    /// [`Self::route_keyed`] must reproduce: the chosen candidate maximizes `(available,
    /// safe, score, smaller vm id)` lexicographically, and among fully equal keys the first
    /// in candidate order wins.
    ///
    /// The caller computes the flags once per endpoint per step with
    /// [`Self::fill_risk_flags`], then refreshes only the mutated candidate's flag (via
    /// [`Self::candidate_risk`]) after each routed quantum — so each decision costs one
    /// scoring pass and zero risk-model evaluations.
    ///
    /// # Panics
    /// Panics if `flags` is shorter than the candidate list.
    #[must_use]
    pub fn route_prescored(
        &self,
        request: &InferenceRequest,
        view: &CandidateView<'_>,
        flags: &[bool],
    ) -> Option<usize> {
        assert!(flags.len() >= view.vm.len(), "risk flags must cover every candidate");
        #[derive(Clone, Copy)]
        struct Best {
            score: f64,
            vm: u64,
            index: usize,
        }
        #[inline]
        fn consider(best: &mut Option<Best>, score: f64, vm: u64, index: usize) {
            let replace = match best {
                Some(b) => score > b.score || (score == b.score && vm < b.vm),
                None => true,
            };
            if replace {
                *best = Some(Best { score, vm, index });
            }
        }

        let mut avail_safe: Option<Best> = None;
        let mut avail_any: Option<Best> = None;
        let mut all_safe: Option<Best> = None;
        let mut all_any: Option<Best> = None;

        for (i, &risky) in flags[..view.vm.len()].iter().enumerate() {
            let vm = view.vm[i].0;
            let utilization = view.utilization[i];
            let score = self.score(view.outstanding[i] as usize, utilization, || {
                view.recent[i].contains(request.customer)
            });
            let is_safe = !risky;
            consider(&mut all_any, score, vm, i);
            if is_safe {
                consider(&mut all_safe, score, vm, i);
            }
            if !view.in_transition[i] {
                consider(&mut avail_any, score, vm, i);
                if is_safe {
                    consider(&mut avail_safe, score, vm, i);
                }
            }
        }

        // If every instance is risky we must still serve the request: fall back to the full
        // pool (the instance configurator will shed the load instead). Instances in
        // transition are only used when nothing else is available.
        let chosen = if avail_any.is_some() {
            avail_safe.or(avail_any)
        } else {
            all_safe.or(all_any)
        };
        chosen.map(|b| b.index)
    }

    #[inline]
    fn risk_with_memo(
        config: &TapasRouterConfig,
        server: ServerId,
        utilization: f64,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        inlet_memo: &mut [f64],
    ) -> bool {
        let slot = &mut inlet_memo[server.index()];
        if slot.is_nan() {
            *slot = profiles
                .server(server)
                .predicted_inlet(prepared.outside_temp, prepared.dc_load)
                .value();
        }
        let inlet = Celsius::new(*slot);
        let profile = profiles.server(server);
        let router = TapasRouter { config: *config };
        router.is_risky_with_inlet(
            server,
            utilization,
            inlet,
            profiles,
            prepared.row_headroom_kw[profile.row.index()],
            prepared.aisle_headroom_cfm[profile.aisle.index()],
        )
    }

    /// Evaluates the risk filter for one candidate (used to refresh a cached flag after the
    /// caller mutated that candidate's utilization).
    #[must_use]
    pub fn candidate_risk(
        &self,
        server: ServerId,
        utilization: f64,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        scratch: &mut RouterScratch,
    ) -> bool {
        Self::risk_with_memo(
            &self.config,
            server,
            utilization,
            profiles,
            prepared,
            &mut scratch.inlet_c,
        )
    }

    /// Fills `flags[i] = risky(candidate i)` for every candidate, reusing the scratch memo.
    pub fn fill_risk_flags(
        &self,
        view: &CandidateView<'_>,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        scratch: &mut RouterScratch,
        flags: &mut Vec<bool>,
    ) {
        flags.clear();
        flags.reserve(view.vm.len());
        for (&server, &utilization) in view.server.iter().zip(view.utilization) {
            flags.push(Self::risk_with_memo(
                &self.config,
                server,
                utilization,
                profiles,
                prepared,
                &mut scratch.inlet_c,
            ));
        }
    }

    /// The decision key of candidate `i` with risk flag `risky`.
    #[inline]
    fn route_key(&self, view: &CandidateView<'_>, i: usize, risky: bool) -> RouteKey {
        let outstanding = view.outstanding[i] as usize;
        let utilization = view.utilization[i];
        RouteKey {
            plain: self.score(outstanding, utilization, || false),
            affinity: self.score(outstanding, utilization, || true),
            vm: view.vm[i].0,
            tier: 2 * u8::from(!view.in_transition[i]) + u8::from(!risky),
        }
    }

    /// Fills `keys` for every candidate from its current columns and risk flag, and builds
    /// their tournament tree.
    ///
    /// # Panics
    /// Panics if `risky` is shorter than the candidate list.
    pub fn fill_route_keys(&self, view: &CandidateView<'_>, risky: &[bool], keys: &mut RouteKeys) {
        keys.keys.clear();
        keys.keys.extend((0..view.vm.len()).map(|i| self.route_key(view, i, risky[i])));
        keys.build();
    }

    /// Recomputes candidate `index`'s key after the caller mutated its columns, and replays
    /// its path in the tree; `risky` is its refreshed flag (from [`Self::candidate_risk`]).
    #[inline]
    pub fn refresh_route_key(
        &self,
        view: &CandidateView<'_>,
        index: usize,
        risky: bool,
        keys: &mut RouteKeys,
    ) {
        keys.keys[index] = self.route_key(view, index, risky);
        keys.replay(index);
    }

    /// Hot-path routing over per-step cached keys: the simulator's entry point.
    ///
    /// Returns what [`Self::route_prescored`] returns for the same candidates and flags
    /// whenever `keys` and `recent` are current: the candidate maximizing `(available, safe,
    /// score, smaller vm id)`, the first in candidate order among equal keys. It compares
    /// two candidates: the tree root under its plain score, and the best of the request
    /// customer's holders whose affinity score differs from their plain score, under their
    /// affinity score. That is exact because no score is below the plain score: a candidate
    /// that is not such a holder scores its plain score, and the root's plain key bounds
    /// every plain key. The cost is O(holders), with no pass over the pool.
    ///
    /// # Panics
    /// Panics if `keys` or `recent` was not filled for exactly this candidate list.
    #[must_use]
    pub fn route_keyed(
        &self,
        request: &InferenceRequest,
        view: &CandidateView<'_>,
        keys: &RouteKeys,
        recent: &RecentIndex,
    ) -> Option<usize> {
        let count = view.vm.len();
        assert!(
            keys.keys.len() == count && recent.windows.len() == count,
            "route keys and recent index must cover exactly the candidates"
        );
        let root = *keys.tree.get(1)? as usize;
        let mut best = (&keys.keys[root], keys.keys[root].plain, root);
        for &(position, _) in recent.holders(request.customer) {
            let index = position as usize;
            let key = &keys.keys[index];
            // Past the knee the window cannot matter.
            if key.affinity != key.plain && beats((key, key.affinity, index), best) {
                best = (key, key.affinity, index);
            }
        }
        Some(best.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::engine::Datacenter;
    use dc_sim::ids::{AisleId, RowId};
    use dc_sim::topology::LayoutConfig;
    use llm_sim::hardware::GpuHardware;
    use llm_sim::request::RequestId;
    use simkit::rng::SimRng;
    use simkit::time::SimTime;

    fn profiles() -> ProfileStore {
        let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
        ProfileStore::offline_profiling(&dc, &GpuHardware::a100())
    }

    /// The owned columns behind a [`CandidateView`].
    #[derive(Debug, Default)]
    struct Pool {
        vm: Vec<VmId>,
        server: Vec<ServerId>,
        outstanding: Vec<u32>,
        utilization: Vec<f64>,
        in_transition: Vec<bool>,
        recent: Vec<RecentWindow>,
    }

    impl Pool {
        fn push(&mut self, vm: u64, server: usize, outstanding: u32, util: f64) {
            self.vm.push(VmId(vm));
            self.server.push(ServerId::new(server));
            self.outstanding.push(outstanding);
            self.utilization.push(util);
            self.in_transition.push(false);
            self.recent.push(RecentWindow::new());
        }

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

        /// The TAPAS decision through `fill_risk_flags` + `route_prescored`.
        fn route_tapas(
            &self,
            router: &TapasRouter,
            request: &InferenceRequest,
            profiles: &ProfileStore,
            context: &RoutingContext,
        ) -> Option<VmId> {
            let prepared = PreparedRoutingContext::new(context, &router.config, profiles);
            let mut scratch = RouterScratch::default();
            scratch.begin_step(profiles.server_count());
            let mut flags = Vec::new();
            router.fill_risk_flags(&self.view(), profiles, &prepared, &mut scratch, &mut flags);
            router.route_prescored(request, &self.view(), &flags).map(|i| self.vm[i])
        }

        /// The baseline decision through `route_view`, the simulator's path.
        fn route_baseline(&self) -> Option<VmId> {
            BaselineRouter.route_view(&self.view()).map(|i| self.vm[i])
        }
    }

    /// A pool of `(vm, server, outstanding, utilization)` instances.
    fn pool(instances: &[(u64, usize, u32, f64)]) -> Pool {
        let mut pool = Pool::default();
        for &(vm, server, outstanding, util) in instances {
            pool.push(vm, server, outstanding, util);
        }
        pool
    }

    fn request(customer: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(1),
            customer: CustomerId(customer),
            arrival: SimTime::ZERO,
            prompt_tokens: 512,
            output_tokens: 128,
        }
    }

    fn calm_context(profiles: &ProfileStore) -> RoutingContext {
        RoutingContext {
            outside_temp: Celsius::new(20.0),
            dc_load: 0.4,
            row_power: profiles
                .budgets
                .row_power
                .keys()
                .map(|_| Kilowatts::new(50.0))
                .collect(),
            aisle_airflow: profiles
                .budgets
                .aisle_airflow
                .keys()
                .map(|_| CubicFeetPerMinute::new(10_000.0))
                .collect(),
        }
    }

    #[test]
    fn baseline_picks_least_outstanding() {
        let instances = pool(&[(1, 0, 10, 0.9), (2, 1, 2, 0.3), (3, 2, 5, 0.5)]);
        assert_eq!(instances.route_baseline(), Some(VmId(2)));
        assert!(Pool::default().route_baseline().is_none());
    }

    #[test]
    fn baseline_skips_instances_in_transition_when_possible() {
        let mut instances = pool(&[(1, 0, 1, 0.2), (2, 1, 5, 0.5)]);
        instances.in_transition[0] = true;
        assert_eq!(instances.route_baseline(), Some(VmId(2)));
        // If every instance is in transition the request still goes somewhere.
        let mut all_busy = pool(&[(1, 0, 1, 0.2)]);
        all_busy.in_transition[0] = true;
        assert_eq!(all_busy.route_baseline(), Some(VmId(1)));
    }

    #[test]
    fn baseline_view_scan_matches_its_reference() {
        let mut rng = SimRng::seed_from(31).derive("baseline-route-view");
        for case in 0..400 {
            // Case 0 is the empty pool; every fourth case has every instance in transition.
            let size = if case == 0 { 0 } else { rng.uniform_usize(1, 24) };
            let all_in_transition = case % 4 == 3;
            // Shuffled VM ids over a narrow outstanding range force ties on the count.
            let mut vms: Vec<u64> = (0..size as u64).map(|i| 100 + 7 * i).collect();
            rng.shuffle(&mut vms);
            let mut instances = Pool::default();
            for (i, &vm) in vms.iter().enumerate() {
                let outstanding = rng.uniform_usize(0, 3) as u32;
                instances.push(vm, i, outstanding, rng.uniform(0.0, 1.0));
                instances.in_transition[i] = all_in_transition || rng.chance(0.3);
            }
            let view = instances.view();
            assert_eq!(
                BaselineRouter.route_view(&view),
                BaselineRouter.route_candidates(&view),
                "case {case}: {size} candidates"
            );
        }
    }

    #[test]
    fn tapas_avoids_rows_near_their_power_budget() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let mut ctx = calm_context(&profiles);
        // Row 0 is right at its budget; row 1 is calm. Instance 1 sits in row 0 (server 0),
        // instance 2 in row 1 (server 40).
        let row0 = profiles.server(ServerId::new(0)).row;
        let budget = profiles.budgets.row_power[row0];
        ctx.row_power[row0.index()] = budget * 0.99;
        let instances = pool(&[(1, 0, 1, 0.5), (2, 40, 5, 0.5)]);
        let choice = instances.route_tapas(&router, &request(0), &profiles, &ctx);
        assert_eq!(choice, Some(VmId(2)), "the request must avoid the at-risk row");
    }

    #[test]
    fn tapas_avoids_hot_servers() {
        let profiles = profiles();
        // A wide thermal margin makes the fully-loaded server risky and the lightly-loaded
        // one safe for any seed-dependent spatial offsets, so the test checks the filter
        // logic rather than one RNG draw.
        let mut router = TapasRouter::default();
        router.config.thermal_margin_c = 20.0;
        let mut ctx = calm_context(&profiles);
        // A very hot day with high utilization puts fully-loaded servers at thermal risk.
        ctx.outside_temp = Celsius::new(42.0);
        ctx.dc_load = 1.0;
        let hot = (1, 0, 0, 0.98);
        let cool = (2, 40, 8, 0.2);
        let choice = pool(&[hot, cool]).route_tapas(&router, &request(0), &profiles, &ctx);
        assert_eq!(choice, Some(VmId(2)));
        // If every instance is risky, the router still returns something.
        let choice = pool(&[hot]).route_tapas(&router, &request(0), &profiles, &ctx);
        assert_eq!(choice, Some(VmId(1)));
    }

    #[test]
    fn tapas_prefers_kv_affinity() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        let mut instances = pool(&[(1, 0, 6, 0.5), (2, 1, 0, 0.1)]);
        instances.recent[0].push(CustomerId(7));
        let choice = instances.route_tapas(&router, &request(7), &profiles, &ctx);
        assert_eq!(choice, Some(VmId(1)), "KV affinity should dominate");
        // A different customer goes by concentration/spread instead.
        let other = instances.route_tapas(&router, &request(9), &profiles, &ctx);
        assert_eq!(other, Some(VmId(1)), "concentration prefers the busier-but-safe instance");
    }

    #[test]
    fn tapas_concentrates_below_knee_and_spreads_above() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        // Both below the knee: prefer the busier one (concentration).
        let low = (1, 0, 2, 0.2);
        let mid = (2, 1, 2, 0.6);
        assert_eq!(
            pool(&[low, mid]).route_tapas(&router, &request(0), &profiles, &ctx),
            Some(VmId(2))
        );
        // One far above the knee: prefer the one with headroom.
        let hot = (3, 2, 2, 0.95);
        assert_eq!(
            pool(&[low, hot]).route_tapas(&router, &request(0), &profiles, &ctx),
            Some(VmId(1))
        );
    }

    #[test]
    fn tapas_airflow_risk_filters_aisle() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let mut ctx = calm_context(&profiles);
        let aisle = profiles.server(ServerId::new(0)).aisle;
        let provisioned = profiles.budgets.aisle_airflow[aisle];
        ctx.aisle_airflow[aisle.index()] = provisioned * 0.999;
        // Both instances are in the same (only) aisle, so the filter rejects both and the
        // fallback still routes the request.
        let instances = pool(&[(1, 0, 3, 0.5), (2, 40, 1, 0.5)]);
        assert!(instances.route_tapas(&router, &request(0), &profiles, &ctx).is_some());
    }

    #[test]
    fn empty_context_reads_as_zero_draw() {
        // A context shorter than the layout (e.g. before the first physics step) must be
        // tolerated as zero draw, matching the old map-based lookup semantics.
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = RoutingContext {
            outside_temp: Celsius::new(20.0),
            dc_load: 0.4,
            row_power: Vec::new(),
            aisle_airflow: Vec::new(),
        };
        let instances = pool(&[(1, 0, 1, 0.5), (2, 40, 3, 0.4)]);
        assert!(instances.route_tapas(&router, &request(0), &profiles, &ctx).is_some());
        assert!(instances.route_baseline().is_some());
    }

    #[test]
    fn recent_window_is_bounded_and_evicts_oldest() {
        let mut window = RecentWindow::new();
        assert!(window.is_empty());
        for i in 0..(RECENT_WINDOW as u64 + 5) {
            window.push(CustomerId(i));
        }
        assert_eq!(window.len(), RECENT_WINDOW);
        // The first five customers were evicted; the most recent ones remain.
        assert!(!window.contains(CustomerId(0)));
        assert!(!window.contains(CustomerId(4)));
        assert!(window.contains(CustomerId(5)));
        assert!(window.contains(CustomerId(RECENT_WINDOW as u64 + 4)));
    }

    #[test]
    fn uniform_context_fills_budget_fractions() {
        let profiles = profiles();
        let ctx = RoutingContext::uniform(&profiles, Celsius::new(25.0), 0.5, 0.8, 0.6);
        assert_eq!(ctx.row_power.len(), profiles.budgets.row_power.len());
        let row0 = RowId::new(0);
        assert!(
            (ctx.row_power[0].value() - profiles.budgets.row_power[row0].value() * 0.8).abs()
                < 1e-9
        );
        let aisle0 = AisleId::new(0);
        assert!(
            (ctx.aisle_airflow[0].value()
                - profiles.budgets.aisle_airflow[aisle0].value() * 0.6)
                .abs()
                < 1e-9
        );
    }
}
