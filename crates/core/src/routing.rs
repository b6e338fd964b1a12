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
//! The simulator routes millions of request quanta per experiment. The
//! [`RequestRouterPolicy`] trait keeps the snapshot-slice API for tests and ad-hoc callers.
//! The hot path works on a [`CandidateView`] (a struct-of-arrays view of an endpoint's
//! instances maintained incrementally by the caller) with a [`PreparedRoutingContext`] that
//! pre-computes per-row/per-aisle headrooms and memoizes per-server inlet predictions in a
//! [`RouterScratch`], and returns a candidate *index* so the caller can update its registry
//! in O(1).
//!
//! [`TapasRouter::route_keyed`] is the simulator's decision: it reads per-candidate keys
//! ([`RouteKeys`]) cached once per step and refreshed for the one candidate each quantum
//! loads. The four-tier scan behind [`RequestRouterPolicy::route`],
//! [`TapasRouter::route_candidates`] and [`TapasRouter::route_prescored`] is its reference;
//! both choose the candidate maximizing `(available, safe, score, smaller vm id)`.

use crate::profiles::ProfileStore;
use dc_sim::ids::ServerId;
use llm_sim::config::InstanceConfig;
use llm_sim::request::{CustomerId, InferenceRequest};
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts};
use workload::vm::VmId;

/// Length of the per-instance recent-customer window used for KV-affinity scoring.
pub const RECENT_WINDOW: usize = 32;
// `RecentWindow` keeps its length and head in `u8`s.
const _: () = assert!(RECENT_WINDOW <= u8::MAX as usize);

/// A bounded ring of recently served customers.
///
/// Mirrors the instance runtime's bounded window: pushes evict the oldest entry once the
/// window is full, and affinity checks scan at most [`RECENT_WINDOW`] entries, so the scoring
/// cost cannot drift upward over long simulations. The ring is stored inline, so a pool's
/// windows sit contiguously in its column.
#[derive(Debug, Clone, PartialEq)]
pub struct RecentWindow {
    items: [CustomerId; RECENT_WINDOW],
    len: u8,
    head: u8,
    /// 512-bit Bloom filter over the window (one hash): a full window of 32 distinct
    /// customers sets at most 32 bits, so about 6 % of absent customers reach the scan.
    filter: [u64; FILTER_WORDS],
}

/// 64-bit words in [`RecentWindow`]'s filter.
const FILTER_WORDS: usize = 8;

impl Default for RecentWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// The filter bit of `customer`: word index and mask.
#[inline]
fn customer_bit(customer: CustomerId) -> (usize, u64) {
    let hash = customer.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55;
    ((hash >> 6) as usize, 1u64 << (hash & 63))
}

impl RecentWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self {
            items: [CustomerId(0); RECENT_WINDOW],
            len: 0,
            head: 0,
            filter: [0; FILTER_WORDS],
        }
    }

    /// Records a served customer, evicting the oldest entry when full.
    pub fn push(&mut self, customer: CustomerId) {
        if usize::from(self.len) < RECENT_WINDOW {
            self.items[usize::from(self.len)] = customer;
            self.len += 1;
            let (word, bit) = customer_bit(customer);
            self.filter[word] |= bit;
        } else {
            self.items[usize::from(self.head)] = customer;
            self.head = ((usize::from(self.head) + 1) % RECENT_WINDOW) as u8;
            // An entry was evicted: rebuild the filter over the surviving window. This runs
            // once per routed quantum (for one window), not per affinity check.
            self.filter = [0; FILTER_WORDS];
            for &item in &self.items {
                let (word, bit) = customer_bit(item);
                self.filter[word] |= bit;
            }
        }
    }

    /// Returns `true` if the customer is within the window.
    #[inline]
    #[must_use]
    pub fn contains(&self, customer: CustomerId) -> bool {
        let (word, bit) = customer_bit(customer);
        self.filter[word] & bit != 0 && self.items[..usize::from(self.len)].contains(&customer)
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

/// A snapshot of one SaaS instance the router can send requests to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// The VM running the instance.
    pub vm: VmId,
    /// The server hosting it.
    pub server: ServerId,
    /// Requests currently queued or running on the instance.
    pub outstanding_requests: usize,
    /// Current mean GPU utilization of the instance in `[0, 1]`.
    pub utilization: f64,
    /// Customers whose KV cache is likely still resident (recently served).
    pub recent_customers: Vec<CustomerId>,
    /// The instance's current configuration.
    pub config: InstanceConfig,
    /// Whether the instance is currently unavailable (e.g. reloading after a
    /// reconfiguration, §4.3).
    pub in_transition: bool,
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

/// Anything the routing core can draw candidates from.
pub trait CandidateSource {
    /// Number of candidates.
    fn len(&self) -> usize;
    /// Returns `true` if there are no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// VM id of candidate `i`.
    fn vm(&self, i: usize) -> VmId;
    /// Server of candidate `i`.
    fn server(&self, i: usize) -> ServerId;
    /// Outstanding requests of candidate `i`.
    fn outstanding(&self, i: usize) -> usize;
    /// Utilization of candidate `i`.
    fn utilization(&self, i: usize) -> f64;
    /// Whether candidate `i` is reloading.
    fn in_transition(&self, i: usize) -> bool;
    /// Whether candidate `i` recently served `customer`.
    fn has_recent(&self, i: usize, customer: CustomerId) -> bool;
}

impl CandidateSource for &[InstanceSnapshot] {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn vm(&self, i: usize) -> VmId {
        self[i].vm
    }
    fn server(&self, i: usize) -> ServerId {
        self[i].server
    }
    fn outstanding(&self, i: usize) -> usize {
        self[i].outstanding_requests
    }
    fn utilization(&self, i: usize) -> f64 {
        self[i].utilization
    }
    fn in_transition(&self, i: usize) -> bool {
        self[i].in_transition
    }
    fn has_recent(&self, i: usize, customer: CustomerId) -> bool {
        self[i].recent_customers.contains(&customer)
    }
}

impl CandidateSource for CandidateView<'_> {
    fn len(&self) -> usize {
        self.vm.len()
    }
    fn vm(&self, i: usize) -> VmId {
        self.vm[i]
    }
    fn server(&self, i: usize) -> ServerId {
        self.server[i]
    }
    fn outstanding(&self, i: usize) -> usize {
        self.outstanding[i] as usize
    }
    fn utilization(&self, i: usize) -> f64 {
        self.utilization[i]
    }
    fn in_transition(&self, i: usize) -> bool {
        self.in_transition[i]
    }
    fn has_recent(&self, i: usize, customer: CustomerId) -> bool {
        self.recent[i].contains(customer)
    }
}

/// A request routing policy.
pub trait RequestRouterPolicy {
    /// Picks the instance to serve `request`, or `None` if `instances` is empty.
    fn route(
        &self,
        request: &InferenceRequest,
        instances: &[InstanceSnapshot],
        profiles: &ProfileStore,
        context: &RoutingContext,
    ) -> Option<VmId>;

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// The conventional baseline: least outstanding requests, ignoring thermal/power state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BaselineRouter;

impl BaselineRouter {
    /// Routes over any candidate source, returning the chosen candidate index.
    ///
    /// Single pass, allocation-free: tracks the best available and the best overall
    /// candidate by `(outstanding, vm)` and falls back to the overall best only when every
    /// instance is in transition.
    #[must_use]
    pub fn route_candidates<S: CandidateSource>(&self, candidates: &S) -> Option<usize> {
        let mut best_available: Option<(usize, u64, usize)> = None;
        let mut best_any: Option<(usize, u64, usize)> = None;
        for i in 0..candidates.len() {
            let key = (candidates.outstanding(i), candidates.vm(i).0);
            let better = |best: &Option<(usize, u64, usize)>| match best {
                Some((outstanding, vm, _)) => key < (*outstanding, *vm),
                None => true,
            };
            if better(&best_any) {
                best_any = Some((key.0, key.1, i));
            }
            if !candidates.in_transition(i) && better(&best_available) {
                best_available = Some((key.0, key.1, i));
            }
        }
        best_available.or(best_any).map(|(_, _, i)| i)
    }
}

impl BaselineRouter {
    /// Specialized scan over the struct-of-arrays view: one pass tracking the minimum of a
    /// packed `(outstanding, vm)` key, with transitioning instances forced to the maximum
    /// key so they never win. Falls back to the generic tiered scan only when every
    /// instance is transitioning.
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
            // Every instance is in transition: the generic scan handles the degenerate tier.
            return self.route_candidates(view);
        }
        Some(best)
    }
}

impl RequestRouterPolicy for BaselineRouter {
    fn route(
        &self,
        _request: &InferenceRequest,
        instances: &[InstanceSnapshot],
        _profiles: &ProfileStore,
        _context: &RoutingContext,
    ) -> Option<VmId> {
        self.route_candidates(&instances).map(|i| instances[i].vm)
    }

    fn name(&self) -> &'static str {
        "baseline-router"
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
    /// Score with a KV-affinity hit (equal to `plain` past the knee).
    affinity: f64,
    /// `2 × available + safe`: the fallback tier, higher is better.
    tier: u8,
}

/// Reusable per-candidate decision keys for [`TapasRouter::route_keyed`].
///
/// Filled once per endpoint per step with [`TapasRouter::fill_route_keys`]; after each routed
/// quantum the caller refreshes the routed candidate with [`TapasRouter::refresh_route_key`].
#[derive(Debug, Default, Clone)]
pub struct RouteKeys {
    keys: Vec<RouteKey>,
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

    /// The reference decision core: one pass over the candidates, tracking the best
    /// candidate of each fallback tier (available+safe, available, safe, any). Ties break
    /// toward the smaller VM id, so the result is independent of candidate order.
    ///
    /// This is the routing contract [`Self::route_keyed`] must reproduce: the chosen
    /// candidate maximizes `(available, safe, score, smaller vm id)` lexicographically, and
    /// among fully equal keys the first in candidate order wins.
    fn route_core<S: CandidateSource>(
        &self,
        request: &InferenceRequest,
        candidates: &S,
        mut risky: impl FnMut(usize, ServerId, f64) -> bool,
    ) -> Option<usize> {
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

        for i in 0..candidates.len() {
            let vm = candidates.vm(i).0;
            let utilization = candidates.utilization(i);
            let score = self.score(candidates.outstanding(i), utilization, || {
                candidates.has_recent(i, request.customer)
            });
            let is_safe = !risky(i, candidates.server(i), utilization);
            consider(&mut all_any, score, vm, i);
            if is_safe {
                consider(&mut all_safe, score, vm, i);
            }
            if !candidates.in_transition(i) {
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

    /// Hot-path routing over a struct-of-arrays candidate view with pre-computed headrooms
    /// and a per-step inlet memo. Returns the index of the chosen candidate.
    #[must_use]
    pub fn route_candidates<S: CandidateSource>(
        &self,
        request: &InferenceRequest,
        candidates: &S,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        scratch: &mut RouterScratch,
    ) -> Option<usize> {
        let inlet_memo = &mut scratch.inlet_c;
        self.route_core(request, candidates, |_, server, utilization| {
            Self::risk_with_memo(
                &self.config,
                server,
                utilization,
                profiles,
                prepared,
                inlet_memo,
            )
        })
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
    pub fn fill_risk_flags<S: CandidateSource>(
        &self,
        candidates: &S,
        profiles: &ProfileStore,
        prepared: &PreparedRoutingContext,
        scratch: &mut RouterScratch,
        flags: &mut Vec<bool>,
    ) {
        flags.clear();
        flags.reserve(candidates.len());
        for i in 0..candidates.len() {
            flags.push(Self::risk_with_memo(
                &self.config,
                candidates.server(i),
                candidates.utilization(i),
                profiles,
                prepared,
                &mut scratch.inlet_c,
            ));
        }
    }

    /// Routing with pre-computed risk flags: the reference for [`Self::route_keyed`].
    ///
    /// The caller computes the flags once per endpoint per step with
    /// [`Self::fill_risk_flags`], then refreshes only the mutated candidate's flag (via
    /// [`Self::candidate_risk`]) after each routed quantum — so each decision costs one
    /// scoring pass and zero risk-model evaluations. Equivalent to
    /// [`Self::route_candidates`] when the flags are current.
    ///
    /// # Panics
    /// Panics if `flags` is shorter than the candidate list.
    #[must_use]
    pub fn route_prescored<S: CandidateSource>(
        &self,
        request: &InferenceRequest,
        candidates: &S,
        flags: &[bool],
    ) -> Option<usize> {
        assert!(flags.len() >= candidates.len(), "risk flags must cover every candidate");
        self.route_core(request, candidates, |i, _, _| flags[i])
    }

    /// The decision key of candidate `i` with risk flag `risky`.
    fn route_key<S: CandidateSource>(&self, candidates: &S, i: usize, risky: bool) -> RouteKey {
        let outstanding = candidates.outstanding(i);
        let utilization = candidates.utilization(i);
        RouteKey {
            plain: self.score(outstanding, utilization, || false),
            affinity: self.score(outstanding, utilization, || true),
            tier: 2 * u8::from(!candidates.in_transition(i)) + u8::from(!risky),
        }
    }

    /// Fills `keys` for every candidate from its current columns and risk flag.
    ///
    /// # Panics
    /// Panics if `risky` is shorter than the candidate list.
    pub fn fill_route_keys<S: CandidateSource>(
        &self,
        candidates: &S,
        risky: &[bool],
        keys: &mut RouteKeys,
    ) {
        keys.keys.clear();
        keys.keys.extend((0..candidates.len()).map(|i| self.route_key(candidates, i, risky[i])));
    }

    /// Recomputes candidate `index`'s key after the caller mutated its columns; `risky` is
    /// its refreshed flag (from [`Self::candidate_risk`]).
    pub fn refresh_route_key<S: CandidateSource>(
        &self,
        candidates: &S,
        index: usize,
        risky: bool,
        keys: &mut RouteKeys,
    ) {
        keys.keys[index] = self.route_key(candidates, index, risky);
    }

    /// Hot-path routing over per-step cached keys: the simulator's entry point.
    ///
    /// Returns what [`Self::route_prescored`] returns for the same candidates and flags
    /// whenever `keys` is current: the candidate maximizing `(available, safe, score,
    /// smaller vm id)`, the first in candidate order among equal keys. One pass keeps the
    /// running best; the only customer-dependent work is the window lookup, done only for
    /// candidates at or below the knee, in the leading tier, whose affinity score could
    /// still win.
    ///
    /// # Panics
    /// Panics if `keys` is shorter than the candidate list.
    #[must_use]
    pub fn route_keyed(
        &self,
        request: &InferenceRequest,
        view: &CandidateView<'_>,
        keys: &RouteKeys,
    ) -> Option<usize> {
        let keys = &keys.keys[..view.vm.len()];
        let mut best: Option<(u8, f64, u64, usize)> = None;
        for (i, key) in keys.iter().enumerate() {
            if let Some((tier, score, _, _)) = best {
                // `plain ≤ affinity`, so neither score can reach a better best.
                if key.tier < tier || (key.tier == tier && key.affinity < score) {
                    continue;
                }
            }
            // Past the knee both scores are equal and the window cannot matter.
            let score = if key.affinity != key.plain && view.recent[i].contains(request.customer)
            {
                key.affinity
            } else {
                key.plain
            };
            let vm = view.vm[i].0;
            let replace = match best {
                Some((tier, best_score, best_vm, _)) => {
                    key.tier > tier
                        || score > best_score
                        || (score == best_score && vm < best_vm)
                }
                None => true,
            };
            if replace {
                best = Some((key.tier, score, vm, i));
            }
        }
        best.map(|(_, _, _, i)| i)
    }
}

impl RequestRouterPolicy for TapasRouter {
    fn route(
        &self,
        request: &InferenceRequest,
        instances: &[InstanceSnapshot],
        profiles: &ProfileStore,
        context: &RoutingContext,
    ) -> Option<VmId> {
        let prepared = PreparedRoutingContext::new(context, &self.config, profiles);
        let mut scratch = RouterScratch::default();
        scratch.begin_step(profiles.server_count());
        self.route_candidates(request, &instances, profiles, &prepared, &mut scratch)
            .map(|i| instances[i].vm)
    }

    fn name(&self) -> &'static str {
        "tapas-router"
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
    use simkit::time::SimTime;

    fn profiles() -> ProfileStore {
        let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
        ProfileStore::offline_profiling(&dc, &GpuHardware::a100())
    }

    fn snapshot(vm: u64, server: usize, outstanding: usize, util: f64) -> InstanceSnapshot {
        InstanceSnapshot {
            vm: VmId(vm),
            server: ServerId::new(server),
            outstanding_requests: outstanding,
            utilization: util,
            recent_customers: Vec::new(),
            config: InstanceConfig::default_70b(),
            in_transition: false,
        }
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
        let profiles = profiles();
        let ctx = calm_context(&profiles);
        let instances = vec![snapshot(1, 0, 10, 0.9), snapshot(2, 1, 2, 0.3), snapshot(3, 2, 5, 0.5)];
        let choice = BaselineRouter.route(&request(0), &instances, &profiles, &ctx);
        assert_eq!(choice, Some(VmId(2)));
        assert_eq!(BaselineRouter.name(), "baseline-router");
        assert!(BaselineRouter.route(&request(0), &[], &profiles, &ctx).is_none());
    }

    #[test]
    fn baseline_skips_instances_in_transition_when_possible() {
        let profiles = profiles();
        let ctx = calm_context(&profiles);
        let mut busy = snapshot(1, 0, 1, 0.2);
        busy.in_transition = true;
        let instances = vec![busy.clone(), snapshot(2, 1, 5, 0.5)];
        assert_eq!(BaselineRouter.route(&request(0), &instances, &profiles, &ctx), Some(VmId(2)));
        // If every instance is in transition the request still goes somewhere.
        let all_busy = vec![busy];
        assert_eq!(BaselineRouter.route(&request(0), &all_busy, &profiles, &ctx), Some(VmId(1)));
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
        let instances = vec![snapshot(1, 0, 1, 0.5), snapshot(2, 40, 5, 0.5)];
        let choice = router.route(&request(0), &instances, &profiles, &ctx);
        assert_eq!(choice, Some(VmId(2)), "the request must avoid the at-risk row");
        assert_eq!(router.name(), "tapas-router");
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
        let hot = snapshot(1, 0, 0, 0.98);
        let cool = snapshot(2, 40, 8, 0.2);
        let choice = router.route(&request(0), &[hot.clone(), cool], &profiles, &ctx);
        assert_eq!(choice, Some(VmId(2)));
        // If every instance is risky, the router still returns something.
        let choice = router.route(&request(0), &[hot], &profiles, &ctx);
        assert_eq!(choice, Some(VmId(1)));
    }

    #[test]
    fn tapas_prefers_kv_affinity() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        let mut with_cache = snapshot(1, 0, 6, 0.5);
        with_cache.recent_customers.push(CustomerId(7));
        let without_cache = snapshot(2, 1, 0, 0.1);
        let choice =
            router.route(&request(7), &[with_cache.clone(), without_cache.clone()], &profiles, &ctx);
        assert_eq!(choice, Some(VmId(1)), "KV affinity should dominate");
        // A different customer goes by concentration/spread instead.
        let other = router.route(&request(9), &[with_cache, without_cache], &profiles, &ctx);
        assert_eq!(other, Some(VmId(1)), "concentration prefers the busier-but-safe instance");
    }

    #[test]
    fn tapas_concentrates_below_knee_and_spreads_above() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        // Both below the knee: prefer the busier one (concentration).
        let low = snapshot(1, 0, 2, 0.2);
        let mid = snapshot(2, 1, 2, 0.6);
        assert_eq!(
            router.route(&request(0), &[low.clone(), mid], &profiles, &ctx),
            Some(VmId(2))
        );
        // One far above the knee: prefer the one with headroom.
        let hot = snapshot(3, 2, 2, 0.95);
        assert_eq!(router.route(&request(0), &[low, hot], &profiles, &ctx), Some(VmId(1)));
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
        let instances = vec![snapshot(1, 0, 3, 0.5), snapshot(2, 40, 1, 0.5)];
        let choice = router.route(&request(0), &instances, &profiles, &ctx);
        assert!(choice.is_some());
    }

    #[test]
    fn candidate_view_and_snapshot_paths_agree() {
        let profiles = profiles();
        let router = TapasRouter::default();
        let ctx = calm_context(&profiles);
        let snapshots: Vec<InstanceSnapshot> = (0..20)
            .map(|i| {
                let mut s = snapshot(i, (i as usize * 7) % 80, (i % 5) as usize, (i % 10) as f64 / 10.0);
                if i % 6 == 0 {
                    s.recent_customers.push(CustomerId(3));
                }
                if i % 7 == 0 {
                    s.in_transition = true;
                }
                s
            })
            .collect();
        // Build the SoA columns mirroring the snapshots.
        let vm: Vec<VmId> = snapshots.iter().map(|s| s.vm).collect();
        let server: Vec<ServerId> = snapshots.iter().map(|s| s.server).collect();
        let outstanding: Vec<u32> = snapshots.iter().map(|s| s.outstanding_requests as u32).collect();
        let utilization: Vec<f64> = snapshots.iter().map(|s| s.utilization).collect();
        let in_transition: Vec<bool> = snapshots.iter().map(|s| s.in_transition).collect();
        let recent: Vec<RecentWindow> = snapshots
            .iter()
            .map(|s| {
                let mut w = RecentWindow::new();
                for &c in &s.recent_customers {
                    w.push(c);
                }
                w
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
        let prepared = PreparedRoutingContext::new(&ctx, &router.config, &profiles);
        let mut scratch = RouterScratch::default();
        for customer in 0..8u64 {
            scratch.begin_step(profiles.server_count());
            let via_view = router
                .route_candidates(&request(customer), &view, &profiles, &prepared, &mut scratch)
                .map(|i| vm[i]);
            let via_snapshots = router.route(&request(customer), &snapshots, &profiles, &ctx);
            assert_eq!(via_view, via_snapshots, "customer {customer}");
            let base_view = BaselineRouter.route_candidates(&view).map(|i| vm[i]);
            let base_snap = BaselineRouter.route(&request(customer), &snapshots, &profiles, &ctx);
            assert_eq!(base_view, base_snap);
        }
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
        let instances = vec![snapshot(1, 0, 1, 0.5), snapshot(2, 40, 3, 0.4)];
        assert!(router.route(&request(0), &instances, &profiles, &ctx).is_some());
        assert!(BaselineRouter.route(&request(0), &instances, &profiles, &ctx).is_some());
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
