//! Geo-aware placement: steering VM arrivals across datacenters.
//!
//! TAPAS's thermal/power headroom exploitation compounds across sites: different
//! datacenters see different outside temperatures, power budgets and load, so a fleet
//! layer can route each VM arrival to the site with the most thermal and power slack and
//! shift load away from sites in a power or thermal emergency. This module is the
//! decision core: it consumes one [`SiteSignals`] per datacenter — a fixed-size summary a
//! fleet step loop refreshes from the dense per-step telemetry grids — and returns a site
//! ordinal per arrival. It holds no per-site maps and allocates nothing once its per-site
//! scratch is sized (the first [`GeoPlacement::begin_step`] and request pick).

use serde::{Deserialize, Serialize};

/// One datacenter's per-step scheduling signals, aggregated from its dense telemetry.
///
/// All fields are plain scalars so a fleet can keep one flat `Vec<SiteSignals>` refreshed
/// in place each step (site ordinal = vector index, mirroring the ordinal-grid contract).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteSignals {
    /// Aggregate unused row power budget (kW), from `PowerAssessment::total_row_headroom`.
    pub power_headroom_kw: f64,
    /// Worst utilization across the site's power hierarchy (`> 1.0` means capping).
    pub worst_power_utilization: f64,
    /// Margin to the GPU throttle limit (°C): `throttle_temp − max_gpu_temp`. Negative
    /// while GPUs are throttling.
    pub thermal_slack_c: f64,
    /// Normalized datacenter load in `[0, 1]`.
    pub dc_load: f64,
    /// Servers currently free to take a VM.
    pub free_servers: u32,
    /// GPUs thermally throttled in the last step.
    pub throttled_gpus: u32,
    /// Servers power-capped in the last step.
    pub capped_servers: u32,
    /// Grid energy price the site currently pays ($/MWh). Exogenous: a fleet layer
    /// refreshes it from its scenario's price timeline, not from telemetry. Sites with
    /// equal prices score identically on the price term, so fleets without price
    /// diversity behave exactly as if the term did not exist.
    pub grid_price_per_mwh: f64,
    /// Worst request-fabric KV/backlog pressure across the site's serving endpoints
    /// after the last step (`0.0` with the fabric off). Values above `1.0` mean at
    /// least one endpoint's schedulers are saturated — queues growing or decode slots
    /// evicting — typically because replica failures shrank effective serving capacity.
    /// Only [`GeoPlacement::choose_request`] reads it, and only past the saturation
    /// point, so VM routing and unsaturated fleets are bit-identical to builds without
    /// the field.
    pub request_pressure: f64,
}

impl SiteSignals {
    /// Signals of a site that has reported no telemetry yet: fully free, no emergencies.
    #[must_use]
    pub fn cold_start(free_servers: u32, power_headroom_kw: f64) -> Self {
        Self {
            power_headroom_kw,
            worst_power_utilization: 0.0,
            thermal_slack_c: 40.0,
            dc_load: 0.0,
            free_servers,
            throttled_gpus: 0,
            capped_servers: 0,
            grid_price_per_mwh: 0.0,
            request_pressure: 0.0,
        }
    }

    /// Returns `true` while the site is in a power or thermal emergency: it throttled or
    /// capped during the last step, or some hierarchy level is at its budget.
    #[must_use]
    pub fn in_emergency(&self) -> bool {
        self.throttled_gpus > 0
            || self.capped_servers > 0
            || self.worst_power_utilization >= 1.0
            || self.thermal_slack_c <= 0.0
    }
}

/// Weight of the geo score's normalized power-headroom term.
const POWER_WEIGHT: f64 = 1.0;
/// Weight of the geo score's normalized thermal-slack term.
const THERMAL_WEIGHT: f64 = 1.0;
/// Weight of the geo score's current-load penalty.
const LOAD_WEIGHT: f64 = 0.5;
/// Thermal slack (°C) that counts as "fully comfortable" (slack is normalized by it).
const THERMAL_SLACK_SCALE_C: f64 = 30.0;
/// Weight of the grid-price penalty. The penalty is the price normalized across the
/// fleet's current min–max price spread, so it only engages when sites actually pay
/// different prices — a fleet with uniform prices scores bit-identically to one with no
/// price signal at all.
const PRICE_WEIGHT: f64 = 0.75;
/// Score penalty applied to sites in emergency (large enough to dominate the other terms,
/// so an emergency site is only chosen when every site is in emergency).
const EMERGENCY_PENALTY: f64 = 100.0;

/// Requests one free server is assumed to absorb per step before the request-routing
/// burst penalty reaches one full server's worth of charge. Mirrors the per-endpoint
/// quanta cap the cluster layer uses when splitting a step's demand.
const REQUESTS_PER_SERVER_SLOT: f64 = 64.0;

/// Down-weighting per unit of request-fabric pressure beyond saturation (`1.0`), applied
/// only in [`GeoPlacement::choose_request`]'s failover spread: a saturated site's share
/// weight is divided by `1 + penalty × over_pressure`. The fabric clamps its reported
/// pressure at `1.5`, so a distressed site bottoms out at half its
/// capacity-proportional share — enough slack for its backlog to drain, while never
/// starving it (a trickle keeps its recovery observable). Deliberately mild: the
/// capacity weights already subtract failed replicas, so a stronger penalty would
/// double-count the failure, idle the distressed site's surviving replicas and push
/// their load onto healthy sites that are already at capacity.
const REQUEST_SATURATION_PENALTY: f64 = 2.0;

/// The headroom-seeking geo router.
///
/// Per step, call [`GeoPlacement::begin_step`] once, then [`GeoPlacement::choose`] once per
/// arrival. Within a step the router spreads a burst by charging each site for the
/// arrivals already assigned to it (one predicted server each), so a single step's burst
/// cannot pile onto one site just because its last-telemetry score was best.
///
/// The request fabric reuses the same scoring through [`GeoPlacement::choose_request`],
/// which keeps its own per-step counter so inference-request routing and VM routing do
/// not perturb each other's burst accounting.
#[derive(Debug, Clone)]
pub struct GeoPlacement {
    /// Arrivals assigned to each site during the current step.
    assigned: Vec<u32>,
    /// Inference requests routed to each `(site, endpoint)` pair during the current
    /// step, site-major (`site × request_endpoints + endpoint`). Preference routing
    /// charges a site the row sum; the failover spread deals each endpoint's stream
    /// independently off its own column.
    request_assigned: Vec<u32>,
    /// Effective serving instances per `(site, endpoint)` pair, same layout — placed
    /// fabric replicas minus currently failed ones, refreshed by the fleet each step
    /// via [`GeoPlacement::set_request_capacity`]. All-zero columns (no placement
    /// telemetry yet, or the fabric is off) fall back to uniform capacity weights.
    request_capacity: Vec<u32>,
    /// Serving endpoints per site (sizes the two request matrices; at least 1).
    request_endpoints: usize,
    /// Latched once any site ever crossed request saturation: request routing stays in
    /// failover spread for the rest of the run (see [`GeoPlacement::choose_request`]).
    request_failover: bool,
    /// `true` while `request_sites`/`request_cells` hold the step's prepared request
    /// routing; [`GeoPlacement::begin_step`] and [`GeoPlacement::set_request_capacity`]
    /// clear it, and the next [`GeoPlacement::choose_request`] rebuilds them.
    request_prepared: bool,
    /// Preference mode, per site: the step's score constants, request total and cached
    /// score.
    request_sites: Vec<RequestSite>,
    /// Failover mode, per `(site, endpoint)` cell (same layout as `request_assigned`):
    /// the step's share weight and the cached deficit.
    request_cells: Vec<RequestCell>,
    /// The signals the step's first [`GeoPlacement::choose_request`] read; the step's
    /// later calls must pass equal signals (checked in debug builds).
    step_signals: Vec<SiteSignals>,
}

/// One site's prepared preference-mode request score: its
/// [`GeoPlacement::score_terms`] and request burst.
#[derive(Debug, Clone, Copy)]
struct RequestSite {
    base: f64,
    emergency: f64,
    price: f64,
    /// The burst charge's divisor: `free_servers.max(1) × REQUESTS_PER_SERVER_SLOT`.
    burst_divisor: f64,
    /// Requests routed to the site so far this step, across all endpoints.
    total: u32,
    /// The score at `total`.
    score: f64,
}

impl RequestSite {
    fn score(&self) -> f64 {
        let burst = f64::from(self.total) / self.burst_divisor;
        self.base - burst - self.emergency - self.price
    }
}

/// One `(site, endpoint)` cell's prepared failover-spread state.
#[derive(Debug, Clone, Copy)]
struct RequestCell {
    /// The step's share weight: capacity (or `1.0` when the endpoint has no reported
    /// instances anywhere) over `1 + REQUEST_SATURATION_PENALTY × over_pressure`.
    weight: f64,
    /// `(assigned + 1) / weight` at the cell's current count.
    deficit: f64,
}

impl Default for GeoPlacement {
    fn default() -> Self {
        Self {
            assigned: Vec::new(),
            request_assigned: Vec::new(),
            request_capacity: Vec::new(),
            request_endpoints: 1,
            request_failover: false,
            request_prepared: false,
            request_sites: Vec::new(),
            request_cells: Vec::new(),
            step_signals: Vec::new(),
        }
    }
}

impl GeoPlacement {
    /// Declares how many serving endpoints each site runs (sizes the per-endpoint
    /// request matrices; call once before the first [`GeoPlacement::begin_step`]).
    /// Routers that never call this treat the request stream as one endpoint.
    pub fn set_request_endpoints(&mut self, endpoints: usize) {
        self.request_endpoints = endpoints.max(1);
    }

    /// Resets the per-step assignment scratch (sizes it on first use, then reuses it).
    pub fn begin_step(&mut self, site_count: usize) {
        self.assigned.resize(site_count, 0);
        self.assigned.fill(0);
        let cells = site_count * self.request_endpoints;
        self.request_assigned.resize(cells, 0);
        self.request_assigned.fill(0);
        self.request_capacity.resize(cells, 0);
        self.request_capacity.fill(0);
        self.request_prepared = false;
        self.step_signals.clear();
    }

    /// Publishes one site's effective per-endpoint serving capacity (placed fabric
    /// replicas minus currently failed ones) for this step's failover spread. Rows
    /// shorter than the declared endpoint count leave the remaining columns at zero;
    /// extra entries are ignored.
    pub fn set_request_capacity(&mut self, site: usize, effective_replicas: &[u32]) {
        let base = site * self.request_endpoints;
        for (endpoint, &count) in effective_replicas
            .iter()
            .take(self.request_endpoints)
            .enumerate()
        {
            self.request_capacity[base + endpoint] = count;
        }
        self.request_prepared = false;
    }

    /// Picks the site for the next arrival. Deterministic: ties break toward the lowest
    /// site ordinal. Sites with no free server (after this step's earlier assignments) are
    /// skipped unless every site is full, in which case the best-scoring site still wins
    /// (the arrival will queue or be rejected there).
    ///
    /// # Panics
    /// Panics if `signals` is empty or its length differs from the `begin_step` size.
    #[must_use]
    pub fn choose(&mut self, signals: &[SiteSignals]) -> usize {
        assert!(!signals.is_empty(), "geo placement needs at least one site");
        assert_eq!(
            signals.len(),
            self.assigned.len(),
            "begin_step must size the scratch"
        );
        let scale = ScoreScale::of(signals);
        let any_capacity = signals
            .iter()
            .zip(&self.assigned)
            .any(|(s, &a)| s.free_servers > a);
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (site, signal) in signals.iter().enumerate() {
            let assigned = self.assigned[site];
            let remaining = signal.free_servers.saturating_sub(assigned);
            if any_capacity && remaining == 0 {
                continue;
            }
            // Charge the site for arrivals already routed to it this step, relative to
            // its remaining capacity, so bursts spread across comparable sites.
            let burst = f64::from(assigned) / f64::from(signal.free_servers.max(1));
            let (base, emergency, price) = self.score_terms(signal, &scale);
            let score = base - burst - emergency - price;
            if score > best_score {
                best_score = score;
                best = site;
            }
        }
        self.assigned[best] += 1;
        best
    }

    /// Picks the site for the next inference request. Deterministic: ties break toward
    /// the lowest site ordinal, and no RNG is consumed. Unlike [`GeoPlacement::choose`]
    /// a site with zero free servers is never skipped — requests are served by the
    /// instances a site already runs, not by spare servers — and the burst charge is
    /// per-request scale (one free server absorbs `REQUESTS_PER_SERVER_SLOT` requests
    /// per step before the penalty reaches one server's worth), so routing a step's
    /// request stream does not instantly saturate the counter that VM `choose` uses.
    ///
    /// While no site has ever reported saturation, routing is pure preference scoring
    /// (headroom, thermal, load, price) and bit-identical to builds without the
    /// pressure signal. The moment *any* site crosses saturation
    /// (`request_pressure > 1.0` — its schedulers are shedding or evicting, typically
    /// under replica failures), the router latches into **failover spread** for the
    /// rest of the run: a weighted deficit round-robin that deals each endpoint's
    /// stream proportionally to where that endpoint's effective serving instances
    /// live (see [`GeoPlacement::set_request_capacity`]), with a saturated site's
    /// weight shrinking by `REQUEST_SATURATION_PENALTY` per unit of over-pressure.
    /// Preference routing concentrates — exactly the wrong move once serving capacity
    /// is the binding constraint — and because the pressure telemetry is one step
    /// stale, un-latching on recovery would oscillate: a single concentrated step
    /// re-saturates the favoured site and sheds its excess before the signal can
    /// react. So after first distress the router protects capacity permanently,
    /// keeping a trickle flowing to distressed sites (never zero, so their recovery
    /// is observable). With uniform capacity and every site saturated the weights
    /// collapse to uniform and the spread degrades gracefully to an even split.
    ///
    /// The per-step work happens once: the step's first call (and the first after a
    /// [`GeoPlacement::set_request_capacity`]) prepares each site's score constants or
    /// each cell's failover weight from the current counters, and a pick then scans
    /// `signals.len()` cached scores or deficits and refreshes only the chosen one. So
    /// `signals` must not change between two [`GeoPlacement::begin_step`] calls (debug
    /// builds assert it).
    ///
    /// # Panics
    /// Panics if `signals` is empty, its length differs from the `begin_step` size, or
    /// `endpoint` is at or beyond the declared endpoint count.
    #[must_use]
    pub fn choose_request(&mut self, signals: &[SiteSignals], endpoint: usize) -> usize {
        assert!(
            endpoint < self.request_endpoints,
            "endpoint {endpoint} beyond the declared {} endpoints",
            self.request_endpoints
        );
        if !self.request_prepared {
            self.prepare_requests(signals);
        }
        debug_assert!(
            self.step_signals == signals,
            "signals changed within a step"
        );
        if self.request_failover {
            return self.choose_request_failover(endpoint);
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (site, prepared) in self.request_sites.iter().enumerate() {
            if prepared.score > best_score {
                best_score = prepared.score;
                best = site;
            }
        }
        self.request_assigned[best * self.request_endpoints + endpoint] += 1;
        let chosen = &mut self.request_sites[best];
        chosen.total += 1;
        chosen.score = chosen.score();
        best
    }

    /// Builds the step's request-routing state from `signals` and the current counters:
    /// latches failover on the first saturated site, then prepares either the failover
    /// cells or the preference sites.
    fn prepare_requests(&mut self, signals: &[SiteSignals]) {
        assert!(!signals.is_empty(), "geo placement needs at least one site");
        assert_eq!(
            signals.len() * self.request_endpoints,
            self.request_assigned.len(),
            "begin_step must size the scratch"
        );
        if self.step_signals.is_empty() {
            self.step_signals.extend_from_slice(signals);
        }
        self.request_prepared = true;
        if self.request_failover || signals.iter().any(|s| s.request_pressure > 1.0) {
            self.request_failover = true;
            self.prepare_failover(signals);
            return;
        }
        let scale = ScoreScale::of(signals);
        let endpoints = self.request_endpoints;
        self.request_sites.clear();
        for (signal, assigned) in signals
            .iter()
            .zip(self.request_assigned.chunks_exact(endpoints))
        {
            let (base, emergency, price) = self.score_terms(signal, &scale);
            let mut site = RequestSite {
                base,
                emergency,
                price,
                burst_divisor: f64::from(signal.free_servers.max(1)) * REQUESTS_PER_SERVER_SLOT,
                total: assigned.iter().sum(),
                score: 0.0,
            };
            site.score = site.score();
            self.request_sites.push(site);
        }
    }

    /// Prepares the failover spread's per-cell weights and deficits (see
    /// [`GeoPlacement::choose_request_failover`]).
    fn prepare_failover(&mut self, signals: &[SiteSignals]) {
        let endpoints = self.request_endpoints;
        let unset = RequestCell {
            weight: 0.0,
            deficit: 0.0,
        };
        self.request_cells.resize(signals.len() * endpoints, unset);
        for endpoint in 0..endpoints {
            let instances_known = (0..signals.len())
                .any(|site| self.request_capacity[site * endpoints + endpoint] > 0);
            for (site, signal) in signals.iter().enumerate() {
                let cell = site * endpoints + endpoint;
                let capacity = if instances_known {
                    f64::from(self.request_capacity[cell])
                } else {
                    1.0
                };
                let over = (signal.request_pressure - 1.0).max(0.0);
                let weight = capacity / (1.0 + REQUEST_SATURATION_PENALTY * over);
                let deficit = (f64::from(self.request_assigned[cell]) + 1.0) / weight;
                self.request_cells[cell] = RequestCell { weight, deficit };
            }
        }
    }

    /// Failover spread: weighted deficit round-robin over the step's per-endpoint
    /// request counters. Each pick goes to the site with the smallest weighted deficit
    /// `(assigned[site, endpoint] + 1) / weight`, where the weight is the site's
    /// effective serving-instance count *for this endpoint* divided by
    /// `1 + REQUEST_SATURATION_PENALTY × over_pressure`. Endpoint schedulers cannot
    /// steal work from each other, so dealing must match each endpoint's stream to
    /// where that endpoint's replicas actually run (VM placement and replica failures
    /// skew them independently per site); at the fabric's pressure clamp (`1.5`) a
    /// distressed site draws half of its capacity-proportional share. Endpoints
    /// with no reported instances anywhere fall back to uniform capacity weights. The
    /// split is volume-independent (shares, not scores, so it holds at any step's
    /// request rate) and deterministic: ties break toward the lowest site ordinal.
    fn choose_request_failover(&mut self, endpoint: usize) -> usize {
        let endpoints = self.request_endpoints;
        let mut best = 0usize;
        let mut best_deficit = f64::INFINITY;
        for (site, cell) in self.request_cells[endpoint..]
            .iter()
            .step_by(endpoints)
            .enumerate()
        {
            if cell.deficit < best_deficit {
                best_deficit = cell.deficit;
                best = site;
            }
        }
        let index = best * endpoints + endpoint;
        self.request_assigned[index] += 1;
        let cell = &mut self.request_cells[index];
        cell.deficit = (f64::from(self.request_assigned[index]) + 1.0) / cell.weight;
        best
    }

    /// One site's score terms: the score (higher is better) is `base − burst − emergency
    /// − price` for the caller's burst charge, with `base = POWER_WEIGHT × headroom +
    /// THERMAL_WEIGHT × thermal − LOAD_WEIGHT × load`. A term that does not apply is
    /// `0.0`, which subtracts bit-identically to no term (`x − 0.0 == x` for every `x`).
    fn score_terms(&self, signal: &SiteSignals, scale: &ScoreScale) -> (f64, f64, f64) {
        let headroom = (signal.power_headroom_kw / scale.max_headroom).clamp(0.0, 1.0);
        let thermal = (signal.thermal_slack_c / THERMAL_SLACK_SCALE_C).clamp(-1.0, 1.0);
        let base =
            POWER_WEIGHT * headroom + THERMAL_WEIGHT * thermal - LOAD_WEIGHT * signal.dc_load;
        let emergency = if signal.in_emergency() {
            EMERGENCY_PENALTY
        } else {
            0.0
        };
        let price = if scale.price_span > 0.0 {
            PRICE_WEIGHT * ((signal.grid_price_per_mwh - scale.min_price) / scale.price_span)
        } else {
            0.0
        };
        (base, emergency, price)
    }
}

/// The fleet-wide normalizers of one set of signals.
struct ScoreScale {
    /// The largest power headroom, at least 1 kW.
    max_headroom: f64,
    /// The cheapest site's price.
    min_price: f64,
    /// The price spread. With uniform prices it is zero and the price term vanishes
    /// entirely, keeping price-less fleets bit-identical to the pre-price scoring.
    price_span: f64,
}

impl ScoreScale {
    fn of(signals: &[SiteSignals]) -> Self {
        let max_headroom = signals
            .iter()
            .map(|s| s.power_headroom_kw)
            .fold(0.0, f64::max)
            .max(1.0);
        let min_price = signals
            .iter()
            .map(|s| s.grid_price_per_mwh)
            .fold(f64::INFINITY, f64::min);
        let price_span = signals
            .iter()
            .map(|s| s.grid_price_per_mwh)
            .fold(f64::NEG_INFINITY, f64::max)
            - min_price;
        Self {
            max_headroom,
            min_price,
            price_span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    fn comfortable(headroom: f64, slack: f64, load: f64) -> SiteSignals {
        SiteSignals {
            power_headroom_kw: headroom,
            worst_power_utilization: 0.5,
            thermal_slack_c: slack,
            dc_load: load,
            free_servers: 100,
            throttled_gpus: 0,
            capped_servers: 0,
            grid_price_per_mwh: 0.0,
            request_pressure: 0.0,
        }
    }

    #[test]
    fn prefers_the_highest_headroom_coolest_site() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(3);
        let signals = [
            comfortable(50.0, 5.0, 0.9),
            comfortable(200.0, 15.0, 0.6),
            comfortable(400.0, 30.0, 0.3),
        ];
        assert_eq!(geo.choose(&signals), 2);
    }

    #[test]
    fn spreads_bursts_across_comparable_sites() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let signals = [comfortable(100.0, 20.0, 0.5), comfortable(100.0, 20.0, 0.5)];
        let picks: Vec<usize> = (0..6).map(|_| geo.choose(&signals)).collect();
        assert!(
            picks.contains(&0) && picks.contains(&1),
            "burst must spread: {picks:?}"
        );
    }

    #[test]
    fn shifts_load_away_from_emergencies() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let mut hot = comfortable(500.0, 25.0, 0.2);
        hot.throttled_gpus = 4;
        let cool = comfortable(10.0, 3.0, 0.95);
        // The emergency site loses even though every other term favours it.
        assert_eq!(geo.choose(&[hot, cool]), 1);
        // When every site is in emergency, the least-bad one is still chosen.
        let mut also_bad = cool;
        also_bad.capped_servers = 2;
        geo.begin_step(2);
        assert_eq!(geo.choose(&[hot, also_bad]), 0);
    }

    #[test]
    fn skips_full_sites_until_everything_is_full() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let mut full = comfortable(500.0, 30.0, 0.1);
        full.free_servers = 0;
        let open = comfortable(10.0, 5.0, 0.9);
        assert_eq!(geo.choose(&[full, open]), 1);
        let mut also_full = open;
        also_full.free_servers = 0;
        geo.begin_step(2);
        // Everything full: the better-scoring site wins and the arrival queues there.
        assert_eq!(geo.choose(&[full, also_full]), 0);
    }

    #[test]
    fn deterministic_tie_breaks_toward_the_lowest_ordinal() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(3);
        let same = comfortable(100.0, 20.0, 0.5);
        assert_eq!(geo.choose(&[same, same, same]), 0);
    }

    #[test]
    fn price_spread_steers_away_from_the_expensive_site() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let mut expensive = comfortable(100.0, 20.0, 0.5);
        expensive.grid_price_per_mwh = 300.0;
        let mut cheap = comfortable(100.0, 20.0, 0.5);
        cheap.grid_price_per_mwh = 40.0;
        assert_eq!(geo.choose(&[expensive, cheap]), 1);
        // The penalty is bounded: an expensive site with far more slack still wins.
        let mut roomy = comfortable(400.0, 30.0, 0.1);
        roomy.grid_price_per_mwh = 300.0;
        let mut cramped = comfortable(10.0, 2.0, 0.95);
        cramped.grid_price_per_mwh = 40.0;
        geo.begin_step(2);
        assert_eq!(geo.choose(&[roomy, cramped]), 0);
    }

    #[test]
    fn uniform_prices_do_not_change_the_choice() {
        // Equal prices collapse the spread to zero: scores (and therefore picks) are
        // exactly those of a fleet with no price signal at all.
        let signals = [
            comfortable(50.0, 5.0, 0.9),
            comfortable(200.0, 15.0, 0.6),
            comfortable(400.0, 30.0, 0.3),
        ];
        let mut priced = signals;
        for s in &mut priced {
            s.grid_price_per_mwh = 120.0;
        }
        let mut geo = GeoPlacement::default();
        for _ in 0..3 {
            geo.begin_step(3);
            let plain: Vec<usize> = (0..5).map(|_| geo.choose(&signals)).collect();
            geo.begin_step(3);
            let with_price: Vec<usize> = (0..5).map(|_| geo.choose(&priced)).collect();
            assert_eq!(plain, with_price);
        }
    }

    #[test]
    fn request_routing_prefers_slack_and_avoids_emergencies() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(3);
        let signals = [
            comfortable(50.0, 5.0, 0.9),
            comfortable(400.0, 30.0, 0.3),
            comfortable(200.0, 15.0, 0.6),
        ];
        assert_eq!(geo.choose_request(&signals, 0), 1);
        let mut hot = comfortable(500.0, 25.0, 0.2);
        hot.throttled_gpus = 4;
        geo.begin_step(2);
        assert_eq!(
            geo.choose_request(&[hot, comfortable(10.0, 3.0, 0.95)], 0),
            1
        );
    }

    #[test]
    fn request_routing_spreads_large_bursts_without_touching_vm_state() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let signals = [comfortable(100.0, 20.0, 0.5), comfortable(100.0, 20.0, 0.5)];
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            counts[geo.choose_request(&signals, 0)] += 1;
        }
        assert!(
            counts[0] > 0 && counts[1] > 0,
            "request burst must spread: {counts:?}"
        );
        // The VM burst counter is untouched: the next VM pick still ties to ordinal 0.
        assert_eq!(geo.choose(&signals), 0);
    }

    #[test]
    fn request_routing_never_skips_sites_without_free_servers() {
        // A site serving at capacity (no free servers) still holds running instances;
        // requests may be routed there when its score wins.
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let mut busy = comfortable(400.0, 30.0, 0.3);
        busy.free_servers = 0;
        let idle = comfortable(10.0, 3.0, 0.9);
        assert_eq!(geo.choose_request(&[busy, idle], 0), 0);
    }

    #[test]
    fn saturated_request_pressure_diverts_requests_but_not_vms() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let mut saturated = comfortable(400.0, 30.0, 0.3);
        saturated.request_pressure = 1.5;
        let healthy = comfortable(50.0, 5.0, 0.9);
        // Requests avoid the saturated schedulers even though every other term favours
        // that site; VM placement ignores request pressure entirely.
        assert_eq!(geo.choose_request(&[saturated, healthy], 0), 1);
        assert_eq!(geo.choose(&[saturated, healthy]), 0);
    }

    #[test]
    fn failover_spread_splits_by_pressure_weight() {
        // One site at the pressure clamp (half weight), two healthy: over 1000 requests
        // the healthy pair splits evenly and the distressed site draws about half a
        // healthy share — room for its backlog to drain, but never starved.
        let mut geo = GeoPlacement::default();
        geo.begin_step(3);
        let mut distressed = comfortable(400.0, 30.0, 0.3);
        distressed.request_pressure = 1.5;
        let healthy = comfortable(100.0, 20.0, 0.5);
        let signals = [distressed, healthy, healthy];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[geo.choose_request(&signals, 0)] += 1;
        }
        assert!(
            counts[1].abs_diff(counts[2]) <= 1,
            "healthy sites split evenly: {counts:?}"
        );
        assert!(counts[0] > 0, "distressed site keeps a trickle: {counts:?}");
        assert!(
            counts[0] < counts[1] && counts[0] * 3 > counts[1],
            "distressed site draws about half a healthy share: {counts:?}"
        );
    }

    #[test]
    fn failover_latches_for_the_rest_of_the_run_after_first_saturation() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let preferred = comfortable(400.0, 30.0, 0.3);
        let weaker = comfortable(50.0, 5.0, 0.9);
        // Preference scoring picks the roomy site while everything is healthy.
        assert_eq!(geo.choose_request(&[preferred, weaker], 0), 0);
        // One saturated observation latches failover spread...
        let mut saturated = preferred;
        saturated.request_pressure = 1.5;
        geo.begin_step(2);
        assert_eq!(geo.choose_request(&[saturated, weaker], 0), 1);
        // ...and recovery does not un-latch: the next step still spreads evenly
        // (deficit round-robin alternates) instead of re-concentrating on site 0.
        geo.begin_step(2);
        let picks: Vec<usize> = (0..4)
            .map(|_| geo.choose_request(&[preferred, weaker], 0))
            .collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
        // VM placement is unaffected by the request latch.
        assert_eq!(geo.choose(&[preferred, weaker]), 0);
    }

    #[test]
    fn failover_spread_deals_each_endpoint_to_its_own_capacity() {
        // Two endpoints placed in opposite proportions across two sites: each
        // endpoint's stream must follow its *own* replicas (schedulers cannot steal
        // work across endpoints), not the sites' aggregate instance counts.
        let mut geo = GeoPlacement::default();
        geo.set_request_endpoints(2);
        geo.begin_step(2);
        geo.set_request_capacity(0, &[3, 1]);
        geo.set_request_capacity(1, &[1, 3]);
        let mut saturated = comfortable(100.0, 20.0, 0.5);
        saturated.request_pressure = 1.01; // engages failover, negligible down-weight
        let signals = [saturated, comfortable(100.0, 20.0, 0.5)];
        let mut by_endpoint = [[0usize; 2]; 2];
        for _ in 0..400 {
            by_endpoint[0][geo.choose_request(&signals, 0)] += 1;
            by_endpoint[1][geo.choose_request(&signals, 1)] += 1;
        }
        assert!(
            by_endpoint[0][0] > 2 * by_endpoint[0][1],
            "endpoint 0 follows site 0's replicas: {by_endpoint:?}"
        );
        assert!(
            by_endpoint[1][1] > 2 * by_endpoint[1][0],
            "endpoint 1 follows site 1's replicas: {by_endpoint:?}"
        );
    }

    #[test]
    fn failover_spread_degrades_to_an_even_split_when_every_site_is_saturated() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(3);
        let mut drowning = comfortable(100.0, 20.0, 0.5);
        drowning.request_pressure = 1.5;
        let signals = [drowning, drowning, drowning];
        let mut counts = [0usize; 3];
        for _ in 0..999 {
            counts[geo.choose_request(&signals, 0)] += 1;
        }
        assert_eq!(counts, [333, 333, 333], "uniform weights spread evenly");
    }

    #[test]
    fn sub_saturation_request_pressure_changes_nothing() {
        let base = [comfortable(50.0, 5.0, 0.9), comfortable(400.0, 30.0, 0.3)];
        let mut loaded = base;
        loaded[0].request_pressure = 0.97;
        loaded[1].request_pressure = 1.0;
        let mut geo = GeoPlacement::default();
        geo.begin_step(2);
        let plain: Vec<usize> = (0..6).map(|_| geo.choose_request(&base, 0)).collect();
        geo.begin_step(2);
        let pressured: Vec<usize> = (0..6).map(|_| geo.choose_request(&loaded, 0)).collect();
        assert_eq!(
            plain, pressured,
            "pressure at or below 1.0 is score-neutral"
        );
    }

    #[test]
    fn request_routing_ties_break_toward_the_lowest_ordinal() {
        let mut geo = GeoPlacement::default();
        geo.begin_step(3);
        let same = comfortable(100.0, 20.0, 0.5);
        assert_eq!(geo.choose_request(&[same, same, same], 0), 0);
    }

    /// Each site's request score as `choose_request` computed it before the per-step
    /// preparation: every per-step constant and the O(sites × endpoints) burst sum
    /// recomputed per call.
    fn reference_scores(geo: &GeoPlacement, signals: &[SiteSignals]) -> Vec<f64> {
        let endpoints = geo.request_endpoints;
        let max_headroom = signals
            .iter()
            .map(|s| s.power_headroom_kw)
            .fold(0.0, f64::max)
            .max(1.0);
        let min_price = signals
            .iter()
            .map(|s| s.grid_price_per_mwh)
            .fold(f64::INFINITY, f64::min);
        let price_span = signals
            .iter()
            .map(|s| s.grid_price_per_mwh)
            .fold(f64::NEG_INFINITY, f64::max)
            - min_price;
        let mut scores = Vec::new();
        for (site, signal) in signals.iter().enumerate() {
            let base = site * endpoints;
            let total: u32 = geo.request_assigned[base..base + endpoints].iter().sum();
            let burst = f64::from(total)
                / (f64::from(signal.free_servers.max(1)) * REQUESTS_PER_SERVER_SLOT);
            let headroom = (signal.power_headroom_kw / max_headroom).clamp(0.0, 1.0);
            let thermal = (signal.thermal_slack_c / THERMAL_SLACK_SCALE_C).clamp(-1.0, 1.0);
            let mut score = POWER_WEIGHT * headroom + THERMAL_WEIGHT * thermal
                - LOAD_WEIGHT * signal.dc_load
                - burst;
            if signal.in_emergency() {
                score -= EMERGENCY_PENALTY;
            }
            if price_span > 0.0 {
                score -= PRICE_WEIGHT * ((signal.grid_price_per_mwh - min_price) / price_span);
            }
            scores.push(score);
        }
        scores
    }

    /// Each site's failover deficit for `endpoint`, per call as before the preparation.
    fn reference_deficits(
        geo: &GeoPlacement,
        signals: &[SiteSignals],
        endpoint: usize,
    ) -> Vec<f64> {
        let endpoints = geo.request_endpoints;
        let instances_known =
            (0..signals.len()).any(|site| geo.request_capacity[site * endpoints + endpoint] > 0);
        let mut deficits = Vec::new();
        for (site, signal) in signals.iter().enumerate() {
            let cell = site * endpoints + endpoint;
            let capacity = if instances_known {
                f64::from(geo.request_capacity[cell])
            } else {
                1.0
            };
            let over = (signal.request_pressure - 1.0).max(0.0);
            let weight = capacity / (1.0 + REQUEST_SATURATION_PENALTY * over);
            deficits.push((f64::from(geo.request_assigned[cell]) + 1.0) / weight);
        }
        deficits
    }

    /// `choose_request`'s per-call body before the preparation, over the two references.
    fn reference_choose_request(
        geo: &mut GeoPlacement,
        signals: &[SiteSignals],
        endpoint: usize,
    ) -> usize {
        if geo.request_failover || signals.iter().any(|s| s.request_pressure > 1.0) {
            geo.request_failover = true;
        }
        let mut best = 0usize;
        if geo.request_failover {
            let mut best_deficit = f64::INFINITY;
            let deficits = reference_deficits(geo, signals, endpoint);
            for (site, deficit) in deficits.into_iter().enumerate() {
                if deficit < best_deficit {
                    best_deficit = deficit;
                    best = site;
                }
            }
        } else {
            let mut best_score = f64::NEG_INFINITY;
            for (site, score) in reference_scores(geo, signals).into_iter().enumerate() {
                if score > best_score {
                    best_score = score;
                    best = site;
                }
            }
        }
        geo.request_assigned[best * geo.request_endpoints + endpoint] += 1;
        best
    }

    /// Asserts that every cached score (or, once latched, every cached deficit) equals
    /// the per-call reference's value bit for bit at the current counters.
    fn assert_caches_match(geo: &GeoPlacement, signals: &[SiteSignals], context: &str) {
        fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
            values.map(f64::to_bits).collect()
        }
        if geo.request_failover {
            let endpoints = geo.request_endpoints;
            for endpoint in 0..endpoints {
                let cached = geo.request_cells[endpoint..].iter().step_by(endpoints);
                assert_eq!(
                    bits(cached.map(|cell| cell.deficit)),
                    bits(reference_deficits(geo, signals, endpoint).into_iter()),
                    "{context}: deficits of endpoint {endpoint}"
                );
            }
        } else {
            assert_eq!(
                bits(geo.request_sites.iter().map(|site| site.score)),
                bits(reference_scores(geo, signals).into_iter()),
                "{context}: scores"
            );
        }
    }

    fn random_signals(rng: &mut SimRng, sites: usize, saturation: bool) -> Vec<SiteSignals> {
        let one = 1.0f64;
        // Pressures at, just under and (once saturation may engage) just over 1.0.
        let pressures = [0.0, 0.6, one, f64::from_bits(one.to_bits() - 1)];
        let saturated = [f64::from_bits(one.to_bits() + 1), 1.2, 1.5];
        let uniform_price = rng.chance(0.5);
        (0..sites)
            .map(|_| SiteSignals {
                power_headroom_kw: if rng.chance(0.1) {
                    0.0
                } else {
                    rng.uniform(0.0, 500.0)
                },
                worst_power_utilization: rng.uniform(0.3, 1.1),
                thermal_slack_c: rng.uniform(-5.0, 40.0),
                dc_load: rng.uniform(0.0, 1.0),
                free_servers: if rng.chance(0.25) {
                    0
                } else {
                    rng.uniform_usize(1, 200) as u32
                },
                throttled_gpus: u32::from(rng.chance(0.15)),
                capped_servers: u32::from(rng.chance(0.15)),
                grid_price_per_mwh: if uniform_price {
                    90.0
                } else {
                    rng.uniform(20.0, 300.0)
                },
                request_pressure: if saturation && rng.chance(0.3) {
                    saturated[rng.uniform_usize(0, saturated.len())]
                } else {
                    pressures[rng.uniform_usize(0, pressures.len())]
                },
            })
            .collect()
    }

    fn random_capacity(rng: &mut SimRng, endpoints: usize) -> Vec<u32> {
        // Rows shorter than the endpoint count leave the tail columns at zero.
        let len = rng.uniform_usize(0, endpoints + 1);
        (0..len)
            .map(|_| {
                if rng.chance(0.4) {
                    0
                } else {
                    rng.uniform_usize(1, 5) as u32
                }
            })
            .collect()
    }

    #[test]
    fn prepared_request_routing_matches_the_per_call_reference() {
        let mut rng = SimRng::seed_from(28);
        let mut latched = 0;
        for trial in 0..300 {
            let sites = rng.uniform_usize(1, 9);
            let endpoints = rng.uniform_usize(1, 7);
            let mut fast = GeoPlacement::default();
            fast.set_request_endpoints(endpoints);
            let mut reference = fast.clone();
            // Saturation may first appear mid-run, so the latch engages between steps.
            let saturation_from = rng.uniform_usize(0, 8);
            for step in 0..6 {
                let signals = random_signals(&mut rng, sites, step >= saturation_from);
                fast.begin_step(sites);
                reference.begin_step(sites);
                // All-zero capacity columns some steps, mixed ones otherwise.
                if rng.chance(0.7) {
                    for site in 0..sites {
                        let row = random_capacity(&mut rng, endpoints);
                        fast.set_request_capacity(site, &row);
                        reference.set_request_capacity(site, &row);
                    }
                }
                for pick in 0..rng.uniform_usize(0, 300) {
                    if rng.chance(0.02) {
                        let site = rng.uniform_usize(0, sites);
                        let row = random_capacity(&mut rng, endpoints);
                        fast.set_request_capacity(site, &row);
                        reference.set_request_capacity(site, &row);
                    }
                    let endpoint = rng.uniform_usize(0, endpoints);
                    let expected = reference_choose_request(&mut reference, &signals, endpoint);
                    let context = format!("trial {trial} step {step} pick {pick}");
                    assert_eq!(
                        fast.choose_request(&signals, endpoint),
                        expected,
                        "{context}"
                    );
                    assert_eq!(
                        fast.request_assigned, reference.request_assigned,
                        "{context}"
                    );
                    assert_eq!(
                        fast.request_failover, reference.request_failover,
                        "{context}"
                    );
                    assert_caches_match(&fast, &signals, &context);
                }
            }
            latched += usize::from(fast.request_failover);
        }
        assert!(
            (50..250).contains(&latched),
            "both modes exercised: {latched} latched"
        );
    }

    #[test]
    fn cold_start_signals_are_not_emergencies() {
        let signals = SiteSignals::cold_start(8, 120.0);
        assert!(!signals.in_emergency());
        assert_eq!(signals.free_servers, 8);
        let mut throttling = signals;
        throttling.thermal_slack_c = -1.0;
        assert!(throttling.in_emergency());
    }
}
