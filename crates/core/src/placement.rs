//! VM placement policies (§4.1, §4.5 "VM Allocator").
//!
//! The allocator is rule-based, in the spirit of Protean: a *validator* rule filters out
//! servers whose aisle or row would exceed its airflow or power provisioning if the new VM's
//! predicted peak load landed there (Eq. 3/4 with predicted values); a first *preference* rule
//! steers IaaS VMs toward cooler servers and SaaS VMs toward warmer servers (classified into
//! cold/medium/warm terciles of predicted peak GPU temperature); a second preference rule
//! keeps the IaaS/SaaS mix of each row balanced so the SaaS flexibility is spread across the
//! power/airflow domains. The Baseline allocator is thermal- and power-oblivious: it packs
//! VMs onto the lowest-numbered free server ([`ClusterState::first_free`]).

use crate::profiles::{ProfileStore, ServerProfile};
use crate::state::ClusterState;
use dc_sim::ids::{RowId, ServerId};
use dc_sim::topology::Layout;
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts};
use std::collections::{BTreeMap, HashMap};
use workload::vm::{Vm, VmKind};

/// A placement request for one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// The VM to place.
    pub vm: Vm,
    /// Predicted peak mean-GPU load of the VM in `[0, 1]` (from the owning customer's or
    /// endpoint's history; 1.0 when no history exists, §4.1). The allocator clamps
    /// out-of-range values and reads non-finite ones as 1.0.
    pub predicted_peak_load: f64,
}

/// Design conditions the allocator plans for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignConditions {
    /// Outside temperature assumed when estimating peak GPU temperatures (a hot-day design
    /// point).
    pub design_outside_temp: Celsius,
    /// Datacenter load fraction assumed for inlet estimation.
    pub design_dc_load: f64,
}

impl Default for DesignConditions {
    fn default() -> Self {
        Self { design_outside_temp: Celsius::new(32.0), design_dc_load: 0.8 }
    }
}

/// The predicted peak load the placement estimates use for a raw prediction: clamped to
/// `[0, 1]`, with a non-finite prediction treated as 1.0, the §4.1 value for "no history".
fn effective_peak_load(predicted_peak_load: f64) -> f64 {
    if predicted_peak_load.is_finite() {
        predicted_peak_load.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// One server's placement constants, gathered from its [`ServerProfile`]
/// into a flat record so the per-VM scan touches no heap-backed profile data.
#[derive(Debug, Clone, Copy)]
struct ServerConstants {
    row: u32,
    aisle: u32,
    /// Index of the server's hardware class in [`PlacementPlanner::class_servers`].
    class: u32,
    /// Intercept of the fitted worst-GPU temperature model (Eq. 2).
    temp_intercept: f64,
    /// The model's inlet term at the design conditions: inlet coefficient × design inlet.
    temp_inlet_term: f64,
    /// The model's per-GPU power coefficient.
    temp_power_coeff: f64,
}

impl ServerConstants {
    /// [`TapasPlacement::thermal_estimate`] for the class's per-GPU power `gpu_share_w`,
    /// in the same operation order (`LinearModel::predict`'s `intercept + Σ`).
    fn peak_temp_c(&self, gpu_share_w: f64) -> f64 {
        self.temp_intercept
            + [self.temp_inlet_term, self.temp_power_coeff * gpu_share_w].into_iter().sum::<f64>()
    }
}

/// The load-dependent terms of one hardware class at one predicted peak load. Servers whose
/// power and airflow inputs are bit-identical (in practice, one SKU) form one class, so
/// each call evaluates them once per class instead of once per server.
#[derive(Debug, Clone, Copy)]
struct ClassPeak {
    idle_kw: f64,
    /// [`ServerProfile::predicted_power`] at the load (kW).
    power_kw: f64,
    idle_cfm: f64,
    /// [`ServerProfile::predicted_airflow`] at the load (CFM).
    airflow_cfm: f64,
    /// Per-GPU power at the load, capped at the GPU's maximum (W).
    gpu_share_w: f64,
}

impl ClassPeak {
    /// Evaluates a class, through its representative server's profile, at `load` in
    /// `[0, 1]`.
    fn at(profile: &ServerProfile, load: f64) -> Self {
        Self {
            idle_kw: profile.spec.idle_power.value(),
            power_kw: profile.predicted_power(load).value(),
            idle_cfm: profile.spec.idle_airflow.value(),
            airflow_cfm: profile.predicted_airflow(load).value(),
            gpu_share_w: gpu_share_w(profile, load),
        }
    }
}

/// Per-GPU power at a predicted load (static floor plus dynamic part), capped at the GPU's
/// TDP — the same shape the profiling observed.
fn gpu_share_w(profile: &ServerProfile, load: f64) -> f64 {
    let gpu_max = profile.spec.gpu_max_power.to_watts().value();
    (gpu_max * (0.15 + 0.85 * load)).min(gpu_max)
}

/// The bits every [`ClassPeak`] input of a server is made of: two servers with equal
/// signatures yield bit-identical class peaks at every load.
fn class_signature(profile: &ServerProfile) -> impl Iterator<Item = u64> + '_ {
    let spec = &profile.spec;
    [
        spec.idle_power.value(),
        spec.max_power.value(),
        spec.idle_airflow.value(),
        spec.max_airflow.value(),
        spec.gpu_max_power.value(),
    ]
    .into_iter()
    .chain(profile.power_curve.coefficients().iter().copied())
    .map(f64::to_bits)
}

/// Incrementally maintained placement aggregates, dense per-server constants and reusable
/// scratch buffers.
///
/// The TAPAS validator compares each candidate row's/aisle's *predicted peak* power and
/// airflow against its provisioning. Recomputing those aggregates scans every server per
/// placement decision; the planner instead carries them as dense vectors updated in O(1) on
/// every place/retire event the caller reports. It also gathers every per-server constant
/// of the estimates (row, aisle, hardware class, the temperature model at the design inlet)
/// from the [`ProfileStore`] it is built with, which must be the store the caller later
/// passes to [`TapasPlacement::place_with`].
#[derive(Debug, Clone)]
pub struct PlacementPlanner {
    design: DesignConditions,
    /// Predicted peak power per row (kW), counting idle power for empty servers.
    row_power_kw: Vec<f64>,
    /// Predicted peak airflow per aisle (CFM), counting idle airflow for empty servers.
    aisle_airflow_cfm: Vec<f64>,
    /// Placement constants per server, indexed by `ServerId::index`.
    servers: Vec<ServerConstants>,
    /// One representative server per hardware class.
    class_servers: Vec<ServerId>,
    /// Scratch: every class evaluated at the VM's predicted peak.
    class_peaks: Vec<ClassPeak>,
    /// Scratch: safety-scaled power budget per row (kW).
    row_limit_kw: Vec<f64>,
    /// Scratch: safety-scaled airflow provisioning per aisle (CFM).
    aisle_limit_cfm: Vec<f64>,
    /// Scratch: weighted IaaS/SaaS balance score per row for the VM being placed.
    row_balance: Vec<f64>,
    /// Scratch: one order key per candidate (see [`order_key`]).
    keys: Vec<u128>,
}

impl PlacementPlanner {
    /// Builds the planner from the current cluster state.
    ///
    /// # Panics
    /// Panics if a server's worst-GPU temperature model does not take exactly the two
    /// features `[inlet °C, per-GPU power W]` of Eq. 2.
    #[must_use]
    pub fn new(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
        design: DesignConditions,
    ) -> Self {
        let mut row_power_kw = vec![0.0; layout.rows().len()];
        let mut aisle_airflow_cfm = vec![0.0; layout.aisles().len()];
        for server in layout.servers() {
            let profile = profiles.server(server.id);
            let (power, airflow) = match state.vm_on(server.id) {
                Some(placed) => {
                    let load = effective_peak_load(placed.predicted_peak_load);
                    (profile.predicted_power(load).value(), profile.predicted_airflow(load).value())
                }
                None => (
                    profile.spec.idle_power.value(),
                    profile.spec.idle_airflow.value(),
                ),
            };
            row_power_kw[server.row.index()] += power;
            aisle_airflow_cfm[server.aisle.index()] += airflow;
        }
        let mut classes: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut class_servers = Vec::new();
        let mut last_class: Option<(u32, ServerId)> = None;
        let servers = profiles
            .servers
            .iter()
            .map(|profile| {
                // Neighbours are usually one SKU: try the previous server's class first.
                let class = match last_class {
                    Some((class, rep))
                        if class_signature(profiles.server(rep)).eq(class_signature(profile)) =>
                    {
                        class
                    }
                    _ => *classes.entry(class_signature(profile).collect()).or_insert_with(|| {
                        class_servers.push(profile.server);
                        (class_servers.len() - 1) as u32
                    }),
                };
                last_class = Some((class, class_servers[class as usize]));
                let &[inlet_coeff, power_coeff] = profile.worst_gpu_temp.coefficients() else {
                    panic!("the worst-GPU temperature model takes [inlet °C, per-GPU power W]");
                };
                let design_inlet = profile
                    .predicted_inlet(design.design_outside_temp, design.design_dc_load)
                    .value();
                ServerConstants {
                    row: profile.row.index() as u32,
                    aisle: profile.aisle.index() as u32,
                    class,
                    temp_intercept: profile.worst_gpu_temp.intercept(),
                    temp_inlet_term: inlet_coeff * design_inlet,
                    temp_power_coeff: power_coeff,
                }
            })
            .collect();
        Self {
            design,
            row_power_kw,
            aisle_airflow_cfm,
            servers,
            class_servers,
            class_peaks: Vec::new(),
            row_limit_kw: Vec::new(),
            aisle_limit_cfm: Vec::new(),
            row_balance: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// The design conditions the planner assumes.
    #[must_use]
    pub fn design(&self) -> DesignConditions {
        self.design
    }

    /// Records that a VM with `predicted_peak_load` was placed on `server`.
    pub fn on_place(&mut self, server: ServerId, predicted_peak_load: f64, profiles: &ProfileStore) {
        let profile = profiles.server(server);
        let load = effective_peak_load(predicted_peak_load);
        self.row_power_kw[profile.row.index()] +=
            profile.predicted_power(load).value() - profile.spec.idle_power.value();
        self.aisle_airflow_cfm[profile.aisle.index()] +=
            profile.predicted_airflow(load).value() - profile.spec.idle_airflow.value();
    }

    /// Records that the VM previously placed on `server` (with the given predicted peak)
    /// retired.
    pub fn on_remove(
        &mut self,
        server: ServerId,
        predicted_peak_load: f64,
        profiles: &ProfileStore,
    ) {
        let profile = profiles.server(server);
        let load = effective_peak_load(predicted_peak_load);
        self.row_power_kw[profile.row.index()] -=
            profile.predicted_power(load).value() - profile.spec.idle_power.value();
        self.aisle_airflow_cfm[profile.aisle.index()] -=
            profile.predicted_airflow(load).value() - profile.spec.idle_airflow.value();
    }

    /// Predicted peak power of a row (kW).
    #[must_use]
    pub fn row_power_kw(&self, row: RowId) -> f64 {
        self.row_power_kw[row.index()]
    }
}

/// Maps a non-NaN temperature to a `u64` whose unsigned order is the temperature's numeric
/// order (`-0.0` and `+0.0` map to one value, as they compare equal).
fn order_bits(temp: f64) -> u64 {
    let bits = if temp == 0.0 { 0 } else { temp.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The candidate order key: temperature first, server id on ties. Its unsigned order is
/// the order of a stable sort by temperature over candidates listed in id order.
fn order_key(temp: f64, server: usize) -> u128 {
    assert!(!temp.is_nan(), "finite temperatures");
    u128::from(order_bits(temp)) << 64 | server as u128
}

/// The server id of an order key.
fn key_server(key: u128) -> ServerId {
    ServerId::new(key as u64 as usize)
}

/// Tuning parameters of the TAPAS placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TapasPlacementConfig {
    /// Design conditions used for temperature estimation.
    pub design: DesignConditions,
    /// Fraction of the row power budget the validator allows predicted peaks to reach.
    pub power_safety_fraction: f64,
    /// Fraction of the aisle airflow provisioning the validator allows predicted peaks to
    /// reach.
    pub airflow_safety_fraction: f64,
    /// Weight of the thermal preference when scoring candidates.
    pub thermal_weight: f64,
    /// Weight of the IaaS/SaaS balance preference when scoring candidates.
    pub balance_weight: f64,
}

impl Default for TapasPlacementConfig {
    fn default() -> Self {
        Self {
            design: DesignConditions::default(),
            power_safety_fraction: 0.97,
            airflow_safety_fraction: 0.97,
            thermal_weight: 1.0,
            balance_weight: 0.5,
        }
    }
}

/// The TAPAS thermal- and power-aware placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[derive(Default)]
pub struct TapasPlacement {
    /// Tuning parameters.
    pub config: TapasPlacementConfig,
}


impl TapasPlacement {
    /// Current predicted peak power per row from already-placed VMs (idle power for empty
    /// servers).
    ///
    /// Reference implementation of the aggregate [`PlacementPlanner`] maintains
    /// incrementally; used by tests and audits.
    pub fn predicted_row_power(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> BTreeMap<RowId, Kilowatts> {
        layout
            .rows()
            .iter()
            .map(|row| {
                let total: Kilowatts = row
                    .servers
                    .iter()
                    .map(|&s| match state.vm_on(s) {
                        Some(placed) => profiles
                            .server(s)
                            .predicted_power(effective_peak_load(placed.predicted_peak_load)),
                        None => profiles.server(s).spec.idle_power,
                    })
                    .sum();
                (row.id, total)
            })
            .collect()
    }

    /// Current predicted peak airflow per aisle from already-placed VMs.
    ///
    /// Reference implementation of the aggregate [`PlacementPlanner`] maintains
    /// incrementally; used by tests and audits.
    pub fn predicted_aisle_airflow(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> BTreeMap<dc_sim::ids::AisleId, CubicFeetPerMinute> {
        layout
            .aisles()
            .iter()
            .map(|aisle| {
                let total: CubicFeetPerMinute = aisle
                    .servers
                    .iter()
                    .map(|&s| match state.vm_on(s) {
                        Some(placed) => profiles
                            .server(s)
                            .predicted_airflow(effective_peak_load(placed.predicted_peak_load)),
                        None => profiles.server(s).spec.idle_airflow,
                    })
                    .sum();
                (aisle.id, total)
            })
            .collect()
    }

    /// Classifies every server's thermal tendency: the predicted worst-GPU temperature at the
    /// design conditions and the VM's predicted load. Returns the temperature per server.
    pub fn thermal_estimate(
        &self,
        profiles: &ProfileStore,
        server: ServerId,
        peak_load: f64,
    ) -> Celsius {
        let profile = profiles.server(server);
        let inlet = profile
            .predicted_inlet(self.config.design.design_outside_temp, self.config.design.design_dc_load);
        let gpu_share = gpu_share_w(profile, peak_load);
        profile.predicted_worst_gpu_temp(inlet, simkit::units::Watts::new(gpu_share))
    }
}

impl TapasPlacement {
    /// Chooses a server using the planner's aggregates, dense per-server constants and
    /// scratch buffers: the allocation-free hot path, and TAPAS placement's one entry
    /// point. The caller keeps `planner` in step with `state` through
    /// [`PlacementPlanner::on_place`] and [`PlacementPlanner::on_remove`].
    ///
    /// One pass over the free servers applies the validator and estimates each survivor's
    /// peak temperature; two `select_nth_unstable` calls split the candidates into the
    /// cold/medium/warm terciles; one pass per tercile scores them. That is O(free servers +
    /// rows) per call, with no sort.
    ///
    /// The result is pinned to [`TapasPlacement::place_with_reference`]: the same server on
    /// every call. The contract that makes this exact is the candidate order, temperature
    /// ascending with ties broken by ascending server id (a stable sort over candidates in
    /// id order). Tercile ranks, the tie-break between equal scores (the first candidate in
    /// that order wins) and the SaaS fallback (the first candidate overall) all follow it.
    /// Every estimate repeats the reference's floating-point operations in the same order,
    /// so validator verdicts, temperatures and scores are bit-equal (for non-NaN weights;
    /// a NaN score has no maximum to agree on).
    ///
    /// # Panics
    /// Panics if a candidate's estimated temperature is NaN (a NaN-bearing profile).
    #[must_use]
    pub fn place_with(
        &self,
        request: &PlacementRequest,
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
        planner: &mut PlacementPlanner,
    ) -> Option<ServerId> {
        if state.free_count() == 0 {
            return None;
        }
        let peak_load = effective_peak_load(request.predicted_peak_load);
        let PlacementPlanner {
            row_power_kw,
            aisle_airflow_cfm,
            servers,
            class_servers,
            class_peaks,
            row_limit_kw,
            aisle_limit_cfm,
            row_balance,
            keys,
            ..
        } = planner;
        row_limit_kw.clear();
        row_limit_kw.extend(
            profiles
                .budgets
                .row_power
                .values()
                .map(|b| b.value() * self.config.power_safety_fraction),
        );
        aisle_limit_cfm.clear();
        aisle_limit_cfm.extend(
            profiles
                .budgets
                .aisle_airflow
                .values()
                .map(|b| b.value() * self.config.airflow_safety_fraction),
        );
        class_peaks.clear();
        class_peaks.extend(
            class_servers.iter().map(|&server| ClassPeak::at(profiles.server(server), peak_load)),
        );

        // Validator rule: keep servers whose row power and aisle airflow stay within the
        // (safety-scaled) provisioning if the VM peaked there. When it rejects every server,
        // fall back to every free server rather than rejecting outright.
        keys.clear();
        for server in state.free_iter() {
            let index = server.index();
            let c = &servers[index];
            let peak = &class_peaks[c.class as usize];
            let (row, aisle) = (c.row as usize, c.aisle as usize);
            let new_row_power = row_power_kw[row] - peak.idle_kw + peak.power_kw;
            let new_aisle_airflow = aisle_airflow_cfm[aisle] - peak.idle_cfm + peak.airflow_cfm;
            if new_row_power <= row_limit_kw[row] && new_aisle_airflow <= aisle_limit_cfm[aisle] {
                keys.push(order_key(c.peak_temp_c(peak.gpu_share_w), index));
            }
        }
        if keys.is_empty() {
            keys.extend(state.free_iter().map(|s| {
                let c = &servers[s.index()];
                let gpu_share_w = class_peaks[c.class as usize].gpu_share_w;
                order_key(c.peak_temp_c(gpu_share_w), s.index())
            }));
        }

        // Thermal terciles by rank: keys[..cold_end] cold, keys[cold_end..warm_start]
        // medium, keys[warm_start..] warm, each holding exactly the ranks of a full sort.
        let n = keys.len();
        let (cold_end, warm_start) = if n <= 1 {
            (0, n)
        } else {
            let cold_end = n.div_ceil(3);
            let warm_start = (2 * n).div_ceil(3);
            keys.select_nth_unstable(cold_end);
            if warm_start < n {
                keys[cold_end..].select_nth_unstable(warm_start - cold_end);
            }
            (cold_end, warm_start)
        };

        // Preference 2 per row: improve the IaaS/SaaS balance of the row.
        let is_saas = matches!(request.vm.kind, VmKind::Saas { .. });
        row_balance.clear();
        row_balance.extend((0..layout.rows().len()).map(|row| {
            self.config.balance_weight
                * balance_score(state.row_mix(layout, RowId::new(row)), is_saas)
        }));
        // SaaS VMs must never be placed somewhere that already predicts a violation.
        let limit = profiles.thermal_headroom_target.value();
        let skip_above = if is_saas && !limit.is_nan() { order_bits(limit) } else { u64::MAX };

        let mut best: Option<(u128, f64)> = None;
        let segments =
            [(0, &keys[..cold_end]), (1, &keys[cold_end..warm_start]), (2, &keys[warm_start..])];
        for (tercile, segment) in segments {
            let thermal = self.config.thermal_weight * thermal_score(tercile, is_saas);
            for &key in segment {
                if (key >> 64) as u64 > skip_above {
                    continue;
                }
                let score = thermal + row_balance[servers[key_server(key).index()].row as usize];
                match best {
                    Some((best_key, best_score))
                        if best_score > score || (best_score == score && best_key < key) => {}
                    _ => best = Some((key, score)),
                }
            }
        }
        // Every candidate predicted a thermal violation for a SaaS VM: pick the coolest.
        best.map(|(key, _)| key).or_else(|| keys.iter().copied().min()).map(key_server)
    }

    /// The executable reference of [`TapasPlacement::place_with`]: validates every free
    /// server from the [`ProfileStore`] directly, estimates each candidate with
    /// [`TapasPlacement::thermal_estimate`], stable-sorts the candidates by temperature and
    /// scores them in that order. It allocates and sorts on every call; the differential
    /// tests hold the fast path to it.
    ///
    /// # Panics
    /// Panics if two or more candidates are estimated and one temperature is NaN.
    #[must_use]
    pub fn place_with_reference(
        &self,
        request: &PlacementRequest,
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
        planner: &PlacementPlanner,
    ) -> Option<ServerId> {
        if state.free_count() == 0 {
            return None;
        }
        let peak_load = effective_peak_load(request.predicted_peak_load);

        // Validator rule: filter servers whose row power or aisle airflow would exceed the
        // (safety-scaled) provisioning if the VM peaked there.
        let mut candidates = Vec::new();
        for server_id in state.free_iter() {
            let profile = profiles.server(server_id);
            let row_budget = profiles.row_budget(profile.row).value()
                * self.config.power_safety_fraction;
            let aisle_budget = profiles.aisle_budget(profile.aisle).value()
                * self.config.airflow_safety_fraction;
            let new_row_power = planner.row_power_kw[profile.row.index()]
                - profile.spec.idle_power.value()
                + profile.predicted_power(peak_load).value();
            let new_aisle_airflow = planner.aisle_airflow_cfm[profile.aisle.index()]
                - profile.spec.idle_airflow.value()
                + profile.predicted_airflow(peak_load).value();
            if new_row_power <= row_budget && new_aisle_airflow <= aisle_budget {
                candidates.push(server_id);
            }
        }

        // Thermal terciles over the candidates (so the classification is stable): estimate
        // each candidate's peak temperature and rank. When the validator rejected everything,
        // fall back to every free server rather than rejecting outright.
        if candidates.is_empty() {
            candidates.extend(state.free_iter());
        }
        let mut temps: Vec<(ServerId, f64)> = candidates
            .iter()
            .map(|&s| (s, self.thermal_estimate(profiles, s, peak_load).value()))
            .collect();
        temps.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite temperatures"));
        let n = temps.len();
        let tercile_of = |rank: usize| -> usize {
            if n <= 1 {
                1
            } else if rank * 3 < n {
                0 // cold
            } else if rank * 3 < 2 * n {
                1 // medium
            } else {
                2 // warm
            }
        };
        let is_saas = matches!(request.vm.kind, VmKind::Saas { .. });
        let throttle_limit = profiles.thermal_headroom_target.value();

        let mut best: Option<(ServerId, f64)> = None;
        for (rank, &(server, temp)) in temps.iter().enumerate() {
            // SaaS VMs must never be placed somewhere that already predicts a violation.
            if is_saas && temp > throttle_limit {
                continue;
            }
            let row = profiles.server(server).row;
            let score = self.config.thermal_weight * thermal_score(tercile_of(rank), is_saas)
                + self.config.balance_weight * balance_score(state.row_mix(layout, row), is_saas);
            match best {
                Some((_, best_score)) if best_score >= score => {}
                _ => best = Some((server, score)),
            }
        }
        best.map(|(s, _)| s).or_else(|| {
            // Every candidate predicted a thermal violation for a SaaS VM: pick the coolest.
            temps.first().map(|&(s, _)| s)
        })
    }
}

/// Preference 1: IaaS prefers cold (tercile 0), SaaS prefers warm (tercile 2).
fn thermal_score(tercile: usize, is_saas: bool) -> f64 {
    if is_saas {
        tercile as f64 / 2.0
    } else {
        1.0 - tercile as f64 / 2.0
    }
}

/// Preference 2: how balanced a row's `(iaas, saas)` VM mix is once the VM joins it
/// (1 = even, 0 = one-sided).
fn balance_score((iaas, saas): (usize, usize), is_saas: bool) -> f64 {
    let (new_iaas, new_saas) = if is_saas { (iaas, saas + 1) } else { (iaas + 1, saas) };
    let total = (new_iaas + new_saas) as f64;
    1.0 - ((new_iaas as f64 - new_saas as f64).abs() / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::engine::Datacenter;
    use dc_sim::topology::LayoutConfig;
    use llm_sim::hardware::GpuHardware;
    use simkit::time::{SimDuration, SimTime};
    use workload::endpoints::EndpointId;
    use workload::vm::{IaasCustomerId, VmId};

    fn setup() -> (Layout, ProfileStore) {
        let layout = LayoutConfig::real_cluster_two_rows().build();
        let dc = Datacenter::new(layout.clone(), 42);
        let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
        (layout, profiles)
    }

    fn vm(id: u64, saas: bool) -> Vm {
        Vm {
            id: VmId(id),
            kind: if saas {
                VmKind::Saas { endpoint: EndpointId(0) }
            } else {
                VmKind::Iaas { customer: IaasCustomerId(0) }
            },
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_days(14),
        }
    }

    fn request(id: u64, saas: bool, load: f64) -> PlacementRequest {
        PlacementRequest { vm: vm(id, saas), predicted_peak_load: load }
    }

    #[test]
    fn dense_constants_reproduce_the_profile_estimates_bitwise() {
        let (layout, profiles) = setup();
        let state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        let planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        assert_eq!(planner.class_servers.len(), 1, "one SKU is one hardware class");
        for server in layout.servers() {
            let c = &planner.servers[server.id.index()];
            let class = profiles.server(planner.class_servers[c.class as usize]);
            let profile = profiles.server(server.id);
            for step in 0..=20 {
                let load = f64::from(step) / 20.0;
                let peak = ClassPeak::at(class, load);
                assert_eq!(peak.idle_kw.to_bits(), profile.spec.idle_power.value().to_bits());
                assert_eq!(
                    peak.power_kw.to_bits(),
                    profile.predicted_power(load).value().to_bits()
                );
                assert_eq!(peak.idle_cfm.to_bits(), profile.spec.idle_airflow.value().to_bits());
                assert_eq!(
                    peak.airflow_cfm.to_bits(),
                    profile.predicted_airflow(load).value().to_bits()
                );
                assert_eq!(
                    c.peak_temp_c(peak.gpu_share_w).to_bits(),
                    policy.thermal_estimate(&profiles, server.id, load).value().to_bits()
                );
            }
        }
    }

    #[test]
    fn order_keys_sort_like_a_stable_temperature_sort() {
        let temps = [3.5, -0.0, 0.0, -2.0, f64::INFINITY, 3.5, -1e-300, f64::NEG_INFINITY, 1e-300];
        let mut by_key: Vec<usize> = (0..temps.len()).collect();
        by_key.sort_by_key(|&i| order_key(temps[i], i));
        let mut stable: Vec<usize> = (0..temps.len()).collect();
        stable.sort_by(|&a, &b| temps[a].partial_cmp(&temps[b]).unwrap());
        assert_eq!(by_key, stable);
        assert_eq!(key_server(order_key(-7.0, 1234)), ServerId::new(1234));
    }

    #[test]
    fn nan_peak_load_is_placed_as_full_load() {
        // A NaN prediction used to fail every validator comparison, so the VM fell back to
        // every free server and bypassed the row budget; booking it then turned the row's
        // aggregate into NaN. It must now be placed and booked as a full-load VM.
        let (layout, profiles) = setup();
        let mut state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        let row0_servers = layout.rows()[0].servers.clone();
        for (i, &server) in row0_servers.iter().enumerate().take(30) {
            state.place(vm(100 + i as u64, false), server, 1.0, None).unwrap();
        }
        let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        for saas in [false, true] {
            let nan = request(1, saas, f64::NAN);
            let chosen = policy.place_with(&nan, &state, &layout, &profiles, &mut planner);
            let full = request(1, saas, 1.0);
            assert_eq!(chosen, policy.place_with(&full, &state, &layout, &profiles, &mut planner));
            assert_eq!(
                chosen,
                policy.place_with_reference(&nan, &state, &layout, &profiles, &planner)
            );
            let row = layout.server(chosen.unwrap()).row;
            assert_eq!(row.index(), 1, "the row-0 power budget must still apply");
        }
        let server = row0_servers[35];
        let before = planner.row_power_kw(layout.server(server).row);
        planner.on_place(server, f64::NAN, &profiles);
        let added = planner.row_power_kw(layout.server(server).row) - before;
        let profile = profiles.server(server);
        let full_kw = profile.predicted_power(1.0).value() - profile.spec.idle_power.value();
        assert!((added - full_kw).abs() < 1e-9, "a NaN peak should book full power, added {added}");
    }

    /// A planner in step with `state`, as the simulator keeps one.
    fn planner_for(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> PlacementPlanner {
        PlacementPlanner::new(state, layout, profiles, TapasPlacement::default().config.design)
    }

    #[test]
    fn baseline_packs_lowest_free_server() {
        let (layout, _) = setup();
        let mut state = ClusterState::new(layout.server_count());
        let first = state.first_free().unwrap();
        assert_eq!(first, ServerId::new(0));
        state.place(vm(1, false), first, 1.0, None).unwrap();
        assert_eq!(state.first_free(), Some(ServerId::new(1)));
    }

    #[test]
    fn tapas_places_iaas_cooler_than_saas() {
        let (layout, profiles) = setup();
        let state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        let mut planner = planner_for(&state, &layout, &profiles);
        let mut place = |req: PlacementRequest| {
            policy.place_with(&req, &state, &layout, &profiles, &mut planner).unwrap()
        };
        let iaas_server = place(request(1, false, 0.9));
        let saas_server = place(request(2, true, 0.9));
        let temp_of = |s: ServerId| policy.thermal_estimate(&profiles, s, 0.9).value();
        assert!(
            temp_of(iaas_server) < temp_of(saas_server),
            "IaaS should land on a cooler server than SaaS ({} vs {})",
            temp_of(iaas_server),
            temp_of(saas_server)
        );
    }

    #[test]
    fn tapas_respects_row_power_validator() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        // Fill row 0 with peak-load VMs until its predicted power approaches the budget.
        let row0_servers = layout.rows()[0].servers.clone();
        for (i, &server) in row0_servers.iter().enumerate().take(30) {
            state.place(vm(100 + i as u64, false), server, 1.0, None).unwrap();
        }
        // The next peak-load VM must not land in row 0 (its predicted peak would exceed the
        // 85 %-provisioned budget), even though row 0 still has free servers.
        let mut planner = planner_for(&state, &layout, &profiles);
        let chosen = policy
            .place_with(&request(1, false, 1.0), &state, &layout, &profiles, &mut planner)
            .unwrap();
        let chosen_row = layout.server(chosen).row;
        assert_eq!(chosen_row.index(), 1, "validator should steer the VM to the other row");
    }

    #[test]
    fn tapas_balances_iaas_and_saas_across_rows() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        let mut planner = planner_for(&state, &layout, &profiles);
        // Place an alternating stream and check that neither row ends up one-sided.
        for i in 0..40u64 {
            let saas = i % 2 == 0;
            let req = request(i, saas, 0.7);
            let server =
                policy.place_with(&req, &state, &layout, &profiles, &mut planner).unwrap();
            state.place(vm(i, saas), server, 0.7, None).unwrap();
            planner.on_place(server, 0.7, &profiles);
        }
        for row in layout.rows() {
            let (iaas, saas) = state.row_mix(&layout, row.id);
            let total = iaas + saas;
            if total >= 8 {
                let imbalance = (iaas as f64 - saas as f64).abs() / total as f64;
                assert!(imbalance < 0.6, "row {} too one-sided: {iaas} IaaS vs {saas} SaaS", row.id);
            }
        }
    }

    #[test]
    fn full_cluster_returns_none_for_baseline_and_fallback_for_tapas() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::new(layout.server_count());
        for i in 0..layout.server_count() {
            state
                .place(vm(i as u64, false), ServerId::new(i), 0.5, None)
                .unwrap();
        }
        assert!(state.first_free().is_none());
        let mut planner = planner_for(&state, &layout, &profiles);
        assert!(TapasPlacement::default()
            .place_with(&request(999, false, 0.5), &state, &layout, &profiles, &mut planner)
            .is_none());
    }

    #[test]
    fn predicted_peaks_never_exceed_budget_under_tapas_when_feasible() {
        let (layout, profiles) = setup();
        let mut state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        let mut planner = planner_for(&state, &layout, &profiles);
        // Place a realistic mixed stream at moderate predicted load and verify the invariant.
        for i in 0..60u64 {
            let saas = i % 2 == 0;
            let req = request(i, saas, 0.8);
            let chosen = policy.place_with(&req, &state, &layout, &profiles, &mut planner);
            if let Some(server) = chosen {
                state.place(vm(i, saas), server, 0.8, None).unwrap();
                planner.on_place(server, 0.8, &profiles);
            }
        }
        let row_power = TapasPlacement::predicted_row_power(&state, &layout, &profiles);
        for row in layout.rows() {
            let budget = profiles.budgets.row_power[row.id];
            assert!(
                row_power[&row.id].value() <= budget.value() * 1.001,
                "row {} predicted peak {} exceeds budget {}",
                row.id,
                row_power[&row.id],
                budget
            );
        }
    }
}
