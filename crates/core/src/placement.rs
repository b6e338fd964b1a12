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

use crate::profiles::{GpuTempModel, ProfileStore, ServerProfile};
use crate::state::ClusterState;
use dc_sim::ids::{AisleId, RowId, ServerId};
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
        Self {
            design_outside_temp: Celsius::new(32.0),
            design_dc_load: 0.8,
        }
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
/// into a flat record so the index touches no heap-backed profile data.
#[derive(Debug, Clone, Copy)]
struct ServerConstants {
    row: u32,
    aisle: u32,
    /// Index of the server's hardware class in `PlannerTopology::class_servers`.
    class: u32,
    /// Index of the server's validator cell in `PlannerTopology::cells`.
    cell: u32,
    /// The fitted worst-GPU temperature model (Eq. 2).
    temp: GpuTempModel,
    /// Its inlet term at the design conditions' predicted inlet.
    temp_inlet_term: f64,
}

impl ServerConstants {
    /// [`TapasPlacement::thermal_estimate`] for the class's per-GPU power `gpu_share_w`.
    fn peak_temp_c(&self, gpu_share_w: f64) -> f64 {
        self.temp.predict(self.temp_inlet_term, gpu_share_w)
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
    .chain(profile.power_curve.coefficients)
    .map(f64::to_bits)
}

/// How many per-load views a [`PlacementPlanner`] caches. The simulator asks for at most
/// ~14 distinct effective loads (one per IaaS customer intensity, 0.9 for SaaS, 1.0 for a
/// customer without history), so all of them stay cached; a caller with more evicts the
/// least recently used view, which is rebuilt, exactly, on its next use.
const VIEW_CACHE_CAPACITY: usize = 16;

/// One validator cell: the servers of one hardware class in one row and aisle. A server's
/// validator verdict depends on its cell alone (the row's power, the aisle's airflow and
/// the class's peak at the VM's load), so a view keeps one verdict per cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    row: u32,
    aisle: u32,
    class: u32,
}

/// The load-independent part of the placement index, fixed when the planner is built.
#[derive(Debug, Clone)]
struct PlannerTopology {
    /// Placement constants per server, indexed by `ServerId::index`.
    servers: Vec<ServerConstants>,
    /// One representative server per hardware class.
    class_servers: Vec<ServerId>,
    cells: Vec<Cell>,
    /// The cells of each row and of each aisle: the verdicts a place or retire there can
    /// flip.
    row_cells: Vec<Vec<u32>>,
    aisle_cells: Vec<Vec<u32>>,
    /// Each row's first slot in a view's `row_servers` and `row_pos`, plus one past the
    /// last row.
    row_start: Vec<u32>,
    /// Each row's first word in a [`RankSet`]'s `row_bits`, plus one past the last row.
    row_word_start: Vec<u32>,
}

impl PlannerTopology {
    /// The slots of `row` in a view's `row_servers` and `row_pos`.
    fn row_slots(&self, row: usize) -> std::ops::Range<usize> {
        self.row_start[row] as usize..self.row_start[row + 1] as usize
    }

    /// The words of `row` in a [`RankSet`]'s `row_bits`.
    fn row_words(&self, row: usize) -> std::ops::Range<usize> {
        self.row_word_start[row] as usize..self.row_word_start[row + 1] as usize
    }
}

/// A set of positions of one [`LoadView`], stored twice: as a bitmap over positions with a
/// Fenwick tree over its words' popcounts (the k-th member in O(log S)), and as one bitmap
/// per row over the row's ranks (a row's first member at or after a rank in O(1) words).
#[derive(Debug, Clone, Default, PartialEq)]
struct RankSet {
    len: usize,
    /// Membership bit per position.
    bits: Vec<u64>,
    /// Fenwick tree over the popcounts of `bits`' words; node `i` is stored at `i - 1`.
    counts: Vec<u32>,
    /// Membership bit per row rank, rows laid out by `PlannerTopology::row_word_start`.
    row_bits: Vec<u64>,
}

impl RankSet {
    fn clear(&mut self, positions: usize, row_words: usize) {
        self.len = 0;
        self.bits.clear();
        self.bits.resize(positions.div_ceil(64), 0);
        self.counts.clear();
        self.counts.resize(positions.div_ceil(64), 0);
        self.row_bits.clear();
        self.row_bits.resize(row_words, 0);
    }

    /// Adds a member without updating the counts; [`RankSet::recount`] ends a bulk fill.
    fn fill(&mut self, pos: usize, row_bit: usize) {
        self.bits[pos / 64] |= 1 << (pos % 64);
        self.row_bits[row_bit / 64] |= 1 << (row_bit % 64);
        self.len += 1;
    }

    /// Builds the Fenwick tree from the bitmap in O(words).
    fn recount(&mut self) {
        for (count, word) in self.counts.iter_mut().zip(&self.bits) {
            *count = word.count_ones();
        }
        let n = self.counts.len();
        for node in 1..=n {
            let parent = node + (node & node.wrapping_neg());
            if parent <= n {
                self.counts[parent - 1] += self.counts[node - 1];
            }
        }
    }

    fn contains(&self, pos: usize) -> bool {
        self.bits[pos / 64] >> (pos % 64) & 1 == 1
    }

    fn insert(&mut self, pos: usize, row_bit: usize) {
        debug_assert!(!self.contains(pos), "position {pos} is already a member");
        self.fill(pos, row_bit);
        let mut node = pos / 64 + 1;
        while node <= self.counts.len() {
            self.counts[node - 1] += 1;
            node += node & node.wrapping_neg();
        }
    }

    fn remove(&mut self, pos: usize, row_bit: usize) {
        debug_assert!(self.contains(pos), "position {pos} is not a member");
        self.bits[pos / 64] &= !(1 << (pos % 64));
        self.row_bits[row_bit / 64] &= !(1 << (row_bit % 64));
        self.len -= 1;
        let mut node = pos / 64 + 1;
        while node <= self.counts.len() {
            self.counts[node - 1] -= 1;
            node += node & node.wrapping_neg();
        }
    }

    /// The position of the member of rank `k` (0-based): a descent of the Fenwick tree to
    /// the word, then a select inside it.
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.len, "rank {k} of a {}-member set", self.len);
        let n = self.counts.len();
        let (mut words, mut rank) = (0, k as u32);
        let mut step = if n == 0 { 0 } else { 1 << n.ilog2() };
        while step > 0 {
            let next = words + step;
            if next <= n && self.counts[next - 1] <= rank {
                words = next;
                rank -= self.counts[next - 1];
            }
            step >>= 1;
        }
        let mut word = self.bits[words];
        for _ in 0..rank {
            word &= word - 1;
        }
        words * 64 + word.trailing_zeros() as usize
    }
}

/// The first set bit at or after `from` in a row's bitmap words.
fn first_set_from(words: &[u64], from: usize) -> Option<usize> {
    let mut index = from / 64;
    let mut word = *words.get(index)? & (u64::MAX << (from % 64));
    while word == 0 {
        index += 1;
        word = *words.get(index)?;
    }
    Some(index * 64 + word.trailing_zeros() as usize)
}

/// Indices below the server count, in 16 bits when every index fits (up to 65536 servers)
/// and in 32 bits otherwise: a view's per-server arrays are most of its memory.
#[derive(Debug, Clone, PartialEq)]
enum Slots {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Narrow(Vec::new())
    }
}

impl Slots {
    /// Resets to `len` zeros, able to hold indices below `len`, reusing the allocation when
    /// the width stays.
    fn reset(&mut self, len: usize) {
        match self {
            Slots::Narrow(v) if len <= 1 << 16 => {
                v.clear();
                v.resize(len, 0);
            }
            Slots::Wide(v) if len > 1 << 16 => {
                v.clear();
                v.resize(len, 0);
            }
            _ if len <= 1 << 16 => *self = Slots::Narrow(vec![0; len]),
            _ => *self = Slots::Wide(vec![0; len]),
        }
    }

    fn get(&self, i: usize) -> usize {
        match self {
            Slots::Narrow(v) => usize::from(v[i]),
            Slots::Wide(v) => v[i] as usize,
        }
    }

    fn set(&mut self, i: usize, value: usize) {
        match self {
            Slots::Narrow(v) => v[i] = value as u16,
            Slots::Wide(v) => v[i] = value as u32,
        }
    }

    /// The first index in `range` whose value fails `pred` (all that pass come first).
    fn partition_point(
        &self,
        range: std::ops::Range<usize>,
        mut pred: impl FnMut(usize) -> bool,
    ) -> usize {
        range.start
            + match self {
                Slots::Narrow(v) => v[range].partition_point(|&x| pred(usize::from(x))),
                Slots::Wide(v) => v[range].partition_point(|&x| pred(x as usize)),
            }
    }
}

/// The placement index at one effective peak load and one pair of safety fractions.
///
/// Every server has a static *position*: its rank in the order of estimated peak
/// temperature at the load, ties broken by server id. The view keeps each row's servers
/// in position order (a server's index in that list is its *row rank*) with their
/// positions, each server's slot in those lists (so an event finds its server in one
/// read), the validator verdict of every [`Cell`], and two [`RankSet`]s over positions:
/// the free servers and the candidates (free servers whose cell passes).
#[derive(Debug, Clone, Default)]
struct LoadView {
    /// Bits of the effective load and of the power and airflow safety fractions.
    key: [u64; 3],
    /// The planner's use counter at the view's last use.
    last_use: u64,
    /// Every hardware class evaluated at the load.
    peaks: Vec<ClassPeak>,
    /// Safety-scaled power budget per row (kW).
    row_limit_kw: Vec<f64>,
    /// Safety-scaled airflow provisioning per aisle (CFM).
    aisle_limit_cfm: Vec<f64>,
    /// Each row's servers in position order, rows laid out by `PlannerTopology::row_start`.
    row_servers: Slots,
    /// The position of each entry of `row_servers`.
    row_pos: Slots,
    /// Each server's slot in `row_servers`, indexed by `ServerId::index`.
    server_slot: Slots,
    /// The last SaaS temperature limit asked for (its order bits) and how many positions
    /// estimate at most that limit.
    allowed: Option<(u64, usize)>,
    /// The validator verdict per cell.
    pass: Vec<bool>,
    candidates: RankSet,
    free: RankSet,
}

impl LoadView {
    /// Rebuilds the view for `key` (its load and safety fractions) from the planner's
    /// current aggregates and free set, reusing the view's allocations.
    ///
    /// # Panics
    /// Panics if a server's estimated peak temperature at the load is not finite.
    fn rebuild(&mut self, key: [u64; 3], planner: &PlacementPlanner, profiles: &ProfileStore) {
        let topology = &planner.topology;
        let servers = topology.servers.len();
        let [load, power_safety, airflow_safety] = key.map(f64::from_bits);
        self.key = key;
        self.allowed = None;
        self.peaks.clear();
        self.peaks.extend(
            topology
                .class_servers
                .iter()
                .map(|&server| ClassPeak::at(profiles.server(server), load)),
        );
        self.row_limit_kw.clear();
        self.row_limit_kw.extend(
            profiles
                .budgets
                .row_power
                .values()
                .map(|b| b.value() * power_safety),
        );
        self.aisle_limit_cfm.clear();
        self.aisle_limit_cfm.extend(
            profiles
                .budgets
                .aisle_airflow
                .values()
                .map(|b| b.value() * airflow_safety),
        );
        let mut pass = std::mem::take(&mut self.pass);
        pass.clear();
        pass.extend(
            topology
                .cells
                .iter()
                .map(|&cell| self.passes(cell, planner)),
        );
        self.pass = pass;

        let temp_bits: Vec<u64> = (0..servers)
            .map(|server| {
                let temp = self.peak_temp_c(topology, server);
                assert!(
                    temp.is_finite(),
                    "server {} has a non-finite estimated peak temperature ({temp} °C at load \
                     {load}): its profile holds a non-finite value",
                    ServerId::new(server)
                );
                order_bits(temp)
            })
            .collect();
        // The position key: temperature first, server id on ties, the order of a stable
        // sort by temperature over servers listed in id order.
        let mut order: Vec<u32> = (0..servers as u32).collect();
        order.sort_unstable_by_key(|&server| (temp_bits[server as usize], server));

        let row_words = *topology
            .row_word_start
            .last()
            .expect("one entry per row, plus one");
        self.candidates.clear(servers, row_words as usize);
        self.free.clear(servers, row_words as usize);
        self.row_servers.reset(servers);
        self.row_pos.reset(servers);
        self.server_slot.reset(servers);
        let mut next_slot = topology.row_start.clone();
        for (pos, &server) in order.iter().enumerate() {
            let c = &topology.servers[server as usize];
            let row = c.row as usize;
            let slot = next_slot[row] as usize;
            next_slot[row] += 1;
            self.row_servers.set(slot, server as usize);
            self.row_pos.set(slot, pos);
            self.server_slot.set(server as usize, slot);
            if planner.free[server as usize] {
                let row_bit = topology.row_word_start[row] as usize * 64 + slot
                    - topology.row_start[row] as usize;
                self.free.fill(pos, row_bit);
                if self.pass[c.cell as usize] {
                    self.candidates.fill(pos, row_bit);
                }
            }
        }
        self.free.recount();
        self.candidates.recount();
    }

    /// [`TapasPlacement::thermal_estimate`] of `server` at the view's load.
    fn peak_temp_c(&self, topology: &PlannerTopology, server: usize) -> f64 {
        let c = &topology.servers[server];
        c.peak_temp_c(self.peaks[c.class as usize].gpu_share_w)
    }

    /// The validator rule for a cell: its row's power and its aisle's airflow stay within
    /// the (safety-scaled) provisioning if the VM peaked there.
    fn passes(&self, cell: Cell, planner: &PlacementPlanner) -> bool {
        let peak = &self.peaks[cell.class as usize];
        let (row, aisle) = (cell.row as usize, cell.aisle as usize);
        let new_row_power = planner.row_power_kw[row] - peak.idle_kw + peak.power_kw;
        let new_aisle_airflow = planner.aisle_airflow_cfm[aisle] - peak.idle_cfm + peak.airflow_cfm;
        new_row_power <= self.row_limit_kw[row] && new_aisle_airflow <= self.aisle_limit_cfm[aisle]
    }

    /// How many positions estimate at most `limit` (°C, not NaN): the SaaS rule's cap on
    /// positions. Counted per row by binary search and cached per limit.
    fn allowed(&mut self, topology: &PlannerTopology, limit: f64) -> usize {
        let bits = order_bits(limit);
        match self.allowed {
            Some((cached, allowed)) if cached == bits => allowed,
            _ => {
                let allowed = (0..topology.row_start.len() - 1)
                    .map(|row| {
                        let slots = topology.row_slots(row);
                        let start = slots.start;
                        self.row_servers.partition_point(slots, |server| {
                            order_bits(self.peak_temp_c(topology, server)) <= bits
                        }) - start
                    })
                    .sum();
                self.allowed = Some((bits, allowed));
                allowed
            }
        }
    }

    /// A server's slot in `row_servers` and its bit in the row bitmaps.
    fn locate(&self, topology: &PlannerTopology, server: usize) -> (usize, usize) {
        let slot = self.server_slot.get(server);
        debug_assert_eq!(self.row_servers.get(slot), server, "stale slot array");
        let row = topology.servers[server].row as usize;
        (
            slot,
            topology.row_word_start[row] as usize * 64 + slot - topology.row_start[row] as usize,
        )
    }

    /// Applies a change of `server`'s free bit, then re-evaluates the verdicts of the cells
    /// in its row and aisle, updating the candidates of every cell whose verdict flips.
    fn update(&mut self, planner: &PlacementPlanner, server: usize, free: bool) {
        let topology = &planner.topology;
        let (slot, row_bit) = self.locate(topology, server);
        let pos = self.row_pos.get(slot);
        let c = topology.servers[server];
        let candidate = self.pass[c.cell as usize];
        if free {
            self.free.insert(pos, row_bit);
            if candidate {
                self.candidates.insert(pos, row_bit);
            }
        } else {
            self.free.remove(pos, row_bit);
            if candidate {
                self.candidates.remove(pos, row_bit);
            }
        }
        let touched = topology.row_cells[c.row as usize]
            .iter()
            .chain(&topology.aisle_cells[c.aisle as usize]);
        for &cell in touched {
            let pass = self.passes(topology.cells[cell as usize], planner);
            if pass != self.pass[cell as usize] {
                self.pass[cell as usize] = pass;
                self.flip_cell(topology, cell, pass);
            }
        }
    }

    /// Adds (`pass`) or removes every free server of `cell` to or from the candidates.
    fn flip_cell(&mut self, topology: &PlannerTopology, cell: u32, pass: bool) {
        let row = topology.cells[cell as usize].row as usize;
        let first_slot = topology.row_start[row] as usize;
        let words = topology.row_words(row);
        for index in words.clone() {
            let mut word = self.free.row_bits[index];
            while word != 0 {
                let bit = index * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let slot = first_slot + bit - words.start * 64;
                if topology.servers[self.row_servers.get(slot)].cell != cell {
                    continue;
                }
                if pass {
                    self.candidates.insert(self.row_pos.get(slot), bit);
                } else {
                    self.candidates.remove(self.row_pos.get(slot), bit);
                }
            }
        }
    }
}

/// The balance-class index for one VM kind: the rows in descending order of the balance
/// preference ([`balance_score`]) such a VM would score joining each, ties by row index.
/// Rows with one balance value form a class, consecutive in the order. A
/// [`ClusterState`] built with its layout keeps one per kind and moves a row whenever its
/// IaaS/SaaS mix changes, so [`TapasPlacement::place_with`] can visit the rows best
/// balance first and stop at the first class that can no longer win.
#[derive(Debug, Clone)]
pub(crate) struct BalanceOrder {
    is_saas: bool,
    /// [`balance_score`] of each row's mix for a VM of this kind.
    balance: Vec<f64>,
    /// The rows by `(balance descending, row ascending)`.
    rows: Vec<u32>,
}

impl BalanceOrder {
    /// The order of rows with the given `(iaas, saas)` mixes.
    pub(crate) fn new(mixes: Vec<(usize, usize)>, is_saas: bool) -> Self {
        let balance: Vec<f64> = mixes
            .into_iter()
            .map(|mix| balance_score(mix, is_saas))
            .collect();
        let mut rows: Vec<u32> = (0..balance.len() as u32).collect();
        rows.sort_unstable_by_key(|&row| Self::key(&balance, row));
        Self {
            is_saas,
            balance,
            rows,
        }
    }

    /// A row's sort key: descending balance, then ascending row.
    fn key(balance: &[f64], row: u32) -> (u64, u32) {
        (!order_bits(balance[row as usize]), row)
    }

    /// Moves `row` to its place for its new `(iaas, saas)` mix: two binary searches and a
    /// rotation of the rows between its old and new place.
    pub(crate) fn update(&mut self, row: usize, mix: (usize, usize)) {
        let Self {
            is_saas,
            balance,
            rows,
        } = self;
        let old = Self::key(balance, row as u32);
        let from = rows.partition_point(|&other| Self::key(balance, other) < old);
        debug_assert_eq!(rows[from] as usize, row);
        balance[row] = balance_score(mix, *is_saas);
        let new = Self::key(balance, row as u32);
        // Both searches below skip the row itself, so they read only unchanged keys.
        let key = |&other: &u32| Self::key(balance, other);
        if new > old {
            let to = from + 1 + rows[from + 1..].partition_point(|other| key(other) < new);
            rows[from..to].rotate_left(1);
        } else if new < old {
            let to = rows[..from].partition_point(|other| key(other) < new);
            rows[to..=from].rotate_right(1);
        }
    }

    /// The rows, best balance first.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The balance preference a VM of this kind scores in `row`.
    pub(crate) fn balance(&self, row: usize) -> f64 {
        self.balance[row]
    }
}

/// Incrementally maintained placement aggregates and the placement index over them.
///
/// The TAPAS validator compares each candidate row's/aisle's *predicted peak* power and
/// airflow against its provisioning. The planner carries those aggregates as dense vectors
/// updated in O(1) on every place/retire event the caller reports, and gathers every
/// per-server constant of the estimates (row, aisle, hardware class, the temperature model
/// at the design inlet) from the [`ProfileStore`] it is built with, which must be the store
/// the caller later passes to [`TapasPlacement::place_with`].
///
/// On top of them it keeps the placement index: a cache of per-load views (see
/// [`TapasPlacement::place_with`]), keyed on the effective peak load and the policy's two
/// safety fractions. A view is built by the first decision that needs it (O(S log S)), not
/// here. [`PlacementPlanner::on_place`] and [`PlacementPlanner::on_remove`] keep every
/// cached view current: they read the server's slot from each view's slot array, flip
/// its free bit there (O(log S) for the prefix counts), re-evaluate the verdicts
/// of the cells in the server's row and aisle, and move the free servers of a cell whose
/// verdict flips in or out of the candidates. The cache holds 16 views, a fixed capacity;
/// the least recently used one is evicted, and rebuilt exactly if it is needed again.
#[derive(Debug, Clone)]
pub struct PlacementPlanner {
    design: DesignConditions,
    /// Predicted peak power per row (kW), counting idle power for empty servers.
    row_power_kw: Vec<f64>,
    /// Predicted peak airflow per aisle (CFM), counting idle airflow for empty servers.
    aisle_airflow_cfm: Vec<f64>,
    topology: PlannerTopology,
    /// Whether each server is free, in step with the caller's [`ClusterState`].
    free: Vec<bool>,
    views: Vec<LoadView>,
    /// Use counter stamping the views for least-recently-used eviction.
    clock: u64,
}

impl PlacementPlanner {
    /// Builds the planner from the current cluster state. No view is built here: each is
    /// built by the first [`TapasPlacement::place_with`] call that needs it.
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
                    (
                        profile.predicted_power(load).value(),
                        profile.predicted_airflow(load).value(),
                    )
                }
                None => (
                    profile.spec.idle_power.value(),
                    profile.spec.idle_airflow.value(),
                ),
            };
            row_power_kw[server.row.index()] += power;
            aisle_airflow_cfm[server.aisle.index()] += airflow;
        }
        assert!(
            u32::try_from(profiles.servers.len()).is_ok(),
            "server ids fit in u32"
        );
        let mut classes: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut class_servers = Vec::new();
        let mut last_class: Option<(u32, ServerId)> = None;
        let mut cells = Vec::new();
        let mut row_cells = vec![Vec::new(); layout.rows().len()];
        let mut aisle_cells = vec![Vec::new(); layout.aisles().len()];
        let mut row_sizes = vec![0u32; layout.rows().len()];
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
                    _ => *classes
                        .entry(class_signature(profile).collect())
                        .or_insert_with(|| {
                            class_servers.push(profile.server);
                            (class_servers.len() - 1) as u32
                        }),
                };
                last_class = Some((class, class_servers[class as usize]));
                let (row, aisle) = (profile.row.index() as u32, profile.aisle.index() as u32);
                row_sizes[row as usize] += 1;
                let same_cell = |&&id: &&u32| {
                    let cell: &Cell = &cells[id as usize];
                    (cell.aisle, cell.class) == (aisle, class)
                };
                let cell = match row_cells[row as usize].iter().find(same_cell) {
                    Some(&id) => id,
                    None => {
                        let id = cells.len() as u32;
                        cells.push(Cell { row, aisle, class });
                        row_cells[row as usize].push(id);
                        aisle_cells[aisle as usize].push(id);
                        id
                    }
                };
                let design_inlet = profile
                    .predicted_inlet(design.design_outside_temp, design.design_dc_load)
                    .value();
                ServerConstants {
                    row,
                    aisle,
                    class,
                    cell,
                    temp: profile.worst_gpu_temp,
                    temp_inlet_term: profile.worst_gpu_temp.inlet_term(design_inlet),
                }
            })
            .collect();
        let prefix = |sizes: &mut dyn Iterator<Item = u32>| {
            std::iter::once(0)
                .chain(sizes.scan(0, |total, size| {
                    *total += size;
                    Some(*total)
                }))
                .collect::<Vec<u32>>()
        };
        let row_start = prefix(&mut row_sizes.iter().copied());
        let row_word_start = prefix(&mut row_sizes.iter().map(|&size| size.div_ceil(64)));
        Self {
            design,
            row_power_kw,
            aisle_airflow_cfm,
            topology: PlannerTopology {
                servers,
                class_servers,
                cells,
                row_cells,
                aisle_cells,
                row_start,
                row_word_start,
            },
            free: (0..profiles.servers.len())
                .map(|s| state.is_free(ServerId::new(s)))
                .collect(),
            views: Vec::new(),
            clock: 0,
        }
    }

    /// The design conditions the planner assumes.
    #[must_use]
    pub fn design(&self) -> DesignConditions {
        self.design
    }

    /// Records that a VM with `predicted_peak_load` was placed on `server`.
    pub fn on_place(
        &mut self,
        server: ServerId,
        predicted_peak_load: f64,
        profiles: &ProfileStore,
    ) {
        let profile = profiles.server(server);
        let load = effective_peak_load(predicted_peak_load);
        self.row_power_kw[profile.row.index()] +=
            profile.predicted_power(load).value() - profile.spec.idle_power.value();
        self.aisle_airflow_cfm[profile.aisle.index()] +=
            profile.predicted_airflow(load).value() - profile.spec.idle_airflow.value();
        self.set_free(server, false);
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
        self.set_free(server, true);
    }

    /// Flips a server's free bit and brings every cached view up to date with it and with
    /// the aggregates.
    fn set_free(&mut self, server: ServerId, free: bool) {
        let index = server.index();
        debug_assert_ne!(self.free[index], free, "server {server} reported twice");
        self.free[index] = free;
        let mut views = std::mem::take(&mut self.views);
        for view in &mut views {
            view.update(self, index, free);
        }
        self.views = views;
    }

    /// Predicted peak power of a row (kW).
    #[must_use]
    pub fn row_power_kw(&self, row: RowId) -> f64 {
        self.row_power_kw[row.index()]
    }

    /// Predicted peak airflow of an aisle (CFM).
    #[must_use]
    pub fn aisle_airflow_cfm(&self, aisle: AisleId) -> f64 {
        self.aisle_airflow_cfm[aisle.index()]
    }

    /// The index of the view for an effective load and a policy's safety fractions,
    /// built (into a new slot, or over the least recently used view) on a miss.
    fn view_index(
        &mut self,
        load: f64,
        config: &TapasPlacementConfig,
        profiles: &ProfileStore,
    ) -> usize {
        let key = [
            load.to_bits(),
            config.power_safety_fraction.to_bits(),
            config.airflow_safety_fraction.to_bits(),
        ];
        self.clock += 1;
        let index = match self.views.iter().position(|view| view.key == key) {
            Some(index) => index,
            None => {
                let index = if self.views.len() < VIEW_CACHE_CAPACITY {
                    self.views.push(LoadView::default());
                    self.views.len() - 1
                } else {
                    (0..self.views.len())
                        .min_by_key(|&index| self.views[index].last_use)
                        .expect("the cache is full")
                };
                let mut view = std::mem::take(&mut self.views[index]);
                view.rebuild(key, self, profiles);
                self.views[index] = view;
                index
            }
        };
        self.views[index].last_use = self.clock;
        index
    }

    /// Checks the planner against `state` and every cached view against a from-scratch
    /// rebuild at the planner's current aggregates: the free set, and per view the order,
    /// the row lists, every cell's verdict and the candidate and free sets, exactly.
    /// Costs one view build per cached view; meant for tests and audits.
    ///
    /// # Errors
    /// Describes the first mismatch.
    pub fn audit_views(&self, state: &ClusterState, profiles: &ProfileStore) -> Result<(), String> {
        if let Some(server) =
            (0..self.free.len()).find(|&s| self.free[s] != state.is_free(ServerId::new(s)))
        {
            return Err(format!(
                "the planner's free bit of server {server} disagrees with the state"
            ));
        }
        for view in &self.views {
            let mut fresh = LoadView::default();
            fresh.rebuild(view.key, self, profiles);
            let load = f64::from_bits(view.key[0]);
            let checks = [
                ("row order", view.row_servers == fresh.row_servers),
                ("positions", view.row_pos == fresh.row_pos),
                ("slot array", view.server_slot == fresh.server_slot),
                ("cell verdicts", view.pass == fresh.pass),
                (
                    "candidate count",
                    view.candidates.len == fresh.candidates.len,
                ),
                ("candidate set", view.candidates == fresh.candidates),
                ("free set", view.free == fresh.free),
            ];
            if let Some((what, _)) = checks.iter().find(|(_, same)| !same) {
                return Err(format!("the view at load {load} has a stale {what}"));
            }
        }
        Ok(())
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
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
        let inlet = profile.predicted_inlet(
            self.config.design.design_outside_temp,
            self.config.design.design_dc_load,
        );
        let gpu_share = gpu_share_w(profile, peak_load);
        profile.predicted_worst_gpu_temp(inlet, simkit::units::Watts::new(gpu_share))
    }
}

impl TapasPlacement {
    /// Chooses a server through the planner's index: the allocation-free hot path, and
    /// TAPAS placement's one entry point. The caller keeps `planner` in step with `state`
    /// through [`PlacementPlanner::on_place`] and [`PlacementPlanner::on_remove`].
    ///
    /// The order of servers by estimated peak temperature depends only on static
    /// per-server constants and the VM's effective peak load, so the planner keeps one
    /// view per load and pair of safety fractions (see [`PlacementPlanner`]): every server's
    /// position in that order, each row's servers in position order, one validator verdict
    /// per (row, aisle, hardware class) cell, and the candidates (free servers of passing
    /// cells) as a bitmap over positions with prefix counts plus one bitmap per row. A
    /// decision then takes:
    ///
    /// * the two tercile cuts as the positions of the candidates of rank ⌈n/3⌉ and
    ///   ⌈2n/3⌉, by k-th selection over the prefix counts (O(log S));
    /// * per row, its first candidate in each tercile. A row scores
    ///   `thermal(tercile) + balance(row)` for every candidate it has in a tercile, so the
    ///   first one (the smallest key) stands for the rest. A row's first candidate is one
    ///   bit scan; a later tercile's is searched for (O(log row size)) only if its score
    ///   could win, which for the default weights means SaaS VMs only;
    /// * the rows in the order of the state's balance-class index for the VM's kind, best
    ///   balance first, stopping at the first row whose best possible score
    ///   (`max thermal + balance`) is below the best found: every later row's is too. The
    ///   choice (highest score, then smallest position) does not depend on the visit
    ///   order, the stop is strict so no tie is lost, and the coolest-candidate fallback
    ///   is read only when no row scored, when nothing stopped the scan. A state built
    ///   without its layout has no index, and each call sorts the rows' scanned mixes;
    /// * the SaaS rule against predicted violations as a cap on positions (how many
    ///   positions estimate at most the limit, counted once per view and limit); the
    ///   validator-rejects-all fallback as the same query over the free servers; the
    ///   coolest-candidate fallback as the smallest first position over the rows.
    ///
    /// That is O(log S + rows visited) per call, plus a view build (O(S log S)) the first
    /// time a load is seen.
    ///
    /// The result is pinned to [`TapasPlacement::place_with_reference`]: the same server on
    /// every call. The contract that makes this exact is the candidate order, temperature
    /// ascending with ties broken by ascending server id (a stable sort over candidates in
    /// id order). Tercile ranks, the tie-break between equal scores (the first candidate in
    /// that order wins) and the SaaS fallback (the first candidate overall) all follow it.
    /// Every estimate repeats the reference's floating-point operations in the same order,
    /// so validator verdicts, temperatures and scores are bit-equal (for scores that are
    /// not NaN; a NaN score has no maximum to agree on).
    ///
    /// # Panics
    /// Panics if a server's estimated peak temperature at the load is not finite (a
    /// profile holding a non-finite value).
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
        let view = planner.view_index(peak_load, &self.config, profiles);
        let PlacementPlanner {
            topology, views, ..
        } = planner;
        let view = &mut views[view];
        debug_assert_eq!(
            view.free.len,
            state.free_count(),
            "planner out of step with state"
        );
        let positions = topology.servers.len();
        // SaaS VMs must never be placed somewhere that already predicts a violation: only
        // positions below `allowed` estimate at most the limit.
        let is_saas = matches!(request.vm.kind, VmKind::Saas { .. });
        let limit = profiles.thermal_headroom_target.value();
        let allowed = if is_saas && !limit.is_nan() {
            view.allowed(topology, limit)
        } else {
            positions
        };
        let view = &*view;
        // When the validator rejects every server, fall back to every free server rather
        // than rejecting outright.
        let set = if view.candidates.len > 0 {
            &view.candidates
        } else {
            &view.free
        };

        // Thermal terciles by rank, as position bounds: tercile t holds the members with
        // positions in bounds[t]..bounds[t + 1], exactly the ranks of a full sort.
        let n = set.len;
        let bounds = if n <= 1 {
            [0, 0, positions, positions]
        } else {
            let warm_start = (2 * n).div_ceil(3);
            let warm = if warm_start < n {
                set.select(warm_start)
            } else {
                positions
            };
            [0, set.select(n.div_ceil(3)), warm, positions]
        };

        let thermal =
            [0, 1, 2].map(|tercile| self.config.thermal_weight * thermal_score(tercile, is_saas));
        let thermal_max = thermal.into_iter().fold(f64::NEG_INFINITY, f64::max);

        // Preference 2 per row: improve the IaaS/SaaS balance of the row. The rows come
        // best balance first, so once a row's best possible score is below the best found,
        // so is every later row's. (With a negative weight the bound only grows along the
        // order and the scan never stops early.)
        let scanned;
        let order = match state.balance_order(is_saas) {
            Some(order) => order,
            None => {
                let mixes = (0..layout.rows().len())
                    .map(|row| state.row_mix(layout, RowId::new(row)))
                    .collect();
                scanned = BalanceOrder::new(mixes, is_saas);
                &scanned
            }
        };

        // The best (score, position, slot): the highest score, the smallest position on
        // ties.
        let mut best: Option<(f64, usize, usize)> = None;
        // The (position, slot) of the coolest member.
        let mut coolest: Option<(usize, usize)> = None;
        for &row in order.rows() {
            let row = row as usize;
            let balance = self.config.balance_weight * order.balance(row);
            if best.is_some_and(|(score, ..)| thermal_max + balance < score) {
                break;
            }
            let words = &set.row_bits[topology.row_words(row)];
            let slots = topology.row_slots(row);
            let Some(first) = first_set_from(words, 0) else {
                continue;
            };
            let slot = slots.start + first;
            let pos = view.row_pos.get(slot);
            if coolest.is_none_or(|(coolest, _)| pos < coolest) {
                coolest = Some((pos, slot));
            }
            if pos >= allowed {
                continue;
            }
            // The row's first member stands for its tercile; a later tercile's first
            // member has a larger position, so it matters only with a higher score.
            let tercile = bounds[1..3]
                .iter()
                .take_while(|&&bound| bound <= pos)
                .count();
            let mut row_best = (thermal[tercile] + balance, pos, slot);
            for later in tercile + 1..3 {
                let score = thermal[later] + balance;
                if score <= row_best.0 {
                    continue;
                }
                let from = view
                    .row_pos
                    .partition_point(slots.clone(), |p| p < bounds[later]);
                if let Some(rank) = first_set_from(words, from - slots.start) {
                    let pos = view.row_pos.get(slots.start + rank);
                    if pos < bounds[later + 1] && pos < allowed {
                        row_best = (score, pos, slots.start + rank);
                    }
                }
            }
            match best {
                Some((score, pos, _))
                    if score > row_best.0 || (score == row_best.0 && pos < row_best.1) => {}
                _ => best = Some(row_best),
            }
        }
        // Every candidate predicted a thermal violation for a SaaS VM: pick the coolest
        // (the scan stopped at no row, as nothing had scored).
        let slot = best
            .map(|(_, _, slot)| slot)
            .or(coolest.map(|(_, slot)| slot));
        Some(ServerId::new(
            view.row_servers
                .get(slot.expect("a free server is a member")),
        ))
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
            let row_budget =
                profiles.row_budget(profile.row).value() * self.config.power_safety_fraction;
            let aisle_budget =
                profiles.aisle_budget(profile.aisle).value() * self.config.airflow_safety_fraction;
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
    let (new_iaas, new_saas) = if is_saas {
        (iaas, saas + 1)
    } else {
        (iaas + 1, saas)
    };
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

    fn request(id: u64, saas: bool, load: f64) -> PlacementRequest {
        PlacementRequest {
            vm: vm(id, saas),
            predicted_peak_load: load,
        }
    }

    #[test]
    fn dense_constants_reproduce_the_profile_estimates_bitwise() {
        let (layout, profiles) = setup();
        let state = ClusterState::new(layout.server_count());
        let policy = TapasPlacement::default();
        let planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        let topology = &planner.topology;
        assert_eq!(
            topology.class_servers.len(),
            1,
            "one SKU is one hardware class"
        );
        for server in layout.servers() {
            let c = &topology.servers[server.id.index()];
            let class = profiles.server(topology.class_servers[c.class as usize]);
            let profile = profiles.server(server.id);
            for step in 0..=20 {
                let load = f64::from(step) / 20.0;
                let peak = ClassPeak::at(class, load);
                assert_eq!(
                    peak.idle_kw.to_bits(),
                    profile.spec.idle_power.value().to_bits()
                );
                assert_eq!(
                    peak.power_kw.to_bits(),
                    profile.predicted_power(load).value().to_bits()
                );
                assert_eq!(
                    peak.idle_cfm.to_bits(),
                    profile.spec.idle_airflow.value().to_bits()
                );
                assert_eq!(
                    peak.airflow_cfm.to_bits(),
                    profile.predicted_airflow(load).value().to_bits()
                );
                assert_eq!(
                    c.peak_temp_c(peak.gpu_share_w).to_bits(),
                    policy
                        .thermal_estimate(&profiles, server.id, load)
                        .value()
                        .to_bits()
                );
            }
        }
    }

    #[test]
    fn order_keys_sort_like_a_stable_temperature_sort() {
        let temps = [
            3.5,
            -0.0,
            0.0,
            -2.0,
            f64::INFINITY,
            3.5,
            -1e-300,
            f64::NEG_INFINITY,
            1e-300,
        ];
        let mut by_key: Vec<usize> = (0..temps.len()).collect();
        by_key.sort_by_key(|&i| (order_bits(temps[i]), i));
        let mut stable: Vec<usize> = (0..temps.len()).collect();
        stable.sort_by(|&a, &b| temps[a].partial_cmp(&temps[b]).unwrap());
        assert_eq!(by_key, stable);
    }

    #[test]
    fn rank_set_selects_like_a_sorted_list() {
        // 300 positions in 5 words; rows of 130 (three row words) and 170 (three).
        let row_words = [0usize, 3, 6];
        let row_of = |pos: usize| usize::from(pos >= 130);
        let row_bit = |pos: usize| {
            let row = row_of(pos);
            row_words[row] * 64 + pos - [0, 130][row]
        };
        let mut set = RankSet::default();
        set.clear(300, row_words[2]);
        let mut members = std::collections::BTreeSet::new();
        let mut rng = simkit::rng::SimRng::seed_from(5);
        for step in 0..2000 {
            let pos = rng.uniform_usize(0, 300);
            if members.insert(pos) {
                set.insert(pos, row_bit(pos));
            } else {
                members.remove(&pos);
                set.remove(pos, row_bit(pos));
            }
            if step % 400 == 0 {
                // A bulk fill agrees with the incremental updates.
                let mut bulk = RankSet::default();
                bulk.clear(300, row_words[2]);
                for &pos in &members {
                    bulk.fill(pos, row_bit(pos));
                }
                bulk.recount();
                assert_eq!(bulk, set);
            }
            assert_eq!(set.len, members.len());
            for (rank, &pos) in members.iter().enumerate() {
                assert_eq!(set.select(rank), pos, "rank {rank} after step {step}");
            }
            for from in [0, 63, 64, 129] {
                let expected = members.range(from..130).next().copied();
                let words = &set.row_bits[row_words[0]..row_words[1]];
                assert_eq!(first_set_from(words, from), expected);
            }
        }
    }

    #[test]
    fn balance_order_moves_rows_like_a_fresh_sort() {
        let mut rng = simkit::rng::SimRng::seed_from(0xBA1);
        for is_saas in [false, true] {
            let mut mixes = vec![(0, 0); 37];
            let mut order = BalanceOrder::new(mixes.clone(), is_saas);
            for step in 0..3000 {
                let row = rng.uniform_usize(0, mixes.len());
                let (iaas, saas) = &mut mixes[row];
                let count = if rng.chance(0.5) { iaas } else { saas };
                // Mostly joins, so rows fill and pass through many balance classes.
                if *count > 0 && rng.chance(0.4) {
                    *count -= 1;
                } else {
                    *count += 1;
                }
                order.update(row, mixes[row]);
                let fresh = BalanceOrder::new(mixes.clone(), is_saas);
                assert_eq!(order.rows(), fresh.rows(), "step {step}");
                let bits = |order: &BalanceOrder| {
                    (0..mixes.len())
                        .map(|row| order.balance(row).to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&order), bits(&fresh), "step {step}");
            }
        }
    }

    #[test]
    fn slots_narrow_up_to_65536_servers_and_widen_beyond() {
        let mut slots = Slots::default();
        for len in [10, 1 << 16, (1 << 16) + 1, 10] {
            slots.reset(len);
            assert_eq!(matches!(slots, Slots::Narrow(_)), len <= 1 << 16, "{len}");
            slots.set(len - 1, len - 1);
            slots.set(0, 1);
            assert_eq!((slots.get(0), slots.get(len - 1)), (1, len - 1));
            assert_eq!(slots.partition_point(0..len, |v| v < len - 1), len - 1);
            assert_eq!(slots.partition_point(0..1, |v| v < 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite estimated peak temperature")]
    fn a_non_finite_profile_is_named_when_its_view_is_built() {
        let (layout, mut profiles) = setup();
        profiles.servers[7].worst_gpu_temp.intercept = f64::NAN;
        let state = ClusterState::new(layout.server_count());
        let mut planner = planner_for(&state, &layout, &profiles);
        let _ = TapasPlacement::default().place_with(
            &request(1, false, 0.5),
            &state,
            &layout,
            &profiles,
            &mut planner,
        );
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
            state
                .place(vm(100 + i as u64, false), server, 1.0, None)
                .unwrap();
        }
        let mut planner = PlacementPlanner::new(&state, &layout, &profiles, policy.config.design);
        for saas in [false, true] {
            let nan = request(1, saas, f64::NAN);
            let chosen = policy.place_with(&nan, &state, &layout, &profiles, &mut planner);
            let full = request(1, saas, 1.0);
            assert_eq!(
                chosen,
                policy.place_with(&full, &state, &layout, &profiles, &mut planner)
            );
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
        assert!(
            (added - full_kw).abs() < 1e-9,
            "a NaN peak should book full power, added {added}"
        );
    }

    /// A planner in step with `state`, as the simulator keeps one.
    fn planner_for(
        state: &ClusterState,
        layout: &Layout,
        profiles: &ProfileStore,
    ) -> PlacementPlanner {
        PlacementPlanner::new(
            state,
            layout,
            profiles,
            TapasPlacement::default().config.design,
        )
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
            policy
                .place_with(&req, &state, &layout, &profiles, &mut planner)
                .unwrap()
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
            state
                .place(vm(100 + i as u64, false), server, 1.0, None)
                .unwrap();
        }
        // The next peak-load VM must not land in row 0 (its predicted peak would exceed the
        // 85 %-provisioned budget), even though row 0 still has free servers.
        let mut planner = planner_for(&state, &layout, &profiles);
        let chosen = policy
            .place_with(
                &request(1, false, 1.0),
                &state,
                &layout,
                &profiles,
                &mut planner,
            )
            .unwrap();
        let chosen_row = layout.server(chosen).row;
        assert_eq!(
            chosen_row.index(),
            1,
            "validator should steer the VM to the other row"
        );
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
            let server = policy
                .place_with(&req, &state, &layout, &profiles, &mut planner)
                .unwrap();
            state.place(vm(i, saas), server, 0.7, None).unwrap();
            planner.on_place(server, 0.7, &profiles);
        }
        for row in layout.rows() {
            let (iaas, saas) = state.row_mix(&layout, row.id);
            let total = iaas + saas;
            if total >= 8 {
                let imbalance = (iaas as f64 - saas as f64).abs() / total as f64;
                assert!(
                    imbalance < 0.6,
                    "row {} too one-sided: {iaas} IaaS vs {saas} SaaS",
                    row.id
                );
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
            .place_with(
                &request(999, false, 0.5),
                &state,
                &layout,
                &profiles,
                &mut planner
            )
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
