//! Cluster occupancy bookkeeping.
//!
//! Every GPU VM in the studied fleet occupies a whole 8-GPU server, so the cluster state is a
//! partial assignment of VMs to servers plus, for SaaS VMs, their current instance
//! configuration. Both the allocator and the router read this state; the cluster simulator
//! mutates it as VMs arrive, retire and get reconfigured.
//!
//! # Data layout
//!
//! The state is index-based rather than map-based so the scheduling hot path never walks a
//! tree: a dense server arena (`Vec<Option<PlacedVm>>` indexed by [`ServerId::index`]), a
//! dense `VmId → server` slot index ([`VmSlotMap`]), a free-server bitmap for O(words)
//! first-fit queries, a departure-ordered index that retirement pops instead of scanning
//! every server, and — when built [`ClusterState::with_layout`] — cached per-row IaaS/SaaS
//! counts with the rows ordered by balance class for each VM kind, both maintained
//! incrementally on every place/remove. Which SaaS instances serve an endpoint is not kept
//! here: the cluster simulator's instance registry holds that one membership.

use crate::placement::BalanceOrder;
use dc_sim::ids::{RowId, ServerId};
use dc_sim::topology::Layout;
use llm_sim::config::InstanceConfig;
use serde::{Deserialize, Serialize};
use simkit::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use workload::vm::{Vm, VmId, VmKind};

/// A VM placed on a server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedVm {
    /// The VM.
    pub vm: Vm,
    /// The server hosting it.
    pub server: ServerId,
    /// The allocator's prediction of this VM's peak mean-GPU load in `[0, 1]`.
    pub predicted_peak_load: f64,
    /// The instance configuration the VM was placed with (SaaS only). Reconfiguration
    /// does not update it: the simulator's instance registry holds the current config.
    pub config: Option<InstanceConfig>,
}

/// Errors returned by cluster-state mutations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StateError {
    /// The target server already hosts a VM.
    ServerOccupied(ServerId),
    /// The VM is already placed somewhere.
    AlreadyPlaced(VmId),
    /// The VM is not currently placed.
    NotPlaced(VmId),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::ServerOccupied(s) => write!(f, "server {s} is already occupied"),
            StateError::AlreadyPlaced(vm) => write!(f, "{vm} is already placed"),
            StateError::NotPlaced(vm) => write!(f, "{vm} is not placed"),
        }
    }
}

impl std::error::Error for StateError {}

const NO_SLOT: u32 = u32::MAX;

/// A dense map from [`VmId`] to a `u32` slot, grown on demand.
///
/// VM ids are assigned sequentially by the arrival generators, so a flat vector indexed by
/// the id is both smaller and much faster than a `BTreeMap` on the placement/routing hot
/// path. Absent entries hold a sentinel.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VmSlotMap {
    slots: Vec<u32>,
    len: usize,
}

impl VmSlotMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped VMs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no VM is mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot of a VM, if mapped.
    #[must_use]
    pub fn get(&self, vm: VmId) -> Option<u32> {
        match self.slots.get(vm.0 as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// Returns `true` if the VM is mapped.
    #[must_use]
    pub fn contains(&self, vm: VmId) -> bool {
        self.get(vm).is_some()
    }

    /// Maps a VM to a slot, replacing any previous mapping.
    pub fn insert(&mut self, vm: VmId, slot: u32) {
        let index = vm.0 as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, NO_SLOT);
        }
        if self.slots[index] == NO_SLOT {
            self.len += 1;
        }
        self.slots[index] = slot;
    }

    /// Removes a VM's mapping, returning its former slot.
    pub fn remove(&mut self, vm: VmId) -> Option<u32> {
        let entry = self.slots.get_mut(vm.0 as usize)?;
        if *entry == NO_SLOT {
            return None;
        }
        let slot = *entry;
        *entry = NO_SLOT;
        self.len -= 1;
        Some(slot)
    }
}

/// A fixed-capacity bitmap over server indices with fast first-set and ordered iteration.
#[derive(Debug, Clone)]
struct FreeSet {
    words: Vec<u64>,
    count: usize,
}

impl FreeSet {
    fn all_free(capacity: usize) -> Self {
        let word_count = capacity.div_ceil(64);
        let mut words = vec![u64::MAX; word_count];
        if !capacity.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (capacity % 64)) - 1;
            }
        }
        Self {
            words,
            count: capacity,
        }
    }

    fn set(&mut self, index: usize) {
        let mask = 1u64 << (index % 64);
        let word = &mut self.words[index / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
        }
    }

    fn clear(&mut self, index: usize) {
        let mask = 1u64 << (index % 64);
        let word = &mut self.words[index / 64];
        if *word & mask != 0 {
            *word &= !mask;
            self.count -= 1;
        }
    }

    fn first(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

/// Cached topology indices enabling O(1) row-mix queries.
#[derive(Debug, Clone)]
struct TopologyCache {
    /// Row index per server.
    row_of: Vec<u32>,
    /// `(iaas, saas)` VM counts per row, maintained incrementally.
    row_mix: Vec<(u32, u32)>,
    /// The rows by the balance preference an IaaS (`[0]`) and a SaaS (`[1]`) VM would
    /// score joining them, kept in step with `row_mix`.
    balance: [BalanceOrder; 2],
}

/// The assignment of VMs to servers.
#[derive(Debug, Clone)]
pub struct ClusterState {
    occupancy: Vec<Option<PlacedVm>>,
    by_vm: VmSlotMap,
    free: FreeSet,
    /// `(departure, server)` of every placed VM, earliest first. [`Self::remove`] leaves
    /// its VM's entry behind; [`Self::retire_expired`] drops it when it comes due.
    departures: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Scratch: the servers whose VMs retire in one [`Self::retire_expired`] call.
    due: Vec<u32>,
    topology: Option<TopologyCache>,
}

impl ClusterState {
    /// Creates an empty state for a cluster of `server_count` servers.
    #[must_use]
    pub fn new(server_count: usize) -> Self {
        Self {
            occupancy: vec![None; server_count],
            by_vm: VmSlotMap::new(),
            free: FreeSet::all_free(server_count),
            departures: BinaryHeap::with_capacity(server_count),
            due: Vec::new(),
            topology: None,
        }
    }

    /// Creates an empty state with cached topology indices, enabling O(1) [`Self::row_mix`]
    /// queries and the balance-class row order on the placement hot path.
    #[must_use]
    pub fn with_layout(layout: &Layout) -> Self {
        let mut state = Self::new(layout.server_count());
        let rows = layout.rows().len();
        state.topology = Some(TopologyCache {
            row_of: layout
                .servers()
                .iter()
                .map(|s| s.row.index() as u32)
                .collect(),
            row_mix: vec![(0, 0); rows],
            balance: [false, true].map(|is_saas| BalanceOrder::new(vec![(0, 0); rows], is_saas)),
        });
        state
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.occupancy.len()
    }

    /// Number of placed VMs.
    #[must_use]
    pub fn placed_count(&self) -> usize {
        self.by_vm.len()
    }

    /// Returns `true` if the server hosts no VM.
    #[must_use]
    pub fn is_free(&self, server: ServerId) -> bool {
        self.occupancy[server.index()].is_none()
    }

    /// The VM on a server, if any.
    #[must_use]
    pub fn vm_on(&self, server: ServerId) -> Option<&PlacedVm> {
        self.occupancy[server.index()].as_ref()
    }

    /// The server hosting a VM, if it is placed.
    #[must_use]
    pub fn server_of(&self, vm: VmId) -> Option<ServerId> {
        self.by_vm.get(vm).map(|slot| ServerId::new(slot as usize))
    }

    /// The lowest-numbered free server, if any.
    #[must_use]
    pub fn first_free(&self) -> Option<ServerId> {
        self.free.first().map(ServerId::new)
    }

    /// Number of free servers.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free.count
    }

    /// Iterates over free servers in id order without allocating.
    pub fn free_iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.free.iter().map(ServerId::new)
    }

    /// All free servers.
    #[must_use]
    pub fn free_servers(&self) -> Vec<ServerId> {
        self.free_iter().collect()
    }

    /// Iterates over all placed VMs.
    pub fn placed(&self) -> impl Iterator<Item = &PlacedVm> + '_ {
        self.occupancy.iter().filter_map(|slot| slot.as_ref())
    }

    /// Counts a VM on `server` into (`joined`) or out of its row's cached mix, and moves
    /// the row to its new balance class for each VM kind (nothing without cached
    /// topology).
    fn count_in_row(&mut self, vm: &Vm, server: ServerId, joined: bool) {
        let Some(topology) = self.topology.as_mut() else {
            return;
        };
        let row = topology.row_of[server.index()] as usize;
        let mix = &mut topology.row_mix[row];
        let count = match vm.kind {
            VmKind::Iaas { .. } => &mut mix.0,
            VmKind::Saas { .. } => &mut mix.1,
        };
        if joined {
            *count += 1;
        } else {
            *count -= 1;
        }
        let mix = (mix.0 as usize, mix.1 as usize);
        for order in &mut topology.balance {
            order.update(row, mix);
        }
    }

    /// The rows in descending order of the balance preference a VM of the given kind would
    /// score joining them (`None` without cached topology).
    pub(crate) fn balance_order(&self, is_saas: bool) -> Option<&BalanceOrder> {
        Some(&self.topology.as_ref()?.balance[usize::from(is_saas)])
    }

    /// Places a VM on a server.
    ///
    /// # Errors
    /// Returns an error if the server is occupied or the VM is already placed.
    pub fn place(
        &mut self,
        vm: Vm,
        server: ServerId,
        predicted_peak_load: f64,
        config: Option<InstanceConfig>,
    ) -> Result<(), StateError> {
        if self.by_vm.contains(vm.id) {
            return Err(StateError::AlreadyPlaced(vm.id));
        }
        if self.occupancy[server.index()].is_some() {
            return Err(StateError::ServerOccupied(server));
        }
        self.occupancy[server.index()] = Some(PlacedVm {
            vm,
            server,
            predicted_peak_load,
            config,
        });
        self.by_vm.insert(vm.id, server.index() as u32);
        self.free.clear(server.index());
        self.departures
            .push(Reverse((vm.departure(), server.index() as u32)));
        self.count_in_row(&vm, server, true);
        Ok(())
    }

    /// Removes a VM, freeing its server. Its entry in the departure index stays until it
    /// comes due.
    ///
    /// # Errors
    /// Returns an error if the VM is not placed.
    pub fn remove(&mut self, vm: VmId) -> Result<PlacedVm, StateError> {
        let slot = self.by_vm.remove(vm).ok_or(StateError::NotPlaced(vm))?;
        let placed = self.occupancy[slot as usize]
            .take()
            .expect("occupancy consistent with index");
        self.free.set(slot as usize);
        self.count_in_row(&placed.vm, placed.server, false);
        Ok(placed)
    }

    /// Counts `(iaas, saas)` VMs in a row.
    ///
    /// O(1) when the state was built [`Self::with_layout`]; otherwise scans the row.
    #[must_use]
    pub fn row_mix(&self, layout: &Layout, row: RowId) -> (usize, usize) {
        if let Some(topology) = &self.topology {
            let (iaas, saas) = topology.row_mix[row.index()];
            return (iaas as usize, saas as usize);
        }
        let mut iaas = 0;
        let mut saas = 0;
        for &server in &layout.rows()[row.index()].servers {
            if let Some(placed) = self.vm_on(server) {
                match placed.vm.kind {
                    VmKind::Iaas { .. } => iaas += 1,
                    VmKind::Saas { .. } => saas += 1,
                }
            }
        }
        (iaas, saas)
    }

    /// Retires every VM whose lifetime has expired at `now` (its departure is at or before
    /// `now`), handing each retired VM to `retired` in server order.
    ///
    /// The due VMs are popped from the departure index: O(due × log placed) rather than a
    /// scan of every server. An entry whose server no longer hosts a VM departing by `now`
    /// was left by [`Self::remove`] and is dropped. The due servers are then sorted, so the
    /// sink sees exactly what a scan of the servers in id order would hand it.
    pub fn retire_expired(&mut self, now: SimTime, mut retired: impl FnMut(PlacedVm)) {
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((departure, slot))) = self.departures.peek() {
            if departure > now {
                break;
            }
            self.departures.pop();
            if self.occupancy[slot as usize].is_some_and(|p| p.vm.departure() <= now) {
                due.push(slot);
            }
        }
        // A server is listed twice when a stale entry shares its current VM's departure.
        due.sort_unstable();
        due.dedup();
        for &slot in &due {
            let placed = self.occupancy[slot as usize].take().expect("checked above");
            self.by_vm.remove(placed.vm.id);
            self.free.set(slot as usize);
            self.count_in_row(&placed.vm, placed.server, false);
            retired(placed);
        }
        due.clear();
        self.due = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::topology::LayoutConfig;
    use simkit::time::SimDuration;
    use workload::endpoints::EndpointId;
    use workload::vm::IaasCustomerId;

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
            lifetime: SimDuration::from_days(7),
        }
    }

    #[test]
    fn place_and_remove_round_trip() {
        let mut state = ClusterState::new(4);
        assert_eq!(state.server_count(), 4);
        assert_eq!(state.free_servers().len(), 4);
        state
            .place(
                vm(1, true),
                ServerId::new(2),
                0.8,
                Some(InstanceConfig::default_70b()),
            )
            .unwrap();
        assert_eq!(state.placed_count(), 1);
        assert!(!state.is_free(ServerId::new(2)));
        assert_eq!(state.server_of(VmId(1)), Some(ServerId::new(2)));
        assert_eq!(state.vm_on(ServerId::new(2)).unwrap().vm.id, VmId(1));
        let removed = state.remove(VmId(1)).unwrap();
        assert_eq!(removed.server, ServerId::new(2));
        assert!(state.is_free(ServerId::new(2)));
        assert_eq!(state.placed_count(), 0);
    }

    #[test]
    fn double_placement_and_missing_removal_error() {
        let mut state = ClusterState::new(2);
        state
            .place(vm(1, false), ServerId::new(0), 1.0, None)
            .unwrap();
        assert_eq!(
            state.place(vm(2, false), ServerId::new(0), 1.0, None),
            Err(StateError::ServerOccupied(ServerId::new(0)))
        );
        assert_eq!(
            state.place(vm(1, false), ServerId::new(1), 1.0, None),
            Err(StateError::AlreadyPlaced(VmId(1)))
        );
        assert_eq!(state.remove(VmId(9)), Err(StateError::NotPlaced(VmId(9))));
        assert!(StateError::NotPlaced(VmId(9))
            .to_string()
            .contains("not placed"));
    }

    #[test]
    fn row_mix_counts_kinds() {
        let layout = LayoutConfig::small_test_cluster().build();
        let mut state = ClusterState::new(layout.server_count());
        // Row 0 contains servers 0..4.
        state
            .place(vm(1, true), ServerId::new(0), 0.5, None)
            .unwrap();
        state
            .place(vm(2, false), ServerId::new(1), 0.5, None)
            .unwrap();
        state
            .place(vm(3, false), ServerId::new(4), 0.5, None)
            .unwrap();
        let (iaas, saas) = state.row_mix(&layout, RowId::new(0));
        assert_eq!((iaas, saas), (1, 1));
        let (iaas1, saas1) = state.row_mix(&layout, RowId::new(1));
        assert_eq!((iaas1, saas1), (1, 0));
    }

    #[test]
    fn cached_row_mix_matches_scan() {
        let layout = LayoutConfig::small_test_cluster().build();
        let mut cached = ClusterState::with_layout(&layout);
        let mut scanned = ClusterState::new(layout.server_count());
        for (i, server) in [0usize, 1, 4, 6].into_iter().enumerate() {
            let v = vm(i as u64, i % 2 == 0);
            cached.place(v, ServerId::new(server), 0.5, None).unwrap();
            scanned.place(v, ServerId::new(server), 0.5, None).unwrap();
        }
        cached.remove(VmId(1)).unwrap();
        scanned.remove(VmId(1)).unwrap();
        for row in layout.rows() {
            assert_eq!(
                cached.row_mix(&layout, row.id),
                scanned.row_mix(&layout, row.id)
            );
        }
    }

    #[test]
    fn free_set_iterates_in_id_order() {
        let mut state = ClusterState::new(130);
        state
            .place(vm(1, false), ServerId::new(0), 0.5, None)
            .unwrap();
        state
            .place(vm(2, false), ServerId::new(64), 0.5, None)
            .unwrap();
        state
            .place(vm(3, false), ServerId::new(129), 0.5, None)
            .unwrap();
        assert_eq!(state.first_free(), Some(ServerId::new(1)));
        assert_eq!(state.free_count(), 127);
        let free = state.free_servers();
        assert_eq!(free.len(), 127);
        assert!(
            free.windows(2).all(|w| w[0] < w[1]),
            "free list must be ordered"
        );
        assert!(!free.contains(&ServerId::new(64)));
        state.remove(VmId(1)).unwrap();
        assert_eq!(state.first_free(), Some(ServerId::new(0)));
    }

    /// The indexed [`ClusterState::retire_expired`] against a full scan of a model of the
    /// servers, step by step under random churn: zero-lifetime VMs, departures exactly on
    /// a step boundary, crowded steps, and VMs taken out early by [`ClusterState::remove`]
    /// (some replaced on their server by a VM with the same departure, so a stale entry
    /// and a live one come due together).
    #[test]
    fn retire_expired_matches_a_full_scan_under_random_churn() {
        const STEP: u64 = 5;
        let mut rng = simkit::rng::SimRng::seed_from(0x5EED);
        let layout = LayoutConfig::real_cluster_two_rows().build();
        let servers = layout.server_count();
        let (mut zero_lifetime, mut on_boundary, mut crowded_steps) = (0, 0, 0);
        let (mut removed_early, mut shared_departures) = (0, 0);
        let mut next_id = 0;
        for case in 0..8 {
            let mut state = if case % 2 == 0 {
                ClusterState::with_layout(&layout)
            } else {
                ClusterState::new(servers)
            };
            let mut model: Vec<Option<PlacedVm>> = vec![None; servers];
            for step in 0..120 {
                let now = SimTime::from_minutes(step * STEP);
                let mut expected = Vec::new();
                for slot in &mut model {
                    if slot.is_some_and(|p| p.vm.departure() <= now) {
                        expected.push(slot.take().expect("checked"));
                    }
                }
                let mut retired = Vec::new();
                state.retire_expired(now, |placed| retired.push(placed));
                assert_eq!(retired, expected, "case {case}, step {step}");
                zero_lifetime += retired
                    .iter()
                    .filter(|p| p.vm.lifetime.as_minutes() == 0)
                    .count();
                on_boundary += retired.iter().filter(|p| p.vm.departure() == now).count();
                crowded_steps += usize::from(retired.len() >= 8);

                for (server, slot) in model.iter_mut().enumerate() {
                    let Some(placed) = *slot else {
                        continue;
                    };
                    if rng.chance(0.02) {
                        assert_eq!(state.remove(placed.vm.id), Ok(placed));
                        *slot = None;
                        removed_early += 1;
                        if rng.chance(0.5) {
                            // Same server, same departure: its stale entry comes due with
                            // the new VM's.
                            let mut vm = vm(next_id, rng.chance(0.5));
                            next_id += 1;
                            vm.arrival = now;
                            vm.lifetime = placed.vm.departure() - now;
                            state.place(vm, ServerId::new(server), 0.5, None).unwrap();
                            *slot = state.vm_on(ServerId::new(server)).copied();
                            shared_departures += 1;
                        }
                    }
                }
                // Arrivals, sometimes a burst that comes due together.
                let burst = rng.chance(0.1);
                for (server, slot) in model.iter_mut().enumerate() {
                    if slot.is_some() || !rng.chance(if burst { 0.6 } else { 0.1 }) {
                        continue;
                    }
                    let mut vm = vm(next_id, rng.chance(0.5));
                    next_id += 1;
                    let late = if burst { 0 } else { rng.uniform_usize(0, 3) };
                    vm.arrival = now + SimDuration::from_minutes(late as u64);
                    let minutes = match rng.uniform_usize(0, 4) {
                        0 => 0,
                        1 if burst => 3 * STEP,
                        1 => STEP * rng.uniform_usize(1, 6) as u64,
                        2 => rng.uniform_usize(1, 60) as u64,
                        _ => rng.uniform_usize(60, 2000) as u64,
                    };
                    vm.lifetime = SimDuration::from_minutes(minutes);
                    state.place(vm, ServerId::new(server), 0.5, None).unwrap();
                    *slot = state.vm_on(ServerId::new(server)).copied();
                }
                assert_eq!(state.placed_count(), model.iter().flatten().count());
                for row in layout.rows() {
                    let mix = row.servers.iter().filter_map(|s| model[s.index()]).fold(
                        (0, 0),
                        |(iaas, saas), p| match p.vm.kind {
                            VmKind::Iaas { .. } => (iaas + 1, saas),
                            VmKind::Saas { .. } => (iaas, saas + 1),
                        },
                    );
                    assert_eq!(
                        state.row_mix(&layout, row.id),
                        mix,
                        "case {case}, step {step}"
                    );
                }
            }
        }
        // Coverage floors at about half of what the seed reaches.
        assert!(
            zero_lifetime >= 500,
            "zero-lifetime retirements: {zero_lifetime}"
        );
        assert!(
            on_boundary >= 350,
            "retirements on a step boundary: {on_boundary}"
        );
        assert!(
            crowded_steps >= 25,
            "steps retiring 8 or more VMs: {crowded_steps}"
        );
        assert!(
            removed_early >= 500,
            "VMs removed before departing: {removed_early}"
        );
        assert!(
            shared_departures >= 200,
            "replacements sharing a departure: {shared_departures}"
        );
    }

    #[test]
    fn retire_expired_removes_only_dead_vms() {
        let mut state = ClusterState::new(3);
        let mut short = vm(1, false);
        short.lifetime = SimDuration::from_hours(1);
        state.place(short, ServerId::new(0), 0.5, None).unwrap();
        state
            .place(vm(2, true), ServerId::new(1), 0.5, None)
            .unwrap();
        let mut retired = Vec::new();
        state.retire_expired(SimTime::from_hours(2), |placed| retired.push(placed));
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].vm.id, VmId(1));
        assert_eq!(state.placed_count(), 1);
        assert!(state.is_free(ServerId::new(0)));
    }
}
