//! The three-level power delivery hierarchy and power capping (Eq. 4).
//!
//! Power flows ATS → UPS → PDU pairs → rows of racks → servers. Each level has a provisioned
//! budget; if the aggregate draw of a level exceeds its budget, the servers below that level
//! are power-capped to bring the draw back within limits (§2.2). Redundancy failures (e.g. a
//! UPS in a 4N/3 group failing) reduce the effective budget of the affected levels, which is
//! how §5.4's "75 % power capacity" emergency is modelled.
//!
//! All per-step shapes are dense and ordinal-indexed ([`OrdinalMap`] per level): the
//! assessment writes into reusable grids instead of rebuilding tree maps, so the steady-state
//! control loop performs no per-step map allocation.

use crate::ids::{PduId, RowId, ServerId, UpsId};
use crate::index::{server_span, OrdinalMap};
use crate::topology::Layout;
use serde::{Deserialize, Serialize};
use simkit::units::Kilowatts;

/// A per-server power cap produced when some level of the hierarchy is over budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CappingDirective {
    /// The capped server.
    pub server: ServerId,
    /// Fraction of its current power the server is allowed to keep (`0 < fraction <= 1`).
    pub power_fraction: f64,
}

/// Utilization of one level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelUtilization {
    /// Aggregate draw of the level.
    pub draw: Kilowatts,
    /// Effective budget (provisioned budget × capacity fraction after failures).
    pub budget: Kilowatts,
    /// `draw / budget`.
    pub utilization: f64,
}

impl LevelUtilization {
    /// A zero-draw, zero-budget placeholder (used to pre-size reusable outcomes).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            draw: Kilowatts::ZERO,
            budget: Kilowatts::ZERO,
            utilization: 0.0,
        }
    }

    fn new(draw: Kilowatts, budget: Kilowatts) -> Self {
        let utilization = if budget.value() > 0.0 {
            draw / budget
        } else {
            f64::INFINITY
        };
        Self {
            draw,
            budget,
            utilization,
        }
    }

    /// Returns `true` if the level draws more than its budget.
    #[must_use]
    pub fn is_over_budget(&self) -> bool {
        self.utilization > 1.0
    }

    /// Remaining headroom (zero when over budget).
    #[must_use]
    pub fn headroom(&self) -> Kilowatts {
        Kilowatts::new((self.budget.value() - self.draw.value()).max(0.0))
    }
}

/// The result of assessing the hierarchy for one step: one dense utilization grid per
/// hierarchy level, each indexed by the level's ordinal ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerAssessment {
    /// Per-row utilization, indexed by [`RowId`].
    pub rows: OrdinalMap<RowId, LevelUtilization>,
    /// Per-PDU utilization, indexed by [`PduId`].
    pub pdus: OrdinalMap<PduId, LevelUtilization>,
    /// Per-UPS utilization, indexed by [`UpsId`].
    pub upses: OrdinalMap<UpsId, LevelUtilization>,
    /// Datacenter-level utilization.
    pub datacenter: LevelUtilization,
    /// Capping directives for servers under over-budget levels (empty when all levels fit).
    pub capping: Vec<CappingDirective>,
}

impl Default for PowerAssessment {
    fn default() -> Self {
        Self::empty()
    }
}

impl PowerAssessment {
    /// An empty assessment (used to pre-size reusable outcomes; [`PowerHierarchy::assess_into`]
    /// resizes the grids to the hierarchy it assesses).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            rows: OrdinalMap::new(),
            pdus: OrdinalMap::new(),
            upses: OrdinalMap::new(),
            datacenter: LevelUtilization::empty(),
            capping: Vec::new(),
        }
    }

    /// Returns `true` if any level is over budget.
    #[must_use]
    pub fn any_over_budget(&self) -> bool {
        !self.capping.is_empty()
    }

    /// The utilization of one row.
    ///
    /// # Panics
    /// Panics if the row ordinal is out of range.
    #[must_use]
    pub fn row(&self, row: RowId) -> &LevelUtilization {
        &self.rows[row]
    }

    /// The peak row draw in kilowatts.
    #[must_use]
    pub fn peak_row_power(&self) -> Kilowatts {
        self.rows
            .values()
            .map(|u| u.draw)
            .fold(Kilowatts::ZERO, Kilowatts::max)
    }

    /// Per-row power draw, in row order (allocation-free compatibility accessor).
    pub fn row_power(&self) -> impl ExactSizeIterator<Item = (RowId, Kilowatts)> + '_ {
        self.rows.iter().map(|(id, util)| (id, util.draw))
    }

    /// The rows that are over budget, in row order.
    pub fn over_budget_rows(&self) -> impl Iterator<Item = RowId> + '_ {
        self.rows
            .iter()
            .filter(|(_, u)| u.is_over_budget())
            .map(|(id, _)| id)
    }

    /// Aggregate unused row budget (over-budget rows contribute zero). This is the
    /// power-slack signal a fleet layer steers arrivals by.
    #[must_use]
    pub fn total_row_headroom(&self) -> Kilowatts {
        self.rows
            .values()
            .map(LevelUtilization::headroom)
            .fold(Kilowatts::ZERO, |a, b| a + b)
    }

    /// The worst utilization across every level of the hierarchy (rows, PDU pairs, UPSes
    /// and the datacenter feed). `> 1.0` means some level is capping.
    #[must_use]
    pub fn worst_level_utilization(&self) -> f64 {
        self.rows
            .values()
            .chain(self.pdus.values())
            .chain(self.upses.values())
            .map(|u| u.utilization)
            .fold(self.datacenter.utilization, f64::max)
    }
}

/// Capacity scaling applied to hierarchy levels, typically due to failures.
///
/// Stored as dense per-ordinal fraction grids; an empty grid (or an out-of-range ordinal)
/// reads as full capacity, so `healthy()` needs no layout knowledge and allocates nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityState {
    /// Fraction of each UPS budget that is available (missing ordinals read as 1.0).
    ups_capacity: OrdinalMap<UpsId, f64>,
    /// Fraction of each row budget that is available (missing ordinals read as 1.0).
    row_capacity: OrdinalMap<RowId, f64>,
    /// Fraction of the datacenter budget that is available.
    pub datacenter_capacity: f64,
}

impl Default for CapacityState {
    fn default() -> Self {
        Self {
            ups_capacity: OrdinalMap::new(),
            row_capacity: OrdinalMap::new(),
            datacenter_capacity: 1.0,
        }
    }
}

impl CapacityState {
    /// Full capacity everywhere.
    #[must_use]
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Resets to full capacity, keeping the grid allocations for reuse across steps.
    pub fn reset(&mut self) {
        self.ups_capacity.fill(1.0);
        self.row_capacity.fill(1.0);
        self.datacenter_capacity = 1.0;
    }

    /// Sets the available fraction of one UPS budget, growing the grid as needed.
    pub fn set_ups_capacity(&mut self, ups: UpsId, fraction: f64) {
        if self.ups_capacity.len() <= ups.index() {
            self.ups_capacity.resize(ups.index() + 1, 1.0);
        }
        self.ups_capacity[ups] = fraction;
    }

    /// Sets the available fraction of one row budget, growing the grid as needed.
    pub fn set_row_capacity(&mut self, row: RowId, fraction: f64) {
        if self.row_capacity.len() <= row.index() {
            self.row_capacity.resize(row.index() + 1, 1.0);
        }
        self.row_capacity[row] = fraction;
    }

    /// The available fraction of a UPS budget (1.0 when never reduced).
    #[must_use]
    pub fn ups(&self, id: UpsId) -> f64 {
        self.ups_capacity.get(id).copied().unwrap_or(1.0)
    }

    /// The available fraction of a row budget (1.0 when never reduced).
    #[must_use]
    pub fn row(&self, id: RowId) -> f64 {
        self.row_capacity.get(id).copied().unwrap_or(1.0)
    }

    /// Clamps every row and UPS budget to `fraction` of provisioned capacity — an
    /// operator power-cap directive rather than a failure. The cap *multiplies* any
    /// failure-derived reductions already present, so a UPS failure under a cap is
    /// strictly worse than either alone. The grids grow to the layout's counts on first
    /// use and are then reused across steps ([`Self::reset`] keeps the allocations), so
    /// the steady-state step loop stays allocation-free.
    pub fn apply_power_cap(&mut self, fraction: f64, ups_count: usize, row_count: usize) {
        if self.ups_capacity.len() < ups_count {
            self.ups_capacity.resize(ups_count, 1.0);
        }
        if self.row_capacity.len() < row_count {
            self.row_capacity.resize(row_count, 1.0);
        }
        for slot in self.ups_capacity.values_mut() {
            *slot *= fraction;
        }
        for slot in self.row_capacity.values_mut() {
            *slot *= fraction;
        }
    }

    /// Returns `true` if every level is at full capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        (self.datacenter_capacity - 1.0).abs() < f64::EPSILON
            && self
                .ups_capacity
                .values()
                .all(|&f| (f - 1.0).abs() < f64::EPSILON)
            && self
                .row_capacity
                .values()
                .all(|&f| (f - 1.0).abs() < f64::EPSILON)
    }
}

/// The power hierarchy of a datacenter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerHierarchy {
    layout_rows: Vec<(RowId, Vec<ServerId>, Kilowatts, PduId)>,
    layout_pdus: Vec<(PduId, Vec<RowId>, Kilowatts, UpsId)>,
    layout_upses: Vec<(UpsId, Vec<PduId>, Kilowatts)>,
    datacenter_budget: Kilowatts,
    /// Per-row `[start, end)` server-index spans: every row's member list is an ascending
    /// contiguous index run (the layout builder's invariant, asserted at construction),
    /// so row draws reduce over dense `server_power` slices — the members in member
    /// order — instead of gathering through the id vectors.
    row_span_start: Vec<u32>,
    row_span_end: Vec<u32>,
}

impl PowerHierarchy {
    /// Builds the hierarchy view from a layout.
    ///
    /// # Panics
    /// Panics if a row is not an ascending contiguous server-index run (the layout
    /// builder always produces contiguous ones), as `TopologyIndex::from_layout` does.
    #[must_use]
    pub fn from_layout(layout: &Layout) -> Self {
        let (row_span_start, row_span_end) = layout
            .rows()
            .iter()
            .map(|r| {
                let span = server_span(&r.servers, "rows");
                let bound = |index: usize| u32::try_from(index).expect("server ids fit in u32");
                (bound(span.start), bound(span.end))
            })
            .unzip();
        let hierarchy = Self {
            layout_rows: layout
                .rows()
                .iter()
                .map(|r| (r.id, r.servers.clone(), r.power_budget, r.pdu))
                .collect(),
            layout_pdus: layout
                .pdus()
                .iter()
                .map(|p| (p.id, p.rows.clone(), p.power_budget, p.ups))
                .collect(),
            layout_upses: layout
                .upses()
                .iter()
                .map(|u| (u.id, u.pdus.clone(), u.power_budget))
                .collect(),
            datacenter_budget: layout.datacenter_power_budget(),
            row_span_start,
            row_span_end,
        };
        // Ordinal indexing throughout (`row_budget`, `assess_into`) relies on each level
        // being stored in id order; pin the invariant here, once, at construction.
        debug_assert!(
            hierarchy
                .layout_rows
                .iter()
                .enumerate()
                .all(|(i, r)| r.0.index() == i),
            "rows stored in id order"
        );
        debug_assert!(
            hierarchy
                .layout_pdus
                .iter()
                .enumerate()
                .all(|(i, p)| p.0.index() == i),
            "pdus stored in id order"
        );
        debug_assert!(
            hierarchy
                .layout_upses
                .iter()
                .enumerate()
                .all(|(i, u)| u.0.index() == i),
            "upses stored in id order"
        );
        hierarchy
    }

    /// Number of rows in the hierarchy.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.layout_rows.len()
    }

    /// Provisioned budget of a row (rows are stored in ordinal order, so this is O(1)).
    ///
    /// # Panics
    /// Panics if the row id is unknown.
    #[must_use]
    pub fn row_budget(&self, row: RowId) -> Kilowatts {
        assert!(row.index() < self.layout_rows.len(), "unknown row id");
        self.layout_rows[row.index()].2
    }

    /// Assesses every level of the hierarchy for the given per-server power draws and
    /// produces capping directives for servers under over-budget levels.
    ///
    /// The cap applied to a server is the *most restrictive* fraction across all of the
    /// levels above it (row, PDU, UPS, datacenter).
    ///
    /// # Panics
    /// Panics if `server_power` has fewer entries than the layout has servers.
    #[must_use]
    pub fn assess(&self, server_power: &[Kilowatts], capacity: &CapacityState) -> PowerAssessment {
        let mut assessment = PowerAssessment::empty();
        self.assess_into(
            server_power,
            capacity,
            &mut assessment,
            &mut HierarchyScratch::default(),
        );
        assessment
    }

    /// [`Self::assess`] writing into a reusable assessment and caller-provided scratch,
    /// making the steady-state loop allocation-free. All bookkeeping is index-based: rows,
    /// PDUs and UPSes are stored in id order, so member references resolve by `id.index()`
    /// instead of a linear search, and the per-level grids are written by ordinal.
    ///
    /// # Panics
    /// Panics if `server_power` has fewer entries than the layout has servers.
    pub fn assess_into(
        &self,
        server_power: &[Kilowatts],
        capacity: &CapacityState,
        out: &mut PowerAssessment,
        scratch: &mut HierarchyScratch,
    ) {
        out.rows
            .resize(self.layout_rows.len(), LevelUtilization::empty());
        out.pdus
            .resize(self.layout_pdus.len(), LevelUtilization::empty());
        out.upses
            .resize(self.layout_upses.len(), LevelUtilization::empty());
        out.capping.clear();
        scratch.caps.clear();
        scratch.caps.resize(server_power.len(), 1.0);

        // One dense slice reduction per row: its members, in member order.
        for (i, (row_id, _, budget, _)) in self.layout_rows.iter().enumerate() {
            let span = self.row_span_start[i] as usize..self.row_span_end[i] as usize;
            let draw: Kilowatts = server_power[span].iter().copied().sum();
            out.rows[*row_id] = LevelUtilization::new(draw, *budget * capacity.row(*row_id));
        }

        for (pdu_id, member_rows, budget, _) in &self.layout_pdus {
            let draw: Kilowatts = member_rows.iter().map(|r| out.rows[*r].draw).sum();
            out.pdus[*pdu_id] = LevelUtilization::new(draw, *budget);
        }

        let mut dc_draw = Kilowatts::ZERO;
        for (ups_id, member_pdus, budget) in &self.layout_upses {
            let draw: Kilowatts = member_pdus.iter().map(|p| out.pdus[*p].draw).sum();
            dc_draw += draw;
            out.upses[*ups_id] = LevelUtilization::new(draw, *budget * capacity.ups(*ups_id));
        }

        out.datacenter = LevelUtilization::new(
            dc_draw,
            self.datacenter_budget * capacity.datacenter_capacity,
        );

        // Compute the most restrictive cap per server in the dense scratch vector.
        let caps = &mut scratch.caps;
        let mut apply_cap = |servers: &[ServerId], fraction: f64| {
            for &s in servers {
                let entry = &mut caps[s.index()];
                *entry = entry.min(fraction);
            }
        };

        for (row_id, servers, _, _) in &self.layout_rows {
            let util = &out.rows[*row_id];
            if util.is_over_budget() {
                apply_cap(servers, 1.0 / util.utilization);
            }
        }
        for (pdu_id, member_rows, _, _) in &self.layout_pdus {
            let util = &out.pdus[*pdu_id];
            if util.is_over_budget() {
                let fraction = 1.0 / util.utilization;
                for row in member_rows {
                    apply_cap(&self.layout_rows[row.index()].1, fraction);
                }
            }
        }
        for (ups_id, member_pdus, _) in &self.layout_upses {
            let util = &out.upses[*ups_id];
            if util.is_over_budget() {
                let fraction = 1.0 / util.utilization;
                for pdu in member_pdus {
                    for row in &self.layout_pdus[pdu.index()].1 {
                        apply_cap(&self.layout_rows[row.index()].1, fraction);
                    }
                }
            }
        }
        if out.datacenter.is_over_budget() {
            let fraction = 1.0 / out.datacenter.utilization;
            for (_, servers, _, _) in &self.layout_rows {
                apply_cap(servers, fraction);
            }
        }

        out.capping.extend(
            scratch
                .caps
                .iter()
                .enumerate()
                .filter(|(_, &fraction)| fraction < 1.0)
                .map(|(index, &power_fraction)| CappingDirective {
                    server: ServerId::new(index),
                    power_fraction,
                }),
        );
    }
}

/// Reusable dense intermediates for [`PowerHierarchy::assess_into`].
#[derive(Debug, Default, Clone)]
pub struct HierarchyScratch {
    caps: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LayoutConfig;

    fn hierarchy_and_layout() -> (PowerHierarchy, crate::topology::Layout) {
        let layout = LayoutConfig::small_test_cluster().build();
        (PowerHierarchy::from_layout(&layout), layout)
    }

    #[test]
    fn idle_cluster_is_within_all_budgets() {
        let (hierarchy, layout) = hierarchy_and_layout();
        let power = vec![Kilowatts::new(1.6); layout.server_count()];
        let assessment = hierarchy.assess(&power, &CapacityState::healthy());
        assert!(!assessment.any_over_budget());
        assert!(assessment.capping.is_empty());
        assert!(assessment.rows.values().all(|u| u.utilization < 0.5));
        assert_eq!(assessment.rows.len(), 2);
        assert!(assessment.datacenter.headroom().value() > 0.0);
    }

    #[test]
    fn row_draw_aggregates_member_servers() {
        let (hierarchy, layout) = hierarchy_and_layout();
        let mut power = vec![Kilowatts::new(2.0); layout.server_count()];
        power[0] = Kilowatts::new(5.0);
        let assessment = hierarchy.assess(&power, &CapacityState::healthy());
        let row0 = layout.servers()[0].row;
        let expected: f64 = layout.rows()[row0.index()]
            .servers
            .iter()
            .map(|s| power[s.index()].value())
            .sum();
        assert!((assessment.rows[row0].draw.value() - expected).abs() < 1e-9);
        assert!((assessment.peak_row_power().value() - expected).abs() < 1e-9);
        let per_row: Vec<f64> = assessment.row_power().map(|(_, kw)| kw.value()).collect();
        assert!((per_row[row0.index()] - expected).abs() < 1e-9);
    }

    #[test]
    fn fleet_signal_helpers_aggregate_headroom_and_worst_level() {
        let (hierarchy, layout) = hierarchy_and_layout();
        let power = vec![Kilowatts::new(2.0); layout.server_count()];
        let assessment = hierarchy.assess(&power, &CapacityState::healthy());
        // Total row headroom = Σ per-row headroom, and matches the per-row accessors.
        let expected: f64 = assessment.rows.values().map(|u| u.headroom().value()).sum();
        assert!((assessment.total_row_headroom().value() - expected).abs() < 1e-9);
        assert!(expected > 0.0);
        // Worst level is at least every row's utilization and under budget here.
        let worst = assessment.worst_level_utilization();
        assert!(assessment.rows.values().all(|u| worst >= u.utilization));
        assert!(worst < 1.0);
        // An over-budget row drives both: zero headroom contribution, worst > 1.
        let hot = vec![Kilowatts::new(6.5); layout.server_count()];
        let stressed_layout = {
            let mut cfg = LayoutConfig::small_test_cluster();
            cfg.row_power_provisioning = 0.5;
            cfg.build()
        };
        let stressed =
            PowerHierarchy::from_layout(&stressed_layout).assess(&hot, &CapacityState::healthy());
        assert!(stressed.worst_level_utilization() > 1.0);
        assert_eq!(stressed.total_row_headroom().value(), 0.0);
    }

    #[test]
    fn over_budget_row_caps_only_its_servers() {
        let (hierarchy, layout) = hierarchy_and_layout();
        // Row budget is 4 × 6.5 = 26 kW; drive row 0 to 32 kW and keep row 1 idle.
        let mut power = vec![Kilowatts::new(1.6); layout.server_count()];
        for &s in &layout.rows()[0].servers {
            power[s.index()] = Kilowatts::new(8.0);
        }
        let assessment = hierarchy.assess(&power, &CapacityState::healthy());
        assert!(assessment.any_over_budget());
        assert_eq!(
            assessment.over_budget_rows().collect::<Vec<_>>(),
            vec![RowId::new(0)]
        );
        let capped: Vec<ServerId> = assessment.capping.iter().map(|c| c.server).collect();
        for &s in &layout.rows()[0].servers {
            assert!(capped.contains(&s), "row-0 servers must be capped");
        }
        for &s in &layout.rows()[1].servers {
            assert!(!capped.contains(&s), "row-1 servers must not be capped");
        }
        // The cap fraction restores the row to its budget.
        let fraction = assessment.capping[0].power_fraction;
        let row_util = assessment.rows[RowId::new(0)].utilization;
        assert!((fraction - 1.0 / row_util).abs() < 1e-9);
        assert!(fraction < 1.0 && fraction > 0.0);
    }

    #[test]
    fn ups_failure_reduces_capacity_and_triggers_capping() {
        let (hierarchy, layout) = hierarchy_and_layout();
        // Load everything at 80 % of TDP: fine at full capacity, over budget at 60 %.
        let power = vec![Kilowatts::new(5.2); layout.server_count()];
        let healthy = hierarchy.assess(&power, &CapacityState::healthy());
        assert!(!healthy.any_over_budget());
        let mut degraded_state = CapacityState::healthy();
        degraded_state.set_ups_capacity(UpsId::new(0), 0.6);
        assert!(!degraded_state.is_full());
        let degraded = hierarchy.assess(&power, &degraded_state);
        assert!(degraded.any_over_budget());
        // All servers under that UPS (which covers the whole small cluster) are capped.
        assert_eq!(degraded.capping.len(), layout.server_count());
    }

    #[test]
    fn most_restrictive_cap_wins() {
        let (hierarchy, layout) = hierarchy_and_layout();
        let power = vec![Kilowatts::new(6.0); layout.server_count()];
        let mut state = CapacityState::healthy();
        // Row 0 capacity cut hard, datacenter capacity cut mildly.
        state.set_row_capacity(RowId::new(0), 0.5);
        state.datacenter_capacity = 0.9;
        let assessment = hierarchy.assess(&power, &state);
        let row0_cap = assessment
            .capping
            .iter()
            .find(|c| c.server == layout.rows()[0].servers[0])
            .expect("row-0 server capped");
        let row1_cap = assessment
            .capping
            .iter()
            .find(|c| c.server == layout.rows()[1].servers[0])
            .expect("row-1 server capped by datacenter level");
        assert!(row0_cap.power_fraction < row1_cap.power_fraction);
    }

    #[test]
    fn reused_assessment_matches_fresh_one() {
        let (hierarchy, layout) = hierarchy_and_layout();
        let mut reused = PowerAssessment::empty();
        let mut scratch = HierarchyScratch::default();
        // Alternate between an over-budget and an idle step: the reused grids must track
        // the fresh result exactly, including shrinking the capping list back to empty.
        let hot = vec![Kilowatts::new(8.0); layout.server_count()];
        let idle = vec![Kilowatts::new(1.6); layout.server_count()];
        for power in [&hot, &idle, &hot, &idle] {
            hierarchy.assess_into(power, &CapacityState::healthy(), &mut reused, &mut scratch);
            let fresh = hierarchy.assess(power, &CapacityState::healthy());
            assert_eq!(reused, fresh);
        }
        assert!(reused.capping.is_empty());
    }

    #[test]
    fn capacity_state_reset_restores_full_capacity() {
        let mut state = CapacityState::healthy();
        state.set_ups_capacity(UpsId::new(1), 0.5);
        state.set_row_capacity(RowId::new(0), 0.7);
        state.datacenter_capacity = 0.75;
        assert!((state.ups(UpsId::new(1)) - 0.5).abs() < 1e-12);
        assert!(
            (state.ups(UpsId::new(0)) - 1.0).abs() < 1e-12,
            "untouched ordinal is full"
        );
        assert!((state.row(RowId::new(0)) - 0.7).abs() < 1e-12);
        state.reset();
        assert!(state.is_full());
        assert!((state.ups(UpsId::new(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_cap_clamps_rows_and_upses_and_composes_with_failures() {
        let (hierarchy, layout) = hierarchy_and_layout();
        // 80 % of TDP: fine at full capacity, over budget once capped to 60 %.
        let power = vec![Kilowatts::new(5.2); layout.server_count()];
        let mut state = CapacityState::healthy();
        state.apply_power_cap(0.6, layout.upses().len(), layout.rows().len());
        assert!(!state.is_full());
        assert!((state.row(RowId::new(0)) - 0.6).abs() < 1e-12);
        assert!((state.ups(UpsId::new(0)) - 0.6).abs() < 1e-12);
        let capped = hierarchy.assess(&power, &state);
        assert!(capped.any_over_budget());
        assert_eq!(capped.capping.len(), layout.server_count());

        // The cap multiplies failure-derived reductions: 0.8 failure × 0.75 cap = 0.6.
        let mut composed = CapacityState::healthy();
        composed.set_ups_capacity(UpsId::new(0), 0.8);
        composed.apply_power_cap(0.75, layout.upses().len(), layout.rows().len());
        assert!((composed.ups(UpsId::new(0)) - 0.6).abs() < 1e-12);
        assert!((composed.row(RowId::new(0)) - 0.75).abs() < 1e-12);

        // A 1.0 cap leaves the state bit-identical (reset grids read as full).
        let mut neutral = CapacityState::healthy();
        neutral.apply_power_cap(1.0, layout.upses().len(), layout.rows().len());
        assert!(neutral.is_full());
        assert_eq!(
            hierarchy.assess(&power, &neutral),
            hierarchy.assess(&power, &CapacityState::healthy())
        );
    }

    #[test]
    fn row_budget_lookup() {
        let (hierarchy, layout) = hierarchy_and_layout();
        let budget = hierarchy.row_budget(RowId::new(0));
        assert_eq!(budget, layout.rows()[0].power_budget);
        assert_eq!(hierarchy.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown row id")]
    fn unknown_row_budget_panics() {
        let (hierarchy, _) = hierarchy_and_layout();
        let _ = hierarchy.row_budget(RowId::new(99));
    }
}
