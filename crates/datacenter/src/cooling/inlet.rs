//! Server inlet temperature model (Eq. 1 of the paper).
//!
//! The characterization in §2.1 finds that for every server `s`,
//! `T_inlet,s = f_inlet,s(T_outside, Load_DC)` with three regimes against the outside
//! temperature (Fig. 3):
//!
//! * below ≈15 °C outside, the cooling holds the inlet at a floor (≈18 °C) to avoid the
//!   humidity-related failures of over-cooling;
//! * between ≈15 °C and ≈25 °C the inlet rises roughly linearly with the outside temperature;
//! * above ≈25 °C the cooling works harder and the slope flattens.
//!
//! On top of that base curve, each server has a *spatial offset*: rows differ by up to ≈1 °C,
//! racks within a row by up to ≈2 °C (ends of rows are warmer), and height within a rack has a
//! minor effect (Fig. 4). Finally the aggregate datacenter load adds up to ≈2 °C between idle
//! and fully loaded (Fig. 5).

use crate::topology::Layout;
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::units::Celsius;

/// Parameters of the piecewise inlet-temperature curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InletCurve {
    /// Inlet floor temperature maintained when it is cold outside.
    pub floor_c: f64,
    /// Outside temperature below which the floor applies.
    pub floor_until_outside_c: f64,
    /// Slope of inlet vs outside in the linear (mid) regime.
    pub mid_slope: f64,
    /// Outside temperature above which the cooling compresses the slope.
    pub hot_from_outside_c: f64,
    /// Slope of inlet vs outside in the hot regime.
    pub hot_slope: f64,
    /// Additional inlet temperature at 100 % datacenter load relative to idle.
    pub load_sensitivity_c: f64,
}

impl Default for InletCurve {
    fn default() -> Self {
        Self {
            floor_c: 18.0,
            floor_until_outside_c: 15.0,
            mid_slope: 0.8,
            hot_from_outside_c: 25.0,
            hot_slope: 0.3,
            load_sensitivity_c: 2.0,
        }
    }
}

impl InletCurve {
    /// Base inlet temperature (before spatial offsets and load) for an outside temperature.
    #[inline]
    #[must_use]
    pub fn base(&self, outside: Celsius) -> f64 {
        let t = outside.value();
        if t <= self.floor_until_outside_c {
            self.floor_c
        } else if t <= self.hot_from_outside_c {
            self.floor_c + self.mid_slope * (t - self.floor_until_outside_c)
        } else {
            let at_knee = self.floor_c
                + self.mid_slope * (self.hot_from_outside_c - self.floor_until_outside_c);
            at_knee + self.hot_slope * (t - self.hot_from_outside_c)
        }
    }

    /// The load-dependent inlet term: `load_sensitivity_c · clamp(dc_load)`.
    ///
    /// Together with [`Self::base`] this is the step-invariant part of Eq. 1 — the engine
    /// hoists both once per step so the per-server kernel only adds the spatial offset and
    /// the recirculation penalty (in the same floating-point order as
    /// [`InletModel::inlet_temp`], which routes through the same helpers).
    #[inline]
    #[must_use]
    pub fn load_term(&self, dc_load: f64) -> f64 {
        self.load_sensitivity_c * dc_load.clamp(0.0, 1.0)
    }
}

/// Per-server inlet-temperature model with spatial offsets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InletModel {
    curve: InletCurve,
    /// One spatial offset per server (indexed by `ServerId::index`).
    spatial_offsets: Vec<f64>,
}

impl InletModel {
    /// Builds the model for a layout.
    ///
    /// Spatial offsets are deterministic given the seed: each row gets an offset in
    /// `[0, 1] °C`, racks get warmer toward the end of the row (up to 2 °C), height adds up to
    /// 0.3 °C and a small per-server jitter models construction differences.
    #[must_use]
    pub fn for_layout(layout: &Layout, curve: InletCurve, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).derive("inlet-spatial");
        let row_count = layout.rows().len();
        let row_offsets: Vec<f64> = (0..row_count).map(|_| rng.uniform(0.0, 1.0)).collect();
        let racks_per_row = layout
            .rows()
            .first()
            .map(|r| r.racks.len().max(1))
            .unwrap_or(1);
        let spatial_offsets = layout
            .servers()
            .iter()
            .map(|server| {
                let row_offset = row_offsets[server.row.index()];
                // Racks near the far end of the row (away from the AHU) run warmer.
                let rack_frac = if racks_per_row > 1 {
                    server.rack_position_in_row as f64 / (racks_per_row - 1) as f64
                } else {
                    0.0
                };
                let rack_offset = 2.0 * rack_frac;
                let height_offset = 0.3 * server.height_in_rack as f64
                    / server_height_denominator(layout, server.rack);
                let jitter = rng.normal(0.0, 0.15);
                row_offset + rack_offset + height_offset + jitter
            })
            .collect();
        Self {
            curve,
            spatial_offsets,
        }
    }

    /// The base curve parameters.
    #[must_use]
    pub fn curve(&self) -> &InletCurve {
        &self.curve
    }

    /// The spatial offset of a server (°C added to the base curve).
    #[must_use]
    pub fn spatial_offset(&self, server: crate::ids::ServerId) -> f64 {
        self.spatial_offsets[server.index()]
    }

    /// All spatial offsets as one flat plane indexed by [`crate::ids::ServerId::index`].
    /// The engine's row kernels slice this per contiguous row range.
    #[must_use]
    pub fn spatial_offsets(&self) -> &[f64] {
        &self.spatial_offsets
    }

    /// Inlet temperature of a server given the outside temperature, the normalized datacenter
    /// load in `[0, 1]`, and an extra penalty (°C) from heat recirculation or cooling failures.
    ///
    /// This is the scalar form of Eq. 1; the engine's row kernels evaluate the identical
    /// sum `base + spatial + load_term + max(penalty, 0)` with `base` and `load_term`
    /// hoisted once per step (same values, same addition order, so results are bit-equal).
    #[must_use]
    pub fn inlet_temp(
        &self,
        server: crate::ids::ServerId,
        outside: Celsius,
        dc_load: f64,
        extra_penalty_c: f64,
    ) -> Celsius {
        let base = self.curve.base(outside);
        Celsius::new(
            base + self.spatial_offsets[server.index()]
                + self.curve.load_term(dc_load)
                + extra_penalty_c.max(0.0),
        )
    }

    /// Number of servers the model covers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.spatial_offsets.len()
    }
}

/// The number of height levels in a rack minus one (at least one, to avoid division by zero).
fn server_height_denominator(layout: &Layout, rack: crate::ids::RackId) -> f64 {
    (layout.racks()[rack.index()].servers.len().saturating_sub(1)).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::topology::LayoutConfig;
    use simkit::stats;

    fn model() -> (crate::topology::Layout, InletModel) {
        let layout = LayoutConfig::real_cluster_two_rows().build();
        let model = InletModel::for_layout(&layout, InletCurve::default(), 42);
        (layout, model)
    }

    #[test]
    fn base_curve_has_three_regimes() {
        let curve = InletCurve::default();
        // Floor regime.
        assert_eq!(curve.base(Celsius::new(-5.0)), 18.0);
        assert_eq!(curve.base(Celsius::new(15.0)), 18.0);
        // Linear regime.
        assert!((curve.base(Celsius::new(20.0)) - 22.0).abs() < 1e-12);
        // Hot regime has a flatter slope.
        let at_25 = curve.base(Celsius::new(25.0));
        let at_35 = curve.base(Celsius::new(35.0));
        assert!((at_25 - 26.0).abs() < 1e-12);
        assert!((at_35 - at_25 - 3.0).abs() < 1e-12);
        // Continuity at the knees.
        assert!((curve.base(Celsius::new(15.0001)) - 18.0).abs() < 1e-3);
        assert!((curve.base(Celsius::new(25.0001)) - at_25).abs() < 1e-3);
    }

    #[test]
    fn inlet_is_monotone_in_outside_temperature() {
        let (_, model) = model();
        let server = ServerId::new(0);
        let mut last = f64::MIN;
        for t in (-10..45).map(f64::from) {
            let inlet = model.inlet_temp(server, Celsius::new(t), 0.5, 0.0).value();
            assert!(
                inlet >= last - 1e-9,
                "inlet must be non-decreasing in outside temp"
            );
            last = inlet;
        }
    }

    #[test]
    fn load_adds_up_to_sensitivity() {
        let (_, model) = model();
        let server = ServerId::new(3);
        let idle = model.inlet_temp(server, Celsius::new(20.0), 0.0, 0.0);
        let busy = model.inlet_temp(server, Celsius::new(20.0), 1.0, 0.0);
        assert!((busy.value() - idle.value() - 2.0).abs() < 1e-9);
        // Load outside [0,1] is clamped.
        let over = model.inlet_temp(server, Celsius::new(20.0), 3.0, 0.0);
        assert_eq!(over, busy);
    }

    #[test]
    fn recirculation_penalty_adds_directly() {
        let (_, model) = model();
        let server = ServerId::new(3);
        let normal = model.inlet_temp(server, Celsius::new(20.0), 0.5, 0.0);
        let penalized = model.inlet_temp(server, Celsius::new(20.0), 0.5, 4.0);
        assert!((penalized.value() - normal.value() - 4.0).abs() < 1e-9);
        // Negative penalties are ignored rather than cooling the aisle.
        let negative = model.inlet_temp(server, Celsius::new(20.0), 0.5, -3.0);
        assert_eq!(negative, normal);
    }

    #[test]
    fn spatial_offsets_match_paper_magnitudes() {
        let (layout, model) = model();
        let offsets: Vec<f64> = layout
            .servers()
            .iter()
            .map(|s| model.spatial_offset(s.id))
            .collect();
        let spread = stats::max(&offsets).unwrap() - stats::min(&offsets).unwrap();
        // Row (≤1 °C) + rack (≤2 °C) + height (≤0.3 °C) + jitter: spread of roughly 2–4 °C.
        assert!(spread > 1.5 && spread < 5.0, "spatial spread {spread}");
        // Far end of a row should on average be warmer than the AHU end.
        let near: Vec<f64> = layout
            .servers()
            .iter()
            .filter(|s| s.rack_position_in_row == 0)
            .map(|s| model.spatial_offset(s.id))
            .collect();
        let far: Vec<f64> = layout
            .servers()
            .iter()
            .filter(|s| s.rack_position_in_row == 9)
            .map(|s| model.spatial_offset(s.id))
            .collect();
        assert!(stats::mean(&far).unwrap() > stats::mean(&near).unwrap() + 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let layout = LayoutConfig::small_test_cluster().build();
        let a = InletModel::for_layout(&layout, InletCurve::default(), 7);
        let b = InletModel::for_layout(&layout, InletCurve::default(), 7);
        let c = InletModel::for_layout(&layout, InletCurve::default(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.server_count(), 8);
    }
}
