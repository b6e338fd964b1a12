//! Server fan airflow and the aisle-level AHU provisioning constraint (Eq. 3).
//!
//! Server fans modulate with load; the paper measures a linear relationship between GPU load
//! and airflow that matches the manufacturer specs (840 CFM for a DGX A100 and 1105 CFM for a
//! DGX H100 at 80 % PWM). The AHUs of each cold aisle must supply at least as much airflow as
//! the servers in the aisle consume; otherwise hot exhaust air recirculates into the cold
//! aisle and every server's inlet temperature rises.

use crate::topology::{Aisle, ServerSpec};
use serde::{Deserialize, Serialize};
use simkit::units::CubicFeetPerMinute;

/// Linear server-airflow model plus the heat-recirculation penalty parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AirflowModel {
    /// Inlet temperature penalty (°C) applied to the whole aisle per 10 % airflow deficit.
    pub recirculation_penalty_c_per_10pct: f64,
}

impl Default for AirflowModel {
    fn default() -> Self {
        Self {
            recirculation_penalty_c_per_10pct: 2.5,
        }
    }
}

/// Assessment of one aisle's airflow balance at one evaluation step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AisleAirflowAssessment {
    /// Aggregate airflow demanded by the servers in the aisle.
    pub demand: CubicFeetPerMinute,
    /// Airflow the AHUs can currently provide (provisioned minus failures).
    pub available: CubicFeetPerMinute,
    /// `demand / available` (1.0 means exactly balanced).
    pub utilization: f64,
    /// Inlet-temperature penalty applied to every server in the aisle due to recirculation.
    pub recirculation_penalty_c: f64,
}

impl AisleAirflowAssessment {
    /// Returns `true` if the aisle demands more airflow than the AHUs provide.
    #[must_use]
    pub fn is_violated(&self) -> bool {
        self.utilization > 1.0
    }
}

impl AirflowModel {
    /// The `(idle, span)` terms of the linear server-airflow curve: one server draws
    /// `idle + span · clamp(load)`. Single source of the curve's constants for
    /// [`Self::server_airflow`] and the engine's once-per-row hoisting on homogeneous rows.
    #[inline]
    #[must_use]
    pub fn airflow_terms(&self, spec: &ServerSpec) -> (CubicFeetPerMinute, CubicFeetPerMinute) {
        (spec.idle_airflow, spec.max_airflow - spec.idle_airflow)
    }

    /// Airflow consumed by one server at the given normalized GPU load in `[0, 1]`.
    ///
    /// Linear interpolation between the idle and maximum airflow of the server spec, as
    /// measured in §2.1.
    #[inline]
    #[must_use]
    pub fn server_airflow(&self, spec: &ServerSpec, load: f64) -> CubicFeetPerMinute {
        let (idle, span) = self.airflow_terms(spec);
        idle + span * load.clamp(0.0, 1.0)
    }

    /// Assesses one aisle: aggregates the demand of its servers and computes the
    /// recirculation penalty if the demand exceeds the available airflow.
    ///
    /// `available_fraction` scales the provisioned airflow to model AHU or cooling-device
    /// failures (e.g. 0.75 when one of four AHUs has failed).
    #[must_use]
    pub fn assess_aisle(
        &self,
        aisle: &Aisle,
        per_server_airflow: impl Fn(crate::ids::ServerId) -> CubicFeetPerMinute,
        available_fraction: f64,
    ) -> AisleAirflowAssessment {
        let demand: CubicFeetPerMinute = aisle.servers.iter().map(|&s| per_server_airflow(s)).sum();
        self.assess_aisle_demand(aisle, demand, available_fraction)
    }

    /// [`Self::assess_aisle`] with the aggregate demand already reduced — the engine's
    /// hot path sums each aisle's contiguous window of the dense per-server airflow
    /// plane (same elements in the same order, so the sum is bit-identical to the
    /// id-keyed walk) and hands the total in.
    #[must_use]
    pub fn assess_aisle_demand(
        &self,
        aisle: &Aisle,
        demand: CubicFeetPerMinute,
        available_fraction: f64,
    ) -> AisleAirflowAssessment {
        let available = aisle.airflow_provisioned * available_fraction.clamp(0.0, 1.0);
        let utilization = if available.value() > 0.0 {
            demand / available
        } else {
            f64::INFINITY
        };
        let deficit_fraction = (utilization - 1.0).max(0.0);
        let recirculation_penalty_c =
            self.recirculation_penalty_c_per_10pct * deficit_fraction * 10.0;
        AisleAirflowAssessment {
            demand,
            available,
            utilization,
            recirculation_penalty_c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LayoutConfig, ServerSpec};
    use simkit::units::CubicFeetPerMinute;

    #[test]
    fn server_airflow_is_linear_between_idle_and_max() {
        let model = AirflowModel::default();
        let spec = ServerSpec::dgx_a100();
        assert_eq!(model.server_airflow(&spec, 0.0), spec.idle_airflow);
        assert_eq!(model.server_airflow(&spec, 1.0), spec.max_airflow);
        let half = model.server_airflow(&spec, 0.5);
        assert!((half.value() - (420.0 + 840.0) / 2.0).abs() < 1e-9);
        // Loads outside [0,1] clamp.
        assert_eq!(model.server_airflow(&spec, 2.0), spec.max_airflow);
        assert_eq!(model.server_airflow(&spec, -1.0), spec.idle_airflow);
    }

    #[test]
    fn h100_moves_more_air() {
        let model = AirflowModel::default();
        let a100 = model.server_airflow(&ServerSpec::dgx_a100(), 1.0);
        let h100 = model.server_airflow(&ServerSpec::dgx_h100(), 1.0);
        assert!(h100.value() > a100.value());
        assert_eq!(h100.value(), 1105.0);
    }

    #[test]
    fn balanced_aisle_has_no_penalty() {
        let layout = LayoutConfig::small_test_cluster().build();
        let aisle = &layout.aisles()[0];
        let model = AirflowModel::default();
        let assessment = model.assess_aisle(aisle, |_| CubicFeetPerMinute::new(500.0), 1.0);
        assert!(!assessment.is_violated());
        assert_eq!(assessment.recirculation_penalty_c, 0.0);
        assert!((assessment.demand.value() - 8.0 * 500.0).abs() < 1e-9);
        assert!(assessment.utilization < 1.0);
    }

    #[test]
    fn overloaded_aisle_gets_recirculation_penalty() {
        let layout = LayoutConfig::small_test_cluster().build();
        let aisle = &layout.aisles()[0];
        let model = AirflowModel::default();
        // Demand 10 % above provisioning -> penalty of one "per-10pct" unit.
        let per_server = aisle.airflow_provisioned * 1.1 / aisle.servers.len() as f64;
        let assessment = model.assess_aisle(aisle, |_| per_server, 1.0);
        assert!(assessment.is_violated());
        assert!((assessment.utilization - 1.1).abs() < 1e-9);
        assert!((assessment.recirculation_penalty_c - 2.5).abs() < 1e-6);
    }

    #[test]
    fn ahu_failure_shrinks_available_airflow() {
        let layout = LayoutConfig::small_test_cluster().build();
        let aisle = &layout.aisles()[0];
        let model = AirflowModel::default();
        let healthy = model.assess_aisle(aisle, |_| CubicFeetPerMinute::new(700.0), 1.0);
        let degraded = model.assess_aisle(aisle, |_| CubicFeetPerMinute::new(700.0), 0.75);
        assert!(degraded.available.value() < healthy.available.value());
        assert!(degraded.utilization > healthy.utilization);
        // Zero available airflow yields an infinite utilization, not a panic.
        let dead = model.assess_aisle(aisle, |_| CubicFeetPerMinute::new(700.0), 0.0);
        assert!(dead.utilization.is_infinite());
        assert!(dead.is_violated());
    }
}
