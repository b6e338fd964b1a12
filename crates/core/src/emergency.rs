//! Cooling and power emergency response (§4.4, §5.4).
//!
//! When an AHU or cooling device fails the datacenter must live with ≈90 % of its cooling
//! capacity; when a UPS fails (4N/3 redundancy) the usable power capacity drops to 75 %. The
//! **Baseline** responds the only way a thermal/power-oblivious system can: it applies a
//! uniform frequency cap to every server at the affected level until the draw fits, hurting
//! IaaS and SaaS alike. **TAPAS** instead recomputes the budgets, steers requests away from
//! constrained servers and reconfigures SaaS instances (accepting a bounded quality loss) so
//! that IaaS VMs keep running at full frequency; it only power-caps IaaS VMs if all of that
//! is still insufficient.

use crate::configurator::{InstanceConfigurator, InstanceLimits};
use crate::profiles::ProfileStore;
use llm_sim::config::InstanceConfig;
use serde::{Deserialize, Serialize};
use simkit::units::{Kilowatts, Watts};

/// The kind of emergency being handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmergencyKind {
    /// Power capacity reduced (UPS failure): the affected domain must shed power.
    Power,
    /// Cooling capacity reduced (AHU / cooling-device failure): the affected domain must shed
    /// heat, which for air-cooled GPUs also means shedding power.
    Thermal,
}

/// A summary of how an emergency was absorbed across the IaaS and SaaS populations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmergencyPlan {
    /// The emergency kind.
    pub kind: EmergencyKind,
    /// Fraction of nominal frequency IaaS servers are capped to (1.0 = unaffected).
    pub iaas_frequency_cap: f64,
    /// Fraction of nominal frequency SaaS servers are capped to (only used by the Baseline).
    pub saas_frequency_cap: f64,
    /// New configuration applied to SaaS instances (TAPAS only).
    pub saas_config: Option<InstanceConfig>,
    /// Average result-quality factor across SaaS requests after the response (1.0 = no
    /// impact).
    pub saas_quality: f64,
    /// Relative SaaS goodput after the response compared to before (can exceed 1.0 when the
    /// replacement configuration is faster than the original).
    pub saas_goodput_ratio: f64,
}

impl EmergencyPlan {
    /// Performance impact on IaaS workloads, expressed as the paper does in Table 2 (negative
    /// percentage of lost frequency).
    #[must_use]
    pub fn iaas_perf_impact_pct(&self) -> f64 {
        (self.iaas_frequency_cap - 1.0) * 100.0
    }

    /// Performance impact on SaaS workloads (percentage change of goodput).
    #[must_use]
    pub fn saas_perf_impact_pct(&self) -> f64 {
        (self.saas_goodput_ratio - 1.0) * 100.0
    }

    /// Quality impact on SaaS workloads (negative percentage).
    #[must_use]
    pub fn saas_quality_impact_pct(&self) -> f64 {
        (self.saas_quality - 1.0) * 100.0
    }
}

/// Computes emergency responses for the Baseline and for TAPAS.
#[derive(Debug, Clone)]
pub struct EmergencyResponder {
    /// The configurator used to pick replacement SaaS configurations.
    pub configurator: InstanceConfigurator,
}

impl EmergencyResponder {
    /// Creates a responder with the endpoint quality SLO used during emergencies.
    #[must_use]
    pub fn new(quality_slo: f64) -> Self {
        Self {
            configurator: InstanceConfigurator::new(quality_slo),
        }
    }

    /// The Baseline response: a uniform frequency cap on every server (IaaS and SaaS) chosen
    /// so the aggregate power fits the reduced capacity.
    ///
    /// A sizeable share of server power is static (idle components, leakage, memory), and the
    /// dynamic share of mixed inference workloads responds roughly linearly to the clock cap
    /// in practice (the memory-bound phases barely speed up with frequency, so operators must
    /// cap clocks deeply to shed real power). The cap needed to reach a power fraction `r` is
    /// therefore `(r − s) / (1 − s)` with `s` the static fraction — which reproduces the
    /// ≈35 % uniform caps Table 2 reports for the 75 % power emergency.
    #[must_use]
    pub fn baseline_response(&self, kind: EmergencyKind, capacity_fraction: f64) -> EmergencyPlan {
        let r = capacity_fraction.clamp(0.1, 1.0);
        let static_fraction = 0.35; // idle + static power that frequency cannot shed
        let cap = if r >= 1.0 {
            1.0
        } else {
            ((r - static_fraction) / (1.0 - static_fraction)).clamp(0.05, 1.0)
        };
        // The uniform cap slows decode roughly linearly with the compute-bound share and
        // prefill fully; the paper reports SaaS hurt slightly less than IaaS.
        let saas_goodput_ratio = 0.3 + 0.7 * cap;
        EmergencyPlan {
            kind,
            iaas_frequency_cap: cap,
            saas_frequency_cap: cap,
            saas_config: None,
            saas_quality: 1.0,
            saas_goodput_ratio,
        }
    }

    /// The TAPAS response: leave IaaS untouched and absorb the entire reduction by
    /// reconfiguring SaaS instances within the new per-server budgets.
    ///
    /// `saas_fraction` is the fraction of affected servers that run SaaS (the flexibility
    /// TAPAS has to work with); `nominal_server_power` and `nominal_goodput` describe the SaaS
    /// instances before the emergency.
    #[must_use]
    pub fn tapas_response(
        &self,
        kind: EmergencyKind,
        capacity_fraction: f64,
        saas_fraction: f64,
        current_config: &InstanceConfig,
        profiles: &ProfileStore,
    ) -> EmergencyPlan {
        let r = capacity_fraction.clamp(0.1, 1.0);
        let saas_fraction = saas_fraction.clamp(0.01, 1.0);
        let current_profile = profiles
            .sweep()
            .iter()
            .find(|p| p.config == *current_config)
            .copied()
            .unwrap_or_else(|| {
                llm_sim::profile::ConfigProfile::build(
                    current_config,
                    &llm_sim::hardware::GpuHardware::a100(),
                )
            });
        let nominal_server_power = current_profile.blended_server_power(0.7);
        let nominal_goodput = current_profile.goodput_tokens_per_s;

        // The whole reduction (1 − r) of the affected domain must come out of the SaaS share:
        // SaaS servers must drop to `1 − (1 − r)/saas_fraction` of their nominal power.
        let saas_power_fraction = (1.0 - (1.0 - r) / saas_fraction).max(0.1);
        let limits = InstanceLimits {
            max_gpu_power: Watts::new(f64::MAX),
            max_server_power: Kilowatts::new(nominal_server_power.value() * saas_power_fraction),
            demand_tokens_per_s: nominal_goodput * 0.5,
        };
        let decision = self.configurator.select(current_config, &limits, profiles);
        EmergencyPlan {
            kind,
            iaas_frequency_cap: 1.0,
            saas_frequency_cap: 1.0,
            saas_config: Some(decision.config),
            saas_quality: decision.profile.quality / current_profile.quality.max(1e-9),
            saas_goodput_ratio: decision.profile.goodput_tokens_per_s / nominal_goodput.max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::engine::Datacenter;
    use dc_sim::topology::LayoutConfig;
    use llm_sim::hardware::GpuHardware;

    fn profiles() -> ProfileStore {
        let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 42);
        ProfileStore::offline_profiling(&dc, &GpuHardware::a100())
    }

    #[test]
    fn baseline_power_emergency_caps_everyone() {
        let responder = EmergencyResponder::new(0.85);
        let plan = responder.baseline_response(EmergencyKind::Power, 0.75);
        // Table 2: the Baseline applies uniform caps of up to ≈35 %, hurting IaaS and SaaS.
        assert!(plan.iaas_frequency_cap < 0.95);
        assert!(plan.iaas_frequency_cap > 0.5);
        assert_eq!(plan.iaas_frequency_cap, plan.saas_frequency_cap);
        assert!(plan.iaas_perf_impact_pct() < -10.0);
        assert!(plan.saas_perf_impact_pct() < -10.0);
        assert_eq!(
            plan.saas_quality_impact_pct(),
            0.0,
            "baseline never touches quality"
        );
        assert!(plan.saas_config.is_none());
    }

    #[test]
    fn baseline_thermal_emergency_is_milder_than_power() {
        let responder = EmergencyResponder::new(0.85);
        let power = responder.baseline_response(EmergencyKind::Power, 0.75);
        let thermal = responder.baseline_response(EmergencyKind::Thermal, 0.9);
        assert!(thermal.iaas_frequency_cap > power.iaas_frequency_cap);
        assert!(thermal.iaas_perf_impact_pct() > power.iaas_perf_impact_pct());
        // No reduction means no cap.
        let none = responder.baseline_response(EmergencyKind::Thermal, 1.0);
        assert_eq!(none.iaas_frequency_cap, 1.0);
    }

    #[test]
    fn tapas_power_emergency_spares_iaas_and_trades_quality() {
        let profiles = profiles();
        let responder = EmergencyResponder::new(0.85);
        let plan = responder.tapas_response(
            EmergencyKind::Power,
            0.75,
            0.5,
            &InstanceConfig::default_70b(),
            &profiles,
        );
        // Table 2: TAPAS keeps IaaS at full performance.
        assert_eq!(plan.iaas_frequency_cap, 1.0);
        assert_eq!(plan.iaas_perf_impact_pct(), 0.0);
        // SaaS absorbs the cut by reconfiguring; quality may drop but stays bounded.
        assert!(plan.saas_config.is_some());
        assert!(plan.saas_quality <= 1.0);
        assert!(
            plan.saas_quality >= 0.8,
            "quality loss should stay bounded, got {}",
            plan.saas_quality
        );
    }

    #[test]
    fn tapas_thermal_emergency_needs_smaller_quality_sacrifice_than_power() {
        let profiles = profiles();
        let responder = EmergencyResponder::new(0.85);
        let power = responder.tapas_response(
            EmergencyKind::Power,
            0.75,
            0.5,
            &InstanceConfig::default_70b(),
            &profiles,
        );
        let thermal = responder.tapas_response(
            EmergencyKind::Thermal,
            0.9,
            0.5,
            &InstanceConfig::default_70b(),
            &profiles,
        );
        // The milder thermal emergency (90 % capacity) costs less quality than the power one
        // (75 % capacity), matching the 6 % vs 12 % split in Table 2.
        assert!(thermal.saas_quality >= power.saas_quality);
        assert_eq!(thermal.iaas_frequency_cap, 1.0);
    }

    #[test]
    fn more_saas_flexibility_means_gentler_per_instance_cuts() {
        let profiles = profiles();
        let responder = EmergencyResponder::new(0.85);
        let scarce = responder.tapas_response(
            EmergencyKind::Power,
            0.75,
            0.3,
            &InstanceConfig::default_70b(),
            &profiles,
        );
        let plentiful = responder.tapas_response(
            EmergencyKind::Power,
            0.75,
            1.0,
            &InstanceConfig::default_70b(),
            &profiles,
        );
        assert!(plentiful.saas_quality >= scarce.saas_quality);
        assert!(plentiful.saas_goodput_ratio >= scarce.saas_goodput_ratio);
    }
}
