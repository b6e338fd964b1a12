//! Server power as a function of GPU load.
//!
//! The paper fits a polynomial regression `f_power(Load_GPU)` per server that accounts for
//! the GPUs themselves plus the load-dependent draw of fans and other components (§2.2).
//! We model the total server power as
//!
//! ```text
//! P_server = P_idle + (P_max − P_idle) · (w1 · load + w2 · load²)    with w1 + w2 = 1
//! ```
//!
//! which is monotone, convex-ish at high load (fan power grows super-linearly) and hits the
//! idle and TDP endpoints exactly. Per-GPU power is attributed proportionally to each GPU's
//! utilization on top of an even share of the non-GPU overhead.

use crate::topology::ServerSpec;
use serde::{Deserialize, Serialize};
use simkit::units::{Kilowatts, Watts};

/// Polynomial server power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerPowerModel {
    /// Weight of the linear term (the quadratic term gets `1 - linear_weight`).
    pub linear_weight: f64,
}

impl Default for ServerPowerModel {
    fn default() -> Self {
        Self { linear_weight: 0.8 }
    }
}

/// The hoisted constants of the polynomial server power curve for one spec: the total
/// power at a mean load is `idle + span · (w1 · load + w2 · load²)`.
///
/// [`ServerPowerModel::server_power`] and the engine's once-per-row hoisting on
/// homogeneous rows both evaluate the curve through [`Self::at_load`], so results are
/// bit-identical whichever path computed them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerTerms {
    /// Weight of the linear term.
    pub w1: f64,
    /// Weight of the quadratic term (`1 - w1`).
    pub w2: f64,
    /// Idle power of the server.
    pub idle: Kilowatts,
    /// `max_power - idle_power`.
    pub span: Kilowatts,
}

impl ServerPowerTerms {
    /// Total server power at a normalized GPU load in `[0, 1]`.
    #[inline]
    #[must_use]
    pub fn at_load(&self, load: f64) -> Kilowatts {
        let load = load.clamp(0.0, 1.0);
        let dynamic = self.w1 * load + self.w2 * load * load;
        self.idle + self.span * dynamic
    }
}

impl ServerPowerModel {
    /// The hoisted constants of the server power curve for one spec.
    #[inline]
    #[must_use]
    pub fn server_power_terms(&self, spec: &ServerSpec) -> ServerPowerTerms {
        let w1 = self.linear_weight.clamp(0.0, 1.0);
        ServerPowerTerms {
            w1,
            w2: 1.0 - w1,
            idle: spec.idle_power,
            span: spec.max_power - spec.idle_power,
        }
    }

    /// Total server power at a normalized GPU load in `[0, 1]` (mean across the GPUs).
    #[inline]
    #[must_use]
    pub fn server_power(&self, spec: &ServerSpec, load: f64) -> Kilowatts {
        self.server_power_terms(spec).at_load(load)
    }

    /// The `(static floor, dynamic coefficient)` of the per-GPU power formula in watts: one
    /// GPU draws `static + dynamic · clamp(u) · clamp(f)³`. Single source of the formula's
    /// constants for [`Self::gpu_power`] and the engine's fused per-row pass.
    #[inline]
    #[must_use]
    pub fn gpu_power_terms(&self, spec: &ServerSpec) -> (f64, f64) {
        let max = spec.gpu_max_power.to_watts().value();
        (0.15 * max, 0.85 * max)
    }

    /// Power drawn by a single GPU running at the given utilization and frequency scale.
    ///
    /// `frequency_scale` in `(0, 1]` models DVFS: power scales roughly with `f³` for the
    /// dynamic part (voltage tracks frequency) on top of a static floor.
    #[inline]
    #[must_use]
    pub fn gpu_power(&self, spec: &ServerSpec, utilization: f64, frequency_scale: f64) -> Watts {
        let (static_power, dynamic_coeff) = self.gpu_power_terms(spec);
        let utilization = utilization.clamp(0.0, 1.0);
        let f = frequency_scale.clamp(0.1, 1.0);
        let f3 = (f * f) * f;
        Watts::new(static_power + dynamic_coeff * utilization * f3)
    }

    /// Splits a server's total power into per-GPU draws plus the shared overhead, given each
    /// GPU's utilization and frequency scale.
    ///
    /// Returns `(per_gpu_power, overhead_power)` where the overhead covers fans, CPUs, memory
    /// and storage. The sum of the parts equals [`Self::server_power`] evaluated at the mean
    /// utilization, so aggregation at row level is consistent whichever representation is
    /// used.
    #[must_use]
    pub fn split_server_power(
        &self,
        spec: &ServerSpec,
        gpu_utilization: &[f64],
        frequency_scale: &[f64],
    ) -> (Vec<Watts>, Watts) {
        let mut per_gpu = vec![Watts::ZERO; gpu_utilization.len()];
        let overhead =
            self.split_server_power_into(spec, gpu_utilization, frequency_scale, &mut per_gpu);
        (per_gpu, overhead)
    }

    /// Allocation-free variant of [`Self::split_server_power`]: writes the per-GPU draws into
    /// `per_gpu` and returns the shared overhead power.
    ///
    /// # Panics
    /// Panics if the three slices do not have equal length.
    #[must_use]
    pub fn split_server_power_into(
        &self,
        spec: &ServerSpec,
        gpu_utilization: &[f64],
        frequency_scale: &[f64],
        per_gpu: &mut [Watts],
    ) -> Watts {
        assert_eq!(
            gpu_utilization.len(),
            frequency_scale.len(),
            "utilization and frequency slices must have equal length"
        );
        assert_eq!(
            gpu_utilization.len(),
            per_gpu.len(),
            "utilization and frequency slices must have equal length"
        );
        // `Self::gpu_power` with the per-spec constants hoisted so the loop vectorizes.
        let (static_power, dynamic_coeff) = self.gpu_power_terms(spec);
        let mut gpu_sum = 0.0;
        let mut load_sum = 0.0;
        for ((out, &u), &f) in per_gpu.iter_mut().zip(gpu_utilization).zip(frequency_scale) {
            let utilization = u.clamp(0.0, 1.0);
            let frequency = f.clamp(0.1, 1.0);
            let f3 = (frequency * frequency) * frequency;
            let power = static_power + dynamic_coeff * utilization * f3;
            gpu_sum += power;
            load_sum += u;
            *out = Watts::new(power);
        }
        let mean_load = if gpu_utilization.is_empty() {
            0.0
        } else {
            load_sum / gpu_utilization.len() as f64
        };
        let total = self.server_power(spec, mean_load).to_watts();
        Watts::new((total.value() - gpu_sum).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ServerSpec;

    #[test]
    fn endpoints_match_spec() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        assert_eq!(model.server_power(&spec, 0.0), spec.idle_power);
        assert_eq!(model.server_power(&spec, 1.0), spec.max_power);
        // Clamping outside [0, 1].
        assert_eq!(model.server_power(&spec, -0.5), spec.idle_power);
        assert_eq!(model.server_power(&spec, 1.5), spec.max_power);
    }

    #[test]
    fn power_is_monotone_in_load() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_h100();
        let mut last = 0.0;
        for i in 0..=20 {
            let p = model.server_power(&spec, f64::from(i) / 20.0).value();
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn idle_power_is_a_significant_fraction() {
        // §2.2: "Even when idle, servers consume significant power".
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        let idle = model.server_power(&spec, 0.0).value();
        let max = model.server_power(&spec, 1.0).value();
        assert!(idle / max > 0.15, "idle fraction {}", idle / max);
    }

    #[test]
    fn gpu_power_scales_with_frequency_cubed() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        let full = model.gpu_power(&spec, 1.0, 1.0).value();
        let half_freq = model.gpu_power(&spec, 1.0, 0.5).value();
        let static_part = 0.15 * spec.gpu_max_power.to_watts().value();
        let expected = static_part + (full - static_part) * 0.125;
        assert!((half_freq - expected).abs() < 1e-9);
        assert!(half_freq < full);
    }

    #[test]
    fn gpu_power_at_full_load_full_freq_equals_gpu_tdp() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        let p = model.gpu_power(&spec, 1.0, 1.0);
        assert!((p.value() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn split_conserves_total_power() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        let utils = vec![0.9, 0.8, 0.0, 0.5, 1.0, 0.2, 0.6, 0.7];
        let freqs = vec![1.0; 8];
        let (per_gpu, overhead) = model.split_server_power(&spec, &utils, &freqs);
        assert_eq!(per_gpu.len(), 8);
        let mean_load: f64 = utils.iter().sum::<f64>() / 8.0;
        let total_expected = model.server_power(&spec, mean_load).to_watts().value();
        let total_actual: f64 = per_gpu.iter().map(|p| p.value()).sum::<f64>() + overhead.value();
        assert!((total_actual - total_expected).abs() < 1e-6);
        assert!(overhead.value() > 0.0, "non-GPU components draw power");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn split_rejects_mismatched_slices() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        let _ = model.split_server_power(&spec, &[0.5, 0.5], &[1.0]);
    }

    #[test]
    fn split_handles_empty_server() {
        let model = ServerPowerModel::default();
        let spec = ServerSpec::dgx_a100();
        let (per_gpu, overhead) = model.split_server_power(&spec, &[], &[]);
        assert!(per_gpu.is_empty());
        assert_eq!(overhead, spec.idle_power.to_watts());
    }
}
