//! Per-configuration steady-state profiles (Table 1 / Fig. 15 / Fig. 16 inputs).
//!
//! The offline profiling phase of TAPAS runs every configuration on the target hardware and
//! records, for both inference phases, the per-GPU utilization and power, the server power,
//! and the resulting goodput and quality. The profile is what the instance configurator and
//! the load balancer consult at run time; the datacenter engine uses the per-GPU power and
//! memory-boundedness to compute temperatures.

use crate::config::InstanceConfig;
use crate::hardware::GpuHardware;
use crate::perf::PerfModel;
use serde::{Deserialize, Serialize};
use simkit::units::{Kilowatts, Watts};

/// Host-side (non-GPU) power of a DGX-class server attributable to one instance occupying the
/// whole machine: fans, CPUs, NVMe, NICs. Split proportionally when an instance uses fewer
/// GPUs than the server has.
const HOST_OVERHEAD_KW: f64 = 1.6;

/// Steady-state behaviour of one configuration during one phase (prefill or decode).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Utilization of each GPU the instance occupies, in `[0, 1]`.
    pub gpu_utilization: f64,
    /// Power of each GPU the instance occupies.
    pub gpu_power: Watts,
    /// Power of the whole server slice the instance occupies (GPUs + proportional host
    /// overhead).
    pub server_power: Kilowatts,
    /// Memory-boundedness in `[0, 1]` (drives GPU-memory temperature in the thermal model).
    pub memory_boundedness: f64,
}

/// The full profile of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigProfile {
    /// The configuration this profile describes.
    pub config: InstanceConfig,
    /// Prefill-phase behaviour.
    pub prefill: PhaseProfile,
    /// Decode-phase behaviour.
    pub decode: PhaseProfile,
    /// Goodput (tokens/s within the TTFT/TBT SLO).
    pub goodput_tokens_per_s: f64,
    /// Result quality in `[0, 1]`.
    pub quality: f64,
    /// Unloaded TTFT in seconds.
    pub ttft_unloaded_s: f64,
    /// Unloaded TBT in seconds.
    pub tbt_unloaded_s: f64,
}

/// GPU power at a given utilization and frequency: a static floor plus a dynamic part that
/// scales with utilization and the cube of the frequency (DVFS).
fn gpu_power(gpu: &GpuHardware, utilization: f64, frequency_scale: f64) -> Watts {
    let u = utilization.clamp(0.0, 1.0);
    let f = frequency_scale.clamp(0.1, 1.0);
    Watts::new(0.15 * gpu.max_power_w + 0.85 * gpu.max_power_w * u * f.powi(3))
}

impl ConfigProfile {
    /// Builds the profile for one configuration on one GPU generation, using the analytic
    /// performance model.
    #[must_use]
    pub fn build(config: &InstanceConfig, gpu: &GpuHardware) -> Self {
        let perf = PerfModel::new(*gpu);
        let freq = config.frequency.value();
        let gpus = config.parallelism.gpus() as f64;

        // Prefill: compute-bound, all occupied GPUs near full utilization (scaled by the
        // parallelism efficiency — communication stalls show up as lower utilization).
        let prefill_util = 0.95 * config.parallelism.scaling_efficiency();
        let prefill_gpu_power = gpu_power(gpu, prefill_util, freq);
        let prefill = PhaseProfile {
            gpu_utilization: prefill_util,
            gpu_power: prefill_gpu_power,
            server_power: Kilowatts::new(
                prefill_gpu_power.value() * gpus / 1000.0
                    + HOST_OVERHEAD_KW * gpus / gpu.gpus_per_server as f64,
            ),
            memory_boundedness: 0.15,
        };

        // Decode: memory-bound; utilization (and therefore power) grows with the batch size.
        let context =
            crate::perf::CALIBRATION_PROMPT_TOKENS + crate::perf::CALIBRATION_OUTPUT_TOKENS / 2;
        let batch = perf.slo_feasible_batch(config);
        let decode_util = perf.decode_compute_fraction(config, batch, context)
            * config.parallelism.scaling_efficiency()
            + 0.15;
        let decode_util = decode_util.clamp(0.0, 0.95);
        let decode_gpu_power = gpu_power(gpu, decode_util, freq);
        // Smaller batches fetch data in smaller, less efficient bursts, which drives the
        // memory controller (and memory temperature) harder relative to useful work (§3.3).
        let memory_boundedness =
            (0.95 - 0.25 * (config.max_batch_size as f64 / 64.0).min(1.0)).clamp(0.0, 1.0);
        let decode = PhaseProfile {
            gpu_utilization: decode_util,
            gpu_power: decode_gpu_power,
            server_power: Kilowatts::new(
                decode_gpu_power.value() * gpus / 1000.0
                    + HOST_OVERHEAD_KW * gpus / gpu.gpus_per_server as f64,
            ),
            memory_boundedness,
        };

        Self {
            config: *config,
            prefill,
            decode,
            goodput_tokens_per_s: perf.goodput_tokens_per_s(config),
            quality: config.quality(),
            ttft_unloaded_s: perf.ttft_unloaded_s(config),
            tbt_unloaded_s: perf.tbt_unloaded_s(config),
        }
    }

    /// Builds profiles for every configuration in the profiling sweep that fits in GPU memory.
    #[must_use]
    pub fn sweep(gpu: &GpuHardware) -> Vec<ConfigProfile> {
        InstanceConfig::enumerate()
            .into_iter()
            .filter(|c| c.fits_in_memory(gpu.memory_capacity_gb))
            .map(|c| ConfigProfile::build(&c, gpu))
            .collect()
    }

    /// Steady-state server power of a mixed prefill/decode workload where `decode_fraction`
    /// of the time is spent decoding.
    #[must_use]
    pub fn blended_server_power(&self, decode_fraction: f64) -> Kilowatts {
        let d = decode_fraction.clamp(0.0, 1.0);
        self.prefill.server_power * (1.0 - d) + self.decode.server_power * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FrequencyScale, TensorParallelism};
    use crate::model::{ModelSize, ModelVariant, Quantization};

    fn a100() -> GpuHardware {
        GpuHardware::a100()
    }

    #[test]
    fn prefill_draws_more_gpu_power_than_decode() {
        // Fig. 15: the prompt (prefill) phase is the power-hungry one.
        let profile = ConfigProfile::build(&InstanceConfig::default_70b(), &a100());
        assert!(profile.prefill.gpu_power.value() > profile.decode.gpu_power.value());
        assert!(profile.prefill.server_power.value() > profile.decode.server_power.value());
        assert!(profile.prefill.memory_boundedness < profile.decode.memory_boundedness);
    }

    #[test]
    fn lower_parallelism_lowers_server_power_but_raises_per_gpu_power() {
        // Fig. 15a: TP2 concentrates the same work in fewer GPUs.
        let tp8 = ConfigProfile::build(&InstanceConfig::default_70b(), &a100());
        let mut cfg = InstanceConfig::default_70b();
        cfg.variant = ModelVariant::new(ModelSize::Llama2_13B, Quantization::Fp16);
        cfg.parallelism = TensorParallelism::Tp8;
        let tp8_13b = ConfigProfile::build(&cfg, &a100());
        cfg.parallelism = TensorParallelism::Tp2;
        let tp2_13b = ConfigProfile::build(&cfg, &a100());
        // Server power: fewer GPUs active -> lower.
        assert!(tp2_13b.decode.server_power.value() < tp8_13b.decode.server_power.value());
        assert!(tp2_13b.prefill.server_power.value() < tp8_13b.prefill.server_power.value());
        // Per-GPU (hottest GPU) power: the concentrated work runs each GPU harder during
        // decode, where batching keeps the fewer GPUs busier.
        assert!(tp2_13b.decode.gpu_power.value() >= tp8_13b.decode.gpu_power.value());
        let _ = tp8;
    }

    #[test]
    fn smaller_batches_reduce_power_but_raise_memory_boundedness() {
        // Fig. 15b: batch 64 vs 16 vs 1.
        let mut cfg = InstanceConfig::default_70b();
        cfg.max_batch_size = 64;
        let b64 = ConfigProfile::build(&cfg, &a100());
        cfg.max_batch_size = 16;
        let b16 = ConfigProfile::build(&cfg, &a100());
        cfg.max_batch_size = 1;
        let b1 = ConfigProfile::build(&cfg, &a100());
        assert!(b64.decode.gpu_power.value() >= b16.decode.gpu_power.value());
        assert!(b16.decode.gpu_power.value() >= b1.decode.gpu_power.value());
        assert!(b1.decode.memory_boundedness > b64.decode.memory_boundedness);
        assert!(b64.goodput_tokens_per_s > b1.goodput_tokens_per_s);
    }

    #[test]
    fn smaller_models_reduce_power_and_quality() {
        // Fig. 15c / Table 1.
        let big = ConfigProfile::build(&InstanceConfig::default_70b(), &a100());
        let mut cfg = InstanceConfig::default_70b();
        cfg.variant = ModelVariant::new(ModelSize::Llama2_7B, Quantization::Fp16);
        let small = ConfigProfile::build(&cfg, &a100());
        assert!(small.decode.server_power.value() < big.decode.server_power.value());
        assert!(small.goodput_tokens_per_s > big.goodput_tokens_per_s);
        assert!(small.quality < big.quality);
    }

    #[test]
    fn lower_frequency_reduces_power_without_quality_impact() {
        let nominal = ConfigProfile::build(&InstanceConfig::default_70b(), &a100());
        let mut cfg = InstanceConfig::default_70b();
        cfg.frequency = FrequencyScale::new(0.55);
        let slow = ConfigProfile::build(&cfg, &a100());
        assert!(slow.prefill.gpu_power.value() < nominal.prefill.gpu_power.value());
        assert!(slow.decode.gpu_power.value() < nominal.decode.gpu_power.value());
        assert!(slow.goodput_tokens_per_s < nominal.goodput_tokens_per_s);
        assert_eq!(slow.quality, nominal.quality);
    }

    #[test]
    fn quantization_reduces_power_with_small_quality_cost() {
        let fp16 = ConfigProfile::build(&InstanceConfig::default_70b(), &a100());
        let mut cfg = InstanceConfig::default_70b();
        cfg.variant = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp8);
        let fp8 = ConfigProfile::build(&cfg, &a100());
        assert!(fp8.goodput_tokens_per_s > fp16.goodput_tokens_per_s);
        assert!(fp8.quality < fp16.quality);
        assert!(fp8.quality > 0.9);
    }

    #[test]
    fn sweep_excludes_configs_that_do_not_fit() {
        let profiles = ConfigProfile::sweep(&a100());
        let all = InstanceConfig::enumerate().len();
        assert!(
            profiles.len() < all,
            "the 70B FP16 TP2 configs must be filtered out"
        );
        assert!(profiles.len() > all / 2);
        for p in &profiles {
            assert!(p.config.fits_in_memory(80.0));
            assert!(p.goodput_tokens_per_s > 0.0);
            assert!(p.prefill.server_power.value() > 0.0);
        }
    }

    #[test]
    fn blended_power_interpolates_between_phases() {
        let p = ConfigProfile::build(&InstanceConfig::default_70b(), &a100());
        assert_eq!(p.blended_server_power(0.0), p.prefill.server_power);
        assert_eq!(p.blended_server_power(1.0), p.decode.server_power);
        let mid = p.blended_server_power(0.5).value();
        assert!(mid < p.prefill.server_power.value());
        assert!(mid > p.decode.server_power.value());
    }

    #[test]
    fn server_power_is_below_dgx_tdp() {
        for profile in ConfigProfile::sweep(&a100()) {
            assert!(
                profile.prefill.server_power.value() <= 6.5 + 1e-9,
                "prefill power {} exceeds DGX A100 TDP for {}",
                profile.prefill.server_power,
                profile.config
            );
        }
    }
}
