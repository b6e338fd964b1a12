//! Analytic roofline performance model for LLM inference.
//!
//! Inference has two phases (§3.3, [Splitwise/Sarathi-style phase split]):
//!
//! * **Prefill** processes the whole prompt in parallel and is compute-bound: its time is the
//!   prompt FLOPs divided by the effective tensor throughput of the GPUs the instance spans.
//! * **Decode** generates one token per sequence per iteration and is memory-bandwidth-bound:
//!   every iteration must stream the full weights (plus the KV cache of the running batch)
//!   from HBM, so batching amortizes the weight reads.
//!
//! The SLO definition follows the paper: TTFT and TBT must stay within 5× their value on an
//! unloaded system. *Goodput* is the token throughput achievable while meeting the SLO.

use crate::config::InstanceConfig;
use crate::hardware::GpuHardware;
use serde::{Deserialize, Serialize};

/// Default prompt length used for unloaded-latency calibration (tokens).
pub const CALIBRATION_PROMPT_TOKENS: usize = 512;
/// Default generation length used for calibration (tokens).
pub const CALIBRATION_OUTPUT_TOKENS: usize = 256;
/// SLO multiplier over the unloaded latency (§3.3: "defined as 5× the execution time on an
/// unloaded system").
pub const SLO_MULTIPLIER: f64 = 5.0;

/// The analytic performance model for one GPU generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    gpu: GpuHardware,
}

/// Latency targets derived from the unloaded latencies of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloTargets {
    /// Maximum acceptable time to first token, in seconds.
    pub ttft_s: f64,
    /// Maximum acceptable time between tokens, in seconds.
    pub tbt_s: f64,
}

/// The roofline step formulas of one configuration on one GPU generation, with the
/// per-configuration constants precomputed ([`PerfModel::step_model`]). These are the only
/// copies of the formulas: [`PerfModel`]'s per-call methods build a `StepModel` and
/// delegate, so both paths round identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepModel {
    /// `2 × parameters`: FLOPs per token.
    two_parameters: f64,
    /// Weight bytes streamed from HBM per decode iteration.
    weight_bytes: f64,
    /// KV-cache bytes per context token.
    kv_bytes_per_token: f64,
    /// Aggregate effective compute of the instance in FLOP/s.
    instance_flops: f64,
    /// Aggregate effective HBM bandwidth of the instance in byte/s.
    instance_bandwidth: f64,
}

impl StepModel {
    /// Prefill time for a prompt of `prompt_tokens` tokens, in seconds.
    #[must_use]
    pub fn prefill_time_s(&self, prompt_tokens: usize) -> f64 {
        self.two_parameters * prompt_tokens as f64 / self.instance_flops
    }

    /// Time of one decode iteration for a batch of `batch_size` sequences whose mean context
    /// length is `mean_context_tokens`, in seconds.
    ///
    /// The iteration is the maximum of its memory time (weights + KV cache streamed once) and
    /// its compute time (one token of FLOPs per sequence).
    #[must_use]
    pub fn decode_step_time_s(&self, batch_size: usize, mean_context_tokens: usize) -> f64 {
        let batch = batch_size.max(1) as f64;
        let kv_bytes = batch * mean_context_tokens as f64 * self.kv_bytes_per_token;
        let memory_time = (self.weight_bytes + kv_bytes) / self.instance_bandwidth;
        memory_time.max(self.compute_time_s(batch_size))
    }

    /// Compute time of one decode iteration (one token of FLOPs per sequence), in seconds.
    fn compute_time_s(&self, batch_size: usize) -> f64 {
        self.two_parameters * batch_size.max(1) as f64 / self.instance_flops
    }
}

impl PerfModel {
    /// Creates the model for a GPU generation.
    #[must_use]
    pub fn new(gpu: GpuHardware) -> Self {
        Self { gpu }
    }

    /// The GPU hardware this model describes.
    #[must_use]
    pub fn gpu(&self) -> &GpuHardware {
        &self.gpu
    }

    /// The per-configuration constants of the step formulas, computed once so a caller
    /// that times many iterations of one configuration does not recompute them.
    #[must_use]
    pub fn step_model(&self, config: &InstanceConfig) -> StepModel {
        let frequency = config.frequency.value();
        let parameters = config.variant.size.parameters();
        StepModel {
            two_parameters: 2.0 * parameters,
            weight_bytes: parameters * config.variant.quantization.bytes_per_param(),
            kv_bytes_per_token: config.variant.kv_bytes_per_token(),
            instance_flops: self.gpu.effective_flops(frequency)
                * config.parallelism.gpus() as f64
                * config.parallelism.scaling_efficiency()
                * config.variant.quantization.compute_speedup(),
            instance_bandwidth: self.gpu.effective_bandwidth(frequency)
                * config.parallelism.gpus() as f64
                * config.parallelism.scaling_efficiency(),
        }
    }

    /// Prefill time for a prompt of `prompt_tokens` tokens, in seconds.
    #[must_use]
    pub fn prefill_time_s(&self, config: &InstanceConfig, prompt_tokens: usize) -> f64 {
        self.step_model(config).prefill_time_s(prompt_tokens)
    }

    /// Time of one decode iteration for a batch of `batch_size` sequences whose mean context
    /// length is `mean_context_tokens`, in seconds; see [`StepModel::decode_step_time_s`].
    #[must_use]
    pub fn decode_step_time_s(
        &self,
        config: &InstanceConfig,
        batch_size: usize,
        mean_context_tokens: usize,
    ) -> f64 {
        self.step_model(config)
            .decode_step_time_s(batch_size, mean_context_tokens)
    }

    /// Fraction of a decode iteration spent compute-bound (a proxy for GPU utilization and
    /// therefore power during decode). Larger batches raise it; it is clamped to `[0.12, 0.95]`
    /// because even a batch of one keeps the memory subsystem and schedulers busy.
    #[must_use]
    pub fn decode_compute_fraction(
        &self,
        config: &InstanceConfig,
        batch_size: usize,
        mean_context_tokens: usize,
    ) -> f64 {
        let model = self.step_model(config);
        let step = model.decode_step_time_s(batch_size, mean_context_tokens);
        (model.compute_time_s(batch_size) / step).clamp(0.12, 0.95)
    }

    /// Unloaded time-to-first-token: prefill of the calibration prompt with nothing else
    /// running, in seconds.
    #[must_use]
    pub fn ttft_unloaded_s(&self, config: &InstanceConfig) -> f64 {
        self.prefill_time_s(config, CALIBRATION_PROMPT_TOKENS)
    }

    /// Unloaded time-between-tokens: a batch-of-one decode iteration at the calibration
    /// context length, in seconds.
    #[must_use]
    pub fn tbt_unloaded_s(&self, config: &InstanceConfig) -> f64 {
        self.decode_step_time_s(
            config,
            1,
            CALIBRATION_PROMPT_TOKENS + CALIBRATION_OUTPUT_TOKENS / 2,
        )
    }

    /// SLO targets for a configuration (5× the unloaded latencies).
    #[must_use]
    pub fn slo_targets(&self, config: &InstanceConfig) -> SloTargets {
        SloTargets {
            ttft_s: SLO_MULTIPLIER * self.ttft_unloaded_s(config),
            tbt_s: SLO_MULTIPLIER * self.tbt_unloaded_s(config),
        }
    }

    /// The largest batch size (up to the configured maximum) whose decode iteration still
    /// meets the TBT SLO.
    #[must_use]
    pub fn slo_feasible_batch(&self, config: &InstanceConfig) -> usize {
        let targets = self.slo_targets(config);
        let model = self.step_model(config);
        let context = CALIBRATION_PROMPT_TOKENS + CALIBRATION_OUTPUT_TOKENS / 2;
        let mut best = 1;
        for batch in 1..=config.max_batch_size.max(1) {
            if model.decode_step_time_s(batch, context) <= targets.tbt_s {
                best = batch;
            } else {
                break;
            }
        }
        best
    }

    /// Goodput: decode tokens per second at the largest SLO-feasible batch size.
    #[must_use]
    pub fn goodput_tokens_per_s(&self, config: &InstanceConfig) -> f64 {
        let batch = self.slo_feasible_batch(config);
        let context = CALIBRATION_PROMPT_TOKENS + CALIBRATION_OUTPUT_TOKENS / 2;
        let step = self.decode_step_time_s(config, batch, context);
        batch as f64 / step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FrequencyScale, TensorParallelism};
    use crate::model::{ModelSize, ModelVariant, Quantization};

    fn model() -> PerfModel {
        PerfModel::new(GpuHardware::a100())
    }

    fn config_70b() -> InstanceConfig {
        InstanceConfig::default_70b()
    }

    #[test]
    fn unloaded_latencies_are_in_a_plausible_range() {
        let m = model();
        let cfg = config_70b();
        let ttft = m.ttft_unloaded_s(&cfg);
        let tbt = m.tbt_unloaded_s(&cfg);
        // 70B on 8×A100: tens of milliseconds for a 512-token prefill, 10–40 ms per token.
        assert!((0.01..0.5).contains(&ttft), "ttft {ttft}");
        assert!((0.005..0.08).contains(&tbt), "tbt {tbt}");
    }

    #[test]
    fn smaller_models_are_faster() {
        let m = model();
        let big = config_70b();
        let mut small = big;
        small.variant = ModelVariant::new(ModelSize::Llama2_7B, Quantization::Fp16);
        assert!(m.ttft_unloaded_s(&small) < m.ttft_unloaded_s(&big));
        assert!(m.tbt_unloaded_s(&small) < m.tbt_unloaded_s(&big));
        assert!(m.goodput_tokens_per_s(&small) > m.goodput_tokens_per_s(&big));
    }

    #[test]
    fn quantization_speeds_up_decode() {
        let m = model();
        let fp16 = config_70b();
        let mut fp8 = fp16;
        fp8.variant = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp8);
        assert!(m.tbt_unloaded_s(&fp8) < m.tbt_unloaded_s(&fp16));
        assert!(m.goodput_tokens_per_s(&fp8) > m.goodput_tokens_per_s(&fp16));
    }

    #[test]
    fn lower_parallelism_is_slower_per_instance() {
        let m = model();
        let tp8 = config_70b();
        let mut tp4 = tp8;
        tp4.parallelism = TensorParallelism::Tp4;
        assert!(m.prefill_time_s(&tp4, 512) > m.prefill_time_s(&tp8, 512));
        assert!(m.decode_step_time_s(&tp4, 16, 700) > m.decode_step_time_s(&tp8, 16, 700));
    }

    #[test]
    fn lower_frequency_hurts_prefill_more_than_decode() {
        let m = model();
        let nominal = config_70b();
        let mut slow = nominal;
        slow.frequency = FrequencyScale::new(0.55);
        let prefill_ratio = m.prefill_time_s(&slow, 512) / m.prefill_time_s(&nominal, 512);
        let decode_ratio =
            m.decode_step_time_s(&slow, 1, 700) / m.decode_step_time_s(&nominal, 1, 700);
        assert!(
            prefill_ratio > decode_ratio,
            "prefill should be more frequency sensitive"
        );
        assert!(prefill_ratio > 1.5);
        assert!(decode_ratio < 1.3);
    }

    #[test]
    fn decode_time_grows_with_batch_and_context() {
        let m = model();
        let cfg = config_70b();
        let t1 = m.decode_step_time_s(&cfg, 1, 700);
        let t64 = m.decode_step_time_s(&cfg, 64, 700);
        let t64_long = m.decode_step_time_s(&cfg, 64, 4000);
        assert!(t64 > t1);
        assert!(t64_long > t64);
        // Batching amortizes the weight read: 64× the tokens in much less than 64× the time.
        assert!(t64 < 10.0 * t1);
    }

    #[test]
    fn decode_compute_fraction_increases_with_batch() {
        let m = model();
        let cfg = config_70b();
        let low = m.decode_compute_fraction(&cfg, 1, 700);
        let high = m.decode_compute_fraction(&cfg, 64, 700);
        assert!(high > low);
        assert!((0.12..=0.95).contains(&low));
        assert!((0.12..=0.95).contains(&high));
    }

    #[test]
    fn slo_targets_are_five_times_unloaded() {
        let m = model();
        let cfg = config_70b();
        let targets = m.slo_targets(&cfg);
        assert!((targets.ttft_s - 5.0 * m.ttft_unloaded_s(&cfg)).abs() < 1e-12);
        assert!((targets.tbt_s - 5.0 * m.tbt_unloaded_s(&cfg)).abs() < 1e-12);
    }

    #[test]
    fn slo_feasible_batch_respects_configured_maximum() {
        let m = model();
        let mut cfg = config_70b();
        cfg.max_batch_size = 16;
        assert!(m.slo_feasible_batch(&cfg) <= 16);
        cfg.max_batch_size = 1;
        assert_eq!(m.slo_feasible_batch(&cfg), 1);
    }

    #[test]
    fn goodput_is_positive_and_higher_on_h100() {
        let a100 = PerfModel::new(GpuHardware::a100());
        let h100 = PerfModel::new(GpuHardware::h100());
        let cfg = config_70b();
        assert!(a100.goodput_tokens_per_s(&cfg) > 0.0);
        assert!(h100.goodput_tokens_per_s(&cfg) > a100.goodput_tokens_per_s(&cfg));
    }
}
