//! The instance configuration space.
//!
//! Table 1 of the paper lists the knobs an LLM inference server exposes and their impact:
//!
//! | knob | perf | temp | power | quality |
//! |------|------|------|-------|---------|
//! | model size 70B→7B | ↑ | ↓ | ↓ | ↓↓ |
//! | quantization FP16→FP8 | ↑ | ↓ | ↓ | ↓ |
//! | parallelism TP8→TP2 | ↓ | ↑ (hottest GPU) | ↓ (server) | − |
//! | frequency 2 GHz→1 GHz | ↓ | ↓ | ↓ | − |
//! | batch size 64→16 | ↓ | ↓ | ↓ | − |
//!
//! [`InstanceConfig`] is one point in that space; [`InstanceConfig::enumerate`] produces the
//! configurations the offline profiling phase sweeps, and [`ReconfigurationCost`] captures how
//! disruptive it is to move between two configurations (frequency changes are instantaneous,
//! model changes require a reload, §4.3).

use crate::model::{ModelSize, ModelVariant, Quantization};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Tensor-parallel degree of an instance (the paper considers powers of two compatible with
/// the Llama-2 KV-head counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TensorParallelism {
    /// Two GPUs per instance.
    Tp2,
    /// Four GPUs per instance.
    Tp4,
    /// Eight GPUs per instance (whole DGX server).
    Tp8,
}

impl TensorParallelism {
    /// All supported degrees, smallest first.
    pub const ALL: [TensorParallelism; 3] = [
        TensorParallelism::Tp2,
        TensorParallelism::Tp4,
        TensorParallelism::Tp8,
    ];

    /// Number of GPUs the instance occupies.
    #[must_use]
    pub fn gpus(self) -> usize {
        match self {
            TensorParallelism::Tp2 => 2,
            TensorParallelism::Tp4 => 4,
            TensorParallelism::Tp8 => 8,
        }
    }

    /// Communication efficiency: the fraction of ideal linear scaling actually achieved
    /// (all-reduce overheads grow with the degree).
    #[must_use]
    pub fn scaling_efficiency(self) -> f64 {
        match self {
            TensorParallelism::Tp2 => 0.95,
            TensorParallelism::Tp4 => 0.88,
            TensorParallelism::Tp8 => 0.80,
        }
    }
}

impl fmt::Display for TensorParallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TP{}", self.gpus())
    }
}

/// GPU clock setting expressed as a fraction of nominal frequency.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct FrequencyScale(f64);

impl FrequencyScale {
    /// Nominal clocks.
    pub const NOMINAL: Self = Self(1.0);

    /// The discrete frequency steps the configurator considers (≈2.0 GHz down to ≈1.0 GHz on
    /// an A100, expressed as fractions of nominal).
    pub const STEPS: [f64; 4] = [1.0, 0.85, 0.7, 0.55];

    /// Creates a frequency scale, clamping into `[0.1, 1.0]`.
    #[must_use]
    pub fn new(scale: f64) -> Self {
        Self(scale.clamp(0.1, 1.0))
    }

    /// The raw fraction.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Default for FrequencyScale {
    fn default() -> Self {
        Self::NOMINAL
    }
}

impl fmt::Display for FrequencyScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

/// A full instance configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Model size and precision.
    pub variant: ModelVariant,
    /// Tensor-parallel degree.
    pub parallelism: TensorParallelism,
    /// Maximum continuous-batching batch size.
    pub max_batch_size: usize,
    /// GPU clock setting.
    pub frequency: FrequencyScale,
}

impl InstanceConfig {
    /// The paper's default SaaS configuration: Llama-2 70B, FP16, TP8, batch 64, nominal
    /// clocks.
    #[must_use]
    pub fn default_70b() -> Self {
        Self {
            variant: ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp16),
            parallelism: TensorParallelism::Tp8,
            max_batch_size: 64,
            frequency: FrequencyScale::NOMINAL,
        }
    }

    /// A small, cool fallback configuration (7B, FP8, TP2, batch 16).
    #[must_use]
    pub fn small_fallback() -> Self {
        Self {
            variant: ModelVariant::new(ModelSize::Llama2_7B, Quantization::Fp8),
            parallelism: TensorParallelism::Tp2,
            max_batch_size: 16,
            frequency: FrequencyScale::NOMINAL,
        }
    }

    /// The batch sizes the offline profiling sweep considers (§3.3 uses 1, 16, 64).
    pub const BATCH_SIZES: [usize; 3] = [1, 16, 64];

    /// Enumerates the full configuration space the offline profiling phase sweeps:
    /// 3 sizes × 3 quantizations × 3 parallelism degrees × 3 batch sizes × 4 frequencies.
    #[must_use]
    pub fn enumerate() -> Vec<InstanceConfig> {
        let mut configs = Vec::new();
        for size in ModelSize::ALL {
            for quant in Quantization::ALL {
                for tp in TensorParallelism::ALL {
                    for &batch in &Self::BATCH_SIZES {
                        for &freq in &FrequencyScale::STEPS {
                            configs.push(InstanceConfig {
                                variant: ModelVariant::new(size, quant),
                                parallelism: tp,
                                max_batch_size: batch,
                                frequency: FrequencyScale::new(freq),
                            });
                        }
                    }
                }
            }
        }
        configs
    }

    /// Result quality of this configuration in `[0, 1]`.
    #[must_use]
    pub fn quality(&self) -> f64 {
        self.variant.quality()
    }

    /// Returns `true` if the model weights (plus a working margin) fit in the aggregate HBM of
    /// the GPUs the instance occupies.
    #[must_use]
    pub fn fits_in_memory(&self, gpu_memory_gb: f64) -> bool {
        let total_memory = gpu_memory_gb * self.parallelism.gpus() as f64;
        // Reserve 25 % of HBM for KV cache and activations.
        self.variant.weight_bytes_gb() <= total_memory * 0.75
    }

    /// Cost of switching from `self` to `to`.
    #[must_use]
    pub fn reconfiguration_cost(&self, to: &InstanceConfig) -> ReconfigurationCost {
        if self == to {
            ReconfigurationCost::None
        } else if self.variant == to.variant && self.parallelism == to.parallelism {
            // Frequency and batch-size changes apply immediately (§3.3: frequency "can be
            // applied instantaneously due to its relatively low overhead").
            ReconfigurationCost::Online
        } else {
            // Changing the model size, quantization or parallelism requires reloading the
            // model, which takes a few seconds to tens of seconds (§4.3).
            let gb_to_load = to.variant.weight_bytes_gb();
            // Assume ≈4 GB/s effective load bandwidth from local NVMe into HBM.
            let seconds = (gb_to_load / 4.0).max(2.0);
            ReconfigurationCost::Reload { seconds }
        }
    }
}

impl Default for InstanceConfig {
    fn default() -> Self {
        Self::default_70b()
    }
}

impl fmt::Display for InstanceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} batch={} freq={}",
            self.variant, self.parallelism, self.max_batch_size, self.frequency
        )
    }
}

/// How disruptive a configuration change is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReconfigurationCost {
    /// No change at all.
    None,
    /// Applied online without restarting the instance (frequency, batch size).
    Online,
    /// Requires reloading the model; the instance is unavailable for `seconds`.
    Reload {
        /// Downtime in seconds.
        seconds: f64,
    },
}

impl ReconfigurationCost {
    /// Downtime in seconds (zero for [`Self::None`] and [`Self::Online`]).
    #[must_use]
    pub fn downtime_seconds(&self) -> f64 {
        match self {
            ReconfigurationCost::None | ReconfigurationCost::Online => 0.0,
            ReconfigurationCost::Reload { seconds } => *seconds,
        }
    }

    /// Returns `true` if the change requires a model reload.
    #[must_use]
    pub fn requires_reload(&self) -> bool {
        matches!(self, ReconfigurationCost::Reload { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_gpu_counts() {
        assert_eq!(TensorParallelism::Tp2.gpus(), 2);
        assert_eq!(TensorParallelism::Tp8.gpus(), 8);
        assert_eq!(TensorParallelism::Tp8.to_string(), "TP8");
        assert!(
            TensorParallelism::Tp2.scaling_efficiency()
                > TensorParallelism::Tp8.scaling_efficiency()
        );
    }

    #[test]
    fn frequency_scale_clamps_and_displays() {
        assert_eq!(FrequencyScale::new(1.5).value(), 1.0);
        assert_eq!(FrequencyScale::new(0.0).value(), 0.1);
        assert_eq!(FrequencyScale::new(0.7).to_string(), "70%");
        assert_eq!(FrequencyScale::default(), FrequencyScale::NOMINAL);
    }

    #[test]
    fn enumerate_covers_the_profiling_sweep() {
        let configs = InstanceConfig::enumerate();
        assert_eq!(configs.len(), 3 * 3 * 3 * 3 * 4);
        // All entries are distinct.
        for (i, a) in configs.iter().enumerate() {
            for b in &configs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn memory_fit_depends_on_parallelism_and_quantization() {
        let mut cfg = InstanceConfig::default_70b();
        // 70B FP16 = 140 GB of weights: does not fit in 2×80 GB with margin, fits in 4×80 GB.
        cfg.parallelism = TensorParallelism::Tp2;
        assert!(!cfg.fits_in_memory(80.0));
        cfg.parallelism = TensorParallelism::Tp4;
        assert!(cfg.fits_in_memory(80.0));
        // INT4 quantization shrinks it enough for TP2.
        cfg.parallelism = TensorParallelism::Tp2;
        cfg.variant = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Int4);
        assert!(cfg.fits_in_memory(80.0));
        // The 7B model fits everywhere.
        let small = InstanceConfig::small_fallback();
        assert!(small.fits_in_memory(80.0));
    }

    #[test]
    fn reconfiguration_costs_follow_the_paper() {
        let base = InstanceConfig::default_70b();
        assert_eq!(base.reconfiguration_cost(&base), ReconfigurationCost::None);

        let mut freq_change = base;
        freq_change.frequency = FrequencyScale::new(0.7);
        assert_eq!(
            base.reconfiguration_cost(&freq_change),
            ReconfigurationCost::Online
        );
        assert_eq!(
            base.reconfiguration_cost(&freq_change).downtime_seconds(),
            0.0
        );

        let mut batch_change = base;
        batch_change.max_batch_size = 16;
        assert_eq!(
            base.reconfiguration_cost(&batch_change),
            ReconfigurationCost::Online
        );

        let small = InstanceConfig::small_fallback();
        let cost = base.reconfiguration_cost(&small);
        assert!(cost.requires_reload());
        assert!(cost.downtime_seconds() >= 2.0);
        // Loading the bigger model takes longer than loading the smaller one.
        let back = small.reconfiguration_cost(&base);
        assert!(back.downtime_seconds() > cost.downtime_seconds());
    }

    #[test]
    fn display_is_informative() {
        let cfg = InstanceConfig::default_70b();
        let s = cfg.to_string();
        assert!(s.contains("llama2-70b"));
        assert!(s.contains("TP8"));
        assert!(s.contains("batch=64"));
    }

    #[test]
    fn quality_delegates_to_variant() {
        assert_eq!(InstanceConfig::default_70b().quality(), 1.0);
        assert!(InstanceConfig::small_fallback().quality() < 0.65);
    }
}
