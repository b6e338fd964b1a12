//! Model catalog, quantization formats and the quality model.
//!
//! The paper's SaaS workload serves Llama-2 in three sizes (70B, 13B, 7B). Smaller models are
//! dramatically cheaper to serve (lower power and temperature) but lose 30–40 % quality
//! relative to the 70B model; quantization costs another 2–20 % depending on the format
//! (§3.3). TAPAS steers load toward cheaper variants only when necessary and accounts the
//! quality loss against a per-service quality SLO.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The parameter count tier of a served model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ModelSize {
    /// Llama-2 7B.
    Llama2_7B,
    /// Llama-2 13B.
    Llama2_13B,
    /// Llama-2 70B.
    Llama2_70B,
}

impl ModelSize {
    /// All catalog entries from largest (highest quality) to smallest.
    pub const ALL: [ModelSize; 3] = [
        ModelSize::Llama2_70B,
        ModelSize::Llama2_13B,
        ModelSize::Llama2_7B,
    ];

    /// Number of parameters.
    #[must_use]
    pub fn parameters(self) -> f64 {
        match self {
            ModelSize::Llama2_7B => 7.0e9,
            ModelSize::Llama2_13B => 13.0e9,
            ModelSize::Llama2_70B => 70.0e9,
        }
    }

    /// Number of transformer layers (used for KV-cache sizing).
    #[must_use]
    pub fn layers(self) -> usize {
        match self {
            ModelSize::Llama2_7B => 32,
            ModelSize::Llama2_13B => 40,
            ModelSize::Llama2_70B => 80,
        }
    }

    /// Hidden dimension (used for KV-cache sizing).
    #[must_use]
    pub fn hidden_dim(self) -> usize {
        match self {
            ModelSize::Llama2_7B => 4096,
            ModelSize::Llama2_13B => 5120,
            ModelSize::Llama2_70B => 8192,
        }
    }

    /// Number of key/value heads. Llama-2 70B uses grouped-query attention with 8 KV heads,
    /// which is also why the paper only considers tensor parallelism in powers of two up to 8.
    #[must_use]
    pub fn kv_heads(self) -> usize {
        match self {
            ModelSize::Llama2_7B => 32,
            ModelSize::Llama2_13B => 40,
            ModelSize::Llama2_70B => 8,
        }
    }

    /// Relative answer quality in `[0, 1]`, with the 70B FP16 model as the 1.0 reference.
    ///
    /// §3.3: "the 7B model reduces result quality by 30–40 % compared to the 70B model".
    #[must_use]
    pub fn base_quality(self) -> f64 {
        match self {
            ModelSize::Llama2_7B => 0.63,
            ModelSize::Llama2_13B => 0.72,
            ModelSize::Llama2_70B => 1.0,
        }
    }

    /// Short human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelSize::Llama2_7B => "llama2-7b",
            ModelSize::Llama2_13B => "llama2-13b",
            ModelSize::Llama2_70B => "llama2-70b",
        }
    }
}

impl fmt::Display for ModelSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Weight/activation precision of a served model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Quantization {
    /// Half precision (the quality reference).
    Fp16,
    /// 8-bit floating point.
    Fp8,
    /// 4-bit integer weights.
    Int4,
}

impl Quantization {
    /// All supported formats from highest to lowest precision.
    pub const ALL: [Quantization; 3] = [Quantization::Fp16, Quantization::Fp8, Quantization::Int4];

    /// Bytes per parameter.
    #[must_use]
    pub fn bytes_per_param(self) -> f64 {
        match self {
            Quantization::Fp16 => 2.0,
            Quantization::Fp8 => 1.0,
            Quantization::Int4 => 0.5,
        }
    }

    /// Multiplicative quality factor relative to FP16 (§3.3: 2–20 % impact).
    #[must_use]
    pub fn quality_factor(self) -> f64 {
        match self {
            Quantization::Fp16 => 1.0,
            Quantization::Fp8 => 0.97,
            Quantization::Int4 => 0.88,
        }
    }

    /// Compute speed-up factor relative to FP16 (lower precision math is faster where the
    /// hardware supports it; INT4 is mostly a bandwidth win, not a compute win).
    #[must_use]
    pub fn compute_speedup(self) -> f64 {
        match self {
            Quantization::Fp16 => 1.0,
            Quantization::Fp8 => 1.6,
            Quantization::Int4 => 1.6,
        }
    }

    /// Short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Quantization::Fp16 => "fp16",
            Quantization::Fp8 => "fp8",
            Quantization::Int4 => "int4",
        }
    }
}

impl fmt::Display for Quantization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete model variant: a size at a precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ModelVariant {
    /// Parameter-count tier.
    pub size: ModelSize,
    /// Precision.
    pub quantization: Quantization,
}

impl ModelVariant {
    /// Creates a variant.
    #[must_use]
    pub fn new(size: ModelSize, quantization: Quantization) -> Self {
        Self { size, quantization }
    }

    /// Total weight footprint in gigabytes.
    #[must_use]
    pub fn weight_bytes_gb(&self) -> f64 {
        self.size.parameters() * self.quantization.bytes_per_param() / 1.0e9
    }

    /// Combined quality in `[0, 1]` (size quality × quantization factor).
    #[must_use]
    pub fn quality(&self) -> f64 {
        self.size.base_quality() * self.quantization.quality_factor()
    }

    /// KV-cache bytes per token (2 tensors × layers × kv_heads/heads scaled hidden dim ×
    /// 2 bytes — the cache is kept at FP16 regardless of weight quantization).
    #[must_use]
    pub fn kv_bytes_per_token(&self) -> f64 {
        let head_dim = self.size.hidden_dim() as f64
            / (self.size.hidden_dim() as f64 / 128.0).max(1.0).round();
        let kv_dim = self.size.kv_heads() as f64 * head_dim;
        2.0 * self.size.layers() as f64 * kv_dim * 2.0
    }
}

impl fmt::Display for ModelVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.size, self.quantization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_and_names() {
        assert_eq!(ModelSize::Llama2_70B.parameters(), 70.0e9);
        assert_eq!(ModelSize::Llama2_7B.parameters(), 7.0e9);
        assert_eq!(ModelSize::Llama2_70B.to_string(), "llama2-70b");
        assert_eq!(Quantization::Fp8.to_string(), "fp8");
        assert_eq!(ModelSize::ALL.len(), 3);
        assert_eq!(Quantization::ALL.len(), 3);
    }

    #[test]
    fn quality_ordering_matches_paper() {
        // 70B > 13B > 7B, and the 7B model is 30–40 % below the 70B reference.
        let q70 = ModelSize::Llama2_70B.base_quality();
        let q13 = ModelSize::Llama2_13B.base_quality();
        let q7 = ModelSize::Llama2_7B.base_quality();
        assert!(q70 > q13 && q13 > q7);
        assert!(
            (0.60..=0.70).contains(&q7),
            "7B quality loss should be 30–40 %"
        );
        // Quantization costs 2–20 %.
        for q in Quantization::ALL {
            let loss = 1.0 - q.quality_factor();
            assert!((0.0..=0.20).contains(&loss));
        }
    }

    #[test]
    fn quantization_shrinks_weights() {
        let fp16 = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp16);
        let fp8 = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp8);
        let int4 = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Int4);
        assert!((fp16.weight_bytes_gb() - 140.0).abs() < 1.0);
        assert!((fp8.weight_bytes_gb() - 70.0).abs() < 1.0);
        assert!((int4.weight_bytes_gb() - 35.0).abs() < 1.0);
    }

    #[test]
    fn variant_quality_composes() {
        let best = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp16);
        let worst = ModelVariant::new(ModelSize::Llama2_7B, Quantization::Int4);
        assert_eq!(best.quality(), 1.0);
        assert!(worst.quality() < 0.6);
        assert_eq!(best.to_string(), "llama2-70b-fp16");
    }

    #[test]
    fn kv_cache_grows_with_model_size() {
        let small = ModelVariant::new(ModelSize::Llama2_7B, Quantization::Fp16);
        let large = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp16);
        assert!(large.kv_bytes_per_token() > small.kv_bytes_per_token() * 0.5);
        assert!(small.kv_bytes_per_token() > 0.0);
        // Grouped-query attention keeps the 70B cache from exploding: per-token cache is less
        // than 10 MB for every variant.
        for size in ModelSize::ALL {
            let v = ModelVariant::new(size, Quantization::Fp16);
            assert!(v.kv_bytes_per_token() < 10.0e6);
        }
    }

    #[test]
    fn kv_heads_match_llama2_architecture() {
        assert_eq!(ModelSize::Llama2_70B.kv_heads(), 8);
        assert_eq!(ModelSize::Llama2_7B.kv_heads(), 32);
        assert_eq!(ModelSize::Llama2_70B.layers(), 80);
    }
}
