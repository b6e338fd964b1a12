//! GPU hardware description used by the analytic performance model.
//!
//! Only the quantities the roofline model needs are captured: peak dense FP16 compute, HBM
//! bandwidth, HBM capacity and the board power limit. The numbers correspond to the SXM
//! variants shipped in DGX A100 / DGX H100 systems, the servers the paper characterizes.

/// One GPU's capability envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuHardware {
    /// Marketing name.
    pub name: &'static str,
    /// Peak dense FP16 tensor throughput in TFLOP/s at nominal clocks.
    pub peak_fp16_tflops: f64,
    /// HBM bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// HBM capacity in GB.
    pub memory_capacity_gb: f64,
    /// Board power limit in watts.
    pub max_power_w: f64,
    /// Fraction of peak compute achievable in practice for transformer kernels (model FLOPs
    /// utilization during prefill).
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth achievable in practice during decode.
    pub bandwidth_efficiency: f64,
    /// Number of GPUs in the host server.
    pub gpus_per_server: usize,
}

impl GpuHardware {
    /// NVIDIA A100 SXM 80 GB.
    #[must_use]
    pub fn a100() -> Self {
        Self {
            name: "A100-SXM-80GB",
            peak_fp16_tflops: 312.0,
            memory_bandwidth_gbps: 2039.0,
            memory_capacity_gb: 80.0,
            max_power_w: 400.0,
            compute_efficiency: 0.45,
            bandwidth_efficiency: 0.65,
            gpus_per_server: 8,
        }
    }

    /// NVIDIA H100 SXM 80 GB.
    #[must_use]
    pub fn h100() -> Self {
        Self {
            name: "H100-SXM-80GB",
            peak_fp16_tflops: 989.0,
            memory_bandwidth_gbps: 3350.0,
            memory_capacity_gb: 80.0,
            max_power_w: 700.0,
            compute_efficiency: 0.40,
            bandwidth_efficiency: 0.65,
            gpus_per_server: 8,
        }
    }

    /// Effective compute throughput in FLOP/s at a frequency scale in `(0, 1]`.
    #[must_use]
    pub fn effective_flops(&self, frequency_scale: f64) -> f64 {
        self.peak_fp16_tflops * 1.0e12 * self.compute_efficiency * frequency_scale.clamp(0.1, 1.0)
    }

    /// Effective memory bandwidth in byte/s at a frequency scale.
    ///
    /// HBM bandwidth is only mildly sensitive to core clocks; we model a 30 % dependence,
    /// which is why decode (memory-bound) is less frequency-sensitive than prefill — the
    /// behaviour §3.3 reports.
    #[must_use]
    pub fn effective_bandwidth(&self, frequency_scale: f64) -> f64 {
        let f = frequency_scale.clamp(0.1, 1.0);
        self.memory_bandwidth_gbps * 1.0e9 * self.bandwidth_efficiency * (0.7 + 0.3 * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_values_are_sane() {
        let a100 = GpuHardware::a100();
        let h100 = GpuHardware::h100();
        assert!(h100.peak_fp16_tflops > a100.peak_fp16_tflops);
        assert!(h100.memory_bandwidth_gbps > a100.memory_bandwidth_gbps);
        assert_eq!(a100.gpus_per_server, 8);
        assert_eq!(a100.memory_capacity_gb, 80.0);
        assert_eq!(a100.max_power_w, 400.0);
        assert_eq!(h100.max_power_w, 700.0);
    }

    #[test]
    fn frequency_scaling_hits_compute_harder_than_bandwidth() {
        let gpu = GpuHardware::a100();
        let compute_ratio = gpu.effective_flops(0.5) / gpu.effective_flops(1.0);
        let bandwidth_ratio = gpu.effective_bandwidth(0.5) / gpu.effective_bandwidth(1.0);
        assert!((compute_ratio - 0.5).abs() < 1e-9);
        assert!(
            bandwidth_ratio > 0.8,
            "bandwidth should be less frequency sensitive"
        );
    }

    #[test]
    fn frequency_scale_is_clamped() {
        let gpu = GpuHardware::a100();
        assert_eq!(gpu.effective_flops(0.0), gpu.effective_flops(0.1));
        assert_eq!(gpu.effective_flops(2.0), gpu.effective_flops(1.0));
    }
}
