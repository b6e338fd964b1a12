//! Table 1 / Fig. 15 — impact of each configuration parameter on performance, temperature,
//! power and quality, separately for the prefill and decode phases.
//!
//! The harness profiles the relevant configuration pairs and prints, for each knob, the
//! direction and rough magnitude of the change — the qualitative content of Table 1 and the
//! per-phase bars of Fig. 15.

use llm_sim::config::{FrequencyScale, InstanceConfig, TensorParallelism};
use llm_sim::hardware::GpuHardware;
use llm_sim::model::{ModelSize, ModelVariant, Quantization};
use llm_sim::profile::ConfigProfile;
use serde::Serialize;
use tapas_bench::{header, write_json};

#[derive(Serialize)]
struct KnobImpact {
    knob: String,
    change: String,
    goodput_change_pct: f64,
    prefill_gpu_power_change_pct: f64,
    decode_gpu_power_change_pct: f64,
    prefill_server_power_change_pct: f64,
    decode_server_power_change_pct: f64,
    quality_change_pct: f64,
}

fn pct(old: f64, new: f64) -> f64 {
    (new - old) / old * 100.0
}

fn impact(knob: &str, change: &str, from: &InstanceConfig, to: &InstanceConfig) -> KnobImpact {
    let gpu = GpuHardware::a100();
    let a = ConfigProfile::build(from, &gpu);
    let b = ConfigProfile::build(to, &gpu);
    KnobImpact {
        knob: knob.to_string(),
        change: change.to_string(),
        goodput_change_pct: pct(a.goodput_tokens_per_s, b.goodput_tokens_per_s),
        prefill_gpu_power_change_pct: pct(a.prefill.gpu_power.value(), b.prefill.gpu_power.value()),
        decode_gpu_power_change_pct: pct(a.decode.gpu_power.value(), b.decode.gpu_power.value()),
        prefill_server_power_change_pct: pct(
            a.prefill.server_power.value(),
            b.prefill.server_power.value(),
        ),
        decode_server_power_change_pct: pct(
            a.decode.server_power.value(),
            b.decode.server_power.value(),
        ),
        quality_change_pct: pct(a.quality, b.quality),
    }
}

fn main() {
    header("Table 1 / Figure 15: impact of each configuration parameter (per phase)");
    let base = InstanceConfig::default_70b();

    let mut smaller_model = base;
    smaller_model.variant = ModelVariant::new(ModelSize::Llama2_7B, Quantization::Fp16);
    let mut quantized = base;
    quantized.variant = ModelVariant::new(ModelSize::Llama2_70B, Quantization::Fp8);
    let mut tp2 = base;
    tp2.variant = ModelVariant::new(ModelSize::Llama2_13B, Quantization::Fp16);
    let mut tp2_base = tp2;
    tp2_base.parallelism = TensorParallelism::Tp8;
    tp2.parallelism = TensorParallelism::Tp2;
    let mut low_freq = base;
    low_freq.frequency = FrequencyScale::new(0.55);
    let mut small_batch = base;
    small_batch.max_batch_size = 16;

    let rows = vec![
        impact("Model size", "70B -> 7B", &base, &smaller_model),
        impact("Quantization", "FP16 -> FP8", &base, &quantized),
        impact("Parallelism", "TP8 -> TP2 (13B)", &tp2_base, &tp2),
        impact("Frequency", "100% -> 55%", &base, &low_freq),
        impact("Batch size", "64 -> 16", &base, &small_batch),
    ];

    println!(
        "{:<14} {:<18} {:>9} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "knob",
        "change",
        "goodput%",
        "prefill GPU%",
        "decode GPU%",
        "prefill srv%",
        "decode srv%",
        "quality%"
    );
    for r in &rows {
        println!(
            "{:<14} {:<18} {:>9.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>9.1}",
            r.knob,
            r.change,
            r.goodput_change_pct,
            r.prefill_gpu_power_change_pct,
            r.decode_gpu_power_change_pct,
            r.prefill_server_power_change_pct,
            r.decode_server_power_change_pct,
            r.quality_change_pct
        );
    }
    println!("\npaper (Table 1): smaller model ↑perf ↓temp ↓power ↓↓quality; FP8 ↑perf ↓temp ↓power ↓quality;");
    println!("TP2 ↓perf ↑hottest-GPU-temp ↓server-power; lower frequency ↓perf ↓temp ↓power; smaller batch ↓perf ↓temp ↓power.");

    write_json("table1_fig15_config_impact", &rows);
}
