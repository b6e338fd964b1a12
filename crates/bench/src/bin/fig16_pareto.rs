//! Fig. 16 — normalized temperature and power (lower is better) versus goodput (higher is
//! better) for every profiled configuration, highlighting the per-model Pareto frontiers.

use llm_sim::hardware::GpuHardware;
use llm_sim::model::ModelSize;
use llm_sim::pareto::ParetoFrontier;
use llm_sim::profile::ConfigProfile;
use serde::Serialize;
use tapas_bench::{header, write_json};

#[derive(Serialize)]
struct ParetoRow {
    model: String,
    config: String,
    norm_goodput: f64,
    norm_temp_proxy: f64,
    norm_power: f64,
    quality: f64,
    on_frontier: bool,
}

fn main() {
    header("Figure 16: normalized temperature/power vs goodput with per-model Pareto frontiers");
    let gpu = GpuHardware::a100();
    let profiles = ConfigProfile::sweep(&gpu);
    let max_goodput = profiles
        .iter()
        .map(|p| p.goodput_tokens_per_s)
        .fold(0.0, f64::max);
    let max_gpu_power = profiles
        .iter()
        .map(|p| p.prefill.gpu_power.value().max(p.decode.gpu_power.value()))
        .fold(0.0, f64::max);
    let max_server_power = profiles
        .iter()
        .map(|p| p.blended_server_power(0.7).value())
        .fold(0.0, f64::max);

    let mut rows = Vec::new();
    for size in ModelSize::ALL {
        let frontier = ParetoFrontier::for_model(&profiles, size);
        for p in profiles.iter().filter(|p| p.config.variant.size == size) {
            let on_frontier = frontier
                .points()
                .iter()
                .any(|f| f.profile.config == p.config);
            rows.push(ParetoRow {
                model: size.to_string(),
                config: p.config.to_string(),
                norm_goodput: p.goodput_tokens_per_s / max_goodput,
                norm_temp_proxy: p.prefill.gpu_power.value().max(p.decode.gpu_power.value())
                    / max_gpu_power,
                norm_power: p.blended_server_power(0.7).value() / max_server_power,
                quality: p.quality,
                on_frontier,
            });
        }
        let frontier_points = rows
            .iter()
            .filter(|r| r.model == size.to_string() && r.on_frontier)
            .count();
        println!(
            "{size}: {} configurations profiled, {frontier_points} on the Pareto frontier",
            rows.iter().filter(|r| r.model == size.to_string()).count()
        );
    }

    println!(
        "\n{:<12} {:>12} {:>12} {:>12} {:>9}  frontier",
        "model", "norm.goodput", "norm.temp", "norm.power", "quality"
    );
    for r in rows.iter().filter(|r| r.on_frontier) {
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>12.3} {:>9.3}  {}",
            r.model, r.norm_goodput, r.norm_temp_proxy, r.norm_power, r.quality, r.config
        );
    }
    println!("\npaper: each model size has its own frontier; smaller models extend to higher goodput at lower temperature/power but lower quality.");

    write_json("fig16_pareto", &rows);
}
