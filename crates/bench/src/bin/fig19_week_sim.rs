//! Fig. 19 — large-scale week-long simulation: maximum temperature and peak row power,
//! Baseline vs TAPAS.
//!
//! The paper simulates ≈1000 servers for one week at 5-minute resolution and reports that
//! TAPAS reduces the maximum temperature by ≈15 % and the peak row power by ≈24 % without
//! hurting result quality. The quick mode uses the two-row cluster for two days; pass
//! `--full` for the paper-scale run.

use cluster_sim::experiment::ExperimentConfig;
use cluster_sim::simulator::ClusterSimulator;
use serde::Serialize;
use tapas::policy::Policy;
use tapas_bench::{full_scale_requested, header, percent_change, print_table, write_json};

#[derive(Serialize)]
struct Fig19Output {
    full_scale: bool,
    baseline_peak_temp_c: f64,
    tapas_peak_temp_c: f64,
    temp_reduction_pct: f64,
    baseline_peak_power_kw: f64,
    tapas_peak_power_kw: f64,
    power_reduction_pct: f64,
    baseline_quality: f64,
    tapas_quality: f64,
    baseline_temp_series: Vec<(u64, f64)>,
    tapas_temp_series: Vec<(u64, f64)>,
    baseline_power_series: Vec<(u64, f64)>,
    tapas_power_series: Vec<(u64, f64)>,
}

fn config(policy: Policy, full: bool) -> ExperimentConfig {
    if full {
        ExperimentConfig::production_week(policy)
    } else {
        ExperimentConfig::medium(policy)
    }
}

fn main() {
    let full = full_scale_requested();
    header(&format!(
        "Figure 19: max temperature and peak row power over {} (Baseline vs TAPAS)",
        if full {
            "1 week, ~1000 servers"
        } else {
            "2 days, 80 servers (quick mode)"
        }
    ));
    let baseline = ClusterSimulator::new(config(Policy::Baseline, full)).run();
    let tapas = ClusterSimulator::new(config(Policy::Tapas, full)).run();

    let temp_reduction = percent_change(baseline.peak_temperature_c(), tapas.peak_temperature_c());
    let power_reduction = percent_change(baseline.peak_row_power_kw(), tapas.peak_row_power_kw());

    print_table(
        "Week-long simulation",
        &[
            (
                "Baseline max temperature".to_string(),
                format!("{:.1} °C", baseline.peak_temperature_c()),
            ),
            (
                "TAPAS max temperature".to_string(),
                format!("{:.1} °C", tapas.peak_temperature_c()),
            ),
            (
                "Max temperature reduction".to_string(),
                format!("{temp_reduction:.1} % (paper: ≈ −15 %)"),
            ),
            (
                "Baseline peak row power".to_string(),
                format!("{:.1} kW", baseline.peak_row_power_kw()),
            ),
            (
                "TAPAS peak row power".to_string(),
                format!("{:.1} kW", tapas.peak_row_power_kw()),
            ),
            (
                "Peak power reduction".to_string(),
                format!("{power_reduction:.1} % (paper: ≈ −24 %)"),
            ),
            (
                "Baseline mean quality".to_string(),
                format!("{:.3}", baseline.mean_quality()),
            ),
            (
                "TAPAS mean quality".to_string(),
                format!("{:.3}", tapas.mean_quality()),
            ),
        ],
    );

    let series = |s: &simkit::series::TimeSeries| -> Vec<(u64, f64)> {
        s.iter().map(|(t, v)| (t.as_minutes(), v)).collect()
    };
    write_json(
        "fig19_week_sim",
        &Fig19Output {
            full_scale: full,
            baseline_peak_temp_c: baseline.peak_temperature_c(),
            tapas_peak_temp_c: tapas.peak_temperature_c(),
            temp_reduction_pct: temp_reduction,
            baseline_peak_power_kw: baseline.peak_row_power_kw(),
            tapas_peak_power_kw: tapas.peak_row_power_kw(),
            power_reduction_pct: power_reduction,
            baseline_quality: baseline.mean_quality(),
            tapas_quality: tapas.mean_quality(),
            baseline_temp_series: series(&baseline.max_gpu_temp),
            tapas_temp_series: series(&tapas.max_gpu_temp),
            baseline_power_series: series(&baseline.peak_row_power),
            tapas_power_series: series(&tapas.peak_row_power),
        },
    );
}
