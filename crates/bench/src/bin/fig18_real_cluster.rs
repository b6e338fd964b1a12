//! Fig. 18 — real-cluster experiment: peak row power over one hour, Baseline vs TAPAS.
//!
//! The paper emulates two rows of 80 A100 servers for one hour at 1-minute resolution with a
//! 50/50 IaaS/SaaS mix and reports that TAPAS reduces the peak row power utilization by ≈20 %
//! while maintaining latency SLOs and result quality.

use cluster_sim::experiment::ExperimentConfig;
use cluster_sim::simulator::ClusterSimulator;
use serde::Serialize;
use tapas::policy::Policy;
use tapas_bench::{header, percent_change, print_table, write_json};

#[derive(Serialize)]
struct Fig18Output {
    baseline_series_kw: Vec<(u64, f64)>,
    tapas_series_kw: Vec<(u64, f64)>,
    baseline_peak_kw: f64,
    tapas_peak_kw: f64,
    peak_reduction_pct: f64,
    baseline_slo_attainment: f64,
    tapas_slo_attainment: f64,
    tapas_mean_quality: f64,
}

fn main() {
    header("Figure 18: peak row power over 1 hour, Baseline vs TAPAS (real-cluster replay)");
    let baseline =
        ClusterSimulator::new(ExperimentConfig::real_cluster_hour(Policy::Baseline)).run();
    let tapas = ClusterSimulator::new(ExperimentConfig::real_cluster_hour(Policy::Tapas)).run();

    let series = |report: &cluster_sim::metrics::RunReport| -> Vec<(u64, f64)> {
        report
            .peak_row_power
            .iter()
            .map(|(t, v)| (t.as_minutes(), v))
            .collect()
    };
    let reduction = percent_change(baseline.peak_row_power_kw(), tapas.peak_row_power_kw());

    print_table(
        "Peak row power (kW)",
        &[
            (
                "Baseline peak".to_string(),
                format!("{:.1}", baseline.peak_row_power_kw()),
            ),
            (
                "TAPAS peak".to_string(),
                format!("{:.1}", tapas.peak_row_power_kw()),
            ),
            (
                "Peak reduction".to_string(),
                format!("{reduction:.1} % (paper: ≈ −20 %)"),
            ),
            (
                "Baseline SLO attainment".to_string(),
                format!("{:.3}", baseline.slo_attainment()),
            ),
            (
                "TAPAS SLO attainment".to_string(),
                format!("{:.3}", tapas.slo_attainment()),
            ),
            (
                "TAPAS mean quality".to_string(),
                format!("{:.3}", tapas.mean_quality()),
            ),
        ],
    );
    println!("\nminute, baseline_kw, tapas_kw");
    for ((m, b), (_, t)) in series(&baseline).iter().zip(series(&tapas).iter()) {
        println!("{m:>4}, {b:8.1}, {t:8.1}");
    }

    write_json(
        "fig18_real_cluster",
        &Fig18Output {
            baseline_series_kw: series(&baseline),
            tapas_series_kw: series(&tapas),
            baseline_peak_kw: baseline.peak_row_power_kw(),
            tapas_peak_kw: tapas.peak_row_power_kw(),
            peak_reduction_pct: reduction,
            baseline_slo_attainment: baseline.slo_attainment(),
            tapas_slo_attainment: tapas.slo_attainment(),
            tapas_mean_quality: tapas.mean_quality(),
        },
    );
}
