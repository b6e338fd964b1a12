//! Fig. 11 — 100 000 random VM placements across two rows: distribution of aisle peak GPU
//! temperature and row peak power, and the (lack of) correlation between them.
//!
//! Quick mode evaluates 2 000 placements; pass `--full` for the paper's 100 000.

use cluster_sim::placement_study::{PlacementSample, PlacementStudy};
use serde::Serialize;
use simkit::stats;
use tapas_bench::{full_scale_requested, header, print_table, write_json};

#[derive(Serialize)]
struct Fig11Output {
    samples_evaluated: usize,
    temp_p50_c: f64,
    temp_p99_c: f64,
    temp_p100_c: f64,
    power_p50_kw: f64,
    power_p99_kw: f64,
    power_p100_kw: f64,
    worst_over_best_power: f64,
    temperature_power_correlation: f64,
    samples: Vec<PlacementSample>,
}

fn main() {
    let full = full_scale_requested();
    header("Figure 11: random VM placements — peak temperature / row power distribution");
    let study = PlacementStudy {
        vm_count: 60,
        samples: if full { 100_000 } else { 2_000 },
        outside_temp_c: 32.0,
        seed: 42,
    };
    let samples = study.run();
    let temps: Vec<f64> = samples.iter().map(|s| s.max_temp_c).collect();
    let powers: Vec<f64> = samples.iter().map(|s| s.peak_row_power_kw).collect();
    let corr = PlacementStudy::temperature_power_correlation(&samples);

    let output = Fig11Output {
        samples_evaluated: samples.len(),
        temp_p50_c: stats::percentile(&temps, 50.0).unwrap(),
        temp_p99_c: stats::percentile(&temps, 99.0).unwrap(),
        temp_p100_c: stats::max(&temps).unwrap(),
        power_p50_kw: stats::percentile(&powers, 50.0).unwrap(),
        power_p99_kw: stats::percentile(&powers, 99.0).unwrap(),
        power_p100_kw: stats::max(&powers).unwrap(),
        worst_over_best_power: stats::max(&powers).unwrap() / stats::min(&powers).unwrap(),
        temperature_power_correlation: corr,
        samples: if full { Vec::new() } else { samples.clone() },
    };

    print_table(
        "Placement distribution",
        &[
            (
                "placements evaluated".to_string(),
                format!("{}", output.samples_evaluated),
            ),
            (
                "peak GPU temperature P50".to_string(),
                format!("{:.1} °C", output.temp_p50_c),
            ),
            (
                "peak GPU temperature P99".to_string(),
                format!("{:.1} °C", output.temp_p99_c),
            ),
            (
                "peak GPU temperature worst".to_string(),
                format!(
                    "{:.1} °C (paper: worst > 85 °C, typical ≈ 72 °C)",
                    output.temp_p100_c
                ),
            ),
            (
                "peak row power P50".to_string(),
                format!("{:.1} kW", output.power_p50_kw),
            ),
            (
                "peak row power worst/best".to_string(),
                format!(
                    "{:.2}× (paper: worst ≈ +27 % over best)",
                    output.worst_over_best_power
                ),
            ),
            (
                "temp/power correlation".to_string(),
                format!(
                    "{:.3} (paper: no correlation)",
                    output.temperature_power_correlation
                ),
            ),
        ],
    );

    write_json("fig11_random_placements", &output);
}
