//! Quickstart: simulate one hour of the two-row GPU cluster under the Baseline and under
//! TAPAS, and print how much the thermal and power peaks shrink.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use tapas_repro::prelude::*;

fn main() {
    println!("TAPAS quickstart: 80 A100 servers, 1 hour, 50/50 IaaS/SaaS mix\n");

    let baseline =
        ClusterSimulator::new(ExperimentConfig::real_cluster_hour(Policy::Baseline)).run();
    let tapas = ClusterSimulator::new(ExperimentConfig::real_cluster_hour(Policy::Tapas)).run();

    for report in [&baseline, &tapas] {
        println!("{}", report.one_liner());
    }

    let temp_change = (tapas.peak_temperature_c() / baseline.peak_temperature_c() - 1.0) * 100.0;
    let power_change = (tapas.peak_row_power_kw() / baseline.peak_row_power_kw() - 1.0) * 100.0;
    println!("\nTAPAS vs Baseline:");
    println!("  peak GPU temperature : {temp_change:+.1} %");
    println!("  peak row power       : {power_change:+.1} %");
    println!(
        "  SLO attainment       : {:.3} -> {:.3}",
        baseline.slo_attainment(),
        tapas.slo_attainment()
    );
    println!(
        "  mean result quality  : {:.3} -> {:.3}",
        baseline.mean_quality(),
        tapas.mean_quality()
    );
    println!("\n(The paper's real-cluster experiment reports ≈20 % lower peak power with unchanged latency and quality.)");
}
