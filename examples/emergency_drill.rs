//! Emergency drill: inject a UPS failure (power capacity drops to 75 %) and a cooling failure
//! (90 %) in the middle of a busy day and compare how the Baseline and TAPAS absorb them —
//! the scenario behind Table 2 and §5.4.
//!
//! Run with:
//! ```text
//! cargo run --release --example emergency_drill
//! ```

use cluster_sim::emergency::run_table2;
use tapas_repro::prelude::*;

fn main() {
    println!("Emergency drill: cooling and power failures on a loaded cluster\n");

    // Part 1: the closed-form Table 2 comparison (per-instance view).
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let table = run_table2(&profiles, 0.5);
    println!("Per-instance response (Table 2 shape):");
    println!(
        "  power emergency  — Baseline: IaaS {:.0} %, SaaS {:.0} % perf, 0 % quality",
        table.power_baseline.iaas_perf_pct, table.power_baseline.saas_perf_pct
    );
    println!(
        "  power emergency  — TAPAS   : IaaS {:.0} % perf, SaaS quality {:.0} %",
        table.power_tapas.iaas_perf_pct, table.power_tapas.saas_quality_pct
    );
    println!(
        "  thermal emergency— Baseline: IaaS {:.0} %, SaaS {:.0} % perf",
        table.thermal_baseline.iaas_perf_pct, table.thermal_baseline.saas_perf_pct
    );
    println!(
        "  thermal emergency— TAPAS   : IaaS {:.0} % perf, SaaS quality {:.0} %",
        table.thermal_tapas.iaas_perf_pct, table.thermal_tapas.saas_quality_pct
    );

    // Part 2: end-to-end simulation with the failure window injected mid-run, composed
    // through the scenario API (`Scenario::power_emergency` is the Table 2 preset).
    println!("\nEnd-to-end replay with a power emergency from hour 6 to hour 9:");
    for policy in [Policy::Baseline, Policy::Tapas] {
        let config = ExperimentConfig::medium(policy)
            .with_duration(SimTime::from_hours(12))
            .with_scenario(Scenario::power_emergency(
                SimTime::from_hours(6),
                SimTime::from_hours(9),
            ));
        let report = ClusterSimulator::new(config).run();
        println!(
            "  {:<10} power-capped {:6.2} % of the time, thermal-capped {:6.2} %, quality {:.3}",
            policy.label(),
            report.power_capped_time_fraction() * 100.0,
            report.thermal_capped_time_fraction() * 100.0,
            report.mean_quality()
        );
    }
    println!("\n(TAPAS routes around constrained servers and reconfigures SaaS instances; the Baseline can only cap.)");
}
