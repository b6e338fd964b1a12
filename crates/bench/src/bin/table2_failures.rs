//! Table 2 — failure management: performance and quality impact of power (75 % capacity) and
//! thermal (90 % capacity) emergencies under the Baseline and TAPAS.

use cluster_sim::emergency::run_table2;
use cluster_sim::experiment::ExperimentConfig;
use cluster_sim::scenario::Scenario;
use cluster_sim::simulator::ClusterSimulator;
use dc_sim::engine::Datacenter;
use dc_sim::topology::LayoutConfig;
use llm_sim::hardware::GpuHardware;
use simkit::time::SimTime;
use tapas::policy::Policy;
use tapas::profiles::ProfileStore;
use tapas_bench::{header, write_json};

fn main() {
    header("Table 2: Baseline vs TAPAS in power and thermal emergencies");
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let table = run_table2(&profiles, 0.5);

    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "", "IaaS perf", "SaaS perf", "IaaS qual", "SaaS qual"
    );
    let row = |label: &str, i: &cluster_sim::emergency::EmergencyImpact| {
        println!(
            "{:<22} {:>11.0}% {:>11.0}% {:>11.0}% {:>11.0}%",
            label, i.iaas_perf_pct, i.saas_perf_pct, i.iaas_quality_pct, i.saas_quality_pct
        );
    };
    row("Power/Baseline", &table.power_baseline);
    row("Power/TAPAS", &table.power_tapas);
    row("Thermal/Baseline", &table.thermal_baseline);
    row("Thermal/TAPAS", &table.thermal_tapas);
    println!(
        "\npaper: Baseline caps up to 35 % uniformly; TAPAS keeps IaaS at 0 % and trades ≤12 % (power) / ≤6 % (thermal) SaaS quality."
    );

    // End-to-end drills composed through the scenario presets: each emergency window is
    // injected into a 12-hour run and the capped-time fractions compared per policy.
    let start = SimTime::from_hours(6);
    let end = SimTime::from_hours(9);
    let drills = [
        (
            "power emergency (hours 6-9)",
            Scenario::power_emergency(start, end),
        ),
        (
            "thermal emergency (hours 6-9)",
            Scenario::thermal_emergency(start, end),
        ),
    ];
    println!("\nEnd-to-end scenario drills (12 h, two rows of 80 servers):");
    for (label, scenario) in drills {
        for policy in [Policy::Baseline, Policy::Tapas] {
            let config = ExperimentConfig::medium(policy)
                .with_duration(SimTime::from_hours(12))
                .with_scenario(scenario.clone());
            let report = ClusterSimulator::new(config).run();
            println!(
                "  {label:<28} {:<10} power-capped {:6.2} %, thermal-capped {:6.2} %, quality {:.3}",
                policy.label(),
                report.power_capped_time_fraction() * 100.0,
                report.thermal_capped_time_fraction() * 100.0,
                report.mean_quality()
            );
        }
    }

    write_json("table2_failures", &table);
}
