//! Cross-crate integration tests: end-to-end simulations exercising the whole stack
//! (workload generation → placement → routing → reconfiguration → datacenter physics →
//! metrics) and the headline orderings the paper reports.

use tapas_repro::prelude::*;

/// The real-cluster hour (Fig. 18 shape): TAPAS must not worsen the power peak, and must keep
/// quality within the SLO.
#[test]
fn tapas_reduces_peak_row_power_on_the_real_cluster_hour() {
    let baseline =
        ClusterSimulator::new(ExperimentConfig::real_cluster_hour(Policy::Baseline)).run();
    let tapas = ClusterSimulator::new(ExperimentConfig::real_cluster_hour(Policy::Tapas)).run();

    assert!(
        tapas.peak_row_power_kw() <= baseline.peak_row_power_kw() * 1.005,
        "TAPAS peak row power ({:.1} kW) should not exceed the Baseline's ({:.1} kW)",
        tapas.peak_row_power_kw(),
        baseline.peak_row_power_kw()
    );
    assert!(
        tapas.peak_temperature_c() <= baseline.peak_temperature_c() + 1.0,
        "TAPAS must not run meaningfully hotter than the Baseline"
    );
    // Quality stays within the endpoint SLO under normal operation (§5.2: "without hurting
    // result quality").
    assert!(
        tapas.mean_quality() >= 0.85,
        "quality {:.3}",
        tapas.mean_quality()
    );
    assert!(baseline.requests_served > 0 && tapas.requests_served > 0);
}

/// The ablation ordering at the 50/50 mix (Fig. 20): full TAPAS is at least as good as the
/// Baseline on both peaks, and no partial policy beats full TAPAS by a meaningful margin.
#[test]
fn ablation_ordering_holds_on_the_medium_cluster() {
    let mut config = ExperimentConfig::medium(Policy::Baseline);
    config.duration = SimTime::from_hours(24);
    let baseline = ClusterSimulator::new(config.clone()).run();

    let mut tapas_config = config.clone();
    tapas_config.policy = Policy::Tapas;
    let tapas = ClusterSimulator::new(tapas_config).run();

    let mut place_config = config;
    place_config.policy = Policy::Place;
    let place = ClusterSimulator::new(place_config).run();

    // Peak power: TAPAS and its placement mechanism must not be meaningfully worse than the
    // Baseline (the reductions themselves are modest on this two-row quick configuration).
    assert!(tapas.peak_row_power_kw() <= baseline.peak_row_power_kw() * 1.05);
    assert!(place.peak_row_power_kw() <= baseline.peak_row_power_kw() * 1.05);
    // Peak temperature: thermal-aware placement is the reliable win and must show up.
    assert!(tapas.peak_temperature_c() <= baseline.peak_temperature_c() * 1.005);
    assert!(place.peak_temperature_c() <= baseline.peak_temperature_c() * 1.005);
}

/// A power emergency injected mid-run must produce capping events under the Baseline and the
/// simulation must remain stable under both policies.
#[test]
fn power_emergency_is_survivable() {
    for policy in [Policy::Baseline, Policy::Tapas] {
        let mut config = ExperimentConfig::medium(policy);
        config.duration = SimTime::from_hours(8);
        config.scenario = Scenario::power_emergency(SimTime::from_hours(3), SimTime::from_hours(5));
        let report = ClusterSimulator::new(config).run();
        assert_eq!(report.max_gpu_temp.len(), 8 * 6 + 1);
        assert!(
            report.peak_temperature_c() < 120.0,
            "temperatures must stay physical"
        );
        assert!(report.mean_quality() > 0.5);
    }
}

/// The profile store fitted by offline profiling must agree with the ground-truth datacenter
/// models it profiled (the paper's < 1 °C MAE claim), across the full production layout.
#[test]
fn offline_profiling_matches_ground_truth_at_scale() {
    let dc = Datacenter::new(LayoutConfig::production_datacenter().build(), 3);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    assert_eq!(profiles.server_count(), dc.layout().server_count());

    let mut worst_error: f64 = 0.0;
    for server in dc.layout().servers().iter().step_by(97) {
        for inlet in [18.0, 26.0, 34.0] {
            for power in [100.0, 350.0, 550.0] {
                let truth = (0..8)
                    .map(|slot| {
                        dc.gpu_model()
                            .temperatures(
                                dc_sim::ids::GpuId::new(server.id, slot),
                                Celsius::new(inlet),
                                Watts::new(power),
                                0.5,
                            )
                            .gpu
                            .value()
                    })
                    .fold(f64::MIN, f64::max);
                let predicted = profiles
                    .server(server.id)
                    .predicted_worst_gpu_temp(Celsius::new(inlet), Watts::new(power))
                    .value();
                worst_error = worst_error.max((truth - predicted).abs());
            }
        }
    }
    assert!(
        worst_error < 1.5,
        "worst-case fitted error {worst_error} °C"
    );
}

/// Reports are serializable (the bench harnesses persist them as JSON for EXPERIMENTS.md).
#[test]
fn run_reports_round_trip_through_json() {
    let report = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
    let json = serde_json::to_string(&report).expect("serialize");
    let back: RunReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.policy, report.policy);
    assert_eq!(back.max_gpu_temp.len(), report.max_gpu_temp.len());
}

/// The real-cluster hour under a 0.6 power cap for minutes 20–50: TAPAS degrades quality and
/// some instances overrun the SLO, so both of the report's counters are exercised.
fn capped_real_cluster_hour() -> RunReport {
    let scenario = Scenario::builder()
        .power_cap(
            SiteSelector::All,
            SimTime::from_minutes(20),
            SimTime::from_minutes(50),
            0.6,
        )
        .build()
        .expect("valid power-cap window");
    let config = ExperimentConfig::real_cluster_hour(Policy::Tapas).with_scenario(scenario);
    ClusterSimulator::new(config).run()
}

/// The worst-step SLO count and the mean quality, pinned to the bit: the per-step series
/// counts each SLO-violating instance once per step, and the running quality sum adds one
/// sample per served instance-step in recording order.
#[test]
fn capped_hour_pins_worst_step_slo_and_mean_quality() {
    let report = capped_real_cluster_hour();
    assert_eq!(report.worst_step_slo_violations(), 5);
    let quality = report.mean_quality();
    assert_eq!(
        quality.to_bits(),
        0x3fef_7cfc_2eab_3125,
        "mean quality {quality}"
    );
    assert_eq!(
        report.slo_violating_instances.len(),
        report.max_gpu_temp.len()
    );
    assert!(report.quality_samples > 0);
}

/// The report holds per-step series, counters and a fixed-size event tally, nothing per
/// event, per request or per instance-step.
#[test]
fn capped_hour_report_serializes_within_a_step_bounded_size() {
    let report = capped_real_cluster_hour();
    let json = serde_json::to_string(&report).expect("serialize");
    assert!(json.len() < 40_000, "{} bytes", json.len());

    // The capped hour's events serialize to the same bytes as an empty report's, up to
    // the decimal width of the tally's numbers.
    let empty = RunReport::new(&report.policy, report.horizon, report.step);
    let without_numbers = |report: &RunReport| {
        let events = serde_json::to_string(&report.events).expect("serialize");
        events
            .replace("null", "")
            .replace(|c: char| c.is_ascii_digit(), "")
    };
    assert!(report.events.count(simkit::events::EventKind::PowerCap) > 0);
    assert_eq!(without_numbers(&report), without_numbers(&empty));
}
