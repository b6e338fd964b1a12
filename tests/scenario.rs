//! Scenario-layer integration tests: golden-file serde round-trips for a fully loaded
//! 3-site fleet scenario, and strict loading of experiment and report artifacts (every key
//! is required).
//!
//! Regenerate the golden file after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test --test scenario`.

use tapas_repro::prelude::*;
use tapas_repro::workload::endpoints::EndpointId;

const GOLDEN_FLEET: &str = include_str!("golden/scenario_fleet.json");

/// The golden 3-site fleet: a heatwave on the hot site, a grid-price curve (base price,
/// a spike at site 1 and a cheap overnight window), a UPS failure at site 2 and demand
/// shaping — every event kind, both site-targeted and fleet-wide.
fn golden_fleet() -> FleetConfig {
    let base = ExperimentConfig::small_smoke_test()
        .with_policy(Policy::Tapas)
        .with_duration(SimTime::from_days(7))
        .with_step(SimDuration::from_minutes(30))
        .with_scenario(
            Scenario::builder()
                .base_grid_price(45.0)
                .heatwave(3..5, 8.0)
                .weather(0, SimTime::from_days(1), SimTime::from_days(2), 5.5)
                .grid_price_spike(1, SimTime::from_days(2), SimTime::from_days(3), 280.0)
                .grid_price(SiteSelector::All, SimTime::ZERO, SimTime::from_hours(6), 22.0)
                .fail_ups(2, SimTime::from_hours(50), SimTime::from_hours(53), 0.75)
                .fail_ahus(0, 1, 1, SimTime::from_hours(60), SimTime::from_hours(62), )
                .surge(SimTime::from_days(4), SimTime::from_days(5), 1.8)
                .endpoint_ramp(EndpointId(1), SimTime::from_days(5), SimTime::from_days(6), 2.5)
                .build()
                .expect("golden scenario is valid"),
        );
    FleetConfig::evaluation(base, 3)
}

#[test]
fn golden_fleet_scenario_round_trips_byte_for_byte() {
    let fleet = golden_fleet();
    fleet.check().expect("golden fleet is valid");
    let json = serde_json::to_string(&fleet).expect("serialize");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/scenario_fleet.json"), &json)
            .expect("write golden file");
        return;
    }

    assert_eq!(
        json,
        GOLDEN_FLEET.trim_end(),
        "serialized fleet drifted from the golden file; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test scenario"
    );
    let back: FleetConfig = serde_json::from_str(GOLDEN_FLEET).expect("deserialize golden");
    assert_eq!(back, fleet, "golden file must deserialize to the same fleet");
    // Re-serializing the round-tripped value is stable.
    assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
}

#[test]
fn golden_fleet_scenario_resolves_per_site() {
    let fleet = golden_fleet();
    // Site 1 sees the spike during day 2, everyone the cheap overnight window.
    let timeline = fleet.site_timeline(1);
    assert_eq!(timeline.grid_price_at(SimTime::ZERO), 22.0);
    assert_eq!(timeline.grid_price_at(SimTime::from_hours(60)), 280.0);
    assert_eq!(timeline.grid_price_at(SimTime::from_days(3)), 45.0);
    // Only site 2 sees the UPS failure.
    let failing = fleet.site_timeline(2);
    assert!(!failing.failures().state_at(SimTime::from_hours(51)).is_healthy());
    assert!(fleet.site_timeline(0).failures().state_at(SimTime::from_hours(51)).is_healthy());
    // The fleet-wide heatwave reaches every site; the extra site-0 episode only site 0.
    assert_eq!(fleet.site_timeline(2).temp_offset_at(SimTime::from_days(3)), 8.0);
    assert_eq!(fleet.site_timeline(0).temp_offset_at(SimTime::from_days(1)), 5.5);
    assert_eq!(fleet.site_timeline(1).temp_offset_at(SimTime::from_days(1)), 0.0);
}

/// `json` with the entry `"key":value` removed, together with its separating comma.
fn without_entry(json: &str, key: &str, value: &str) -> String {
    let entry = format!("\"{key}\":{value}");
    let stripped = json
        .replacen(&format!("{entry},"), "", 1)
        .replacen(&format!(",{entry}"), "", 1);
    assert_eq!(stripped.len(), json.len() - entry.len() - 1, "`{key}` must be present");
    stripped
}

#[test]
fn experiment_and_report_json_missing_a_key_is_an_error() {
    // Artifacts load only in the native shape: every key is written (`None` as `null`)
    // and a missing key is a typed error, never a default.
    let fleet = golden_fleet();
    let json = serde_json::to_string(&fleet).expect("serialize");
    let scenario = serde_json::to_string(&fleet.base.scenario).expect("serialize scenario");
    for (key, value) in
        [("scenario", scenario.as_str()), ("arrivals_per_day", "null"), ("request_fabric", "null")]
    {
        let error = serde_json::from_str::<FleetConfig>(&without_entry(&json, key, value))
            .expect_err("a config without the key must not load");
        assert!(error.to_string().contains(key), "{key}: {error}");
    }

    let config = ExperimentConfig::small_smoke_test()
        .with_duration(SimTime::from_hours(1))
        .with_request_fabric(RequestFabricConfig { rate_scale: 0.05, ..Default::default() });
    let report = ClusterSimulator::new(config).run();
    let metrics = report.request_fabric.as_ref().expect("the fabric ran");
    let json = serde_json::to_string(&report).expect("serialize report");
    let back: RunReport = serde_json::from_str(&json).expect("the native shape loads");
    assert_eq!(back.request_fabric.as_ref(), Some(metrics));
    let lifecycle = serde_json::to_string(&metrics.lifecycle).expect("serialize lifecycle");
    let fabric = serde_json::to_string(metrics).expect("serialize metrics");
    for (key, value) in [("lifecycle", lifecycle.as_str()), ("request_fabric", fabric.as_str())] {
        let error = serde_json::from_str::<RunReport>(&without_entry(&json, key, value))
            .expect_err("a report without the key must not load");
        assert!(error.to_string().contains(key), "{key}: {error}");
    }
}
