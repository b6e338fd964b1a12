//! Chaos property tests: generated adversarial scenarios must never panic the
//! simulator, must keep every reported metric finite, and must be bit-reproducible for
//! a fixed seed. The sweep harness (`scenario_sweep`) explores quality under stress;
//! these tests pin the *survival* contract it relies on.
//!
//! Regenerate the pinned generated-scenario artifact after an intentional generator or
//! serde change with: `UPDATE_GOLDEN=1 cargo test --test chaos`.

use tapas_repro::prelude::*;

const GOLDEN_GENERATED: &str = include_str!("golden/generated_scenario.json");

fn single_config(seed: u64, tier: IntensityTier, policy: Policy) -> ExperimentConfig {
    let base = ExperimentConfig::small_smoke_test().with_policy(policy);
    let scenario = generate(
        seed,
        &GeneratorConfig {
            tier,
            sites: 1,
            duration: base.duration,
            endpoints: base.endpoint_count,
        },
    );
    base.with_scenario(scenario)
}

fn fleet_config(seed: u64, tier: IntensityTier) -> FleetConfig {
    let base = ExperimentConfig::small_smoke_test().with_policy(Policy::Tapas);
    let scenario = generate(
        seed,
        &GeneratorConfig {
            tier,
            sites: 3,
            duration: base.duration,
            endpoints: base.endpoint_count,
        },
    );
    FleetConfig::evaluation(base.with_scenario(scenario), 3)
}

fn assert_finite_run(report: &RunReport, label: &str) {
    assert!(
        report.peak_temperature_c().is_finite(),
        "{label}: peak temperature"
    );
    assert!(
        report.peak_row_power_kw().is_finite(),
        "{label}: peak row power"
    );
    assert!(
        (0.0..=1.0).contains(&report.slo_attainment()),
        "{label}: SLO attainment {}",
        report.slo_attainment()
    );
    assert!(report.mean_quality().is_finite(), "{label}: quality");
    assert!(
        report
            .datacenter_power
            .iter()
            .all(|(_, kw)| kw.is_finite() && kw >= 0.0),
        "{label}: power series"
    );
}

/// 105 generated scenarios — 20 seeds × 3 tiers on a single datacenter (alternating
/// policies) plus 15 seeds × 3 tiers on a 3-site fleet — all run to completion with
/// finite metrics. A panic anywhere fails the test.
#[test]
fn generated_scenarios_run_without_panicking_and_stay_finite() {
    let mut scenarios = 0;
    for tier in IntensityTier::ALL {
        for seed in 0..20 {
            let policy = if seed % 2 == 0 {
                Policy::Tapas
            } else {
                Policy::Baseline
            };
            let config = single_config(seed, tier, policy);
            let timeline = config.resolved_timeline();
            let report = ClusterSimulator::new(config).run();
            let label = format!("single {tier:?} seed {seed}");
            assert_finite_run(&report, &label);
            let cost = energy_cost_usd(&report, &timeline);
            assert!(
                cost.is_finite() && cost >= 0.0,
                "{label}: energy cost {cost}"
            );
            scenarios += 1;
        }
    }
    for tier in IntensityTier::ALL {
        for seed in 100..115 {
            let config = fleet_config(seed, tier);
            let cost_config = config.clone();
            let report = FleetSimulator::new(config).run();
            let label = format!("fleet {tier:?} seed {seed}");
            for site in &report.sites {
                assert_finite_run(site, &label);
            }
            assert!(
                report.power_capped_minutes().is_finite(),
                "{label}: capped minutes"
            );
            let cost = fleet_energy_cost_usd(&report, &cost_config);
            assert!(
                cost.is_finite() && cost >= 0.0,
                "{label}: energy cost {cost}"
            );
            scenarios += 1;
        }
    }
    assert!(
        scenarios >= 100,
        "chaos run covered only {scenarios} scenarios"
    );
}

/// The same seed produces byte-identical serialized reports — generation, resolution and
/// simulation are all deterministic end to end, single-DC and fleet alike.
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    for (seed, tier) in [(3, IntensityTier::Severe), (7, IntensityTier::Adversarial)] {
        let a = ClusterSimulator::new(single_config(seed, tier, Policy::Tapas)).run();
        let b = ClusterSimulator::new(single_config(seed, tier, Policy::Tapas)).run();
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "single-DC seed {seed} diverged"
        );

        let fa = FleetSimulator::new(fleet_config(seed, tier)).run();
        let fb = FleetSimulator::new(fleet_config(seed, tier)).run();
        assert_eq!(
            serde_json::to_string(&fa).expect("serialize"),
            serde_json::to_string(&fb).expect("serialize"),
            "fleet seed {seed} diverged"
        );
    }
}

fn fabric_chaos_config(seed: u64) -> FleetConfig {
    let base = ExperimentConfig::small_smoke_test()
        .with_policy(Policy::Tapas)
        .with_request_fabric(RequestFabricConfig {
            rate_scale: 2.0,
            deadline_shedding: true,
        });
    let scenario = generate(
        seed,
        &GeneratorConfig {
            tier: IntensityTier::Adversarial,
            sites: 3,
            duration: base.duration,
            endpoints: base.endpoint_count,
        },
    );
    FleetConfig::evaluation(base.with_scenario(scenario), 3)
}

/// Request-lifecycle chaos: a fabric-enabled fleet under generated adversarial
/// scenarios (replica kills included, deadline shedding on) survives with finite
/// metrics, sheds loudly rather than silently, and conserves every request exactly:
/// `arrived == completed + shed + timeouts + in_flight_at_horizon`. Same-seed runs are
/// byte-identical end to end.
#[test]
fn fabric_fleet_survives_generated_chaos_and_conserves_requests() {
    for seed in [11, 12, 13] {
        let report = FleetSimulator::new(fabric_chaos_config(seed)).run();
        let label = format!("fabric chaos seed {seed}");
        for site in &report.sites {
            assert_finite_run(site, &label);
        }
        let metrics = report.request_fabric().expect("every site ran the fabric");
        let lifecycle = metrics.lifecycle;
        assert!(lifecycle.arrived > 0, "{label}: no requests arrived");
        assert_eq!(
            lifecycle.arrived,
            metrics.completed
                + lifecycle.shed
                + lifecycle.timeouts
                + lifecycle.in_flight_at_horizon,
            "{label}: request conservation must hold exactly ({lifecycle:?})"
        );
        let attainment = metrics.attainment_at(5.0);
        assert!(
            (0.0..=1.0).contains(&attainment),
            "{label}: 5x SLO attainment {attainment}"
        );
    }

    let a = FleetSimulator::new(fabric_chaos_config(11)).run();
    let b = FleetSimulator::new(fabric_chaos_config(11)).run();
    assert_eq!(
        serde_json::to_string(&a).expect("serialize"),
        serde_json::to_string(&b).expect("serialize"),
        "fabric chaos fleet diverged for the same seed"
    );
}

/// Pinned golden artifact: the generated scenario for a fixed `(seed, config)` pair
/// serializes to exactly these bytes. Catches accidental drift in the generator's draw
/// order, tier parameters or the scenario serde format.
#[test]
fn golden_generated_scenario_round_trips_byte_for_byte() {
    let scenario = generate(
        7,
        &GeneratorConfig::new(IntensityTier::Adversarial, 3, SimTime::from_days(2)),
    );
    scenario
        .validate(3)
        .expect("golden generated scenario is valid");
    let json = serde_json::to_string(&scenario).expect("serialize");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/generated_scenario.json"
            ),
            &json,
        )
        .expect("write golden file");
        return;
    }

    assert_eq!(
        json,
        GOLDEN_GENERATED.trim_end(),
        "generated scenario drifted from the golden file; if the generator change is \
         intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test chaos"
    );
    let back: Scenario = serde_json::from_str(GOLDEN_GENERATED).expect("deserialize golden");
    assert_eq!(
        back, scenario,
        "golden file must deserialize to the same scenario"
    );
}
