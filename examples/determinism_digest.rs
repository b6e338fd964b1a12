//! Prints FNV-1a digests of a seeded simulation's serialized report, of one serialized
//! physics-step outcome (the dense telemetry shapes: `TempGrid`, per-level grids), of a
//! 3-datacenter fleet run's serialized `FleetReport`, and of a scenario-driven fleet run
//! (heatwave + UPS failure + grid-price spike composed via `ScenarioBuilder`).
//!
//! CI runs this example in the default build and under `-C target-feature=+avx2,+fma`
//! and diffs both outputs against `tests/golden/determinism_digest.txt`: identical
//! digests show that the simulation is bit-identical across runs and codegen, both in
//! the aggregated reports and in the raw per-step telemetry. Every run, the
//! single-datacenter one included, is a fleet stepping its cells serially in site order.

use tapas_repro::prelude::*;

use dc_sim::engine::{StepInput, StepOutcome};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn main() {
    // 4 aisles × 2 rows × 10 racks × 4 servers = 320 servers.
    let mut config = ExperimentConfig::production_week(Policy::Tapas);
    config.layout.aisles = 4;
    config.duration = SimTime::from_hours(4);
    config.step = SimDuration::from_minutes(5);

    // One raw physics step on the same layout: covers the dense telemetry shapes
    // (`TempGrid`, the per-row/PDU/UPS/aisle ordinal grids, capping directives) that the
    // report aggregates away.
    let dc = Datacenter::new(config.layout.build(), config.seed);
    let input = StepInput::uniform_load(dc.layout(), Celsius::new(33.0), 0.95);
    let outcome = dc.evaluate(&input);
    println!("outcome-digest: {:#018x}", outcome_digest(&outcome));
    println!("throttled-gpus: {}", outcome.throttled_gpu_count());

    let report = ClusterSimulator::new(config).run();
    let json = serde_json_digest(&report);
    println!("report-digest: {json:#018x}");
    println!("requests-served: {}", report.requests_served);
    println!(
        "peak-temp-milli-c: {}",
        (report.peak_temperature_c() * 1000.0).round()
    );

    // A 3-datacenter fleet under cycling climates: covers the geo routing stage and the
    // per-site weather/physics seeds.
    let fleet_base = ExperimentConfig::real_cluster_hour(Policy::Tapas)
        .with_duration(SimTime::from_hours(3))
        .with_step(SimDuration::from_minutes(5));
    let generator_base = fleet_base.clone();
    let fleet = FleetSimulator::new(FleetConfig::evaluation(fleet_base.clone(), 3)).run();
    let fleet_json = serde_json::to_string(&fleet).expect("serializable fleet report");
    println!("fleet-digest: {:#018x}", fnv1a(fleet_json.as_bytes()));
    println!("fleet-vms-routed: {:?}", fleet.vms_routed);
    println!("fleet-requests-served: {}", fleet.total_requests_served());

    // The same fleet under a composed scenario (heatwave + UPS failure + price spike):
    // covers dense scenario resolution, the weather overlay and demand-shaping paths in
    // every cell, and the price term of the geo score — all of which must also be
    // bit-identical across builds.
    let scenario = Scenario::builder()
        .weather(0, SimTime::ZERO, SimTime::from_hours(3), 12.0)
        .grid_price_spike(0, SimTime::ZERO, SimTime::from_hours(3), 320.0)
        .fail_ups(1, SimTime::from_hours(1), SimTime::from_hours(2), 0.75)
        .surge(SimTime::ZERO, SimTime::from_hours(2), 1.5)
        .build()
        .expect("valid digest scenario");
    let scenario_fleet = FleetSimulator::new(FleetConfig::evaluation(
        fleet_base.with_scenario(scenario),
        3,
    ))
    .run();
    let scenario_json = serde_json::to_string(&scenario_fleet).expect("serializable fleet report");
    println!(
        "scenario-fleet-digest: {:#018x}",
        fnv1a(scenario_json.as_bytes())
    );
    println!("scenario-fleet-vms-routed: {:?}", scenario_fleet.vms_routed);
    println!(
        "scenario-fleet-requests-served: {}",
        scenario_fleet.total_requests_served()
    );

    // A *generated* adversarial scenario (every event family, including operator power
    // caps) through the same 3-site fleet: covers the seeded generator and the power-cap
    // budget-clamp hot path, which must also be bit-identical across builds.
    let generated = generate(
        2025,
        &GeneratorConfig {
            tier: IntensityTier::Adversarial,
            sites: 3,
            duration: generator_base.duration,
            endpoints: generator_base.endpoint_count,
        },
    );
    let generated_fleet = FleetSimulator::new(FleetConfig::evaluation(
        generator_base.with_scenario(generated),
        3,
    ))
    .run();
    let generated_json =
        serde_json::to_string(&generated_fleet).expect("serializable fleet report");
    println!(
        "generated-fleet-digest: {:#018x}",
        fnv1a(generated_json.as_bytes())
    );
    println!(
        "generated-fleet-vms-routed: {:?}",
        generated_fleet.vms_routed
    );
    println!(
        "generated-fleet-capped-minutes: {}",
        generated_fleet.power_capped_minutes().round()
    );

    // The same 3-site fleet with the request fabric enabled: covers the fleet-wide
    // event-timestamped request stream, per-request geo routing before the cells step,
    // KV-bounded continuous batching in every cell, and the per-request TTFT/TBT metric
    // blocks — all of which must also be bit-identical across builds. The whole joint
    // attainment curve is printed: its low multipliers move with a latency or
    // scheduling change that leaves the 5× point at 100%.
    let fabric_base = ExperimentConfig::real_cluster_hour(Policy::Tapas)
        .with_duration(SimTime::from_hours(3))
        .with_step(SimDuration::from_minutes(5))
        .with_request_fabric(RequestFabricConfig {
            rate_scale: 0.01,
            ..RequestFabricConfig::default()
        });
    let fabric_fleet = FleetSimulator::new(FleetConfig::evaluation(fabric_base, 3)).run();
    let fabric_json = serde_json::to_string(&fabric_fleet).expect("serializable fleet report");
    println!(
        "fabric-fleet-digest: {:#018x}",
        fnv1a(fabric_json.as_bytes())
    );
    let fabric_metrics = fabric_fleet
        .request_fabric()
        .expect("fabric ran on every site");
    println!("fabric-requests-completed: {}", fabric_metrics.completed);
    let curve: Vec<u64> = fabric_metrics
        .attainment_curve()
        .iter()
        .map(|fraction| (fraction * 1000.0).round() as u64)
        .collect();
    println!("fabric-slo-attainment-curve-milli: {curve:?}");

    // A generated adversarial scenario *with replica failures* over a fabric-enabled
    // fleet, at full demand with deadline shedding on: covers the request-lifecycle
    // fault path end to end — replica-kill windows shrinking effective serving
    // capacity, LIFO preemption and eviction when the KV commitment no longer fits,
    // deterministic backoff re-delivery, deadline shedding and the lifecycle fault
    // counters — which must all be bit-identical across builds too.
    let chaos_base = ExperimentConfig::real_cluster_hour(Policy::Tapas)
        .with_duration(SimTime::from_hours(3))
        .with_step(SimDuration::from_minutes(5))
        .with_request_fabric(RequestFabricConfig {
            rate_scale: 2.0,
            deadline_shedding: true,
        });
    let chaos_scenario = generate(
        4242,
        &GeneratorConfig {
            tier: IntensityTier::Adversarial,
            sites: 3,
            duration: chaos_base.duration,
            endpoints: chaos_base.endpoint_count,
        },
    );
    let chaos_fleet = FleetSimulator::new(FleetConfig::evaluation(
        chaos_base.with_scenario(chaos_scenario),
        3,
    ))
    .run();
    let chaos_json = serde_json::to_string(&chaos_fleet).expect("serializable fleet report");
    println!(
        "chaos-fabric-fleet-digest: {:#018x}",
        fnv1a(chaos_json.as_bytes())
    );
    let chaos_metrics = chaos_fleet
        .request_fabric()
        .expect("fabric ran on every site");
    let lifecycle = chaos_metrics.lifecycle;
    println!("chaos-fabric-arrived: {}", lifecycle.arrived);
    println!(
        "chaos-fabric-outcomes: completed={} shed={} timeouts={} in-flight={}",
        chaos_metrics.completed, lifecycle.shed, lifecycle.timeouts, lifecycle.in_flight_at_horizon
    );
    println!("chaos-fabric-preemptions: {}", lifecycle.preemptions);
}

fn serde_json_digest(report: &RunReport) -> u64 {
    // The report serializes deterministically (shortest-round-trip float formatting), so
    // the digest is stable across runs and builds.
    let json = serde_json::to_string(report).expect("serializable report");
    fnv1a(json.as_bytes())
}

fn outcome_digest(outcome: &StepOutcome) -> u64 {
    let json = serde_json::to_string(outcome).expect("serializable outcome");
    fnv1a(json.as_bytes())
}
