//! Robustness sweep: generated adversarial scenarios × policies × worlds.
//!
//! Where the figure harnesses replay the paper's hand-written scenarios, this harness
//! asks the opposite question: how do the policies hold up under scenarios *nobody*
//! hand-tuned? It generates seeded scenarios per intensity tier
//! ([`cluster_sim::scenario::generator`]), runs every policy through each one — Baseline
//! and TAPAS on a single datacenter, round-robin and headroom geo routing on a
//! three-site fleet — and prints a deterministic comparison table of robustness metrics:
//! thermal-throttle events, power-capped site-minutes, the worst single step's SLO
//! violations, recovery time after the last emergency window, and energy cost.
//!
//! Every run is wrapped in `catch_unwind`, so a panicking configuration shows up as a
//! `PANIC` row instead of killing the sweep — the harness doubles as a chaos monkey.
//!
//! Flags: `--smoke` (CI-sized: 2 seeds, adversarial tier only, tiny cluster),
//! `--full` (8 seeds, 1-day horizon); the default is 3 seeds × 3 tiers at 12 hours.

use cluster_sim::experiment::{ExperimentConfig, FleetConfig, GeoPolicy, RequestFabricConfig};
use cluster_sim::fleet::FleetSimulator;
use cluster_sim::scenario::generator::{generate, GeneratorConfig, IntensityTier};
use cluster_sim::scenario::{energy_cost_usd, fleet_energy_cost_usd, Scenario};
use cluster_sim::simulator::ClusterSimulator;
use serde::Serialize;
use simkit::events::EventKind;
use simkit::time::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tapas::policy::Policy;
use tapas_bench::{full_scale_requested, header, write_json};

/// Number of fleet sites the fleet-world scenarios target.
const FLEET_SITES: usize = 3;

/// One (tier, seed, world, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
struct SweepRecord {
    tier: &'static str,
    seed: u64,
    world: &'static str,
    policy: String,
    panicked: bool,
    throttle_events: usize,
    cap_events: usize,
    capped_minutes: f64,
    worst_step_slo: usize,
    recovery_minutes: u64,
    slo_attainment: f64,
    energy_cost_usd: f64,
    requests_served: u64,
    /// Request-fabric lifecycle columns (all zero for the non-fabric worlds): fraction
    /// of arrived requests shed at their deadline, decode preemptions, prefill tokens
    /// whose work was evicted and redone, and per-request SLO attainment at the paper's
    /// 5x multiplier.
    shed_rate: f64,
    preemptions: u64,
    wasted_prefill_tokens: u64,
    slo_5x_attainment: f64,
}

impl SweepRecord {
    fn panic_row(tier: &'static str, seed: u64, world: &'static str, policy: String) -> Self {
        Self {
            tier,
            seed,
            world,
            policy,
            panicked: true,
            throttle_events: 0,
            cap_events: 0,
            capped_minutes: 0.0,
            worst_step_slo: 0,
            recovery_minutes: 0,
            slo_attainment: 0.0,
            energy_cost_usd: 0.0,
            requests_served: 0,
            shed_rate: 0.0,
            preemptions: 0,
            wasted_prefill_tokens: 0,
            slo_5x_attainment: 0.0,
        }
    }

    fn line(&self) -> String {
        if self.panicked {
            return format!(
                "  seed {:>3}  {:<12} {:>30}",
                self.seed, self.policy, "*** PANIC ***"
            );
        }
        if self.world == "fabric" {
            return format!(
                "  seed {:>3}  {:<12} shed={:>6.3} preempt={:>5} wasted_prefill={:>9} slo5x={:>6.3} served={:>8}",
                self.seed,
                self.policy,
                self.shed_rate,
                self.preemptions,
                self.wasted_prefill_tokens,
                self.slo_5x_attainment,
                self.requests_served,
            );
        }
        format!(
            "  seed {:>3}  {:<12} throttle={:>5} caps={:>5} capped_min={:>7.0} worst_slo={:>4} recovery={:>4}m slo={:>6.3} energy=${:>8.0}",
            self.seed,
            self.policy,
            self.throttle_events,
            self.cap_events,
            self.capped_minutes,
            self.worst_step_slo,
            self.recovery_minutes,
            self.slo_attainment,
            self.energy_cost_usd,
        )
    }
}

/// Minutes a report kept logging stress events past the scenario's last emergency window.
fn recovery_minutes(last_stress_minute: Option<u64>, scenario: &Scenario) -> u64 {
    match (last_stress_minute, scenario.last_emergency_end()) {
        (Some(stress), Some(end)) => stress.saturating_sub(end.as_minutes()),
        _ => 0,
    }
}

/// Runs one single-datacenter policy through a generated scenario, panic-safe.
fn run_single(
    tier: &'static str,
    seed: u64,
    base: &ExperimentConfig,
    policy: Policy,
    scenario: &Scenario,
) -> SweepRecord {
    let config = base
        .clone()
        .with_policy(policy)
        .with_scenario(scenario.clone());
    let timeline = config.resolved_timeline();
    let outcome = catch_unwind(AssertUnwindSafe(|| ClusterSimulator::new(config).run()));
    let Ok(report) = outcome else {
        return SweepRecord::panic_row(tier, seed, "single", policy.label().to_string());
    };
    SweepRecord {
        tier,
        seed,
        world: "single",
        policy: policy.label().to_string(),
        panicked: false,
        throttle_events: report.events.count(EventKind::ThermalThrottle),
        cap_events: report.events.count(EventKind::PowerCap),
        capped_minutes: report.power_capped_time_fraction() * report.horizon.as_minutes() as f64,
        worst_step_slo: report.worst_step_slo_violations(),
        recovery_minutes: recovery_minutes(report.last_stress_event_minute(), scenario),
        slo_attainment: report.slo_attainment(),
        energy_cost_usd: energy_cost_usd(&report, &timeline),
        requests_served: report.requests_served,
        shed_rate: 0.0,
        preemptions: 0,
        wasted_prefill_tokens: 0,
        slo_5x_attainment: 0.0,
    }
}

/// Runs one geo policy of a three-site fleet through a generated scenario, panic-safe.
fn run_fleet(
    tier: &'static str,
    seed: u64,
    base: &ExperimentConfig,
    geo: GeoPolicy,
    scenario: &Scenario,
) -> SweepRecord {
    let label = match geo {
        GeoPolicy::Pinned(site) => format!("pinned-{site}"),
        GeoPolicy::RoundRobin => "round-robin".to_string(),
        GeoPolicy::Headroom => "headroom".to_string(),
    };
    let config = FleetConfig::evaluation(base.clone().with_scenario(scenario.clone()), FLEET_SITES)
        .with_geo(geo);
    let cost_config = config.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| FleetSimulator::new(config).run()));
    let Ok(report) = outcome else {
        return SweepRecord::panic_row(tier, seed, "fleet", label);
    };
    SweepRecord {
        tier,
        seed,
        world: "fleet",
        policy: label,
        panicked: false,
        throttle_events: report.thermal_throttle_events(),
        cap_events: report.power_cap_events(),
        capped_minutes: report.power_capped_minutes(),
        worst_step_slo: report.worst_step_slo_violations(),
        recovery_minutes: recovery_minutes(report.last_stress_event_minute(), scenario),
        slo_attainment: report.slo_attainment(),
        energy_cost_usd: fleet_energy_cost_usd(&report, &cost_config),
        requests_served: report.total_requests_served(),
        shed_rate: 0.0,
        preemptions: 0,
        wasted_prefill_tokens: 0,
        slo_5x_attainment: 0.0,
    }
}

/// Demand multiplier for the fabric world. Full calibrated demand (`1.0`) keeps the
/// fleet near — not past — aggregate capacity, so shedding is *failure-driven*: it
/// happens where replica-kill windows and placement skew pinch serving capacity, which
/// is exactly what capacity-aware routing can mitigate and round-robin cannot. A
/// globally overloaded fleet (say `2.0`) sheds the same overflow under any routing and
/// washes the comparison out.
const FABRIC_RATE_SCALE: f64 = 1.0;

/// Runs one end-to-end stack — scheduling policy plus geo routing — of a three-site
/// fleet with the request fabric (deadline shedding on) through a generated scenario,
/// panic-safe. This is the request-lifecycle robustness view: the same adversarial
/// scenario, scored by what happens to individual requests (shedding, preemption,
/// wasted prefill work, per-request SLO attainment) instead of site thermals.
fn run_fabric(
    tier: &'static str,
    seed: u64,
    base: &ExperimentConfig,
    label: &'static str,
    policy: Policy,
    geo: GeoPolicy,
    scenario: &Scenario,
) -> SweepRecord {
    let config = FleetConfig::evaluation(
        base.clone()
            .with_policy(policy)
            .with_scenario(scenario.clone())
            .with_request_fabric(RequestFabricConfig {
                rate_scale: FABRIC_RATE_SCALE,
                deadline_shedding: true,
            }),
        FLEET_SITES,
    )
    .with_geo(geo);
    let outcome = catch_unwind(AssertUnwindSafe(|| FleetSimulator::new(config).run()));
    let Ok(report) = outcome else {
        return SweepRecord::panic_row(tier, seed, "fabric", label.to_string());
    };
    let metrics = report
        .request_fabric()
        .expect("fabric world always runs the fabric");
    let lifecycle = metrics.lifecycle;
    SweepRecord {
        tier,
        seed,
        world: "fabric",
        policy: label.to_string(),
        panicked: false,
        throttle_events: report.thermal_throttle_events(),
        cap_events: report.power_cap_events(),
        capped_minutes: report.power_capped_minutes(),
        worst_step_slo: report.worst_step_slo_violations(),
        recovery_minutes: recovery_minutes(report.last_stress_event_minute(), scenario),
        slo_attainment: report.slo_attainment(),
        energy_cost_usd: fleet_energy_cost_usd(
            &report,
            &FleetConfig::evaluation(base.clone().with_scenario(scenario.clone()), FLEET_SITES),
        ),
        requests_served: report.total_requests_served(),
        shed_rate: if lifecycle.arrived == 0 {
            0.0
        } else {
            lifecycle.shed as f64 / lifecycle.arrived as f64
        },
        preemptions: lifecycle.preemptions,
        wasted_prefill_tokens: lifecycle.wasted_prefill_tokens,
        slo_5x_attainment: metrics.attainment_at(5.0),
    }
}

/// Mean of a per-record metric over the non-panicked records of one (world, policy).
fn mean_of(
    records: &[SweepRecord],
    world: &str,
    policy: &str,
    metric: impl Fn(&SweepRecord) -> f64,
) -> f64 {
    let values: Vec<f64> = records
        .iter()
        .filter(|r| !r.panicked && r.world == world && r.policy == policy)
        .map(metric)
        .collect();
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let full = full_scale_requested();

    let (seeds, tiers, base): (Vec<u64>, &[IntensityTier], ExperimentConfig) = if smoke {
        (
            vec![1, 2],
            &[IntensityTier::Adversarial],
            ExperimentConfig::small_smoke_test(),
        )
    } else {
        let horizon = if full {
            SimTime::from_days(1)
        } else {
            SimTime::from_hours(12)
        };
        (
            if full {
                (1..=8).collect()
            } else {
                vec![1, 2, 3]
            },
            &IntensityTier::ALL,
            ExperimentConfig::medium(Policy::Baseline).with_duration(horizon),
        )
    };

    header(&format!(
        "Scenario sweep: {} seeds x {} tiers, single-DC (Baseline vs TAPAS) + {FLEET_SITES}-site fleet (round-robin vs headroom)",
        seeds.len(),
        tiers.len(),
    ));

    let mut records: Vec<SweepRecord> = Vec::new();
    for &tier in tiers {
        println!("\n--- tier: {} ---", tier.label());
        for &seed in &seeds {
            let single_scenario = generate(
                seed,
                &GeneratorConfig {
                    tier,
                    sites: 1,
                    duration: base.duration,
                    endpoints: base.endpoint_count,
                },
            );
            for policy in [Policy::Baseline, Policy::Tapas] {
                let record = run_single(tier.label(), seed, &base, policy, &single_scenario);
                println!("{}", record.line());
                records.push(record);
            }
            let fleet_scenario = generate(
                seed,
                &GeneratorConfig {
                    tier,
                    sites: FLEET_SITES,
                    duration: base.duration,
                    endpoints: base.endpoint_count,
                },
            );
            for geo in [GeoPolicy::RoundRobin, GeoPolicy::Headroom] {
                let record = run_fleet(tier.label(), seed, &base, geo, &fleet_scenario);
                println!("{}", record.line());
                records.push(record);
            }
            // The request-lifecycle view of the same fleet scenario: the full Baseline
            // stack (baseline thermals + round-robin routing) against the full TAPAS
            // stack (thermal-aware policy + headroom routing with saturation diversion).
            for (label, policy, geo) in [
                ("Baseline", Policy::Baseline, GeoPolicy::RoundRobin),
                ("TAPAS", Policy::Tapas, GeoPolicy::Headroom),
            ] {
                let record = run_fabric(
                    tier.label(),
                    seed,
                    &base,
                    label,
                    policy,
                    geo,
                    &fleet_scenario,
                );
                println!("{}", record.line());
                records.push(record);
            }
        }
    }

    let panics = records.iter().filter(|r| r.panicked).count();
    println!("\nRuns: {} total, {panics} panicked.", records.len());

    // Per-tier robustness comparison: TAPAS vs Baseline single-DC, headroom vs
    // round-robin fleet-wide, averaged over seeds.
    println!("\nPer-tier means (over seeds):");
    println!(
        "  {:<13} {:<8} {:<12} {:>10} {:>10} {:>11} {:>10} {:>11}",
        "tier", "world", "policy", "throttle", "worst_slo", "capped_min", "recovery", "energy_usd"
    );
    for &tier in tiers {
        let tier_records: Vec<SweepRecord> = records
            .iter()
            .filter(|r| r.tier == tier.label())
            .cloned()
            .collect();
        for (world, policy) in [
            ("single", "Baseline"),
            ("single", "TAPAS"),
            ("fleet", "round-robin"),
            ("fleet", "headroom"),
        ] {
            println!(
                "  {:<13} {:<8} {:<12} {:>10.1} {:>10.1} {:>11.0} {:>10.1} {:>11.0}",
                tier.label(),
                world,
                policy,
                mean_of(&tier_records, world, policy, |r| r.throttle_events as f64),
                mean_of(&tier_records, world, policy, |r| r.worst_step_slo as f64),
                mean_of(&tier_records, world, policy, |r| r.capped_minutes),
                mean_of(&tier_records, world, policy, |r| r.recovery_minutes as f64),
                mean_of(&tier_records, world, policy, |r| r.energy_cost_usd),
            );
        }
    }

    // Request-lifecycle robustness: how many requests each stack sacrificed (shed or
    // preempted) and what per-request SLO attainment survived, averaged over seeds.
    println!("\nRequest-fabric per-tier means (over seeds):");
    println!(
        "  {:<13} {:<12} {:>9} {:>10} {:>15} {:>8}",
        "tier", "policy", "shed_rate", "preempt", "wasted_prefill", "slo_5x"
    );
    for &tier in tiers {
        let tier_records: Vec<SweepRecord> = records
            .iter()
            .filter(|r| r.tier == tier.label())
            .cloned()
            .collect();
        for policy in ["Baseline", "TAPAS"] {
            println!(
                "  {:<13} {:<12} {:>9.4} {:>10.1} {:>15.0} {:>8.3}",
                tier.label(),
                policy,
                mean_of(&tier_records, "fabric", policy, |r| r.shed_rate),
                mean_of(&tier_records, "fabric", policy, |r| r.preemptions as f64),
                mean_of(&tier_records, "fabric", policy, |r| {
                    r.wasted_prefill_tokens as f64
                }),
                mean_of(&tier_records, "fabric", policy, |r| r.slo_5x_attainment),
            );
        }
    }

    let worst_tier = tiers.last().expect("at least one tier").label();
    let worst: Vec<SweepRecord> = records
        .iter()
        .filter(|r| r.tier == worst_tier)
        .cloned()
        .collect();
    let baseline_throttle = mean_of(&worst, "single", "Baseline", |r| r.throttle_events as f64);
    let tapas_throttle = mean_of(&worst, "single", "TAPAS", |r| r.throttle_events as f64);
    let baseline_slo = mean_of(&worst, "single", "Baseline", |r| r.worst_step_slo as f64);
    let tapas_slo = mean_of(&worst, "single", "TAPAS", |r| r.worst_step_slo as f64);
    println!(
        "\n{worst_tier} tier, single-DC: throttle events {baseline_throttle:.1} -> {tapas_throttle:.1}, worst-step SLO {baseline_slo:.1} -> {tapas_slo:.1} (Baseline -> TAPAS)"
    );
    let baseline_shed = mean_of(&worst, "fabric", "Baseline", |r| r.shed_rate);
    let tapas_shed = mean_of(&worst, "fabric", "TAPAS", |r| r.shed_rate);
    println!(
        "{worst_tier} tier, fabric fleet: shed rate {baseline_shed:.4} -> {tapas_shed:.4} (Baseline -> TAPAS)"
    );

    write_json("scenario_sweep", &records);

    if panics > 0 {
        std::process::exit(1);
    }
}
