//! Criterion benchmarks for the request fabric: windows of steady-state fabric-enabled
//! fleet steps at one and sixteen sites (generation + per-request geo routing +
//! KV-bounded batch serving riding on the full simulation step), and the
//! continuous-batching scheduler in isolation (offer + drain of a fixed request batch —
//! the per-request hot path).

use cluster_sim::experiment::{ExperimentConfig, FleetConfig, RequestFabricConfig};
use cluster_sim::fleet::FleetSimulator;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llm_sim::batch::BatchScheduler;
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use simkit::time::SimTime;
use std::hint::black_box;
use tapas::policy::Policy;

fn fabric_base(rate_scale: f64) -> ExperimentConfig {
    let mut base = ExperimentConfig::real_cluster_hour(Policy::Tapas);
    base.duration = SimTime::from_hours(12);
    base.with_request_fabric(RequestFabricConfig {
        rate_scale,
        slo_multiplier: 5.0,
        ..RequestFabricConfig::default()
    })
}

/// Consecutive one-minute steps per timed iteration of the `fabric_step_*` benches.
const WINDOW_STEPS: u64 = 10;

/// A fabric fleet primed past its placement wave (steps at minutes 0 and 1).
fn primed(sites: usize) -> FleetSimulator {
    let config = if sites == 1 {
        FleetConfig::single_site(fabric_base(0.05))
    } else {
        FleetConfig::evaluation(fabric_base(0.05), sites)
    };
    let mut sim = FleetSimulator::new(config);
    sim.step(SimTime::ZERO);
    sim.step(SimTime::from_minutes(1));
    sim
}

/// Steps a fresh clone of `primed` through minutes 2..2 + [`WINDOW_STEPS`], so every
/// step's batch schedulers advance and serve what was offered (re-stepping one fixed
/// minute would only generate, route and queue).
fn step_window(mut sim: FleetSimulator) -> FleetSimulator {
    for minute in 2..2 + WINDOW_STEPS {
        sim.step(SimTime::from_minutes(minute));
    }
    sim
}

fn bench_request_fabric(c: &mut Criterion) {
    // One 80-server site with the fabric on: each step covers stream generation,
    // admission into the per-endpoint batch schedulers and the serving iterations, on top
    // of the legacy step.
    let single = primed(1);
    c.bench_function("fabric_step_1_site", |b| {
        b.iter_batched(|| single.clone(), step_window, BatchSize::LargeInput)
    });

    // Sixteen sites: adds fleet-wide generation and per-request geo routing across the
    // signal set, with each site serving its routed share.
    let fleet = primed(16);
    c.bench_function("fabric_step_16_sites", |b| {
        b.iter_batched(|| fleet.clone(), step_window, BatchSize::LargeInput)
    });

    // The scheduler alone: offer 512 requests and drain them to completion — the
    // KV-admission and batching hot path with no simulation step around it.
    let gpu = GpuHardware::a100();
    let config = InstanceConfig::default_70b();
    let mut completions = Vec::new();
    c.bench_function("batch_scheduler_512_requests", |b| {
        b.iter(|| {
            let mut scheduler = BatchScheduler::new(config, &gpu, 4);
            for i in 0..512u64 {
                scheduler.offer(i, 512, 128, i * 40);
            }
            completions.clear();
            scheduler.advance_to(u64::MAX / 2, &mut completions);
            black_box(completions.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_request_fabric
}
criterion_main!(benches);
