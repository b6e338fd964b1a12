//! Criterion benchmarks for the fleet layer: a window of steady-state fleet steps across
//! four datacenters (the inner loop of every geo-scheduling experiment), the same window
//! across a 16-datacenter fleet (the scale point for the SoA physics kernels), and one full
//! 3-site fleet smoke run.

use cluster_sim::experiment::{ExperimentConfig, FleetConfig};
use cluster_sim::fleet::FleetSimulator;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simkit::time::SimTime;
use tapas::policy::Policy;

/// Consecutive one-minute steps per timed iteration of the `fleet_step_*` benches.
const WINDOW_STEPS: u64 = 10;

/// A fleet primed past its placement wave (steps at minutes 0 and 1).
fn primed(sites: usize) -> FleetSimulator {
    let mut base = ExperimentConfig::real_cluster_hour(Policy::Tapas);
    base.duration = SimTime::from_hours(12);
    let mut sim = FleetSimulator::new(FleetConfig::evaluation(base, sites));
    sim.step(SimTime::ZERO);
    sim.step(SimTime::from_minutes(1));
    sim
}

/// Steps a fresh clone of `primed` through minutes 2..2 + [`WINDOW_STEPS`]: every step
/// advances the clock, so arrivals, retirements and serving all run (re-stepping one fixed
/// minute would find every scheduler already past the window end).
fn step_window(mut sim: FleetSimulator) -> FleetSimulator {
    for minute in 2..2 + WINDOW_STEPS {
        sim.step(SimTime::from_minutes(minute));
    }
    sim
}

fn bench_fleet(c: &mut Criterion) {
    // Four 80-server datacenters under cycling climates: one iteration is a window of
    // steady-state steps (route arrivals, step every cell, refresh signals).
    let four = primed(4);
    c.bench_function("fleet_step_4_datacenters", |b| {
        b.iter_batched(|| four.clone(), step_window, BatchSize::LargeInput)
    });

    // The same window across sixteen 80-server datacenters: the fleet-scale point of the
    // physics scale series (geo split + 16 cell steps + signal refresh per step).
    let sixteen = primed(16);
    c.bench_function("fleet_step_16_datacenters", |b| {
        b.iter_batched(|| sixteen.clone(), step_window, BatchSize::LargeInput)
    });

    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.bench_function("fleet_smoke_run_3_sites", |b| {
        b.iter(|| {
            let mut base = ExperimentConfig::small_smoke_test();
            base.policy = Policy::Tapas;
            FleetSimulator::new(FleetConfig::evaluation(base, 3)).run()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet
}
criterion_main!(benches);
