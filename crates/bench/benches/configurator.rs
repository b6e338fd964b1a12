//! Criterion micro-benchmarks for the instance configurator (runs for every LLM iteration in
//! the paper's implementation, so it must be lightweight) and for the offline profiling
//! sweep it consumes.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::Datacenter;
use dc_sim::topology::LayoutConfig;
use llm_sim::config::{InstanceConfig, ReconfigurationCost};
use llm_sim::hardware::GpuHardware;
use llm_sim::profile::ConfigProfile;
use simkit::units::{Kilowatts, Watts};
use std::hint::black_box;
use tapas::configurator::{InstanceConfigurator, InstanceLimits};
use tapas::profiles::ProfileStore;

fn bench_configurator(c: &mut Criterion) {
    let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let configurator = InstanceConfigurator::new(0.9);
    let current = InstanceConfig::default_70b();
    // A 250 W per-GPU cap the default 70B TP8 configuration exceeds: the selection scan
    // runs (the index's slow path).
    let limits = InstanceLimits {
        max_gpu_power: Watts::new(250.0),
        max_server_power: Kilowatts::new(4.0),
        demand_tokens_per_s: 800.0,
    };
    assert_ne!(
        configurator.select(&current, &limits, &profiles).cost,
        ReconfigurationCost::None,
        "configurator_select must time a reconfiguring (slow-path) decision"
    );
    c.bench_function("configurator_select", |b| {
        b.iter(|| configurator.select(black_box(&current), black_box(&limits), &profiles))
    });

    // Ample headroom and demand the current configuration meets: the steady-state fast
    // path most instances take on most steps.
    let relaxed = InstanceLimits::unconstrained(800.0);
    assert_eq!(
        configurator.select(&current, &relaxed, &profiles).cost,
        ReconfigurationCost::None,
        "configurator_select_unconstrained must time a keep-current (fast-path) decision"
    );
    c.bench_function("configurator_select_unconstrained", |b| {
        b.iter(|| configurator.select(black_box(&current), black_box(&relaxed), &profiles))
    });

    c.bench_function("profile_single_config", |b| {
        b.iter(|| ConfigProfile::build(black_box(&current), &GpuHardware::a100()))
    });

    c.bench_function("profile_full_sweep", |b| {
        b.iter(|| ConfigProfile::sweep(black_box(&GpuHardware::a100())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_configurator
}
criterion_main!(benches);
