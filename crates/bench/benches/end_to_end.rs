//! Criterion benchmarks for the end-to-end simulator: one full smoke-test run and one
//! physics step at four scales — the 80-server real cluster (the inner loop of every
//! evaluation figure), the 1040-server production datacenter, a 10240-server site
//! (128 aisles), and a 102400-server hyperscale site (1280 aisles) proving the SoA
//! activity-plane kernels hold their ns/server price at DRAM-streaming scale.

use cluster_sim::experiment::ExperimentConfig;
use cluster_sim::simulator::ClusterSimulator;
use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::topology::LayoutConfig;
use simkit::units::Celsius;
use std::hint::black_box;
use tapas::policy::Policy;

fn physics_step_bench(c: &mut Criterion, name: &str, config: &LayoutConfig) {
    let dc = Datacenter::new(config.build(), 42);
    let input = StepInput::uniform_load(dc.layout(), Celsius::new(28.0), 0.8);
    // The simulator's hot path: a persistent workspace reused across steps.
    let mut workspace = StepWorkspace::new(dc.layout());
    c.bench_function(name, |b| {
        b.iter(|| dc.evaluate_into(black_box(&input), &mut workspace))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    // Scale series: the same steady-state step at 80 servers (the paper's real-cluster
    // experiment), 1040 servers (the Fig. 19 datacenter) and 10240 servers (128 aisles),
    // for the ns/server trajectory.
    physics_step_bench(
        c,
        "physics_step_80_servers",
        &LayoutConfig::real_cluster_two_rows(),
    );
    physics_step_bench(
        c,
        "physics_step_1040_servers",
        &LayoutConfig::production_datacenter(),
    );
    let mut huge = LayoutConfig::production_datacenter();
    huge.aisles = 128; // 128 aisles x 2 rows x 10 racks x 4 servers = 10240 servers
    physics_step_bench(c, "physics_step_10240_servers", &huge);
    let mut hyper = LayoutConfig::production_datacenter();
    hyper.aisles = 1280; // 102400 servers, ~820k GPUs — one hyperscale site.
    physics_step_bench(c, "physics_step_102400_servers", &hyper);

    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("smoke_run_baseline", |b| {
        b.iter(|| ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run())
    });
    group.bench_function("smoke_run_tapas", |b| {
        b.iter(|| {
            let mut config = ExperimentConfig::small_smoke_test();
            config.policy = Policy::Tapas;
            ClusterSimulator::new(config).run()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_end_to_end
}
criterion_main!(benches);
