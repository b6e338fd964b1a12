//! Criterion micro-benchmark for offline profiling (§4.5, "Profiles"): fitting Eq. 1, 2
//! and 4 for every server of the paper's production layout (1040 servers) and of its
//! 128-aisle widening (10240 servers), the bulk of a cold simulator build.

use cluster_sim::experiment::ExperimentConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::Datacenter;
use llm_sim::hardware::GpuHardware;
use std::hint::black_box;
use tapas::policy::Policy;
use tapas::profiles::ProfileStore;

fn bench_offline_profiling(c: &mut Criterion) {
    let gpu = GpuHardware::a100();
    let mut group = c.benchmark_group("profiling");
    for (aisles, name) in [
        (13, "offline_profiling_1040_servers"),
        (128, "offline_profiling_10240_servers"),
    ] {
        let mut config = ExperimentConfig::production_week(Policy::Tapas);
        config.layout.aisles = aisles;
        let dc = Datacenter::new(config.layout.build(), config.seed);
        group.bench_function(name, |b| {
            b.iter(|| ProfileStore::offline_profiling(black_box(&dc), &gpu))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_offline_profiling
}
criterion_main!(benches);
