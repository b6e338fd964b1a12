//! Criterion micro-benchmarks for the power models and the hierarchy assessment.

use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::Datacenter;
use dc_sim::power::hierarchy::CapacityState;
use dc_sim::topology::{LayoutConfig, ServerSpec};
use simkit::units::Kilowatts;
use std::hint::black_box;

fn bench_power_model(c: &mut Criterion) {
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let spec = ServerSpec::dgx_a100();

    c.bench_function("server_power_eval", |b| {
        b.iter(|| {
            dc.power_model()
                .server_power(black_box(&spec), black_box(0.73))
        })
    });

    let server_power = vec![Kilowatts::new(5.1); dc.layout().server_count()];
    let capacity = CapacityState::healthy();
    c.bench_function("hierarchy_assess_80_servers", |b| {
        b.iter(|| {
            dc.hierarchy()
                .assess(black_box(&server_power), black_box(&capacity))
        })
    });

    let big = Datacenter::new(LayoutConfig::production_datacenter().build(), 42);
    let big_power = vec![Kilowatts::new(5.1); big.layout().server_count()];
    c.bench_function("hierarchy_assess_1040_servers", |b| {
        b.iter(|| {
            big.hierarchy()
                .assess(black_box(&big_power), black_box(&capacity))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_power_model
}
criterion_main!(benches);
