//! Criterion benchmarks for the scenario layer: dense resolution of a fully loaded
//! week-long scenario (every event kind, several site targets) into the per-step
//! timeline one fleet cell runs on, and the per-step queries the cell hot path adds.

use cluster_sim::scenario::Scenario;
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use workload::endpoints::EndpointId;

/// A week of events across a 3-site fleet: two weather episodes, a diurnal-ish price
/// shape (cheap nights, one spike), two failures and demand shaping.
fn week_scenario() -> Scenario {
    let mut builder = Scenario::builder()
        .base_grid_price(45.0)
        .heatwave(2..4, 9.0)
        .weather(0, SimTime::from_days(5), SimTime::from_days(6), 6.0)
        .grid_price_spike(1, SimTime::from_days(2), SimTime::from_days(3), 280.0)
        .fail_ups(2, SimTime::from_hours(50), SimTime::from_hours(53), 0.75)
        .fail_ahus(0, 1, 1, SimTime::from_hours(60), SimTime::from_hours(62))
        .surge(SimTime::from_days(4), SimTime::from_days(5), 1.8)
        .endpoint_ramp(EndpointId(3), SimTime::from_days(5), SimTime::from_days(6), 2.5);
    // Cheap overnight windows, one per day.
    for day in 0..7u64 {
        builder = builder.grid_price(
            cluster_sim::scenario::SiteSelector::All,
            SimTime::from_hours(day * 24),
            SimTime::from_hours(day * 24 + 6),
            22.0,
        );
    }
    builder.build().expect("valid bench scenario")
}

fn bench_scenario(c: &mut Criterion) {
    let scenario = week_scenario();
    let duration = SimTime::from_days(7);
    let step = SimDuration::from_minutes(5);

    // One site's full dense resolution: 2017 steps × (temp, price, demand) plus the
    // failure schedule — what every fleet cell pays once at build time.
    c.bench_function("scenario_resolve_week_5min", |b| {
        b.iter(|| black_box(scenario.resolve(black_box(0), duration, step, 10)))
    });

    // Steady-state per-step queries (the hot-path side of the contract: index math only).
    let timeline = scenario.resolve(0, duration, step, 10);
    c.bench_function("scenario_timeline_queries_per_step", |b| {
        let now = SimTime::from_hours(51);
        b.iter(|| {
            let t = black_box(now);
            black_box(
                timeline.temp_offset_at(t)
                    + timeline.grid_price_at(t)
                    + timeline.demand_scale_at(t, EndpointId(3)),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scenario
}
criterion_main!(benches);
