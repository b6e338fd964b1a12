//! Criterion benchmarks for the dense telemetry core: power-hierarchy assessment and the
//! big-cluster metrics/carry-over recording walk, both on the ~1000-server production
//! layout (the per-step cost that dominates large-scale simulations like Fig. 19).

use criterion::{criterion_group, criterion_main, Criterion};
use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::power::hierarchy::{CapacityState, HierarchyScratch, PowerAssessment, PowerHierarchy};
use dc_sim::topology::LayoutConfig;
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts};
use std::hint::black_box;

fn bench_hierarchy(c: &mut Criterion) {
    let layout = LayoutConfig::production_datacenter().build();
    let hierarchy = PowerHierarchy::from_layout(&layout);
    // A mildly uneven load pattern so some rows sit near budget (realistic branch mix).
    let server_power: Vec<Kilowatts> = (0..layout.server_count())
        .map(|i| Kilowatts::new(4.5 + 1.5 * ((i % 7) as f64 / 6.0)))
        .collect();
    let capacity = CapacityState::healthy();
    let mut assessment = PowerAssessment::empty();
    let mut scratch = HierarchyScratch::default();
    c.bench_function("hierarchy_assess_1040_servers", |b| {
        b.iter(|| {
            hierarchy.assess_into(
                black_box(&server_power),
                black_box(&capacity),
                &mut assessment,
                &mut scratch,
            );
        })
    });

    // The simulator's per-step telemetry consumption on a big cluster: aggregate metrics,
    // violation scans and the dense carry-over copies into the routing context.
    let dc = Datacenter::new(layout, 42);
    let input = StepInput::uniform_load(dc.layout(), Celsius::new(30.0), 0.9);
    let mut workspace = StepWorkspace::for_topology(std::sync::Arc::clone(dc.topology()));
    dc.evaluate_into(&input, &mut workspace);
    let outcome = &workspace.outcome;
    let mut row_power_carry = vec![Kilowatts::ZERO; dc.layout().rows().len()];
    let mut aisle_airflow_carry = vec![CubicFeetPerMinute::ZERO; dc.layout().aisles().len()];
    c.bench_function("telemetry_record_1040_servers", |b| {
        b.iter(|| {
            let max_temp = outcome.max_gpu_temp().value();
            let peak_row = outcome.peak_row_power().value();
            let dc_draw = outcome.power.datacenter.draw.value();
            let mut over_budget = 0usize;
            for (_, utilization) in outcome.power.rows.iter() {
                if utilization.is_over_budget() {
                    over_budget += 1;
                }
            }
            let mut violated = 0usize;
            for (_, assessment) in outcome.aisle_airflow.iter() {
                if assessment.is_violated() {
                    violated += 1;
                }
            }
            for (carry, utilization) in row_power_carry.iter_mut().zip(outcome.power.rows.values())
            {
                *carry = utilization.draw;
            }
            for (carry, assessment) in aisle_airflow_carry
                .iter_mut()
                .zip(outcome.aisle_airflow.values())
            {
                *carry = assessment.demand;
            }
            black_box((max_temp, peak_row, dc_draw, over_budget, violated));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hierarchy
}
criterion_main!(benches);
