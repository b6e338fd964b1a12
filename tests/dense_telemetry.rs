//! Property tests pinning the dense, topology-ordinal telemetry shapes to naive
//! `BTreeMap`-based reference models across randomized layouts — the same pattern as the
//! registry-vs-BTreeMap state-model test of the indexed hot path PR.
//!
//! Offline environment note: instead of proptest these cases are driven from a seeded
//! [`simkit::rng::SimRng`] stream, so every case is deterministic and reproducible from
//! the printed case number.

use dc_sim::engine::{Datacenter, StepInput};
use dc_sim::ids::{GpuId, PduId, RowId, ServerId, UpsId};
use dc_sim::power::hierarchy::{CapacityState, PowerHierarchy};
use dc_sim::topology::{Layout, LayoutConfig, ServerSpec};
use simkit::rng::SimRng;
use simkit::units::{Celsius, Kilowatts};
use std::collections::BTreeMap;

const CASES: usize = 16;

/// Draws a randomized (but always valid) layout configuration.
fn random_layout(rng: &mut SimRng) -> Layout {
    let spec = if rng.chance(0.5) {
        ServerSpec::dgx_a100()
    } else {
        ServerSpec::dgx_h100()
    };
    LayoutConfig {
        aisles: rng.uniform_usize(1, 5),
        racks_per_row: rng.uniform_usize(1, 5),
        servers_per_rack: rng.uniform_usize(1, 4),
        server_spec: spec,
        row_power_provisioning: rng.uniform(0.5, 1.1),
        aisle_airflow_provisioning: rng.uniform(0.6, 1.1),
        pdu_power_provisioning: rng.uniform(0.8, 1.05),
        ups_power_provisioning: rng.uniform(0.8, 1.05),
        pdus_per_ups: rng.uniform_usize(1, 4),
        ahus_per_aisle: rng.uniform_usize(1, 5),
    }
    .build()
}

/// The pre-refactor `BTreeMap`-shaped hierarchy assessment, reimplemented as an
/// independent reference model.
struct ReferenceAssessment {
    rows: BTreeMap<RowId, (f64, f64)>,
    pdus: BTreeMap<PduId, (f64, f64)>,
    upses: BTreeMap<UpsId, (f64, f64)>,
    datacenter: (f64, f64),
    caps: BTreeMap<ServerId, f64>,
}

fn reference_assess(
    layout: &Layout,
    server_power: &[Kilowatts],
    capacity: &CapacityState,
) -> ReferenceAssessment {
    let mut rows = BTreeMap::new();
    for row in layout.rows() {
        let draw: f64 = row
            .servers
            .iter()
            .map(|s| server_power[s.index()].value())
            .sum();
        rows.insert(
            row.id,
            (draw, row.power_budget.value() * capacity.row(row.id)),
        );
    }
    let mut pdus = BTreeMap::new();
    for pdu in layout.pdus() {
        let draw: f64 = pdu.rows.iter().map(|r| rows[r].0).sum();
        pdus.insert(pdu.id, (draw, pdu.power_budget.value()));
    }
    let mut upses = BTreeMap::new();
    let mut dc_draw = 0.0;
    for ups in layout.upses() {
        let draw: f64 = ups.pdus.iter().map(|p| pdus[p].0).sum();
        dc_draw += draw;
        upses.insert(
            ups.id,
            (draw, ups.power_budget.value() * capacity.ups(ups.id)),
        );
    }
    let datacenter = (
        dc_draw,
        layout.datacenter_power_budget().value() * capacity.datacenter_capacity,
    );

    let over = |&(draw, budget): &(f64, f64)| {
        let utilization = if budget > 0.0 {
            draw / budget
        } else {
            f64::INFINITY
        };
        (utilization > 1.0).then_some(1.0 / utilization)
    };
    let mut caps: BTreeMap<ServerId, f64> = BTreeMap::new();
    let apply = |caps: &mut BTreeMap<ServerId, f64>, servers: &[ServerId], f: f64| {
        for &s in servers {
            let entry = caps.entry(s).or_insert(1.0);
            *entry = entry.min(f);
        }
    };
    for row in layout.rows() {
        if let Some(fraction) = over(&rows[&row.id]) {
            apply(&mut caps, &row.servers, fraction);
        }
    }
    for pdu in layout.pdus() {
        if let Some(fraction) = over(&pdus[&pdu.id]) {
            for row in &pdu.rows {
                apply(&mut caps, &layout.row(*row).servers, fraction);
            }
        }
    }
    for ups in layout.upses() {
        if let Some(fraction) = over(&upses[&ups.id]) {
            for pdu in &ups.pdus {
                for row in &layout.pdus()[pdu.index()].rows {
                    apply(&mut caps, &layout.row(*row).servers, fraction);
                }
            }
        }
    }
    if let Some(fraction) = over(&datacenter) {
        for row in layout.rows() {
            apply(&mut caps, &row.servers, fraction);
        }
    }
    caps.retain(|_, &mut f| f < 1.0);
    ReferenceAssessment {
        rows,
        pdus,
        upses,
        datacenter,
        caps,
    }
}

/// The dense `PowerAssessment` must agree bitwise with the `BTreeMap` reference model for
/// any randomized layout, load pattern and capacity state.
#[test]
fn dense_assessment_matches_btreemap_reference_model() {
    let mut rng = SimRng::seed_from(2024).derive("dense-hierarchy-cases");
    for case in 0..CASES {
        let layout = random_layout(&mut rng);
        let hierarchy = PowerHierarchy::from_layout(&layout);
        let server_power: Vec<Kilowatts> = (0..layout.server_count())
            .map(|_| Kilowatts::new(rng.uniform(0.5, 11.0)))
            .collect();
        let mut capacity = CapacityState::healthy();
        if rng.chance(0.5) {
            capacity.datacenter_capacity = rng.uniform(0.5, 1.0);
        }
        if rng.chance(0.5) {
            let ups = UpsId::new(rng.uniform_usize(0, layout.upses().len()));
            capacity.set_ups_capacity(ups, rng.uniform(0.4, 1.0));
        }
        if rng.chance(0.5) {
            let row = RowId::new(rng.uniform_usize(0, layout.rows().len()));
            capacity.set_row_capacity(row, rng.uniform(0.4, 1.0));
        }

        let dense = hierarchy.assess(&server_power, &capacity);
        let reference = reference_assess(&layout, &server_power, &capacity);

        assert_eq!(dense.rows.len(), reference.rows.len(), "case {case}");
        for (row, utilization) in dense.rows.iter() {
            let &(draw, budget) = &reference.rows[&row];
            assert_eq!(utilization.draw.value(), draw, "case {case} row {row}");
            assert_eq!(utilization.budget.value(), budget, "case {case} row {row}");
        }
        for (pdu, utilization) in dense.pdus.iter() {
            let &(draw, budget) = &reference.pdus[&pdu];
            assert_eq!(utilization.draw.value(), draw, "case {case} pdu {pdu}");
            assert_eq!(utilization.budget.value(), budget, "case {case} pdu {pdu}");
        }
        for (ups, utilization) in dense.upses.iter() {
            let &(draw, budget) = &reference.upses[&ups];
            assert_eq!(utilization.draw.value(), draw, "case {case} ups {ups}");
            assert_eq!(utilization.budget.value(), budget, "case {case} ups {ups}");
        }
        assert_eq!(
            dense.datacenter.draw.value(),
            reference.datacenter.0,
            "case {case}"
        );
        assert_eq!(
            dense.datacenter.budget.value(),
            reference.datacenter.1,
            "case {case}"
        );

        let dense_caps: BTreeMap<ServerId, f64> = dense
            .capping
            .iter()
            .map(|c| (c.server, c.power_fraction))
            .collect();
        assert_eq!(
            dense_caps.len(),
            dense.capping.len(),
            "case {case}: one cap per server"
        );
        assert_eq!(dense_caps, reference.caps, "case {case}");
        assert_eq!(
            dense.any_over_budget(),
            !reference.caps.is_empty(),
            "case {case}"
        );
    }
}

/// The flat `TempGrid` must agree bitwise with per-GPU calls into the thermal model, and
/// the dense aisle grid with direct aisle assessments, for randomized layouts and
/// per-GPU activity.
#[test]
fn temp_grid_and_aisle_grid_match_reference_models() {
    let mut rng = SimRng::seed_from(2025).derive("dense-grid-cases");
    for case in 0..CASES {
        let layout = random_layout(&mut rng);
        let dc = Datacenter::new(layout, rng.next_u64());
        let outside = Celsius::new(rng.uniform(-5.0, 45.0));
        let mut input = StepInput::idle(dc.layout(), outside);
        for server in 0..input.activity.server_count() {
            let activity = input.activity.server_mut(server);
            activity.gpu_utilization.fill_with(|| rng.uniform(0.0, 1.0));
            activity.frequency_scale.fill_with(|| rng.uniform(0.5, 1.0));
            *activity.memory_boundedness = rng.uniform(0.0, 1.0);
        }
        let outcome = dc.evaluate(&input);

        // Reference: the jagged pre-refactor shape, rebuilt from first-principles model
        // calls (per-GPU power from the power model, temperatures from the thermal model).
        assert_eq!(outcome.gpu_temps.server_count(), dc.layout().server_count());
        for server in dc.layout().servers() {
            let activity = input.activity.server(server.id.index());
            let inlet = outcome.inlet_temps[server.id.index()];
            let grid_row = outcome.gpu_temps.server(server.id);
            assert_eq!(grid_row.len(), server.spec.gpus_per_server, "case {case}");
            for (slot, actual) in grid_row.iter().enumerate() {
                let power = dc.power_model().gpu_power(
                    &server.spec,
                    activity.gpu_utilization[slot],
                    activity.frequency_scale[slot],
                );
                let expected = dc.gpu_model().temperatures(
                    GpuId::new(server.id, slot),
                    inlet,
                    power,
                    activity.memory_boundedness,
                );
                assert_eq!(
                    actual, expected,
                    "case {case} server {} slot {slot}",
                    server.id
                );
                assert_eq!(
                    outcome.gpu_temps.get(GpuId::new(server.id, slot)),
                    expected,
                    "case {case}"
                );
            }
        }

        let mut reference_aisles = BTreeMap::new();
        for aisle in dc.layout().aisles() {
            let assessment =
                dc.airflow_model()
                    .assess_aisle(aisle, |s| outcome.server_airflow[s.index()], 1.0);
            reference_aisles.insert(aisle.id, assessment);
        }
        assert_eq!(
            outcome.aisle_airflow.len(),
            reference_aisles.len(),
            "case {case}"
        );
        for (aisle, assessment) in outcome.aisle_airflow.iter() {
            assert_eq!(
                assessment, &reference_aisles[&aisle],
                "case {case} aisle {aisle}"
            );
        }
    }
}

/// The dense telemetry shapes serialize deterministically (they are the serialized
/// telemetry surface the determinism digest covers), with the grid written as its storage.
#[test]
fn step_outcome_serializes_deterministically() {
    let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 9);
    let input = StepInput::uniform_load(dc.layout(), Celsius::new(32.0), 0.9);
    let json = serde_json::to_string(&dc.evaluate(&input)).expect("serialize outcome");
    let again = serde_json::to_string(&dc.evaluate(&input)).expect("serialize again");
    assert_eq!(json, again, "serialization must be deterministic");
    assert!(json.contains("\"gpu_temps\":{\"gpu_c\":["), "{json}");
    assert!(json.contains("],\"mem_offset_c\":["), "{json}");
}
