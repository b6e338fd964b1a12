//! Property tests pinning the structure-of-arrays, row-batched physics kernels bitwise
//! to the retained scalar reference implementation (`dc_sim::kernel_reference`) — the
//! executable form of the engine's FP-order contract, in the same driven-from-a-seeded-rng
//! shape as `tests/dense_telemetry.rs`.
//!
//! Cases deliberately cover both kernel paths:
//! * spec-homogeneous rows (the layout builder's output — the hoisted fast path), and
//! * mixed-spec / ragged-GPU-count rows built via `Layout::map_server_specs` (the general
//!   per-server path),
//!
//! across climates from freezing to heatwave, load levels from idle to saturated (with
//! out-of-range utilization exercising the clamps), DVFS'd frequencies, and failure
//! states that trigger recirculation penalties and power capping.

use dc_sim::engine::{Datacenter, StepInput, StepWorkspace};
use dc_sim::failures::{FailureKind, FailureSchedule, FailureWindow};
use dc_sim::ids::UpsId;
use dc_sim::kernel_reference::evaluate_scalar;
use dc_sim::topology::{Layout, LayoutConfig, ServerSpec};
use simkit::rng::SimRng;
use simkit::time::SimTime;
use simkit::units::Celsius;
use std::sync::Arc;

const CASES: usize = 24;

/// Draws a randomized (but always valid) layout, sometimes remapped to mixed specs and
/// ragged GPU counts so the general kernel path is exercised.
fn random_layout(rng: &mut SimRng) -> Layout {
    let spec = if rng.chance(0.5) {
        ServerSpec::dgx_a100()
    } else {
        ServerSpec::dgx_h100()
    };
    let layout = LayoutConfig {
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
    .build();
    if rng.chance(0.5) {
        // Remap to a mixed fleet: alternate specs per rack and make some GPU counts
        // ragged, so some (usually all) rows lose spec homogeneity.
        let mut choices = Vec::new();
        for _ in 0..4 {
            let mut s = if rng.chance(0.5) {
                ServerSpec::dgx_a100()
            } else {
                ServerSpec::dgx_h100()
            };
            if rng.chance(0.4) {
                s.gpus_per_server = rng.uniform_usize(1, 9);
            }
            choices.push(s);
        }
        layout.map_server_specs(|server| choices[server.rack.index() % choices.len()])
    } else {
        layout
    }
}

fn random_input(rng: &mut SimRng, dc: &Datacenter, outside: Celsius) -> StepInput {
    let mut input = StepInput::idle(dc.layout(), outside);
    for server in 0..input.activity.server_count() {
        let activity = input.activity.server_mut(server);
        // Occasionally out of range, so the kernel clamps are pinned too.
        activity
            .gpu_utilization
            .fill_with(|| rng.uniform(-0.1, 1.3));
        activity.frequency_scale.fill_with(|| rng.uniform(0.4, 1.0));
        *activity.memory_boundedness = rng.uniform(0.0, 1.0);
    }
    if rng.chance(0.3) {
        // The paper's thermal (cooling at 90 %) or power (UPS capacity at 75 %) emergency.
        let kind = if rng.chance(0.5) {
            FailureKind::CoolingDeviceFailure {
                capacity_fraction: 0.9,
            }
        } else {
            FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.75,
            }
        };
        let mut schedule = FailureSchedule::none();
        schedule.add(FailureWindow {
            kind,
            start: SimTime::ZERO,
            end: SimTime::from_hours(2),
        });
        input.failures = schedule.state_at(SimTime::from_minutes(30));
    }
    input
}

/// The batched engine must agree bitwise with the scalar reference — structurally
/// (`PartialEq` over every grid) and on the serialized telemetry surface the determinism
/// digests cover.
#[test]
fn batched_kernels_match_scalar_reference_bitwise() {
    let mut rng = SimRng::seed_from(4242).derive("soa-physics-cases");
    for case in 0..CASES {
        let layout = random_layout(&mut rng);
        let dc = Datacenter::new(layout, rng.next_u64());
        // Freezing, temperate, hot and heatwave outside temperatures; hot cases push GPUs
        // over the throttle limit so the sparse collection pass is exercised.
        let outside = Celsius::new(rng.uniform(-10.0, 48.0));
        let input = random_input(&mut rng, &dc, outside);

        let batched = dc.evaluate(&input);
        let reference = evaluate_scalar(&dc, &input);
        assert_eq!(
            batched, reference,
            "case {case}: batched != scalar reference"
        );

        let batched_json = serde_json::to_string(&batched).expect("serialize batched");
        let reference_json = serde_json::to_string(&reference).expect("serialize reference");
        assert_eq!(
            batched_json, reference_json,
            "case {case}: serialized forms differ"
        );
    }
}

/// A reused workspace (the simulator's steady-state path) must produce the same outcome
/// as a fresh one for every step of a varied sequence — the poison sweep in debug builds
/// additionally proves every lane is rewritten from scratch each step.
#[test]
fn workspace_reuse_is_bit_identical_across_steps() {
    let mut rng = SimRng::seed_from(77).derive("soa-physics-reuse");
    let layout = random_layout(&mut rng);
    let dc = Datacenter::new(layout, 9);
    let mut reused = StepWorkspace::for_topology(Arc::clone(dc.topology()));
    for step in 0..12 {
        let outside = Celsius::new(-5.0 + 4.5 * step as f64);
        let input = random_input(&mut rng, &dc, outside);
        dc.evaluate_into(&input, &mut reused);
        let fresh = dc.evaluate(&input);
        assert_eq!(
            reused.outcome, fresh,
            "step {step}: reused workspace diverged"
        );
    }
}

/// The throttle directives produced by the branch-free scratch-lane collection must be
/// exactly the in-loop-branch ordering: server-major, slot order, one directive per GPU
/// above its limit.
#[test]
fn throttle_collection_order_and_values_are_preserved() {
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let input = StepInput::uniform_load(dc.layout(), Celsius::new(45.0), 1.0);
    let outcome = dc.evaluate(&input);
    assert!(
        outcome.throttled_gpu_count() > 0,
        "heatwave at full load must throttle"
    );
    let reference = evaluate_scalar(&dc, &input);
    assert_eq!(outcome.thermal_throttles, reference.thermal_throttles);
    // Directives arrive sorted by (server, slot) with strictly increasing flat ordinals.
    let flats: Vec<usize> = outcome
        .thermal_throttles
        .iter()
        .map(|t| dc.topology().gpu_flat_index(t.gpu))
        .collect();
    assert!(
        flats.windows(2).all(|w| w[0] < w[1]),
        "directives must be in flat GPU order"
    );
}

/// Mixed-spec rows take the general kernel path; a layout remapped so every row stays
/// homogeneous must take the fast path — both agreeing with the reference (differential
/// coverage that the two paths cannot drift apart).
#[test]
fn uniform_and_mixed_rows_agree_with_reference() {
    let base = LayoutConfig::small_test_cluster().build();
    // Homogeneous H100 remap: still uniform rows, exercising the fast path with a
    // different spec than the builder default.
    let uniform = base.clone().map_server_specs(|_| ServerSpec::dgx_h100());
    // Alternating remap: every row mixes A100 and H100 (2 servers per rack, alternating
    // by server ordinal), forcing the general path; one spec is also ragged.
    let mut ragged = ServerSpec::dgx_h100();
    ragged.gpus_per_server = 4;
    let mixed = base.map_server_specs(|server| {
        if server.id.index() % 2 == 0 {
            ServerSpec::dgx_a100()
        } else {
            ragged
        }
    });
    for (label, layout) in [("uniform", uniform), ("mixed", mixed)] {
        let dc = Datacenter::new(layout, 5);
        for (outside, load) in [(18.0, 0.3), (35.0, 0.95), (46.0, 1.0)] {
            let input = StepInput::uniform_load(dc.layout(), Celsius::new(outside), load);
            let outcome = dc.evaluate(&input);
            let reference = evaluate_scalar(&dc, &input);
            assert_eq!(
                outcome, reference,
                "{label} layout at {outside}C load {load}"
            );
        }
    }
}
