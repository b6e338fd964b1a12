//! Retained scalar reference implementation of the physics step.
//!
//! [`evaluate_scalar`] recomputes a full [`StepOutcome`] one server and one GPU at a time
//! through the public model entry points ([`InletModel::inlet_temp`],
//! [`GpuThermalModel::temperatures`], [`ServerPowerModel::gpu_power`], …), with none of
//! the engine's row batching, plan hoisting or branch-free scratch lanes. It is the
//! executable form of the engine's **FP-order contract**: the structure-of-arrays,
//! row-batched kernels in [`crate::engine`] must produce bit-identical results to this
//! scalar walk for *any* layout — homogeneous rows (the fast path), mixed-spec and ragged
//! rows (the general path), any climate, any load.
//!
//! The contract pins three accumulation orders that are easy to break silently:
//!
//! 1. per-server GPU sums (utilization, power) use **two alternating accumulator lanes**
//!    (`acc[slot & 1]`), combined as `acc[0] + acc[1]`;
//! 2. the datacenter load reduces **per row first** (server order within the row), then
//!    across rows in row order;
//! 3. the inlet sum is evaluated as `((base + spatial) + load_term) + max(penalty, 0)`.
//!
//! `tests/soa_physics.rs` pins the batched engine to this reference across randomized
//! layouts; it is deliberately simple and allocation-heavy — never call it on a hot path.

use crate::cooling::gpu::TempGrid;
use crate::engine::{Datacenter, StepInput, StepOutcome, ThermalThrottleDirective};
use crate::ids::GpuId;
use crate::index::OrdinalMap;
use simkit::units::Watts;

#[allow(unused_imports)] // doc links
use crate::cooling::{gpu::GpuThermalModel, inlet::InletModel};
#[allow(unused_imports)] // doc links
use crate::power::server::ServerPowerModel;

/// Evaluates one step with the scalar reference kernels (see the module docs).
///
/// # Panics
/// Panics under the same conditions as [`Datacenter::evaluate`]: the activity must cover
/// every server with per-GPU vectors matching each server's spec.
#[must_use]
pub fn evaluate_scalar(dc: &Datacenter, input: &StepInput) -> StepOutcome {
    let layout = dc.layout();
    let topology = dc.topology();
    let server_count = layout.server_count();
    assert_eq!(
        input.activity.server_count(),
        server_count,
        "activity must cover every server"
    );

    // 1. Per-server loads, airflow demand and power — one server at a time.
    let mut server_airflow = Vec::with_capacity(server_count);
    let mut server_power = Vec::with_capacity(server_count);
    let mut gpu_power_flat: Vec<Watts> = Vec::with_capacity(topology.gpu_count());
    let mut mean_loads = Vec::with_capacity(server_count);
    for (i, server) in layout.servers().iter().enumerate() {
        let spec = &server.spec;
        let activity = input.activity.server(i);
        assert_eq!(
            activity.gpu_utilization.len(),
            spec.gpus_per_server,
            "activity GPU count must match the server spec"
        );
        // Contract order #1: two alternating accumulator lanes, combined low + high.
        let mut util_acc = [0.0f64; 2];
        let mut power_acc = [0.0f64; 2];
        for (slot, (&u, &f)) in activity
            .gpu_utilization
            .iter()
            .zip(activity.frequency_scale)
            .enumerate()
        {
            let power = dc.power_model().gpu_power(spec, u, f);
            util_acc[slot & 1] += u;
            power_acc[slot & 1] += power.value();
            gpu_power_flat.push(power);
        }
        let gpu_sum = power_acc[0] + power_acc[1];
        let mean_load = if spec.gpus_per_server == 0 {
            0.0
        } else {
            (util_acc[0] + util_acc[1]) / spec.gpus_per_server as f64
        };
        mean_loads.push(mean_load);
        server_airflow.push(dc.airflow_model().server_airflow(spec, mean_load));
        let total = dc
            .power_model()
            .server_power(spec, mean_load)
            .to_watts()
            .value()
            .max(gpu_sum);
        server_power.push(Watts::new(total).to_kilowatts());
    }
    // Contract order #2: reduce per row first, then across rows in row order.
    let mut total_load = 0.0;
    for row in layout.rows() {
        let row_range = topology.row_range(row.id);
        let row_load: f64 = mean_loads[row_range].iter().sum();
        total_load += row_load;
    }
    let datacenter_load = if server_count > 0 {
        total_load / server_count as f64
    } else {
        0.0
    };

    // 2. Aisle airflow assessment and recirculation penalties.
    let mut aisle_penalty = vec![0.0; layout.aisles().len()];
    let mut assessments = Vec::with_capacity(layout.aisles().len());
    for aisle in layout.aisles() {
        let fraction = input
            .failures
            .aisle_airflow_fraction(aisle.id, aisle.ahu_count);
        let assessment =
            dc.airflow_model()
                .assess_aisle(aisle, |s| server_airflow[s.index()], fraction);
        aisle_penalty[aisle.id.index()] = assessment.recirculation_penalty_c;
        assessments.push(assessment);
    }
    let aisle_airflow = OrdinalMap::from_ordered(assessments);

    // 3./4. Inlet and GPU temperatures plus thermal throttles — one GPU at a time.
    let mut inlet_temps = Vec::with_capacity(server_count);
    let mut gpu_temps = TempGrid::for_topology(topology);
    let mut thermal_throttles: Vec<ThermalThrottleDirective> = Vec::new();
    {
        let (gpu_plane, mem_offsets) = gpu_temps.kernel_planes_mut();
        let mut flat = 0usize;
        for (i, server) in layout.servers().iter().enumerate() {
            let activity = input.activity.server(i);
            let penalty = aisle_penalty[server.aisle.index()];
            // Contract order #3 lives inside `inlet_temp`.
            let inlet = dc.inlet_model().inlet_temp(
                server.id,
                input.outside_temp,
                datacenter_load,
                penalty,
            );
            inlet_temps.push(inlet);
            let limit = server.spec.gpu_throttle_temp_c;
            // The grid stores the per-server memory offset; the derived per-GPU memory
            // value (`gpu + offset`) is bit-identical to the model's `temperatures`
            // output, which the property tests assert through `TempGrid::get`.
            mem_offsets[i] = dc
                .gpu_model()
                .coefficients()
                .memory_offset(activity.memory_boundedness);
            for slot in 0..server.spec.gpus_per_server {
                let t = dc.gpu_model().temperatures(
                    GpuId::new(server.id, slot),
                    inlet,
                    gpu_power_flat[flat],
                    activity.memory_boundedness,
                );
                gpu_plane[flat] = t.gpu.value();
                if t.gpu.value() > limit {
                    let overshoot = t.gpu.value() - limit;
                    let frequency_scale = (1.0 - 0.05 * overshoot).clamp(0.5, 0.95);
                    thermal_throttles.push(ThermalThrottleDirective {
                        gpu: GpuId::new(server.id, slot),
                        temperature: t.gpu,
                        frequency_scale,
                    });
                }
                flat += 1;
            }
        }
    }

    // 5. Power hierarchy assessment and capping. An operator power cap clamps row/UPS
    // budgets on top of the failure-derived fractions, exactly as the engine does.
    let mut capacity = input.failures.capacity_state(layout);
    if input.power_cap < 1.0 {
        capacity.apply_power_cap(input.power_cap, layout.upses().len(), layout.rows().len());
    }
    let power = dc.hierarchy().assess(&server_power, &capacity);

    StepOutcome {
        inlet_temps,
        gpu_temps,
        server_power,
        server_airflow,
        aisle_airflow,
        power,
        thermal_throttles,
        datacenter_load,
    }
}
