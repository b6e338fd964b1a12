//! The per-step evaluation pipeline.
//!
//! [`Datacenter`] owns the layout and the generative thermal/power models, and
//! [`Datacenter::evaluate`] turns one step's activity, one [`ServerActivity`] record per
//! server, into:
//!
//! 1. per-server airflow demand and per-aisle airflow assessment (Eq. 3), including the heat
//!    recirculation penalty when an aisle is over-subscribed or an AHU has failed;
//! 2. per-server inlet temperatures (Eq. 1) given outside temperature, datacenter load and
//!    the recirculation penalty;
//! 3. per-GPU and per-GPU-memory temperatures (Eq. 2);
//! 4. per-server power and the hierarchy assessment (Eq. 4) with power capping directives;
//! 5. thermal throttling directives for GPUs above their junction limit.
//!
//! The engine is stateless across steps apart from the models' static offsets: the caller
//! (the cluster simulator) owns all dynamic state (which VM runs where, what load it offers)
//! and applies the capping/throttling directives to the *next* step's activity, which mirrors
//! how real telemetry-driven control loops behave.

use crate::cooling::airflow::{AirflowModel, AisleAirflowAssessment};
use crate::cooling::gpu::{GpuThermalCoefficients, GpuThermalModel, TempGrid};
use crate::cooling::inlet::{InletCurve, InletModel};
use crate::failures::FailureState;
use crate::ids::{AisleId, GpuId, RowId, ServerId};
use crate::index::{OrdinalMap, TopologyIndex};
use crate::power::hierarchy::{CapacityState, PowerAssessment, PowerHierarchy};
use crate::power::server::{ServerPowerModel, ServerPowerTerms};
use crate::topology::{Layout, ServerSpec};
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::sync::Arc;

/// One server's activity for a step: lanes `0..active_gpus` run at `(utilization,
/// frequency_scale)`, and the remaining lanes idle at utilization 0 and nominal frequency.
///
/// This is the shape the simulator writes (an instance's model parallelism decides how
/// many GPUs run, and its configuration their frequency); GPU-to-GPU heterogeneity comes
/// from the thermal model's per-GPU offsets, not from the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerActivity {
    /// Utilization of each active lane, nominally in `[0, 1]` (the kernels clamp).
    pub utilization: f64,
    /// Frequency scale of each active lane in `(0, 1]`.
    pub frequency_scale: f64,
    /// Memory-boundedness in `[0, 1]` (0 = prefill-like, 1 = decode-like).
    pub memory_boundedness: f64,
    /// Number of leading lanes that run; at most the server's GPU count.
    pub active_gpus: usize,
}

impl ServerActivity {
    /// An idle server: utilization 0, nominal frequency, no memory-boundedness.
    #[must_use]
    pub fn idle(gpus: usize) -> Self {
        Self {
            utilization: 0.0,
            frequency_scale: 1.0,
            memory_boundedness: 0.0,
            active_gpus: gpus,
        }
    }

    /// Every lane at the same utilization (clamped to `[0, 1]`), nominal frequency and
    /// memory-boundedness 0.5.
    #[must_use]
    pub fn uniform(gpus: usize, utilization: f64) -> Self {
        Self {
            utilization: utilization.clamp(0.0, 1.0),
            frequency_scale: 1.0,
            memory_boundedness: 0.5,
            active_gpus: gpus,
        }
    }

    /// The `(utilization, frequency scale)` of GPU slot `slot`: the record's pair on the
    /// first `active_gpus` slots, `(0.0, 1.0)` after them.
    #[must_use]
    pub fn lane(&self, slot: usize) -> (f64, f64) {
        if slot < self.active_gpus {
            (self.utilization, self.frequency_scale)
        } else {
            (0.0, 1.0)
        }
    }
}

/// The step's activity: one [`ServerActivity`] per server, indexed by
/// [`ServerId::index`]. Dereferences to the record slice.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityRecords(Vec<ServerActivity>);

/// Field-wise mutable access to one [`ServerActivity`], with utilization and frequency as
/// one-element slices. Only `replay_physics` in `perfbench/src/layers.rs` writes through
/// it; the benchmark change of ROADMAP direction 5 deletes it.
#[derive(Debug)]
pub struct ServerActivityMut<'a> {
    /// The record's utilization.
    pub gpu_utilization: &'a mut [f64],
    /// The record's frequency scale.
    pub frequency_scale: &'a mut [f64],
    /// The record's memory-boundedness.
    pub memory_boundedness: &'a mut f64,
}

impl ActivityRecords {
    fn for_layout(layout: &Layout, record: impl Fn(usize) -> ServerActivity) -> Self {
        Self(
            layout
                .servers()
                .iter()
                .map(|server| record(server.spec.gpus_per_server))
                .collect(),
        )
    }

    /// Field-wise writer for one server's record (see [`ServerActivityMut`]).
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    #[must_use]
    pub fn server_mut(&mut self, server: usize) -> ServerActivityMut<'_> {
        let ServerActivity {
            utilization,
            frequency_scale,
            memory_boundedness,
            ..
        } = &mut self.0[server];
        ServerActivityMut {
            gpu_utilization: std::slice::from_mut(utilization),
            frequency_scale: std::slice::from_mut(frequency_scale),
            memory_boundedness,
        }
    }
}

impl std::ops::Deref for ActivityRecords {
    type Target = [ServerActivity];

    fn deref(&self) -> &[ServerActivity] {
        &self.0
    }
}

impl std::ops::DerefMut for ActivityRecords {
    fn deref_mut(&mut self) -> &mut [ServerActivity] {
        &mut self.0
    }
}

/// Input to one evaluation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInput {
    /// Outside air temperature.
    pub outside_temp: Celsius,
    /// One activity record per server.
    pub activity: ActivityRecords,
    /// Active infrastructure failures.
    pub failures: FailureState,
    /// Operator power-cap fraction in `(0, 1]`: every row and UPS budget is clamped to
    /// this fraction of provisioned capacity, multiplying any failure-derived
    /// reductions. `1.0` (the constructors' default) is a bit-identical no-op.
    pub power_cap: f64,
}

impl StepInput {
    /// An all-idle cluster at a given outside temperature (useful for tests and
    /// baselines); every record has all its lanes active.
    #[must_use]
    pub fn idle(layout: &Layout, outside_temp: Celsius) -> Self {
        Self {
            outside_temp,
            activity: ActivityRecords::for_layout(layout, ServerActivity::idle),
            failures: FailureState::healthy(),
            power_cap: 1.0,
        }
    }

    /// A uniformly loaded cluster ([`ServerActivity::uniform`] on every server).
    #[must_use]
    pub fn uniform_load(layout: &Layout, outside_temp: Celsius, utilization: f64) -> Self {
        Self {
            outside_temp,
            activity: ActivityRecords::for_layout(layout, |gpus| {
                ServerActivity::uniform(gpus, utilization)
            }),
            failures: FailureState::healthy(),
            power_cap: 1.0,
        }
    }
}

/// A GPU that crossed its thermal limit, and the frequency reduction the hardware applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalThrottleDirective {
    /// The throttled GPU.
    pub gpu: GpuId,
    /// Junction temperature that triggered the throttle.
    pub temperature: Celsius,
    /// Frequency scale the hardware enforces until the GPU cools (`< 1.0`).
    pub frequency_scale: f64,
}

/// Everything the engine derives for one step.
///
/// All fields are dense, topology-ordinal grids: per-server vectors indexed by
/// [`ServerId::index`], the flat server-major [`TempGrid`], and one [`OrdinalMap`] per
/// aggregation level. The shapes are frozen by the [`TopologyIndex`] of the datacenter that
/// produced the outcome, so fleet-level consumers can aggregate across datacenters with
/// O(1) per-cell access.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepOutcome {
    /// Per-server inlet temperature.
    pub inlet_temps: Vec<Celsius>,
    /// Per-GPU temperatures: one contiguous server-major grid.
    pub gpu_temps: TempGrid,
    /// Per-server total power.
    pub server_power: Vec<Kilowatts>,
    /// Per-server airflow demand.
    pub server_airflow: Vec<CubicFeetPerMinute>,
    /// Per-aisle airflow assessment, indexed by [`AisleId`].
    pub aisle_airflow: OrdinalMap<AisleId, AisleAirflowAssessment>,
    /// Power-hierarchy assessment, including power capping directives.
    pub power: PowerAssessment,
    /// GPUs above their thermal limit and the throttle the hardware applies.
    pub thermal_throttles: Vec<ThermalThrottleDirective>,
    /// Normalized datacenter load in `[0, 1]` used for the inlet model.
    pub datacenter_load: f64,
}

impl StepOutcome {
    /// The hottest GPU temperature across the datacenter.
    #[must_use]
    pub fn max_gpu_temp(&self) -> Celsius {
        self.gpu_temps.max_gpu()
    }

    /// The peak row power.
    #[must_use]
    pub fn peak_row_power(&self) -> Kilowatts {
        self.power.peak_row_power()
    }

    /// Per-row power draw, in row order (allocation-free compatibility accessor).
    pub fn row_power(&self) -> impl ExactSizeIterator<Item = (RowId, Kilowatts)> + '_ {
        self.power.row_power()
    }

    /// Number of GPUs currently thermally throttled.
    #[must_use]
    pub fn throttled_gpu_count(&self) -> usize {
        self.thermal_throttles.len()
    }
}

/// Tunable model parameters for a [`Datacenter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DatacenterModels {
    /// Inlet-temperature curve (Eq. 1).
    pub inlet_curve: InletCurve,
    /// GPU-temperature coefficients (Eq. 2).
    pub gpu_thermal: GpuThermalCoefficients,
    /// Airflow / recirculation model (Eq. 3).
    pub airflow: AirflowModel,
    /// Server power model (Eq. 4).
    pub power: ServerPowerModel,
}

/// The datacenter physics engine.
#[derive(Debug, Clone)]
pub struct Datacenter {
    layout: Layout,
    topology: Arc<TopologyIndex>,
    inlet_model: InletModel,
    gpu_model: GpuThermalModel,
    airflow_model: AirflowModel,
    power_model: ServerPowerModel,
    hierarchy: PowerHierarchy,
    /// Per-row kernel plans: hoisted spec-derived constants, frozen at construction.
    row_plans: Vec<RowPlan>,
    fingerprint: u64,
}

/// Per-row kernel plan. Built once in [`Datacenter::with_models`]: the aisle the row draws
/// air from (rows never span aisles) and, when the row is spec-homogeneous — the case the
/// layout builder always produces — the spec-derived constants hoisted out of the lane
/// loops. Mixed-spec or ragged rows fall back to the general per-server path.
#[derive(Debug, Clone, Copy)]
struct RowPlan {
    /// Ordinal of the aisle every server in the row belongs to.
    aisle: usize,
    /// Hoisted terms when every server in the row shares one spec.
    uniform: Option<RowUniformTerms>,
}

/// Spec-derived constants of a homogeneous row, hoisted once per row instead of being
/// re-derived per server. All values are produced by the same model helpers the scalar
/// path uses ([`ServerPowerModel::gpu_power_terms`], [`AirflowModel::airflow_terms`],
/// [`ServerPowerModel::server_power_terms`]), so results stay bit-identical.
#[derive(Debug, Clone, Copy)]
struct RowUniformTerms {
    gpus_per_server: usize,
    gpu_static_w: f64,
    gpu_dynamic_w: f64,
    airflow_idle: CubicFeetPerMinute,
    airflow_span: CubicFeetPerMinute,
    power: ServerPowerTerms,
    throttle_limit_c: f64,
}

impl RowUniformTerms {
    fn for_spec(spec: &ServerSpec, airflow: &AirflowModel, power: &ServerPowerModel) -> Self {
        let (gpu_static_w, gpu_dynamic_w) = power.gpu_power_terms(spec);
        let (airflow_idle, airflow_span) = airflow.airflow_terms(spec);
        Self {
            gpus_per_server: spec.gpus_per_server,
            gpu_static_w,
            gpu_dynamic_w,
            airflow_idle,
            airflow_span,
            power: power.server_power_terms(spec),
            throttle_limit_c: spec.gpu_throttle_temp_c,
        }
    }
}

fn row_plans(layout: &Layout, airflow: &AirflowModel, power: &ServerPowerModel) -> Vec<RowPlan> {
    layout
        .rows()
        .iter()
        .map(|row| {
            debug_assert!(
                row.servers
                    .iter()
                    .all(|&s| layout.server(s).aisle == row.aisle),
                "rows must not span aisles"
            );
            let uniform = row.servers.split_first().and_then(|(&first, rest)| {
                let spec = layout.server(first).spec;
                rest.iter()
                    .all(|&s| layout.server(s).spec == spec)
                    .then(|| RowUniformTerms::for_spec(&spec, airflow, power))
            });
            RowPlan {
                aisle: row.aisle.index(),
                uniform,
            }
        })
        .collect()
}

impl Datacenter {
    /// Creates a datacenter with default model parameters and deterministic per-entity
    /// offsets derived from `seed`.
    #[must_use]
    pub fn new(layout: Layout, seed: u64) -> Self {
        Self::with_models(layout, DatacenterModels::default(), seed)
    }

    /// Creates a datacenter with explicit model parameters.
    #[must_use]
    pub fn with_models(layout: Layout, models: DatacenterModels, seed: u64) -> Self {
        let inlet_model = InletModel::for_layout(&layout, models.inlet_curve, seed);
        let gpu_model = GpuThermalModel::for_layout(&layout, models.gpu_thermal, seed);
        let hierarchy = PowerHierarchy::from_layout(&layout);
        let topology = Arc::new(TopologyIndex::from_layout(&layout));
        let fingerprint = Self::fingerprint_of(&layout, &models, seed);
        let row_plans = row_plans(&layout, &models.airflow, &models.power);
        Self {
            layout,
            topology,
            inlet_model,
            gpu_model,
            airflow_model: models.airflow,
            power_model: models.power,
            hierarchy,
            row_plans,
            fingerprint,
        }
    }

    /// A deterministic digest of `(layout, models, seed)` identifying this datacenter's
    /// generative models. Two datacenters with equal fingerprints produce identical physics,
    /// so derived artifacts (e.g. offline profiles) can be shared between them.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn fingerprint_of(layout: &Layout, models: &DatacenterModels, seed: u64) -> u64 {
        // FNV-1a over the structural parameters; deterministic across processes.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(seed);
        mix(layout.server_count() as u64);
        mix(layout.rows().len() as u64);
        mix(layout.aisles().len() as u64);
        mix(layout.racks().len() as u64);
        mix(layout.pdus().len() as u64);
        mix(layout.upses().len() as u64);
        // Every server spec participates (mixed fleets must not collide).
        for server in layout.servers() {
            mix(server.spec.gpus_per_server as u64);
            mix(server.spec.max_power.value().to_bits());
            mix(server.spec.idle_power.value().to_bits());
            mix(server.spec.gpu_max_power.value().to_bits());
            mix(server.spec.idle_airflow.value().to_bits());
            mix(server.spec.max_airflow.value().to_bits());
            mix(server.spec.gpu_throttle_temp_c.to_bits());
            mix(server.spec.mem_throttle_temp_c.to_bits());
        }
        for row in layout.rows() {
            mix(row.power_budget.value().to_bits());
            mix(row.servers.len() as u64);
        }
        for aisle in layout.aisles() {
            mix(aisle.airflow_provisioned.value().to_bits());
            mix(aisle.ahu_count as u64);
        }
        // Every tunable of every model participates.
        mix(models.inlet_curve.floor_c.to_bits());
        mix(models.inlet_curve.floor_until_outside_c.to_bits());
        mix(models.inlet_curve.mid_slope.to_bits());
        mix(models.inlet_curve.hot_from_outside_c.to_bits());
        mix(models.inlet_curve.hot_slope.to_bits());
        mix(models.inlet_curve.load_sensitivity_c.to_bits());
        mix(models.gpu_thermal.inlet_coeff.to_bits());
        mix(models.gpu_thermal.power_coeff.to_bits());
        mix(models.gpu_thermal.intercept.to_bits());
        mix(models.gpu_thermal.layout_penalty_c.to_bits());
        mix(models.gpu_thermal.process_variation_std_c.to_bits());
        mix(models.gpu_thermal.mem_offset_membound_c.to_bits());
        mix(models.gpu_thermal.mem_offset_computebound_c.to_bits());
        mix(models.airflow.recirculation_penalty_c_per_10pct.to_bits());
        mix(models.power.linear_weight.to_bits());
        hash
    }

    /// The physical layout.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The frozen ordinal geometry of this datacenter. Clone the `Arc` to share the handle
    /// with workspaces or fleet-level aggregation.
    #[must_use]
    pub fn topology(&self) -> &Arc<TopologyIndex> {
        &self.topology
    }

    /// The inlet-temperature model.
    #[must_use]
    pub fn inlet_model(&self) -> &InletModel {
        &self.inlet_model
    }

    /// The GPU thermal model.
    #[must_use]
    pub fn gpu_model(&self) -> &GpuThermalModel {
        &self.gpu_model
    }

    /// The server power model.
    #[must_use]
    pub fn power_model(&self) -> &ServerPowerModel {
        &self.power_model
    }

    /// The airflow model.
    #[must_use]
    pub fn airflow_model(&self) -> &AirflowModel {
        &self.airflow_model
    }

    /// The power hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &PowerHierarchy {
        &self.hierarchy
    }

    /// Evaluates one step, allocating a fresh [`StepWorkspace`].
    ///
    /// Callers on the hot loop should hold a persistent workspace and use
    /// [`Self::evaluate_into`] instead, which reuses every intermediate and output buffer
    /// across steps.
    ///
    /// # Panics
    /// Panics if `input.activity` does not have exactly one record per server, or if a
    /// record's `active_gpus` exceeds its server's GPU count.
    #[must_use]
    pub fn evaluate(&self, input: &StepInput) -> StepOutcome {
        let mut workspace = StepWorkspace::for_topology(Arc::clone(&self.topology));
        self.evaluate_into(input, &mut workspace);
        workspace.outcome
    }

    /// Evaluates one step into a reusable workspace (allocation-free after the first step).
    ///
    /// Per-server physics (airflow, power split, GPU temperatures, throttle detection) runs
    /// in one serial sweep over contiguous per-row slices: the power pass in row order, the
    /// thermal pass in reverse row order, and every cross-row reduction (datacenter load,
    /// throttle concatenation) in row order, matching the FP order of
    /// [`crate::kernel_reference::evaluate_scalar`].
    ///
    /// # Panics
    /// Panics if `input.activity` does not have exactly one record per server, or if a
    /// record's `active_gpus` exceeds its server's GPU count.
    pub fn evaluate_into(&self, input: &StepInput, workspace: &mut StepWorkspace) {
        assert_eq!(
            input.activity.len(),
            self.layout.server_count(),
            "activity must cover every server"
        );
        // Each record's `active_gpus` bound is asserted where the power pass expands it.
        workspace.reset(&self.layout);
        let server_count = self.layout.server_count();
        let servers = self.layout.servers();
        let topology = Arc::clone(&workspace.topology);
        let row_ranges = topology.row_ranges();
        let gpu_offsets = topology.gpu_offsets();
        let activity_all: &[ServerActivity] = &input.activity;

        // 1. Per-server loads, airflow demand and power, processed per contiguous row slice.
        {
            let outcome = &mut workspace.outcome;
            // The junction plane doubles as the per-GPU power staging area: this pass
            // writes watts into it, the thermal pass transforms them to temperatures in
            // place. One plane streamed twice beats two planes streamed once each.
            let (power_stage, _) = outcome.gpu_temps.kernel_planes_mut();
            for (row, range) in row_ranges.iter().enumerate() {
                let gpus = gpu_offsets[range.start] as usize..gpu_offsets[range.end] as usize;
                RowPowerKernel {
                    plan: &self.row_plans[row],
                    servers: &servers[range.clone()],
                    activity: &activity_all[range.clone()],
                    airflow: &mut outcome.server_airflow[range.clone()],
                    power: &mut outcome.server_power[range.clone()],
                    power_stage: &mut power_stage[gpus],
                    row_load: &mut workspace.row_load[row],
                }
                .run(&self.airflow_model, &self.power_model);
            }
        }
        // Per-row sums reduced in row order (the reference's FP order).
        let total_load: f64 = workspace.row_load.iter().sum();
        let datacenter_load = if server_count > 0 {
            total_load / server_count as f64
        } else {
            0.0
        };
        workspace.outcome.datacenter_load = datacenter_load;

        // 2. Aisle airflow assessment and recirculation penalties, written into the
        // pre-sized per-aisle grid. Every aisle is a contiguous server span (asserted by
        // the topology), so its demand reduces over a dense window of the airflow plane:
        // the same elements in the same order as the reference's id walk.
        for aisle in self.layout.aisles() {
            let fraction = input
                .failures
                .aisle_airflow_fraction(aisle.id, aisle.ahu_count);
            let demand: CubicFeetPerMinute = workspace.outcome.server_airflow
                [topology.aisle_range(aisle.id)]
            .iter()
            .copied()
            .sum();
            let assessment = self
                .airflow_model
                .assess_aisle_demand(aisle, demand, fraction);
            workspace.aisle_penalty[aisle.id.index()] = assessment.recirculation_penalty_c;
            workspace.outcome.aisle_airflow[aisle.id] = assessment;
        }

        // 3./4. Inlet and GPU temperatures plus thermal throttles, per contiguous row slice
        // of the flat temperature planes. The step-invariant parts of the inlet model
        // (base curve at this outside temperature, load term) are hoisted once per step.
        let inlet_base = self.inlet_model.curve().base(input.outside_temp);
        let load_term = self.inlet_model.curve().load_term(datacenter_load);
        let spatial_all = self.inlet_model.spatial_offsets();
        let thermal_offsets_all = self.gpu_model.offsets_flat();
        debug_assert_eq!(thermal_offsets_all.len(), topology.gpu_count());
        let coeffs = *self.gpu_model.coefficients();
        {
            let outcome = &mut workspace.outcome;
            let (gpu_plane, mem_offsets_plane) = outcome.gpu_temps.kernel_planes_mut();
            // Rows run in *reverse* ordinal order: the power pass above finished at the
            // last row, so on sites too large for cache the thermal pass starts on the
            // still-resident tail of the staged power plane and zigzags back. Each row
            // owns disjoint windows and stages its throttles in its own buffer, so the
            // processing order cannot affect results.
            for (row, range) in row_ranges.iter().enumerate().rev() {
                let gpus = gpu_offsets[range.start] as usize..gpu_offsets[range.end] as usize;
                RowThermalKernel {
                    plan: &self.row_plans[row],
                    servers: &servers[range.clone()],
                    row_start: range.start,
                    activity: &activity_all[range.clone()],
                    spatial: &spatial_all[range.clone()],
                    thermal_offsets: &thermal_offsets_all[gpus.clone()],
                    aisle_penalty: &workspace.aisle_penalty,
                    inlet_base,
                    load_term,
                    inlets: &mut outcome.inlet_temps[range.clone()],
                    gpu_c: &mut gpu_plane[gpus],
                    mem_offsets: &mut mem_offsets_plane[range.clone()],
                    throttles: &mut workspace.row_throttles[row],
                }
                .run(&coeffs);
            }
        }
        // Throttles concatenate in row order, which is the reference's server order.
        workspace.outcome.thermal_throttles.clear();
        for row in &mut workspace.row_throttles {
            workspace.outcome.thermal_throttles.append(row);
        }

        // 5. Power hierarchy assessment and capping, written into the reusable dense grids.
        input
            .failures
            .capacity_state_into(&self.layout, &mut workspace.capacity);
        // An operator power cap clamps row/UPS budgets on top of the failure-derived
        // fractions. Guarded so the uncapped path never touches (or grows) the grids.
        if input.power_cap < 1.0 {
            workspace.capacity.apply_power_cap(
                input.power_cap,
                self.layout.upses().len(),
                self.layout.rows().len(),
            );
        }
        self.hierarchy.assess_into(
            &workspace.outcome.server_power,
            &workspace.capacity,
            &mut workspace.outcome.power,
            &mut workspace.hierarchy_scratch,
        );

        #[cfg(debug_assertions)]
        workspace.assert_kernel_lanes_written();
    }
}

/// Reusable buffers for [`Datacenter::evaluate_into`], including the output
/// [`StepOutcome`] whose grids are overwritten in place each step.
///
/// The workspace is shaped by a [`TopologyIndex`] handle (shared with the engine via
/// `Arc`), which freezes the grid strides every buffer follows.
#[derive(Debug, Clone)]
pub struct StepWorkspace {
    /// The most recent step's outcome.
    pub outcome: StepOutcome,
    /// The frozen ordinal geometry the grids follow.
    topology: Arc<TopologyIndex>,
    /// Recirculation penalty per aisle index.
    aisle_penalty: Vec<f64>,
    /// Sum of mean server loads per row.
    row_load: Vec<f64>,
    /// Per-row throttle staging buffers (concatenated in row order for determinism).
    row_throttles: Vec<Vec<ThermalThrottleDirective>>,
    /// Reusable power-capacity state derived from the step's failures.
    capacity: CapacityState,
    hierarchy_scratch: crate::power::hierarchy::HierarchyScratch,
}

impl StepWorkspace {
    /// Creates a workspace sized for a layout (freezing a fresh [`TopologyIndex`]).
    ///
    /// Callers that already hold a datacenter should prefer [`Self::for_topology`] with
    /// [`Datacenter::topology`] so the handle is shared instead of rebuilt.
    ///
    /// # Panics
    /// Panics if the layout's rows or aisles are not contiguous server-index ranges (the
    /// builder always produces contiguous ones).
    #[must_use]
    pub fn new(layout: &Layout) -> Self {
        Self::for_topology(Arc::new(TopologyIndex::from_layout(layout)))
    }

    /// Creates a workspace over an existing topology handle.
    #[must_use]
    pub fn for_topology(topology: Arc<TopologyIndex>) -> Self {
        let server_count = topology.server_count();
        let empty_aisle = AisleAirflowAssessment {
            demand: CubicFeetPerMinute::ZERO,
            available: CubicFeetPerMinute::ZERO,
            utilization: 0.0,
            recirculation_penalty_c: 0.0,
        };
        let outcome = StepOutcome {
            inlet_temps: vec![Celsius::ZERO; server_count],
            gpu_temps: TempGrid::for_topology(&topology),
            server_power: vec![Kilowatts::ZERO; server_count],
            server_airflow: vec![CubicFeetPerMinute::ZERO; server_count],
            aisle_airflow: OrdinalMap::filled(topology.aisle_count(), empty_aisle),
            power: PowerAssessment::empty(),
            thermal_throttles: Vec::new(),
            datacenter_load: 0.0,
        };
        Self {
            outcome,
            aisle_penalty: vec![0.0; topology.aisle_count()],
            row_load: vec![0.0; topology.row_count()],
            row_throttles: vec![Vec::new(); topology.row_count()],
            capacity: CapacityState::healthy(),
            hierarchy_scratch: crate::power::hierarchy::HierarchyScratch::default(),
            topology,
        }
    }

    /// The topology handle the workspace grids follow.
    #[must_use]
    pub fn topology(&self) -> &Arc<TopologyIndex> {
        &self.topology
    }

    fn reset(&mut self, layout: &Layout) {
        debug_assert_eq!(self.outcome.inlet_temps.len(), layout.server_count());
        for penalty in &mut self.aisle_penalty {
            *penalty = 0.0;
        }
        // In debug builds, poison every lane the row kernels are contractually required
        // to fully overwrite, so a future partial-write bug cannot silently reuse a stale
        // lane from the previous step. Release builds rely on the overwrite contract and
        // skip both the poisoning and the post-step sweep.
        #[cfg(debug_assertions)]
        self.poison_kernel_lanes();
    }

    /// Fills every kernel-overwritten buffer with NaN (debug builds only).
    #[cfg(debug_assertions)]
    fn poison_kernel_lanes(&mut self) {
        self.outcome.inlet_temps.fill(Celsius::new(f64::NAN));
        self.outcome.server_power.fill(Kilowatts::new(f64::NAN));
        self.outcome
            .server_airflow
            .fill(CubicFeetPerMinute::new(f64::NAN));
        let (gpu_c, mem_offsets) = self.outcome.gpu_temps.kernel_planes_mut();
        gpu_c.fill(f64::NAN);
        mem_offsets.fill(f64::NAN);
        self.row_load.fill(f64::NAN);
    }

    /// Verifies every poisoned lane was overwritten by the step's kernels (debug builds
    /// only — finite inputs never produce NaN, so a surviving NaN is a stale lane).
    #[cfg(debug_assertions)]
    fn assert_kernel_lanes_written(&self) {
        fn sweep(name: &str, lanes: impl Iterator<Item = f64>) {
            for (i, value) in lanes.enumerate() {
                assert!(
                    !value.is_nan(),
                    "physics kernels left {name} lane {i} unwritten (stale-lane poison \
                     survived the step, or a NaN input reached the engine)"
                );
            }
        }
        sweep("inlet", self.outcome.inlet_temps.iter().map(|c| c.value()));
        sweep(
            "server-power",
            self.outcome.server_power.iter().map(|p| p.value()),
        );
        sweep(
            "server-airflow",
            self.outcome.server_airflow.iter().map(|a| a.value()),
        );
        sweep(
            "gpu-temp",
            self.outcome.gpu_temps.gpu_plane().iter().copied(),
        );
        // Derived memory values inherit NaN from either an unwritten junction lane or an
        // unwritten per-server offset, so this sweep covers the offset plane too.
        sweep(
            "mem-temp",
            self.outcome.gpu_temps.iter().map(|t| t.memory.value()),
        );
        sweep("row-load", self.row_load.iter().copied());
    }
}

/// Fused per-server GPU lane pass of the power kernel: expands one [`ServerActivity`]
/// into its lanes, writes each GPU's power (`ServerPowerModel::gpu_power` with its terms
/// hoisted by the caller) and returns the `(Σ per-GPU power, mean utilization)` pair.
///
/// The active and idle lane powers are computed once per server; the lanes then form two
/// runs (slots `0..active_gpus`, then the idle rest), and [`lane_run`] stores and
/// accumulates each lane by lane, one scalar loop for every target. The two alternating
/// accumulator lanes make the float additions pipeline instead of forming one serial
/// dependency chain — the lane order (even slots → lane 0, odd slots → lane 1, the
/// historical `acc[slot & 1]`) is part of the engine's FP-order contract (see
/// `kernel_reference` and `tests/soa_physics.rs`).
///
/// # Panics
/// Panics if `activity.active_gpus` exceeds the server's lane count.
#[inline(always)]
fn power_lanes(
    static_power: f64,
    dynamic_coeff: f64,
    activity: &ServerActivity,
    out: &mut [f64],
) -> (f64, f64) {
    let lanes = out.len();
    let active = activity.active_gpus;
    assert!(
        active <= lanes,
        "active GPU count must not exceed the server spec"
    );
    let lane_power = |utilization: f64, frequency: f64| {
        let clamped_u = utilization.clamp(0.0, 1.0);
        let clamped_f = frequency.clamp(0.1, 1.0);
        let f3 = (clamped_f * clamped_f) * clamped_f;
        static_power + dynamic_coeff * clamped_u * f3
    };
    let active_power = lane_power(activity.utilization, activity.frequency_scale);
    let idle_power = lane_power(0.0, 1.0);
    // `acc[parity] = (Σ utilization, Σ power)` over the slots of that parity, in slot
    // order. The idle run starts at slot `active`, so an odd count swaps the parities
    // for its duration.
    let mut acc = [(0.0f64, 0.0f64); 2];
    let (running, idle) = out.split_at_mut(active);
    lane_run(running, activity.utilization, active_power, &mut acc);
    if active % 2 == 1 {
        acc.swap(0, 1);
    }
    lane_run(idle, 0.0, idle_power, &mut acc);
    if active % 2 == 1 {
        acc.swap(0, 1);
    }
    let [(util_even, pow_even), (util_odd, pow_odd)] = acc;
    let gpu_sum = pow_even + pow_odd;
    let mean_load = if lanes == 0 {
        0.0
    } else {
        (util_even + util_odd) / lanes as f64
    };
    (gpu_sum, mean_load)
}

/// Stores `power` into every lane of a run and accumulates `(utilization, power)` per lane,
/// the run's first lane into `acc[0]` and then alternating.
#[inline(always)]
fn lane_run(lanes: &mut [f64], utilization: f64, power: f64, acc: &mut [(f64, f64); 2]) {
    let mut pairs = lanes.chunks_exact_mut(2);
    for pair in &mut pairs {
        acc[0].0 += utilization;
        acc[0].1 += power;
        acc[1].0 += utilization;
        acc[1].1 += power;
        pair[0] = power;
        pair[1] = power;
    }
    if let [last] = pairs.into_remainder() {
        acc[0].0 += utilization;
        acc[0].1 += power;
        *last = power;
    }
}

struct RowPowerKernel<'a> {
    plan: &'a RowPlan,
    servers: &'a [crate::topology::Server],
    /// The row's window of the activity records.
    activity: &'a [ServerActivity],
    airflow: &'a mut [CubicFeetPerMinute],
    power: &'a mut [Kilowatts],
    /// The row's window of the junction-temperature plane, used as per-GPU power staging
    /// (in watts) until the thermal pass transforms it in place.
    power_stage: &'a mut [f64],
    row_load: &'a mut f64,
}

impl RowPowerKernel<'_> {
    fn run(&mut self, airflow_model: &AirflowModel, power_model: &ServerPowerModel) {
        match self.plan.uniform {
            Some(terms) => self.run_uniform(&terms),
            None => self.run_mixed(airflow_model, power_model),
        }
    }

    /// Fast path for a spec-homogeneous row: every spec-derived term arrives hoisted in
    /// the row plan, so the per-server stride is fixed and the loop never touches the
    /// `Server` structs. The activity arrives as the row's window of records, so the
    /// loop is linear streams the hardware prefetcher follows on its own.
    fn run_uniform(&mut self, t: &RowUniformTerms) {
        let gpus = t.gpus_per_server;
        let mut load_sum = 0.0;
        let mut gpu_offset = 0usize;
        for i in 0..self.power.len() {
            let lanes = gpu_offset..gpu_offset + gpus;
            let (gpu_sum, mean_load) = power_lanes(
                t.gpu_static_w,
                t.gpu_dynamic_w,
                &self.activity[i],
                &mut self.power_stage[lanes],
            );
            load_sum += mean_load;
            self.airflow[i] = t.airflow_idle + t.airflow_span * mean_load.clamp(0.0, 1.0);
            // Total = Σ per-GPU + overhead, where overhead = max(f_power(mean) − Σ, 0); this
            // collapses to the larger of the two without re-walking the slice. The select
            // is `f64::max` minus its NaN bookkeeping (both operands are finite sums of
            // clamped terms), which a bare `maxsd` implements exactly.
            let server_w = t.power.at_load(mean_load).to_watts().value();
            let total = if server_w >= gpu_sum {
                server_w
            } else {
                gpu_sum
            };
            self.power[i] = Watts::new(total).to_kilowatts();
            gpu_offset += gpus;
        }
        *self.row_load = load_sum;
    }

    /// General path for mixed-spec or ragged rows: terms are hoisted per server instead
    /// of per row, everything else is the same math in the same order.
    fn run_mixed(&mut self, airflow_model: &AirflowModel, power_model: &ServerPowerModel) {
        let mut load_sum = 0.0;
        let mut gpu_offset = 0usize;
        for (i, server) in self.servers.iter().enumerate() {
            let spec = &server.spec;
            let (static_power, dynamic_coeff) = power_model.gpu_power_terms(spec);
            let lanes = gpu_offset..gpu_offset + spec.gpus_per_server;
            let (gpu_sum, mean_load) = power_lanes(
                static_power,
                dynamic_coeff,
                &self.activity[i],
                &mut self.power_stage[lanes],
            );
            load_sum += mean_load;
            self.airflow[i] = airflow_model.server_airflow(spec, mean_load);
            let server_w = power_model.server_power(spec, mean_load).to_watts().value();
            let total = if server_w >= gpu_sum {
                server_w
            } else {
                gpu_sum
            };
            self.power[i] = Watts::new(total).to_kilowatts();
            gpu_offset += spec.gpus_per_server;
        }
        *self.row_load = load_sum;
    }
}

/// Branch-free GPU lane pass of the thermal kernel: transforms the row's staged per-GPU
/// power lanes into junction temperatures *in place* (the power pass wrote watts into
/// the junction plane; streaming one plane twice beats streaming two planes once each)
/// and returns whether any lane overshot its throttle limit, so the sparse collection
/// pass runs only when a throttle actually fired. The flag is an OR of comparisons
/// rather than a running `f64::max` — the max's NaN-propagation semantics cost a
/// five-instruction select per lane and serialize the loop. Neither memory temperatures
/// nor overshoots are stored per lane: memory derives from the per-server offset (see
/// [`TempGrid`]) and the collection pass recomputes `base − limit` (bitwise the same
/// value), because at the 10k-server scale the step is memory-bound and every avoided
/// full-plane stream is ~10 % of the step.
///
/// The x86-64 pair loop uses explicit SSE2 packed doubles (SSE2 is part of the x86-64
/// baseline, so no runtime detection is needed); every packed op is the lane-wise IEEE
/// operation of the scalar path, so results are bit-identical to the retained scalar
/// reference.
#[inline(always)]
fn thermal_lanes(
    base_common: f64,
    power_coeff: f64,
    limit: f64,
    offsets: &[f64],
    gpu_out: &mut [f64],
) -> bool {
    // Equal-length reslicing, as in `power_lanes`: counted, branch-free loops.
    let lanes = gpu_out.len();
    let offsets = &offsets[..lanes];
    #[allow(unused_assignments)] // the initializer is dead on x86_64 (the SSE2 block assigns)
    let mut any_hot = false;
    let pairs = lanes / 2;

    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is unconditionally available on x86-64; every pointer below stays
    // within the resliced `lanes` bound (`2 * pairs <= lanes`).
    unsafe {
        use std::arch::x86_64::{
            _mm_add_pd, _mm_cmpgt_pd, _mm_loadu_pd, _mm_movemask_pd, _mm_mul_pd, _mm_set1_pd,
            _mm_storeu_pd,
        };
        let base_2 = _mm_set1_pd(base_common);
        let coeff_2 = _mm_set1_pd(power_coeff);
        let limit_2 = _mm_set1_pd(limit);
        let mut hot_mask = 0i32;
        for i in 0..pairs {
            let power = _mm_loadu_pd(gpu_out.as_ptr().add(2 * i));
            let offset = _mm_loadu_pd(offsets.as_ptr().add(2 * i));
            let base = _mm_add_pd(_mm_add_pd(base_2, _mm_mul_pd(coeff_2, power)), offset);
            _mm_storeu_pd(gpu_out.as_mut_ptr().add(2 * i), base);
            hot_mask |= _mm_movemask_pd(_mm_cmpgt_pd(base, limit_2));
        }
        any_hot = hot_mask != 0;
    }

    #[cfg(not(target_arch = "x86_64"))]
    for i in 0..2 * pairs {
        let base = base_common + power_coeff * gpu_out[i] + offsets[i];
        gpu_out[i] = base;
        any_hot |= base > limit;
    }

    // Odd trailing lane (ragged GPU counts).
    if lanes % 2 == 1 {
        let base = base_common + power_coeff * gpu_out[lanes - 1] + offsets[lanes - 1];
        gpu_out[lanes - 1] = base;
        any_hot |= base > limit;
    }
    any_hot
}

/// Sparse collection pass of the branch-free throttle detection: walks one server's
/// junction lanes and emits directives in slot order — the same order (and the same
/// `overshoot = base − limit` values) the in-loop branch produced before. Only reached
/// when the lane pass flagged an overshoot, so the common all-cool step never branches
/// per lane.
fn collect_throttles(
    server: ServerId,
    limit: f64,
    gpu_c: &[f64],
    out: &mut Vec<ThermalThrottleDirective>,
) {
    for (slot, &base) in gpu_c.iter().enumerate() {
        let over = base - limit;
        if over > 0.0 {
            // The hardware reduces clocks proportionally to the overshoot, with a floor
            // of 50 % of nominal frequency (matching observed DVFS behaviour).
            let frequency_scale = (1.0 - 0.05 * over).clamp(0.5, 0.95);
            out.push(ThermalThrottleDirective {
                gpu: GpuId::new(server, slot),
                temperature: Celsius::new(base),
                frequency_scale,
            });
        }
    }
}

struct RowThermalKernel<'a> {
    plan: &'a RowPlan,
    servers: &'a [crate::topology::Server],
    /// Ordinal of the row's first server (fast path reconstructs `ServerId`s from it).
    row_start: usize,
    /// The row's window of the activity records (the thermal pass reads only their
    /// memory-boundedness).
    activity: &'a [ServerActivity],
    /// The row's window of the inlet model's spatial-offset plane.
    spatial: &'a [f64],
    /// The row's window of the thermal model's per-GPU offset plane.
    thermal_offsets: &'a [f64],
    aisle_penalty: &'a [f64],
    /// Step-invariant inlet base: `InletCurve::base(outside)`.
    inlet_base: f64,
    /// Step-invariant inlet load term: `InletCurve::load_term(datacenter_load)`.
    load_term: f64,
    inlets: &'a mut [Celsius],
    /// The row's window of the junction plane; holds the staged per-GPU watts on entry,
    /// junction temperatures on exit.
    gpu_c: &'a mut [f64],
    /// The row's window of the per-server memory-temperature offsets.
    mem_offsets: &'a mut [f64],
    throttles: &'a mut Vec<ThermalThrottleDirective>,
}

impl RowThermalKernel<'_> {
    fn run(&mut self, coeffs: &GpuThermalCoefficients) {
        self.throttles.clear();
        match self.plan.uniform {
            Some(terms) => self.run_uniform(&terms, coeffs),
            None => self.run_mixed(coeffs),
        }
    }

    /// Fast path for a spec-homogeneous row: the throttle limit and GPU stride come from
    /// the row plan, and the recirculation penalty is hoisted per row (rows never span
    /// aisles), so the loop never touches the `Server` structs.
    fn run_uniform(&mut self, t: &RowUniformTerms, coeffs: &GpuThermalCoefficients) {
        let gpus = t.gpus_per_server;
        let limit = t.throttle_limit_c;
        let penalty = self.aisle_penalty[self.plan.aisle].max(0.0);
        let mut gpu_offset = 0usize;
        for i in 0..self.inlets.len() {
            let inlet = Celsius::new(self.inlet_base + self.spatial[i] + self.load_term + penalty);
            self.inlets[i] = inlet;
            let base_common = coeffs.base_terms(inlet);
            self.mem_offsets[i] = coeffs.memory_offset(self.activity[i].memory_boundedness);
            let lanes = gpu_offset..gpu_offset + gpus;
            let hot = thermal_lanes(
                base_common,
                coeffs.power_coeff,
                limit,
                &self.thermal_offsets[lanes.clone()],
                &mut self.gpu_c[lanes.clone()],
            );
            if hot {
                collect_throttles(
                    ServerId::new(self.row_start + i),
                    limit,
                    &self.gpu_c[lanes],
                    self.throttles,
                );
            }
            gpu_offset += gpus;
        }
    }

    /// General path for mixed-spec or ragged rows: the stride, throttle limit and aisle
    /// penalty are read per server, everything else is the same math in the same order.
    fn run_mixed(&mut self, coeffs: &GpuThermalCoefficients) {
        let mut gpu_offset = 0usize;
        for (i, server) in self.servers.iter().enumerate() {
            let penalty = self.aisle_penalty[server.aisle.index()].max(0.0);
            let inlet = Celsius::new(self.inlet_base + self.spatial[i] + self.load_term + penalty);
            self.inlets[i] = inlet;
            let base_common = coeffs.base_terms(inlet);
            self.mem_offsets[i] = coeffs.memory_offset(self.activity[i].memory_boundedness);
            let gpus = server.spec.gpus_per_server;
            let lanes = gpu_offset..gpu_offset + gpus;
            let hot = thermal_lanes(
                base_common,
                coeffs.power_coeff,
                server.spec.gpu_throttle_temp_c,
                &self.thermal_offsets[lanes.clone()],
                &mut self.gpu_c[lanes.clone()],
            );
            if hot {
                collect_throttles(
                    server.id,
                    server.spec.gpu_throttle_temp_c,
                    &self.gpu_c[lanes],
                    self.throttles,
                );
            }
            gpu_offset += gpus;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::{FailureKind, FailureSchedule, FailureWindow};
    use crate::ids::UpsId;
    use crate::topology::LayoutConfig;
    use simkit::time::SimTime;

    fn datacenter() -> Datacenter {
        Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42)
    }

    #[test]
    fn idle_cluster_is_cool_and_uncapped() {
        let dc = datacenter();
        let outcome = dc.evaluate(&StepInput::idle(dc.layout(), Celsius::new(18.0)));
        assert!(outcome.max_gpu_temp().value() < 55.0);
        assert!(!outcome.power.any_over_budget());
        assert!(outcome.thermal_throttles.is_empty());
        assert!(!outcome
            .aisle_airflow
            .values()
            .any(AisleAirflowAssessment::is_violated));
        assert_eq!(outcome.datacenter_load, 0.0);
        assert_eq!(outcome.inlet_temps.len(), 80);
        assert_eq!(outcome.gpu_temps.server_count(), 80);
        assert_eq!(outcome.gpu_temps.gpu_count(), 640);
        assert_eq!(outcome.gpu_temps.server(ServerId::new(0)).len(), 8);
    }

    #[test]
    fn load_raises_temperature_and_power_monotonically() {
        let dc = datacenter();
        let mut last_temp = 0.0;
        let mut last_power = 0.0;
        for load in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let outcome = dc.evaluate(&StepInput::uniform_load(
                dc.layout(),
                Celsius::new(22.0),
                load,
            ));
            let t = outcome.max_gpu_temp().value();
            let p = outcome.peak_row_power().value();
            assert!(t >= last_temp, "temperature must be monotone in load");
            assert!(p >= last_power, "power must be monotone in load");
            last_temp = t;
            last_power = p;
        }
    }

    #[test]
    fn hot_day_full_load_produces_hot_gpus() {
        let dc = datacenter();
        let outcome = dc.evaluate(&StepInput::uniform_load(
            dc.layout(),
            Celsius::new(35.0),
            1.0,
        ));
        // Full load on a hot day should push the hottest GPUs near or past the limit.
        assert!(outcome.max_gpu_temp().value() > 70.0);
        // Memory runs hotter than the GPU under the default 0.5 boundedness? Not necessarily,
        // but it must be within a few degrees.
        assert!((outcome.gpu_temps.max_mem().value() - outcome.max_gpu_temp().value()).abs() < 6.0);
    }

    #[test]
    fn thermal_throttles_fire_above_limit() {
        let dc = datacenter();
        // Extreme outside temperature forces inlet (and thus GPU) temperatures over the limit.
        let outcome = dc.evaluate(&StepInput::uniform_load(
            dc.layout(),
            Celsius::new(45.0),
            1.0,
        ));
        assert!(outcome.throttled_gpu_count() > 0);
        for directive in &outcome.thermal_throttles {
            assert!(directive.temperature.value() > 85.0);
            assert!(directive.frequency_scale >= 0.5 && directive.frequency_scale < 1.0);
        }
    }

    #[test]
    fn power_capping_triggers_when_row_budget_exceeded() {
        // Provision rows for only 60 % of TDP, then run at full load.
        let mut cfg = LayoutConfig::real_cluster_two_rows();
        cfg.row_power_provisioning = 0.6;
        let dc = Datacenter::new(cfg.build(), 1);
        let outcome = dc.evaluate(&StepInput::uniform_load(
            dc.layout(),
            Celsius::new(20.0),
            1.0,
        ));
        assert!(outcome.power.any_over_budget());
        assert!(!outcome.power.capping.is_empty());
    }

    #[test]
    fn power_cap_reduces_effective_budgets_and_triggers_capping() {
        let dc = datacenter();
        let mut input = StepInput::uniform_load(dc.layout(), Celsius::new(20.0), 0.8);
        let uncapped = dc.evaluate(&input);
        assert!(!uncapped.power.any_over_budget());

        // Cap the site to 60 %: the same load now exceeds every row and UPS budget.
        input.power_cap = 0.6;
        let capped = dc.evaluate(&input);
        assert!(capped.power.any_over_budget());
        assert!(!capped.power.capping.is_empty());
        let row0 = dc.layout().rows()[0].id;
        assert!(
            (capped.power.rows[row0].budget.value()
                - uncapped.power.rows[row0].budget.value() * 0.6)
                .abs()
                < 1e-9,
            "effective row budget must be provisioned × cap"
        );
        // Physical draw is unchanged — the cap shifts budgets, not physics.
        assert_eq!(capped.server_power, uncapped.server_power);
        assert_eq!(capped.gpu_temps, uncapped.gpu_temps);

        // A 1.0 cap is byte-identical to the uncapped step.
        input.power_cap = 1.0;
        assert_eq!(dc.evaluate(&input), uncapped);
    }

    #[test]
    fn cooling_failure_raises_inlet_temperatures() {
        let dc = datacenter();
        let mut input = StepInput::uniform_load(dc.layout(), Celsius::new(28.0), 0.9);
        let healthy = dc.evaluate(&input);
        let mut schedule = FailureSchedule::none();
        schedule.add(FailureWindow {
            kind: FailureKind::CoolingDeviceFailure {
                capacity_fraction: 0.9,
            },
            start: SimTime::ZERO,
            end: SimTime::from_hours(2),
        });
        input.failures = schedule.state_at(SimTime::from_minutes(30));
        let degraded = dc.evaluate(&input);
        // Less airflow available -> higher (or equal) utilization and potentially recirculation.
        let healthy_util = healthy.aisle_airflow[AisleId::new(0)].utilization;
        let degraded_util = degraded.aisle_airflow[AisleId::new(0)].utilization;
        assert!(degraded_util > healthy_util);
        assert!(degraded.max_gpu_temp().value() >= healthy.max_gpu_temp().value());
    }

    #[test]
    fn power_emergency_caps_aggressively() {
        let dc = datacenter();
        let mut input = StepInput::uniform_load(dc.layout(), Celsius::new(20.0), 0.7);
        let healthy = dc.evaluate(&input);
        assert!(!healthy.power.any_over_budget());
        let mut schedule = FailureSchedule::none();
        schedule.add(FailureWindow {
            kind: FailureKind::UpsFailure {
                ups: UpsId::new(0),
                capacity_fraction: 0.75,
            },
            start: SimTime::ZERO,
            end: SimTime::from_hours(1),
        });
        input.failures = schedule.state_at(SimTime::from_minutes(10));
        let degraded = dc.evaluate(&input);
        assert!(degraded.power.any_over_budget());
        assert_eq!(degraded.power.capping.len(), dc.layout().server_count());
    }

    #[test]
    fn spatial_heterogeneity_shows_in_outcome() {
        let dc = datacenter();
        let outcome = dc.evaluate(&StepInput::uniform_load(
            dc.layout(),
            Celsius::new(25.0),
            0.8,
        ));
        let inlets: Vec<f64> = outcome.inlet_temps.iter().map(|t| t.value()).collect();
        let spread = simkit::stats::max(&inlets).unwrap() - simkit::stats::min(&inlets).unwrap();
        assert!(
            spread > 1.0,
            "inlet spread should reflect spatial heterogeneity: {spread}"
        );
        // GPUs within one server differ because of layout/process variation.
        let first_server = outcome.gpu_temps.server(ServerId::new(0));
        let temps: Vec<f64> = first_server.iter().map(|t| t.gpu.value()).collect();
        let gpu_spread = simkit::stats::max(&temps).unwrap() - simkit::stats::min(&temps).unwrap();
        assert!(gpu_spread > 1.0);
    }

    /// Records shaped for the test layout with `edit` applied to its config: a step input
    /// whose shape disagrees with the datacenter.
    fn records_for_other_layout(edit: impl FnOnce(&mut LayoutConfig)) -> ActivityRecords {
        let mut config = LayoutConfig::real_cluster_two_rows();
        edit(&mut config);
        StepInput::idle(&config.build(), Celsius::new(20.0)).activity
    }

    #[test]
    #[should_panic(expected = "activity must cover every server")]
    fn mismatched_activity_length_panics() {
        let dc = datacenter();
        let mut input = StepInput::idle(dc.layout(), Celsius::new(20.0));
        input.activity = records_for_other_layout(|c| c.racks_per_row -= 1);
        assert!(input.activity.len() < dc.layout().server_count());
        let _ = dc.evaluate(&input);
    }

    /// Records built for servers with more GPUs than the datacenter's name lanes that do
    /// not exist.
    #[test]
    #[should_panic(expected = "active GPU count must not exceed the server spec")]
    fn mismatched_gpu_count_panics() {
        let dc = datacenter();
        let mut input = StepInput::idle(dc.layout(), Celsius::new(20.0));
        input.activity = records_for_other_layout(|c| c.server_spec.gpus_per_server += 1);
        assert_eq!(input.activity.len(), dc.layout().server_count());
        let _ = dc.evaluate(&input);
    }

    /// One record past its server's GPU count is rejected, on the last server of the
    /// last row.
    #[test]
    #[should_panic(expected = "active GPU count must not exceed the server spec")]
    fn active_gpus_above_the_spec_panics() {
        let dc = datacenter();
        let mut input = StepInput::uniform_load(dc.layout(), Celsius::new(20.0), 0.5);
        let last = input.activity.last_mut().expect("servers");
        last.active_gpus += 1;
        let _ = dc.evaluate(&input);
    }

    /// The layout constructors build one all-lanes-active record per server, and the
    /// field-wise writer edits that record in place.
    #[test]
    fn server_records_match_the_layout_constructors() {
        let dc = datacenter();
        let mut input = StepInput::idle(dc.layout(), Celsius::new(20.0));
        assert_eq!(input.activity.len(), 80);
        assert_eq!(input.activity[0], ServerActivity::idle(8));
        assert_eq!(input.activity[0].active_gpus, 8);
        let uniform = StepInput::uniform_load(dc.layout(), Celsius::new(20.0), 1.7);
        assert_eq!(
            uniform.activity[2].utilization, 1.0,
            "utilization is clamped"
        );
        let writer = input.activity.server_mut(2);
        writer.gpu_utilization.fill(1.0);
        writer.frequency_scale.fill(1.0);
        *writer.memory_boundedness = 0.5;
        assert_eq!(input.activity[2], uniform.activity[2]);
        assert_eq!(input.activity[1], ServerActivity::idle(8));
    }
}
