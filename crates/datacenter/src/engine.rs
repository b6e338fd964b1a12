//! The per-step evaluation pipeline.
//!
//! [`Datacenter`] owns the layout and the generative thermal/power models, and
//! [`Datacenter::evaluate`] turns one step's per-GPU activity into:
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
use crate::index::{is_contiguous_run, OrdinalMap, TopologyIndex};
use crate::power::hierarchy::{CapacityState, PowerAssessment, PowerHierarchy};
use crate::power::server::{ServerPowerModel, ServerPowerTerms};
use crate::topology::{Layout, ServerSpec};
use serde::{Deserialize, Serialize};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::sync::Arc;

/// Structure-of-arrays per-GPU activity of the whole datacenter: the step input the
/// row-batched kernels stream directly.
///
/// The planes store every GPU's utilization and frequency scale in two flat server-major
/// vectors windowed by the same GPU prefix sums a [`TopologyIndex`] freezes
/// ([`TopologyIndex::gpu_offsets`]), plus one per-server memory-boundedness vector.
/// Row kernels slice contiguous windows out of the planes with no per-server indirection,
/// and building an idle cluster costs four allocations total. The planes are always
/// shaped for a layout ([`Self::idle_for`], [`Self::uniform_for`]); per-server writes go
/// through [`Self::server_mut`].
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityPlanes {
    /// Flat server-major per-GPU utilization in `[0, 1]`, windowed by `offsets`.
    gpu_utilization: Vec<f64>,
    /// Flat server-major per-GPU frequency scale in `(0, 1]`, windowed by `offsets`.
    frequency_scale: Vec<f64>,
    /// Per-server memory-boundedness in `[0, 1]` (0 = prefill-like, 1 = decode-like).
    memory_boundedness: Vec<f64>,
    /// Server-major GPU prefix sums (length `server_count + 1`), mirroring the layout's
    /// [`TopologyIndex::gpu_offsets`]. The engine validates them against its topology in
    /// one up-front comparison instead of per-server length checks.
    offsets: Vec<u32>,
}

/// Read-only view of one server's activity inside [`ActivityPlanes`].
#[derive(Debug, Clone, Copy)]
pub struct ActivityView<'a> {
    /// The server's window of the utilization plane.
    pub gpu_utilization: &'a [f64],
    /// The server's window of the frequency-scale plane.
    pub frequency_scale: &'a [f64],
    /// The server's memory-boundedness.
    pub memory_boundedness: f64,
}

/// Mutable view of one server's activity inside [`ActivityPlanes`].
#[derive(Debug)]
pub struct ActivityViewMut<'a> {
    /// The server's window of the utilization plane.
    pub gpu_utilization: &'a mut [f64],
    /// The server's window of the frequency-scale plane.
    pub frequency_scale: &'a mut [f64],
    /// The server's memory-boundedness.
    pub memory_boundedness: &'a mut f64,
}

impl ActivityPlanes {
    /// All-idle planes shaped for a layout: utilization 0, nominal frequency, no
    /// memory-boundedness. Four allocations for the whole datacenter.
    #[must_use]
    pub fn idle_for(layout: &Layout) -> Self {
        let offsets = Self::offsets_for(layout);
        let gpu_count = *offsets.last().expect("offsets non-empty") as usize;
        Self {
            gpu_utilization: vec![0.0; gpu_count],
            frequency_scale: vec![1.0; gpu_count],
            memory_boundedness: vec![0.0; layout.server_count()],
            offsets,
        }
    }

    /// Planes with every GPU at the same utilization (clamped to `[0, 1]`), nominal
    /// frequency and memory-boundedness 0.5 ([`Self::set_uniform`] on every server).
    #[must_use]
    pub fn uniform_for(layout: &Layout, utilization: f64) -> Self {
        let offsets = Self::offsets_for(layout);
        let gpu_count = *offsets.last().expect("offsets non-empty") as usize;
        Self {
            gpu_utilization: vec![utilization.clamp(0.0, 1.0); gpu_count],
            frequency_scale: vec![1.0; gpu_count],
            memory_boundedness: vec![0.5; layout.server_count()],
            offsets,
        }
    }

    fn offsets_for(layout: &Layout) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(layout.server_count() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for server in layout.servers() {
            total += u32::try_from(server.spec.gpus_per_server)
                .expect("per-server GPU count fits in u32");
            offsets.push(total);
        }
        offsets
    }

    /// Number of servers the planes cover.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of GPU lanes.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty") as usize
    }

    /// The server-major GPU prefix sums (length `server_count + 1`).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat kernel planes: `(utilization, frequency scale, memory boundedness)`.
    #[must_use]
    pub fn planes(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.gpu_utilization, &self.frequency_scale, &self.memory_boundedness)
    }

    /// Read-only view of one server's activity.
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    #[must_use]
    pub fn server(&self, server: usize) -> ActivityView<'_> {
        let window = self.offsets[server] as usize..self.offsets[server + 1] as usize;
        ActivityView {
            gpu_utilization: &self.gpu_utilization[window.clone()],
            frequency_scale: &self.frequency_scale[window],
            memory_boundedness: self.memory_boundedness[server],
        }
    }

    /// Mutable view of one server's activity (the simulator's per-quantum fill path).
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    #[must_use]
    pub fn server_mut(&mut self, server: usize) -> ActivityViewMut<'_> {
        let window = self.offsets[server] as usize..self.offsets[server + 1] as usize;
        ActivityViewMut {
            gpu_utilization: &mut self.gpu_utilization[window.clone()],
            frequency_scale: &mut self.frequency_scale[window],
            memory_boundedness: &mut self.memory_boundedness[server],
        }
    }

    /// Resets one server to the idle shape (allocation-free).
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    pub fn set_idle(&mut self, server: usize) {
        let a = self.server_mut(server);
        a.gpu_utilization.fill(0.0);
        a.frequency_scale.fill(1.0);
        *a.memory_boundedness = 0.0;
    }

    /// Sets one server's GPUs to the same utilization (clamped to `[0, 1]`) at nominal
    /// frequency, with memory-boundedness 0.5 (allocation-free).
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    pub fn set_uniform(&mut self, server: usize, utilization: f64) {
        let a = self.server_mut(server);
        a.gpu_utilization.fill(utilization.clamp(0.0, 1.0));
        a.frequency_scale.fill(1.0);
        *a.memory_boundedness = 0.5;
    }
}

/// Input to one evaluation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInput {
    /// Outside air temperature.
    pub outside_temp: Celsius,
    /// Per-server activity as flat SoA planes, windowed by [`ServerId::index`]-ordered
    /// GPU offsets.
    pub activity: ActivityPlanes,
    /// Active infrastructure failures.
    pub failures: FailureState,
    /// Operator power-cap fraction in `(0, 1]`: every row and UPS budget is clamped to
    /// this fraction of provisioned capacity, multiplying any failure-derived
    /// reductions. `1.0` (the constructors' default) is a bit-identical no-op.
    pub power_cap: f64,
}

impl StepInput {
    /// An all-idle cluster at a given outside temperature (useful for tests and
    /// baselines). Allocation-free per server: the planes are four datacenter-wide
    /// vectors, not two heap payloads per server.
    #[must_use]
    pub fn idle(layout: &Layout, outside_temp: Celsius) -> Self {
        Self {
            outside_temp,
            activity: ActivityPlanes::idle_for(layout),
            failures: FailureState::healthy(),
            power_cap: 1.0,
        }
    }

    /// A uniformly loaded cluster.
    #[must_use]
    pub fn uniform_load(layout: &Layout, outside_temp: Celsius, utilization: f64) -> Self {
        Self {
            outside_temp,
            activity: ActivityPlanes::uniform_for(layout, utilization),
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

    /// The hottest GPU-memory temperature across the datacenter.
    #[must_use]
    pub fn max_mem_temp(&self) -> Celsius {
        self.gpu_temps.max_mem()
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

    /// Returns `true` if any aisle violates its airflow provisioning.
    #[must_use]
    pub fn any_airflow_violation(&self) -> bool {
        self.aisle_airflow.values().any(AisleAirflowAssessment::is_violated)
    }
}

/// Tunable model parameters for a [`Datacenter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[derive(Default)]
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
    /// Per-aisle contiguous server spans for the dense demand reduction.
    aisle_spans: Vec<AisleSpan>,
    fingerprint: u64,
}

/// Per-aisle `[start, end)` server-index span when the aisle's member list is an
/// ascending contiguous run (the layout builder's invariant) — the aisle demand then
/// reduces over a dense slice of the airflow plane. `None` falls back to the id walk.
type AisleSpan = Option<std::ops::Range<usize>>;

fn aisle_spans(layout: &Layout) -> Vec<AisleSpan> {
    layout
        .aisles()
        .iter()
        .map(|aisle| {
            (is_contiguous_run(&aisle.servers) && !aisle.servers.is_empty()).then(|| {
                let start = aisle.servers[0].index();
                start..start + aisle.servers.len()
            })
        })
        .collect()
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
                row.servers.iter().all(|&s| layout.server(s).aisle == row.aisle),
                "rows must not span aisles"
            );
            let uniform = row.servers.split_first().and_then(|(&first, rest)| {
                let spec = layout.server(first).spec;
                rest.iter()
                    .all(|&s| layout.server(s).spec == spec)
                    .then(|| RowUniformTerms::for_spec(&spec, airflow, power))
            });
            RowPlan { aisle: row.aisle.index(), uniform }
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
        let aisle_spans = aisle_spans(&layout);
        Self {
            layout,
            topology,
            inlet_model,
            gpu_model,
            airflow_model: models.airflow,
            power_model: models.power,
            hierarchy,
            row_plans,
            aisle_spans,
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
    /// Panics if `input.activity` does not have exactly one entry per server, or if a
    /// server's activity has a different GPU count than its spec.
    #[must_use]
    pub fn evaluate(&self, input: &StepInput) -> StepOutcome {
        let mut workspace = StepWorkspace::for_topology(Arc::clone(&self.topology));
        self.evaluate_into(input, &mut workspace);
        workspace.outcome
    }

    /// Evaluates one step into a reusable workspace (allocation-free after the first step).
    ///
    /// Per-server physics (airflow, power split, GPU temperatures, throttle detection) runs
    /// on contiguous per-row slices; with the `parallel` feature enabled and a large enough
    /// cluster, rows are processed concurrently with identical results (all reductions happen
    /// in fixed row order).
    ///
    /// # Panics
    /// Panics if `input.activity` does not have exactly one entry per server, or if a
    /// server's activity has a different GPU count than its spec.
    pub fn evaluate_into(&self, input: &StepInput, workspace: &mut StepWorkspace) {
        assert_eq!(
            input.activity.server_count(),
            self.layout.server_count(),
            "activity must cover every server"
        );
        // One dense comparison of the planes' prefix sums against the frozen topology
        // replaces the per-server length checks of the array-of-structs shape: equal
        // offsets mean every server's GPU window matches its spec.
        assert!(
            input.activity.offsets() == workspace.topology.gpu_offsets(),
            "activity GPU count must match the server spec"
        );
        workspace.reset(&self.layout);
        let server_count = self.layout.server_count();
        let servers = self.layout.servers();
        let topology = Arc::clone(&workspace.topology);
        let row_ranges = topology.row_ranges();
        let gpu_offsets = topology.gpu_offsets();
        let (utilization_all, frequency_all, boundedness_all) = input.activity.planes();

        // 1. Per-server loads, airflow demand and power, processed per contiguous row slice.
        let threads = physics_threads(workspace.thread_limit);
        let parallel = parallel_active(server_count, row_ranges.len(), threads);
        if parallel {
            topology.balanced_row_chunks_into(threads, &mut workspace.row_chunks);
        }
        {
            let outcome = &mut workspace.outcome;
            let row_chunks = &workspace.row_chunks;
            // The junction plane doubles as the per-GPU power staging area: this pass
            // writes watts into it, the thermal pass transforms them to temperatures in
            // place. One plane streamed twice beats two planes streamed once each.
            let (power_stage_all, _) = outcome.gpu_temps.kernel_planes_mut();
            let mut airflow_rest = outcome.server_airflow.as_mut_slice();
            let mut power_rest = outcome.server_power.as_mut_slice();
            let mut power_stage_rest = power_stage_all;
            let mut load_rest = workspace.row_load.as_mut_slice();
            let mut tasks: Vec<RowPowerTask<'_>> = Vec::new();
            if parallel {
                tasks.reserve(row_ranges.len());
            }
            for (row, range) in row_ranges.iter().enumerate() {
                let row_len = range.end - range.start;
                let gpu_window =
                    gpu_offsets[range.start] as usize..gpu_offsets[range.end] as usize;
                let gpu_len = gpu_window.end - gpu_window.start;
                let (airflow, rest) = airflow_rest.split_at_mut(row_len);
                airflow_rest = rest;
                let (power, rest) = power_rest.split_at_mut(row_len);
                power_rest = rest;
                let (power_stage, rest) = power_stage_rest.split_at_mut(gpu_len);
                power_stage_rest = rest;
                let (load, rest) = load_rest.split_at_mut(1);
                load_rest = rest;
                let mut task = RowPowerTask {
                    plan: &self.row_plans[row],
                    servers: &servers[range.clone()],
                    utilization: &utilization_all[gpu_window.clone()],
                    frequency: &frequency_all[gpu_window],
                    airflow,
                    power,
                    power_stage,
                    row_load: &mut load[0],
                };
                if parallel {
                    tasks.push(task);
                } else {
                    task.run(&self.airflow_model, &self.power_model);
                }
            }
            run_row_tasks(&mut tasks, row_chunks.iter().copied(), |task| {
                task.run(&self.airflow_model, &self.power_model);
            });
        }
        // Fixed-order reduction keeps the total identical with and without `parallel`.
        let total_load: f64 = workspace.row_load.iter().sum();
        let datacenter_load =
            if server_count > 0 { total_load / server_count as f64 } else { 0.0 };
        workspace.outcome.datacenter_load = datacenter_load;

        // 2. Aisle airflow assessment and recirculation penalties, written into the
        // pre-sized per-aisle grid.
        for aisle in self.layout.aisles() {
            let fraction = input
                .failures
                .aisle_airflow_fraction(aisle.id, aisle.ahu_count);
            let server_airflow = &workspace.outcome.server_airflow;
            let assessment = match &self.aisle_spans[aisle.id.index()] {
                // Dense reduction over the aisle's contiguous window (bit-identical to
                // the id walk: same elements, same order).
                Some(span) => {
                    let demand: CubicFeetPerMinute =
                        server_airflow[span.clone()].iter().copied().sum();
                    self.airflow_model.assess_aisle_demand(aisle, demand, fraction)
                }
                None => self.airflow_model.assess_aisle(
                    aisle,
                    |s: ServerId| server_airflow[s.index()],
                    fraction,
                ),
            };
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
            let row_chunks = &workspace.row_chunks;
            let (gpu_plane, mem_offsets_plane) = outcome.gpu_temps.kernel_planes_mut();
            let mut inlet_rest = outcome.inlet_temps.as_mut_slice();
            let mut gpu_rest = gpu_plane;
            let mut mem_rest = mem_offsets_plane;
            let mut throttles_rest = workspace.row_throttles.as_mut_slice();
            let mut tasks: Vec<RowThermalTask<'_>> = Vec::new();
            if parallel {
                tasks.reserve(row_ranges.len());
            }
            // Rows run in *reverse* ordinal order: the power pass above finished at the
            // last row, so on sites too large for cache the thermal pass starts on the
            // still-resident tail of the staged power plane and zigzags back (row tasks
            // own disjoint windows and every cross-row reduction happens after both
            // passes, so processing order cannot affect results).
            for (row, range) in row_ranges.iter().enumerate().rev() {
                let row_len = range.end - range.start;
                let gpu_start = gpu_offsets[range.start] as usize;
                let gpu_end = gpu_offsets[range.end] as usize;
                let gpu_len = gpu_end - gpu_start;
                let (rest, inlets) = inlet_rest.split_at_mut(inlet_rest.len() - row_len);
                inlet_rest = rest;
                let (rest, gpu_c) = gpu_rest.split_at_mut(gpu_rest.len() - gpu_len);
                gpu_rest = rest;
                let (rest, mem_offsets) = mem_rest.split_at_mut(mem_rest.len() - row_len);
                mem_rest = rest;
                let (rest, throttles) = throttles_rest.split_at_mut(throttles_rest.len() - 1);
                throttles_rest = rest;
                let mut task = RowThermalTask {
                    plan: &self.row_plans[row],
                    servers: &servers[range.clone()],
                    row_start: range.start,
                    memory_boundedness: &boundedness_all[range.clone()],
                    spatial: &spatial_all[range.clone()],
                    thermal_offsets: &thermal_offsets_all[gpu_start..gpu_end],
                    aisle_penalty: &workspace.aisle_penalty,
                    inlet_base,
                    load_term,
                    inlets,
                    gpu_c,
                    mem_offsets,
                    throttles: &mut throttles[0],
                };
                if parallel {
                    tasks.push(task);
                } else {
                    task.run(&coeffs);
                }
            }
            // The tasks were staged tail-first, so the chunk walk reverses too — every
            // chunk still covers the same contiguous row range as in the power pass.
            run_row_tasks(&mut tasks, row_chunks.iter().rev().copied(), |task| {
                task.run(&coeffs);
            });
        }
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
    /// Optional cap on intra-site worker threads (`parallel` feature). `None` uses the
    /// machine's available parallelism; `Some(1)` forces the serial inline path. Results
    /// are bit-identical for every value — the digest tests pin this.
    thread_limit: Option<std::num::NonZeroUsize>,
    /// Reused chunk table for the intra-site row sharding: rows per contiguous chunk,
    /// balanced by server count (see [`TopologyIndex::balanced_row_chunks_into`]).
    row_chunks: Vec<usize>,
}

impl StepWorkspace {
    /// Creates a workspace sized for a layout (freezing a fresh [`TopologyIndex`]).
    ///
    /// Callers that already hold a datacenter should prefer [`Self::for_topology`] with
    /// [`Datacenter::topology`] so the handle is shared instead of rebuilt.
    ///
    /// # Panics
    /// Panics if the layout's rows are not contiguous server-index ranges (the builder
    /// always produces contiguous rows).
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
            thread_limit: None,
            row_chunks: Vec::new(),
            topology,
        }
    }

    /// The topology handle the workspace grids follow.
    #[must_use]
    pub fn topology(&self) -> &Arc<TopologyIndex> {
        &self.topology
    }

    /// Caps how many scoped worker threads the intra-site row sharding may use (only
    /// meaningful with the `parallel` feature). `None` restores the default (the
    /// machine's available parallelism); `Some(1)` forces the serial inline path.
    /// Outcomes are bit-identical for every limit — chunks cover contiguous row ranges
    /// and all cross-row reductions happen in fixed row order after the sharded passes.
    pub fn set_thread_limit(&mut self, limit: Option<std::num::NonZeroUsize>) {
        self.thread_limit = limit;
    }

    /// The current intra-site thread cap (see [`Self::set_thread_limit`]).
    #[must_use]
    pub fn thread_limit(&self) -> Option<std::num::NonZeroUsize> {
        self.thread_limit
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
        self.outcome.server_airflow.fill(CubicFeetPerMinute::new(f64::NAN));
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
        sweep("server-power", self.outcome.server_power.iter().map(|p| p.value()));
        sweep("server-airflow", self.outcome.server_airflow.iter().map(|a| a.value()));
        sweep("gpu-temp", self.outcome.gpu_temps.gpu_plane().iter().copied());
        // Derived memory values inherit NaN from either an unwritten junction lane or an
        // unwritten per-server offset, so this sweep covers the offset plane too.
        sweep("mem-temp", self.outcome.gpu_temps.iter().map(|t| t.memory.value()));
        sweep("row-load", self.row_load.iter().copied());
    }
}

/// Fused per-server GPU lane pass of the power kernel: writes each GPU's power
/// (`ServerPowerModel::gpu_power` with its terms hoisted by the caller) and returns the
/// `(Σ per-GPU power, mean utilization)` pair. The two alternating accumulator lanes make
/// the float additions pipeline instead of forming one serial dependency chain — the
/// lane order (even slots → lane 0, odd slots → lane 1, the historical `acc[slot & 1]`)
/// is part of the engine's FP-order contract.
///
/// On x86-64 the pair loop runs on explicit SSE2 packed-double intrinsics (SSE2 is part
/// of the x86-64 baseline, so no runtime detection is needed): the auto-vectorizer packs
/// `[u, f]` per lane instead of `[u₀, u₁]` across lanes, which drowns the loop in
/// shuffles. Every packed op is the lane-wise IEEE operation of the scalar path, so
/// results are bit-identical (see `kernel_reference` and `tests/soa_physics.rs`); NaN
/// activity is outside the engine's contract either way (the debug poison sweep rejects
/// it).
#[inline(always)]
fn power_lanes(
    static_power: f64,
    dynamic_coeff: f64,
    utilization: &[f64],
    frequency: &[f64],
    out: &mut [f64],
) -> (f64, f64) {
    // Equal-length reslicing: the caller validated the shapes up front; restating the
    // bound here lets the compiler collapse the loops into counted, branch-free form.
    let lanes = out.len();
    let utilization = &utilization[..lanes];
    let frequency = &frequency[..lanes];
    let mut util_acc = [0.0f64; 2];
    let mut pow_acc = [0.0f64; 2];
    let pairs = lanes / 2;

    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is unconditionally available on x86-64; every pointer below stays
    // within the resliced `lanes` bound (`2 * pairs <= lanes`).
    unsafe {
        use std::arch::x86_64::{
            _mm_add_pd, _mm_loadu_pd, _mm_max_pd, _mm_min_pd, _mm_mul_pd, _mm_set1_pd,
            _mm_storeu_pd,
        };
        let zero = _mm_set1_pd(0.0);
        let one = _mm_set1_pd(1.0);
        let freq_floor = _mm_set1_pd(0.1);
        let static_2 = _mm_set1_pd(static_power);
        let dynamic_2 = _mm_set1_pd(dynamic_coeff);
        let mut util_acc_2 = _mm_loadu_pd(util_acc.as_ptr());
        let mut pow_acc_2 = _mm_loadu_pd(pow_acc.as_ptr());
        for i in 0..pairs {
            let u = _mm_loadu_pd(utilization.as_ptr().add(2 * i));
            let f = _mm_loadu_pd(frequency.as_ptr().add(2 * i));
            let clamped_u = _mm_min_pd(_mm_max_pd(u, zero), one);
            let clamped_f = _mm_min_pd(_mm_max_pd(f, freq_floor), one);
            let f3 = _mm_mul_pd(_mm_mul_pd(clamped_f, clamped_f), clamped_f);
            let power =
                _mm_add_pd(static_2, _mm_mul_pd(_mm_mul_pd(dynamic_2, clamped_u), f3));
            _mm_storeu_pd(out.as_mut_ptr().add(2 * i), power);
            util_acc_2 = _mm_add_pd(util_acc_2, u);
            pow_acc_2 = _mm_add_pd(pow_acc_2, power);
        }
        _mm_storeu_pd(util_acc.as_mut_ptr(), util_acc_2);
        _mm_storeu_pd(pow_acc.as_mut_ptr(), pow_acc_2);
    }

    #[cfg(not(target_arch = "x86_64"))]
    for i in 0..pairs {
        for k in 0..2 {
            let u = utilization[2 * i + k];
            let clamped_u = u.clamp(0.0, 1.0);
            let clamped_f = frequency[2 * i + k].clamp(0.1, 1.0);
            let f3 = (clamped_f * clamped_f) * clamped_f;
            let power = static_power + dynamic_coeff * clamped_u * f3;
            util_acc[k] += u;
            pow_acc[k] += power;
            out[2 * i + k] = power;
        }
    }

    // Odd trailing lane (ragged GPU counts): its slot is even, so it lands in lane 0.
    if lanes % 2 == 1 {
        let u = utilization[lanes - 1];
        let clamped_u = u.clamp(0.0, 1.0);
        let clamped_f = frequency[lanes - 1].clamp(0.1, 1.0);
        let f3 = (clamped_f * clamped_f) * clamped_f;
        let power = static_power + dynamic_coeff * clamped_u * f3;
        util_acc[0] += u;
        pow_acc[0] += power;
        out[lanes - 1] = power;
    }
    let gpu_sum = pow_acc[0] + pow_acc[1];
    let mean_load =
        if lanes == 0 { 0.0 } else { (util_acc[0] + util_acc[1]) / lanes as f64 };
    (gpu_sum, mean_load)
}

struct RowPowerTask<'a> {
    plan: &'a RowPlan,
    servers: &'a [crate::topology::Server],
    /// The row's window of the flat utilization plane (validated against the topology's
    /// GPU offsets up front, so no per-server shape checks remain in the loop).
    utilization: &'a [f64],
    /// The row's window of the flat frequency-scale plane.
    frequency: &'a [f64],
    airflow: &'a mut [CubicFeetPerMinute],
    power: &'a mut [Kilowatts],
    /// The row's window of the junction-temperature plane, used as per-GPU power staging
    /// (in watts) until the thermal pass transforms it in place.
    power_stage: &'a mut [f64],
    row_load: &'a mut f64,
}

impl RowPowerTask<'_> {
    fn run(&mut self, airflow_model: &AirflowModel, power_model: &ServerPowerModel) {
        match self.plan.uniform {
            Some(terms) => self.run_uniform(&terms),
            None => self.run_mixed(airflow_model, power_model),
        }
    }

    /// Fast path for a spec-homogeneous row: every spec-derived term arrives hoisted in
    /// the row plan, so the per-server stride is fixed and the loop never touches the
    /// `Server` structs. The activity arrives as dense plane windows, so the loop is
    /// three linear streams the hardware prefetcher follows on its own (the old
    /// per-server `Vec` shape needed explicit prefetch hints to hide its pointer chase).
    fn run_uniform(&mut self, t: &RowUniformTerms) {
        let gpus = t.gpus_per_server;
        let mut load_sum = 0.0;
        let mut gpu_offset = 0usize;
        for i in 0..self.power.len() {
            let lanes = gpu_offset..gpu_offset + gpus;
            let (gpu_sum, mean_load) = power_lanes(
                t.gpu_static_w,
                t.gpu_dynamic_w,
                &self.utilization[lanes.clone()],
                &self.frequency[lanes.clone()],
                &mut self.power_stage[lanes],
            );
            load_sum += mean_load;
            self.airflow[i] = t.airflow_idle + t.airflow_span * mean_load.clamp(0.0, 1.0);
            // Total = Σ per-GPU + overhead, where overhead = max(f_power(mean) − Σ, 0); this
            // collapses to the larger of the two without re-walking the slice. The select
            // is `f64::max` minus its NaN bookkeeping (both operands are finite sums of
            // clamped terms), which a bare `maxsd` implements exactly.
            let server_w = t.power.at_load(mean_load).to_watts().value();
            let total = if server_w >= gpu_sum { server_w } else { gpu_sum };
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
                &self.utilization[lanes.clone()],
                &self.frequency[lanes.clone()],
                &mut self.power_stage[lanes],
            );
            load_sum += mean_load;
            self.airflow[i] = airflow_model.server_airflow(spec, mean_load);
            let server_w = power_model.server_power(spec, mean_load).to_watts().value();
            let total = if server_w >= gpu_sum { server_w } else { gpu_sum };
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
/// As in [`power_lanes`], the x86-64 pair loop uses explicit SSE2 packed doubles; every
/// packed op is the lane-wise IEEE operation of the scalar path, so results are
/// bit-identical to the retained scalar reference.
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
            _mm_add_pd, _mm_cmpgt_pd, _mm_loadu_pd, _mm_movemask_pd, _mm_mul_pd,
            _mm_set1_pd, _mm_storeu_pd,
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

struct RowThermalTask<'a> {
    plan: &'a RowPlan,
    servers: &'a [crate::topology::Server],
    /// Ordinal of the row's first server (fast path reconstructs `ServerId`s from it).
    row_start: usize,
    /// The row's window of the staged per-server memory-boundedness plane.
    memory_boundedness: &'a [f64],
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

impl RowThermalTask<'_> {
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
            self.mem_offsets[i] = coeffs.memory_offset(self.memory_boundedness[i]);
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
            self.mem_offsets[i] = coeffs.memory_offset(self.memory_boundedness[i]);
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

/// Minimum cluster size below which per-row threading costs more than it saves.
#[cfg(feature = "parallel")]
const PARALLEL_MIN_SERVERS: usize = 256;

/// The worker-thread budget for intra-site row sharding: the workspace's explicit limit
/// when set (the digest tests force 1, 2 and N), otherwise the machine's available
/// parallelism.
#[cfg(feature = "parallel")]
fn physics_threads(limit: Option<std::num::NonZeroUsize>) -> usize {
    limit
        .map(std::num::NonZeroUsize::get)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

#[cfg(not(feature = "parallel"))]
fn physics_threads(_limit: Option<std::num::NonZeroUsize>) -> usize {
    1
}

/// Returns `true` when per-row tasks should be dispatched to threads. Always `false`
/// without the `parallel` feature; with it, requires a large enough cluster, at least two
/// worker threads and at least two rows. When this returns `false`, rows are processed
/// inline in row order with no task staging at all.
#[cfg(feature = "parallel")]
fn parallel_active(server_count: usize, row_count: usize, threads: usize) -> bool {
    server_count >= PARALLEL_MIN_SERVERS && threads >= 2 && row_count >= 2
}

#[cfg(not(feature = "parallel"))]
fn parallel_active(_server_count: usize, _row_count: usize, _threads: usize) -> bool {
    false
}

/// Runs staged per-row tasks concurrently, one scoped thread per pre-balanced chunk of
/// contiguous rows (only called with a non-empty task list when [`parallel_active`]
/// returned `true`; `chunks` yields each chunk's task count and must sum to
/// `tasks.len()`). Each task owns disjoint output slices, and every cross-row reduction
/// downstream happens in fixed row order after the sharded passes, so results are
/// bit-identical with and without threads — for any thread count.
#[cfg(feature = "parallel")]
fn run_row_tasks<T: Send>(
    tasks: &mut [T],
    chunks: impl Iterator<Item = usize>,
    run: impl Fn(&mut T) + Sync,
) {
    if tasks.is_empty() {
        return;
    }
    let run = &run;
    std::thread::scope(|scope| {
        let mut rest = tasks;
        for len in chunks {
            let (group, tail) = rest.split_at_mut(len);
            rest = tail;
            if group.is_empty() {
                continue;
            }
            scope.spawn(move || {
                for task in group {
                    run(task);
                }
            });
        }
        debug_assert!(rest.is_empty(), "row chunks must cover every staged task");
    });
}

#[cfg(not(feature = "parallel"))]
fn run_row_tasks<T>(tasks: &mut [T], _chunks: impl Iterator<Item = usize>, run: impl Fn(&mut T)) {
    for task in tasks {
        run(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::FailureSchedule;
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
        assert!(!outcome.any_airflow_violation());
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
            let outcome =
                dc.evaluate(&StepInput::uniform_load(dc.layout(), Celsius::new(22.0), load));
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
        let outcome =
            dc.evaluate(&StepInput::uniform_load(dc.layout(), Celsius::new(35.0), 1.0));
        // Full load on a hot day should push the hottest GPUs near or past the limit.
        assert!(outcome.max_gpu_temp().value() > 70.0);
        // Memory runs hotter than the GPU under the default 0.5 boundedness? Not necessarily,
        // but it must be within a few degrees.
        assert!((outcome.max_mem_temp().value() - outcome.max_gpu_temp().value()).abs() < 6.0);
    }

    #[test]
    fn thermal_throttles_fire_above_limit() {
        let dc = datacenter();
        // Extreme outside temperature forces inlet (and thus GPU) temperatures over the limit.
        let outcome =
            dc.evaluate(&StepInput::uniform_load(dc.layout(), Celsius::new(45.0), 1.0));
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
        let outcome =
            dc.evaluate(&StepInput::uniform_load(dc.layout(), Celsius::new(20.0), 1.0));
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
        let schedule = FailureSchedule::none().with_thermal_emergency(
            SimTime::ZERO,
            SimTime::from_hours(2),
        );
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
        let schedule = FailureSchedule::none()
            .with_power_emergency(SimTime::ZERO, SimTime::from_hours(1));
        input.failures = schedule.state_at(SimTime::from_minutes(10));
        let degraded = dc.evaluate(&input);
        assert!(degraded.power.any_over_budget());
        assert_eq!(degraded.power.capping.len(), dc.layout().server_count());
    }

    #[test]
    fn spatial_heterogeneity_shows_in_outcome() {
        let dc = datacenter();
        let outcome =
            dc.evaluate(&StepInput::uniform_load(dc.layout(), Celsius::new(25.0), 0.8));
        let inlets: Vec<f64> = outcome.inlet_temps.iter().map(|t| t.value()).collect();
        let spread = simkit::stats::max(&inlets).unwrap() - simkit::stats::min(&inlets).unwrap();
        assert!(spread > 1.0, "inlet spread should reflect spatial heterogeneity: {spread}");
        // GPUs within one server differ because of layout/process variation.
        let first_server = outcome.gpu_temps.server(ServerId::new(0));
        let temps: Vec<f64> = first_server.iter().map(|t| t.gpu.value()).collect();
        let gpu_spread = simkit::stats::max(&temps).unwrap() - simkit::stats::min(&temps).unwrap();
        assert!(gpu_spread > 1.0);
    }

    /// Planes shaped for the test layout with `edit` applied to its config: a step input
    /// whose shape disagrees with the datacenter.
    fn planes_for_other_layout(edit: impl FnOnce(&mut LayoutConfig)) -> ActivityPlanes {
        let mut config = LayoutConfig::real_cluster_two_rows();
        edit(&mut config);
        ActivityPlanes::idle_for(&config.build())
    }

    #[test]
    #[should_panic(expected = "activity must cover every server")]
    fn mismatched_activity_length_panics() {
        let dc = datacenter();
        let mut input = StepInput::idle(dc.layout(), Celsius::new(20.0));
        input.activity = planes_for_other_layout(|c| c.racks_per_row -= 1);
        assert!(input.activity.server_count() < dc.layout().server_count());
        let _ = dc.evaluate(&input);
    }

    #[test]
    #[should_panic(expected = "match the server spec")]
    fn mismatched_gpu_count_panics() {
        let dc = datacenter();
        let mut input = StepInput::idle(dc.layout(), Celsius::new(20.0));
        input.activity = planes_for_other_layout(|c| c.server_spec.gpus_per_server -= 1);
        assert_eq!(input.activity.server_count(), dc.layout().server_count());
        let _ = dc.evaluate(&input);
    }

    /// Per-server views and the allocation-free fill helpers agree with the
    /// datacenter-wide constructors.
    #[test]
    fn planes_views_match_the_layout_constructors() {
        let dc = datacenter();
        let mut planes = ActivityPlanes::idle_for(dc.layout());
        assert_eq!(planes.server_count(), 80);
        assert_eq!(planes.gpu_count(), 640);
        assert_eq!(planes.offsets(), dc.topology().gpu_offsets());
        let s0 = planes.server(0);
        assert_eq!(s0.gpu_utilization, &[0.0; 8][..]);
        assert_eq!(s0.frequency_scale, &[1.0; 8][..]);
        assert_eq!(s0.memory_boundedness, 0.0);
        planes.set_uniform(2, 1.7);
        let uniform = ActivityPlanes::uniform_for(dc.layout(), 1.7);
        let (s2, expected) = (planes.server(2), uniform.server(2));
        assert_eq!(s2.gpu_utilization, &[1.0; 8][..], "utilization is clamped");
        assert_eq!(s2.gpu_utilization, expected.gpu_utilization);
        assert_eq!(s2.frequency_scale, expected.frequency_scale);
        assert_eq!(s2.memory_boundedness, expected.memory_boundedness);
        planes.set_idle(2);
        assert_eq!(planes, ActivityPlanes::idle_for(dc.layout()));
    }
}
