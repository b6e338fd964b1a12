//! The TAPAS profile store (§4.5, "Profiles").
//!
//! During the initial deployment of a datacenter the operator runs benchmarks and validation
//! tests; TAPAS uses that window for *offline profiling*: it learns, per server, (1) the
//! inlet-temperature response to outside temperature and datacenter load, (2) the GPU
//! temperature response to inlet temperature and GPU power, (3) the fan airflow curve and
//! (4) the power-load curve. When a new LLM is onboarded it also profiles every instance
//! configuration (the sweep of `llm-sim::profile`). The paper also refines row power
//! predictions weekly from observed telemetry with percentile templates; that refinement is
//! not modelled, because placement here predicts from per-VM peaks and design conditions,
//! so the store is never mutated during a run.
//!
//! The store deliberately contains *fitted* models, not references to the ground-truth
//! simulator models: the controllers only ever see what real profiling could have measured.
//! Every server is sampled on the same grids, so each fit is a `simkit::regression`
//! [`FixedDesign`] factored once per grid and solved once per server (Eq. 4 once per
//! server spec).

use crate::configurator::SelectionIndex;
use dc_sim::engine::Datacenter;
use dc_sim::ids::{AisleId, GpuId, RowId, ServerId};
use dc_sim::index::OrdinalMap;
use dc_sim::topology::ServerSpec;
use llm_sim::config::{FrequencyScale, InstanceConfig, TensorParallelism};
use llm_sim::hardware::GpuHardware;
use llm_sim::model::{ModelSize, Quantization};
use llm_sim::profile::ConfigProfile;
use serde::{Deserialize, Serialize};
use simkit::regression::FixedDesign;
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The breakpoints (°C outside) every fitted inlet model (Eq. 1) is segmented at: its
/// three degree-1 segments cover `[b₀, b₁)`, `[b₁, b₂)` and `[b₂, b₃]`.
pub const INLET_BREAKPOINTS_C: [f64; 4] = [-10.0, 15.0, 25.0, 45.0];

/// The fitted inlet model (Eq. 1): inlet °C vs outside °C at a reference (50 %)
/// datacenter load, one degree-1 polynomial per segment of [`INLET_BREAKPOINTS_C`], plus a
/// linear datacenter-load term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InletModel {
    /// Per segment, `[c₀, c₁]`: inlet °C = c₀ + c₁ × outside °C.
    pub segments: [[f64; 2]; 3],
    /// Additional inlet °C per unit of datacenter load (0→1).
    pub load_sensitivity_c: f64,
}

impl InletModel {
    /// Predicted inlet °C at an outside temperature and a datacenter load. The outside
    /// temperature is clamped to `[b₀, b₃]`, so the model never extrapolates past the range
    /// it was fitted on (a NaN fails every comparison and takes the last segment); the
    /// segment is evaluated by Horner's rule from `0.0`, then
    /// `(clamp(load, 0, 1) − 0.5) × sensitivity` is added.
    #[must_use]
    #[inline]
    pub fn predict(&self, outside_c: f64, dc_load: f64) -> f64 {
        let x = outside_c.clamp(INLET_BREAKPOINTS_C[0], INLET_BREAKPOINTS_C[3]);
        let at_reference = horner(&self.segments[inlet_segment(x)], x);
        let load_delta = (dc_load.clamp(0.0, 1.0) - 0.5) * self.load_sensitivity_c;
        at_reference + load_delta
    }
}

/// The fitted worst-GPU temperature model (Eq. 2):
/// °C = intercept + inlet coefficient × inlet °C + power coefficient × per-GPU W.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTempModel {
    /// The intercept (°C).
    pub intercept: f64,
    /// °C per inlet °C.
    pub inlet_coeff: f64,
    /// °C per W of per-GPU power.
    pub power_coeff: f64,
}

impl GpuTempModel {
    /// The inlet term, inlet coefficient × `inlet_c`: a caller at a fixed inlet forms it
    /// once for many predictions.
    #[must_use]
    #[inline]
    pub fn inlet_term(&self, inlet_c: f64) -> f64 {
        self.inlet_coeff * inlet_c
    }

    /// Predicted worst-GPU °C at an [`Self::inlet_term`] and a per-GPU power:
    /// `intercept + [inlet term, power coefficient × power].sum()`.
    #[must_use]
    #[inline]
    pub fn predict(&self, inlet_term: f64, gpu_power_w: f64) -> f64 {
        self.intercept
            + [inlet_term, self.power_coeff * gpu_power_w]
                .iter()
                .sum::<f64>()
    }

    /// The per-GPU power (W) at which [`Self::predict`] reaches `limit_c` at an
    /// [`Self::inlet_term`], floored at zero.
    #[must_use]
    #[inline]
    pub fn power_budget_w(&self, inlet_term: f64, limit_c: f64) -> f64 {
        let base = self.intercept + inlet_term;
        ((limit_c - base) / self.power_coeff.max(1e-6)).max(0.0)
    }
}

/// The fitted server power curve (Eq. 4): server kW vs mean GPU load, of degree 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCurve {
    /// `[c₀, c₁, c₂]`, ascending degree.
    pub coefficients: [f64; 3],
}

impl PowerCurve {
    /// Predicted server kW at a mean GPU load: the load clamped to `[0, 1]`, the curve
    /// evaluated by Horner's rule from `0.0`, the result clamped to `[0, max_power_kw]`.
    #[must_use]
    #[inline]
    pub fn predict(&self, load: f64, max_power_kw: f64) -> f64 {
        let load = load.clamp(0.0, 1.0);
        horner(&self.coefficients, load).clamp(0.0, max_power_kw)
    }
}

/// The segment of [`INLET_BREAKPOINTS_C`] holding `outside_c`: the first before `b₁`, the
/// last from `b₂` on (so past `b₃` and at NaN too).
#[inline]
fn inlet_segment(outside_c: f64) -> usize {
    let [_, b1, b2, _] = INLET_BREAKPOINTS_C;
    if outside_c < b1 {
        0
    } else if outside_c < b2 {
        1
    } else {
        2
    }
}

/// A polynomial in ascending-degree `coefficients` at `x`, by Horner's rule from `0.0`.
#[inline]
fn horner(coefficients: &[f64], x: f64) -> f64 {
    coefficients.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// Per-server fitted thermal and power models.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// The server this profile describes.
    pub server: ServerId,
    /// Its row (for power budgeting).
    pub row: RowId,
    /// Its aisle (for airflow budgeting).
    pub aisle: AisleId,
    /// Hardware specification (public knowledge from the SKU).
    pub spec: ServerSpec,
    /// Fitted inlet temperature vs outside temperature and datacenter load (Eq. 1).
    pub inlet_vs_outside: InletModel,
    /// Fitted worst-GPU temperature vs inlet °C and per-GPU power W (Eq. 2).
    pub worst_gpu_temp: GpuTempModel,
    /// Fitted server power (kW) vs mean GPU load (Eq. 4).
    pub power_curve: PowerCurve,
}

impl ServerProfile {
    /// Predicted inlet temperature at an outside temperature and datacenter load.
    #[must_use]
    pub fn predicted_inlet(&self, outside: Celsius, dc_load: f64) -> Celsius {
        Celsius::new(self.inlet_vs_outside.predict(outside.value(), dc_load))
    }

    /// Predicted temperature of the hottest GPU at a given inlet temperature and per-GPU
    /// power.
    #[must_use]
    pub fn predicted_worst_gpu_temp(&self, inlet: Celsius, gpu_power: Watts) -> Celsius {
        let model = &self.worst_gpu_temp;
        Celsius::new(model.predict(model.inlet_term(inlet.value()), gpu_power.value()))
    }

    /// The per-GPU power budget that keeps the hottest GPU at or below `limit` for a given
    /// inlet temperature (the inverse of the fitted Eq. 2).
    #[must_use]
    pub fn gpu_power_budget(&self, inlet: Celsius, limit: Celsius) -> Watts {
        let model = &self.worst_gpu_temp;
        Watts::new(model.power_budget_w(model.inlet_term(inlet.value()), limit.value()))
    }

    /// Predicted server power at a mean GPU load in `[0, 1]`.
    #[must_use]
    pub fn predicted_power(&self, load: f64) -> Kilowatts {
        Kilowatts::new(self.power_curve.predict(load, self.spec.max_power.value()))
    }

    /// Predicted server airflow at a mean GPU load (linear between the SKU's idle and maximum
    /// airflow).
    #[must_use]
    pub fn predicted_airflow(&self, load: f64) -> CubicFeetPerMinute {
        let load = load.clamp(0.0, 1.0);
        self.spec.idle_airflow + (self.spec.max_airflow - self.spec.idle_airflow) * load
    }

    /// Checks that every fitted value is finite.
    ///
    /// # Errors
    /// Returns the first non-finite value found, naming this server and the model.
    pub fn check(&self) -> Result<(), ProfileError> {
        let server = self.server;
        let inlet = &self.inlet_vs_outside;
        let gpu = &self.worst_gpu_temp;
        non_finite(
            server,
            ProfileModel::InletVsOutside,
            inlet.segments.as_flattened(),
        )?;
        non_finite(
            server,
            ProfileModel::InletLoadSensitivity,
            [&inlet.load_sensitivity_c],
        )?;
        non_finite(
            server,
            ProfileModel::WorstGpuTemp,
            [&gpu.intercept, &gpu.inlet_coeff, &gpu.power_coeff],
        )?;
        non_finite(
            server,
            ProfileModel::PowerCurve,
            &self.power_curve.coefficients,
        )
    }
}

/// The fitted model of a [`ServerProfile`] a [`ProfileError`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileModel {
    /// `inlet_vs_outside` (Eq. 1): a segment coefficient.
    InletVsOutside,
    /// `inlet_vs_outside.load_sensitivity_c`.
    InletLoadSensitivity,
    /// `worst_gpu_temp` (Eq. 2): the intercept or a coefficient.
    WorstGpuTemp,
    /// `power_curve` (Eq. 4): a coefficient.
    PowerCurve,
}

impl ProfileModel {
    /// The field name.
    fn name(self) -> &'static str {
        match self {
            ProfileModel::InletVsOutside => "inlet_vs_outside",
            ProfileModel::InletLoadSensitivity => "inlet_vs_outside.load_sensitivity_c",
            ProfileModel::WorstGpuTemp => "worst_gpu_temp",
            ProfileModel::PowerCurve => "power_curve",
        }
    }
}

/// A server profile the controllers cannot use, naming the server and the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileError {
    /// A fitted model holds a non-finite value.
    NonFinite {
        /// The profiled server.
        server: ServerId,
        /// The model holding the value.
        model: ProfileModel,
        /// The first non-finite value found.
        value: f64,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NonFinite {
                server,
                model,
                value,
            } => write!(
                f,
                "server {server}: its fitted {} model holds a non-finite value ({value})",
                model.name()
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// The first non-finite value of `model`, as an error naming `server`.
fn non_finite<'a>(
    server: ServerId,
    model: ProfileModel,
    values: impl IntoIterator<Item = &'a f64>,
) -> Result<(), ProfileError> {
    match values.into_iter().find(|value| !value.is_finite()) {
        Some(&value) => Err(ProfileError::NonFinite {
            server,
            model,
            value,
        }),
        None => Ok(()),
    }
}

/// The LLM configuration sweep of a GPU generation ([`ConfigProfile::sweep`]) and its
/// [`SweepIndex`], built once per process and GPU generation and shared by every store.
///
/// The sweep is a pure function of the hardware parameters, so repeated simulator
/// constructions (parameter sweeps, benches) share one `Arc` instead of re-profiling the
/// full configuration space every time.
fn shared_sweep(gpu: &GpuHardware) -> (Arc<[ConfigProfile]>, Arc<SweepIndex>) {
    type SweepCache = Mutex<HashMap<u64, (Arc<[ConfigProfile]>, Arc<SweepIndex>)>>;
    static CACHE: OnceLock<SweepCache> = OnceLock::new();
    let key = gpu_fingerprint(gpu);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some((sweep, index)) = cache.lock().expect("llm profile cache").get(&key) {
        return (Arc::clone(sweep), Arc::clone(index));
    }
    // Profile outside the lock: sweeps are independent and this keeps the critical
    // section tiny.
    let sweep: Arc<[ConfigProfile]> = ConfigProfile::sweep(gpu).into();
    let index = Arc::new(SweepIndex::build(&sweep));
    let mut cache = cache.lock().expect("llm profile cache");
    let (sweep, index) = cache.entry(key).or_insert((sweep, index));
    (Arc::clone(sweep), Arc::clone(index))
}

/// The lookup structures over one sweep: the profile-slot table behind
/// [`ProfileStore::profile_for`] and the configurator's selection index.
#[derive(Debug)]
struct SweepIndex {
    /// Position in the sweep of each profiling-grid point (`None` for grid points the
    /// sweep skipped because they do not fit in memory).
    slots: Box<[Option<u16>]>,
    selection: SelectionIndex,
}

impl SweepIndex {
    fn build(sweep: &[ConfigProfile]) -> Self {
        let mut slots = vec![None; SWEEP_POINTS];
        for (slot, profile) in sweep.iter().enumerate() {
            let point = sweep_point(&profile.config).expect("sweep profiles lie on the grid");
            slots[point] = Some(u16::try_from(slot).expect("sweep fits u16 slots"));
        }
        Self {
            slots: slots.into(),
            selection: SelectionIndex::build(sweep),
        }
    }
}

/// FNV-1a digest of the hardware parameters that determine a profiling sweep.
fn gpu_fingerprint(gpu: &GpuHardware) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in gpu.name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(gpu.peak_fp16_tflops.to_bits());
    mix(gpu.memory_bandwidth_gbps.to_bits());
    mix(gpu.memory_capacity_gb.to_bits());
    mix(gpu.max_power_w.to_bits());
    mix(gpu.compute_efficiency.to_bits());
    mix(gpu.bandwidth_efficiency.to_bits());
    mix(gpu.gpus_per_server as u64);
    hash
}

/// Number of (model variant, tensor parallelism) classes: configurations of one class
/// switch between each other online (frequency and batch size), every other change reloads
/// the model.
pub(crate) const VARIANT_CLASSES: usize =
    ModelSize::ALL.len() * Quantization::ALL.len() * TensorParallelism::ALL.len();

/// Points of the full profiling grid (`InstanceConfig::enumerate`): every class at every
/// sweep batch size and frequency step.
const SWEEP_POINTS: usize =
    VARIANT_CLASSES * InstanceConfig::BATCH_SIZES.len() * FrequencyScale::STEPS.len();

/// The (model variant, tensor parallelism) class of a configuration, in
/// `0..VARIANT_CLASSES`. Every configuration has one, on the sweep or off it.
pub(crate) fn variant_class(config: &InstanceConfig) -> usize {
    // Fieldless enums without explicit discriminants: `as usize` is the declaration
    // position, a bijection onto `0..ALL.len()` (checked by a test).
    (config.variant.size as usize * Quantization::ALL.len() + config.variant.quantization as usize)
        * TensorParallelism::ALL.len()
        + config.parallelism as usize
}

/// The mixed-radix position of a configuration in the profiling grid, or `None` when its
/// batch size or frequency is not a sweep step (frequencies compare by bits, so only the
/// exact step values match).
fn sweep_point(config: &InstanceConfig) -> Option<usize> {
    let batch = InstanceConfig::BATCH_SIZES
        .iter()
        .position(|&b| b == config.max_batch_size)?;
    let bits = config.frequency.value().to_bits();
    let frequency = FrequencyScale::STEPS
        .iter()
        .position(|s| s.to_bits() == bits)?;
    Some(
        (variant_class(config) * InstanceConfig::BATCH_SIZES.len() + batch)
            * FrequencyScale::STEPS.len()
            + frequency,
    )
}

/// Budgets of the rows and aisles (public provisioning data), stored as dense
/// ordinal-indexed grids covering every row/aisle of the profiled layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfrastructureBudgets {
    /// Row power budgets, indexed by [`RowId`].
    pub row_power: OrdinalMap<RowId, Kilowatts>,
    /// Aisle airflow provisioning, indexed by [`AisleId`].
    pub aisle_airflow: OrdinalMap<AisleId, CubicFeetPerMinute>,
}

/// The complete profile store TAPAS consults at run time.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    /// Per-server fitted models, indexed by `ServerId::index`.
    pub servers: Vec<ServerProfile>,
    /// The LLM configuration sweep (shared across stores for one GPU model). Private so
    /// the index below can never go stale: see [`Self::sweep`] and [`Self::with_sweep`].
    sweep: Arc<[ConfigProfile]>,
    /// Row/aisle budgets.
    pub budgets: InfrastructureBudgets,
    /// GPU throttle limit minus a safety margin; the controllers aim to stay below this.
    pub thermal_headroom_target: Celsius,
    /// Lookup structures over `sweep`, shared with it.
    index: Arc<SweepIndex>,
}

impl ProfileStore {
    /// Runs offline profiling against a datacenter and a GPU generation.
    ///
    /// The profiling probes the datacenter's response at a grid of outside temperatures, loads
    /// and per-GPU powers — exactly what an operator does with benchmarks during initial
    /// deployment — and fits the regression models of Eq. (1)–(4) to the observations.
    ///
    /// Each grid is one [`FixedDesign`], factored here once; a server's fit is a solve. The
    /// worst GPU of a sample is the GPU with the largest static offset: its temperature is
    /// `(base terms + power term) + offset`, monotone in the offset under IEEE rounding, so
    /// it is the maximum over the server's GPUs. Eq. 4's samples depend on the spec only,
    /// so it is fitted once per distinct spec.
    #[must_use]
    pub fn offline_profiling(dc: &Datacenter, gpu: &GpuHardware) -> Self {
        let layout = dc.layout();
        let curve = dc.inlet_model().curve();
        // Per segment, the design and the base curve at its grid points.
        let inlet_designs: [(FixedDesign<2>, Vec<f64>); 3] = std::array::from_fn(|segment| {
            let grid = || inlet_grid().filter(move |&t| inlet_segment(t) == segment);
            let design = FixedDesign::polynomial(grid()).expect("inlet profiling design");
            (
                design,
                grid().map(|t| curve.base(Celsius::new(t))).collect(),
            )
        });
        let reference_load = curve.load_term(0.5);
        let base_22 = curve.base(Celsius::new(22.0));
        let (idle_load, full_load) = (curve.load_term(0.0), curve.load_term(1.0));
        let gpu_design = FixedDesign::new(gpu_grid().map(|(inlet, power)| [1.0, inlet, power]))
            .expect("gpu profiling design");
        let power_design = FixedDesign::polynomial(power_grid()).expect("power profiling design");
        let mut power_curves: Vec<(ServerSpec, PowerCurve)> = Vec::new();

        let mut servers = Vec::with_capacity(layout.server_count());
        for server in layout.servers() {
            // `InletModel::inlet_temp` at no recirculation penalty, in its order of addition.
            let spatial = dc.inlet_model().spatial_offset(server.id);
            let inlet = |base: f64, load_term: f64| base + spatial + load_term + 0.0;
            let offsets = dc.gpu_model().server_offsets(server.id);
            let hottest = (0..offsets.len())
                .max_by(|&a, &b| offsets[a].total_cmp(&offsets[b]))
                .expect("every server has a GPU");
            let [intercept, inlet_coeff, power_coeff] =
                gpu_design.solve(gpu_grid().map(|(inlet, power)| {
                    dc.gpu_model()
                        .temperatures(
                            GpuId::new(server.id, hottest),
                            Celsius::new(inlet),
                            Watts::new(power),
                            0.5,
                        )
                        .gpu
                        .value()
                }));
            let power_curve = match power_curves.iter().find(|(spec, _)| *spec == server.spec) {
                Some(&(_, curve)) => curve,
                None => {
                    let curve =
                        PowerCurve {
                            coefficients: power_design.solve(power_grid().map(|load| {
                                dc.power_model().server_power(&server.spec, load).value()
                            })),
                        };
                    power_curves.push((server.spec, curve));
                    curve
                }
            };
            servers.push(ServerProfile {
                server: server.id,
                row: server.row,
                aisle: server.aisle,
                spec: server.spec,
                inlet_vs_outside: InletModel {
                    segments: std::array::from_fn(|segment| {
                        let (design, bases) = &inlet_designs[segment];
                        design.solve(bases.iter().map(|&base| inlet(base, reference_load)))
                    }),
                    load_sensitivity_c: inlet(base_22, full_load) - inlet(base_22, idle_load),
                },
                worst_gpu_temp: GpuTempModel {
                    intercept,
                    inlet_coeff,
                    power_coeff,
                },
                power_curve,
            });
        }

        // Budgets are dense grids in ordinal order (the layout builder emits rows and
        // aisles in id order).
        let budgets = InfrastructureBudgets {
            row_power: layout.rows().iter().map(|r| r.power_budget).collect(),
            aisle_airflow: layout
                .aisles()
                .iter()
                .map(|a| a.airflow_provisioned)
                .collect(),
        };

        let (sweep, index) = shared_sweep(gpu);
        Self {
            servers,
            sweep,
            index,
            budgets,
            thermal_headroom_target: Celsius::new(
                layout.servers()[0].spec.gpu_throttle_temp_c - 3.0,
            ),
        }
    }

    /// Checks every server profile (see [`ServerProfile::check`]), so a hand-built or
    /// edited store with a non-finite fitted value fails with an error naming the server
    /// and the model instead of panicking deep inside placement.
    ///
    /// # Errors
    /// Returns the first server's problem, in server order.
    pub fn check(&self) -> Result<(), ProfileError> {
        self.servers.iter().try_for_each(ServerProfile::check)
    }

    /// Replaces the LLM configuration sweep (e.g. with a re-profiled or hand-edited one)
    /// and rebuilds the indices over it.
    ///
    /// # Panics
    /// Panics if a profile lies off the profiling grid (`InstanceConfig::enumerate`), and,
    /// naming the configuration, if a profile's goodput or blended server power is not
    /// finite (the configurator's order would silently mis-rank it).
    #[must_use]
    pub fn with_sweep(mut self, sweep: Arc<[ConfigProfile]>) -> Self {
        self.index = Arc::new(SweepIndex::build(&sweep));
        self.sweep = sweep;
        self
    }

    /// The LLM configuration sweep: every profiled configuration that fits the hardware.
    #[must_use]
    pub fn sweep(&self) -> &[ConfigProfile] {
        &self.sweep
    }

    /// Process-wide shared offline profiling.
    ///
    /// Profiling is a pure function of the datacenter's generative models (identified by
    /// [`Datacenter::fingerprint`]) and the GPU generation, mirroring how the real system
    /// profiles a datacenter once at deployment and reuses the store across controllers.
    /// Repeated simulator constructions over the same cluster share one `Arc`.
    #[must_use]
    pub fn offline_profiling_shared(dc: &Datacenter, gpu: &GpuHardware) -> Arc<Self> {
        type StoreCache = Mutex<HashMap<(u64, u64), Arc<ProfileStore>>>;
        static CACHE: OnceLock<StoreCache> = OnceLock::new();
        let key = (dc.fingerprint(), gpu_fingerprint(gpu));
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(hit) = cache.lock().expect("profile store cache").get(&key) {
            return Arc::clone(hit);
        }
        let fresh = Arc::new(Self::offline_profiling(dc, gpu));
        Arc::clone(
            cache
                .lock()
                .expect("profile store cache")
                .entry(key)
                .or_insert(fresh),
        )
    }

    /// The profile of a server.
    ///
    /// # Panics
    /// Panics if the server id is out of range.
    #[must_use]
    pub fn server(&self, id: ServerId) -> &ServerProfile {
        &self.servers[id.index()]
    }

    /// The power budget of a row (dense O(1) lookup).
    ///
    /// # Panics
    /// Panics if the row id is out of range.
    #[must_use]
    pub fn row_budget(&self, row: RowId) -> Kilowatts {
        self.budgets.row_power[row]
    }

    /// The airflow provisioning of an aisle (dense O(1) lookup).
    ///
    /// # Panics
    /// Panics if the aisle id is out of range.
    #[must_use]
    pub fn aisle_budget(&self, aisle: AisleId) -> CubicFeetPerMinute {
        self.budgets.aisle_airflow[aisle]
    }

    /// Number of rows in the profiled layout.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.budgets.row_power.len()
    }

    /// Number of aisles in the profiled layout.
    #[must_use]
    pub fn aisle_count(&self) -> usize {
        self.budgets.aisle_airflow.len()
    }

    /// The profile of an instance configuration, if it was part of the sweep: one
    /// mixed-radix table read, no hashing and no scan.
    #[must_use]
    pub fn profile_for(&self, config: &InstanceConfig) -> Option<&ConfigProfile> {
        self.profile_slot(config).map(|slot| &self.sweep[slot])
    }

    /// Position of a configuration's profile in [`Self::sweep`], if it was part of it.
    #[must_use]
    pub fn profile_slot(&self, config: &InstanceConfig) -> Option<usize> {
        self.index.slots[sweep_point(config)?].map(usize::from)
    }

    /// The configurator's selection index over the sweep.
    pub(crate) fn selection_index(&self) -> &SelectionIndex {
        &self.index.selection
    }

    /// Number of profiled servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }
}

/// Eq. 1's grid: outside °C, every degree from −10 to 45.
fn inlet_grid() -> impl Iterator<Item = f64> {
    (-10..=45).map(f64::from)
}

/// Eq. 2's grid: `(inlet °C, per-GPU W)`, six inlet temperatures by six powers.
fn gpu_grid() -> impl Iterator<Item = (f64, f64)> {
    [16.0, 20.0, 24.0, 28.0, 32.0, 36.0]
        .into_iter()
        .flat_map(|inlet| {
            [60.0, 150.0, 250.0, 350.0, 450.0, 600.0]
                .into_iter()
                .map(move |power| (inlet, power))
        })
}

/// Eq. 4's grid: mean GPU load 0, 0.1, …, 1.
fn power_grid() -> impl Iterator<Item = f64> {
    (0..=10).map(|i| f64::from(i) / 10.0)
}

/// The general `simkit::regression` fits profiling is held to bit for bit.
#[cfg(test)]
#[path = "../../simkit/src/regression/reference.rs"]
mod regression_reference;

#[cfg(test)]
mod tests {
    use super::regression_reference::{LinearModel, PiecewisePolynomial, Polynomial};
    use super::*;
    use dc_sim::topology::{LayoutConfig, Server};

    fn store() -> (Datacenter, ProfileStore) {
        let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 42);
        let store = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
        (dc, store)
    }

    #[test]
    fn check_names_the_server_and_model_of_a_non_finite_coefficient() {
        let (_, store) = store();
        assert_eq!(store.check(), Ok(()));
        type Corrupt = fn(&mut ServerProfile, f64);
        let cases: [(ProfileModel, Corrupt); 6] = [
            (ProfileModel::InletVsOutside, |p, v| {
                p.inlet_vs_outside.segments[1][0] = v;
            }),
            (ProfileModel::InletLoadSensitivity, |p, v| {
                p.inlet_vs_outside.load_sensitivity_c = v;
            }),
            (ProfileModel::WorstGpuTemp, |p, v| {
                p.worst_gpu_temp.intercept = v
            }),
            (ProfileModel::WorstGpuTemp, |p, v| {
                p.worst_gpu_temp.inlet_coeff = v
            }),
            (ProfileModel::WorstGpuTemp, |p, v| {
                p.worst_gpu_temp.power_coeff = v
            }),
            (ProfileModel::PowerCurve, |p, v| {
                p.power_curve.coefficients[2] = v
            }),
        ];
        for (model, corrupt) in cases {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bad = store.clone();
                corrupt(&mut bad.servers[5], value);
                // A later server's problem is not the one reported.
                bad.servers[7].inlet_vs_outside.load_sensitivity_c = f64::NAN;
                let error = bad.check().expect_err("a non-finite value fails the check");
                let ProfileError::NonFinite {
                    server,
                    model: named,
                    value: found,
                } = error;
                assert_eq!((server, named), (ServerId::new(5), model));
                assert_eq!(found.to_bits(), value.to_bits());
                assert!(error.to_string().contains(model.name()), "{error}");
            }
        }
    }

    /// Eq. 1's profiling samples: `(outside °C, inlet °C)` at 50 % datacenter load.
    fn inlet_samples(dc: &Datacenter, server: ServerId) -> Vec<(f64, f64)> {
        inlet_grid()
            .map(|t| {
                let inlet = dc
                    .inlet_model()
                    .inlet_temp(server, Celsius::new(t), 0.5, 0.0);
                (t, inlet.value())
            })
            .collect()
    }

    /// Eq. 2's profiling samples: `([inlet °C, per-GPU W], worst-GPU °C)`, the worst GPU
    /// the hottest of all of the server's GPUs.
    fn gpu_samples(dc: &Datacenter, server: &Server) -> Vec<(Vec<f64>, f64)> {
        gpu_grid()
            .map(|(inlet, power)| {
                let worst = (0..server.spec.gpus_per_server)
                    .map(|slot| {
                        dc.gpu_model()
                            .temperatures(
                                GpuId::new(server.id, slot),
                                Celsius::new(inlet),
                                Watts::new(power),
                                0.5,
                            )
                            .gpu
                            .value()
                    })
                    .fold(f64::MIN, f64::max);
                (vec![inlet, power], worst)
            })
            .collect()
    }

    /// Eq. 4's profiling samples: `(mean GPU load, server kW)`.
    fn power_samples(dc: &Datacenter, spec: &ServerSpec) -> Vec<(f64, f64)> {
        power_grid()
            .map(|load| (load, dc.power_model().server_power(spec, load).value()))
            .collect()
    }

    /// The stored models equal the general `simkit::regression` fits of every server's
    /// samples, bit for bit, on a mixed fleet: A100 and H100 rows (both 8 GPUs, so Eq. 4
    /// must be told apart by more than the GPU count) and a 4-GPU spec among them.
    #[test]
    fn stored_models_are_the_profiling_fits_bit_for_bit() {
        let four_gpus = ServerSpec {
            gpus_per_server: 4,
            max_power: Kilowatts::new(3.4),
            ..ServerSpec::dgx_a100()
        };
        let layout = LayoutConfig::real_cluster_two_rows()
            .build()
            .map_server_specs(|server| match (server.row.index(), server.id.index() % 5) {
                (_, 3) => four_gpus,
                (0, _) => ServerSpec::dgx_a100(),
                _ => ServerSpec::dgx_h100(),
            });
        let dc = Datacenter::new(layout, 42);
        let store = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut gpu_counts = std::collections::BTreeSet::new();
        for server in dc.layout().servers() {
            gpu_counts.insert(server.spec.gpus_per_server);
            let profile = store.server(server.id);
            let inlet =
                PiecewisePolynomial::fit(&inlet_samples(&dc, server.id), &INLET_BREAKPOINTS_C, 1)
                    .unwrap();
            let segments: Vec<f64> = inlet
                .segments()
                .iter()
                .flat_map(|segment| segment.coefficients().iter().copied())
                .collect();
            assert_eq!(
                bits(profile.inlet_vs_outside.segments.as_flattened()),
                bits(&segments)
            );
            let inlet_at = |load| {
                let inlet = dc.inlet_model();
                inlet
                    .inlet_temp(server.id, Celsius::new(22.0), load, 0.0)
                    .value()
            };
            assert_eq!(
                profile.inlet_vs_outside.load_sensitivity_c.to_bits(),
                (inlet_at(1.0) - inlet_at(0.0)).to_bits()
            );
            let gpu = LinearModel::fit(&gpu_samples(&dc, server)).unwrap();
            let stored = profile.worst_gpu_temp;
            assert_eq!(
                bits(&[stored.intercept, stored.inlet_coeff, stored.power_coeff]),
                bits(&[&[gpu.intercept()], gpu.coefficients()].concat())
            );
            let power = Polynomial::fit(&power_samples(&dc, &server.spec), 2).unwrap();
            assert_eq!(
                bits(&profile.power_curve.coefficients),
                bits(power.coefficients())
            );
        }
        assert_eq!(gpu_counts.into_iter().collect::<Vec<_>>(), [4, 8]);
    }

    #[test]
    fn profiling_covers_every_server() {
        let (dc, store) = store();
        assert_eq!(store.server_count(), dc.layout().server_count());
        assert_eq!(store.budgets.row_power.len(), dc.layout().rows().len());
        assert_eq!(
            store.budgets.aisle_airflow.len(),
            dc.layout().aisles().len()
        );
        assert!(!store.sweep().is_empty());
        assert!((store.thermal_headroom_target.value() - 82.0).abs() < 1e-9);
    }

    #[test]
    fn fitted_inlet_model_tracks_ground_truth() {
        let (dc, store) = store();
        for server in dc.layout().servers() {
            let profile = store.server(server.id);
            for outside in [0.0, 10.0, 18.0, 22.0, 30.0, 40.0] {
                let truth = dc
                    .inlet_model()
                    .inlet_temp(server.id, Celsius::new(outside), 0.5, 0.0)
                    .value();
                let predicted = profile.predicted_inlet(Celsius::new(outside), 0.5).value();
                assert!(
                    (truth - predicted).abs() < 0.5,
                    "inlet prediction off by {} at {outside} °C",
                    (truth - predicted).abs()
                );
            }
        }
    }

    #[test]
    fn fitted_gpu_model_has_sub_degree_error() {
        // The paper reports < 1 °C MAE for the fitted Eq. (2); our fit against the generative
        // model should do at least as well on the worst GPU.
        let (dc, store) = store();
        let server = dc.layout().servers()[0].id;
        let profile = store.server(server);
        for inlet in [18.0, 25.0, 33.0] {
            for power in [100.0, 300.0, 500.0] {
                let truth = (0..8)
                    .map(|slot| {
                        dc.gpu_model()
                            .temperatures(
                                GpuId::new(server, slot),
                                Celsius::new(inlet),
                                Watts::new(power),
                                0.5,
                            )
                            .gpu
                            .value()
                    })
                    .fold(f64::MIN, f64::max);
                let predicted = profile
                    .predicted_worst_gpu_temp(Celsius::new(inlet), Watts::new(power))
                    .value();
                assert!(
                    (truth - predicted).abs() < 1.0,
                    "error {}",
                    (truth - predicted).abs()
                );
            }
        }
    }

    #[test]
    fn gpu_power_budget_inverts_the_fit() {
        let (_, store) = store();
        let profile = &store.servers[0];
        let inlet = Celsius::new(26.0);
        let limit = Celsius::new(82.0);
        let budget = profile.gpu_power_budget(inlet, limit);
        assert!(budget.value() > 0.0);
        let temp_at_budget = profile.predicted_worst_gpu_temp(inlet, budget);
        assert!((temp_at_budget.value() - 82.0).abs() < 0.5);
        // An already-too-hot inlet yields a zero budget.
        let impossible = profile.gpu_power_budget(Celsius::new(95.0), Celsius::new(80.0));
        assert_eq!(impossible.value(), 0.0);
    }

    #[test]
    fn power_curve_matches_endpoints_and_is_monotone() {
        let (dc, store) = store();
        let spec = dc.layout().servers()[0].spec;
        let profile = &store.servers[0];
        assert!((profile.predicted_power(0.0).value() - spec.idle_power.value()).abs() < 0.1);
        assert!((profile.predicted_power(1.0).value() - spec.max_power.value()).abs() < 0.1);
        let mut last = 0.0;
        for i in 0..=10 {
            let p = profile.predicted_power(f64::from(i) / 10.0).value();
            assert!(p >= last - 1e-9);
            last = p;
        }
        assert_eq!(profile.predicted_airflow(0.0), spec.idle_airflow);
        assert_eq!(profile.predicted_airflow(1.0), spec.max_airflow);
    }

    #[test]
    fn profile_for_finds_exactly_the_sweep_configurations() {
        let (_, store) = store();
        for (slot, profile) in store.sweep().iter().enumerate() {
            assert_eq!(store.profile_slot(&profile.config), Some(slot));
        }
        // Every grid point has its own table entry: class and point are bijections.
        let mut points: Vec<usize> = InstanceConfig::enumerate()
            .iter()
            .filter_map(sweep_point)
            .collect();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), SWEEP_POINTS);
        let classes: std::collections::BTreeSet<usize> = InstanceConfig::enumerate()
            .iter()
            .map(variant_class)
            .collect();
        assert_eq!(classes.len(), VARIANT_CLASSES);
        assert!(classes.iter().all(|&c| c < VARIANT_CLASSES));
        // Grid points the sweep skipped (70B FP16 on TP2 does not fit) have no profile.
        let mut skipped = InstanceConfig::default_70b();
        skipped.parallelism = TensorParallelism::Tp2;
        assert!(store.profile_for(&skipped).is_none());
        let mut unlisted = InstanceConfig::default_70b();
        unlisted.frequency = FrequencyScale::new(0.9);
        assert!(store.profile_for(&unlisted).is_none());
    }

    #[test]
    fn profile_for_does_not_alias_batch_sizes_past_u16() {
        let (_, store) = store();
        let mut config = InstanceConfig::default_70b();
        assert!(store.profile_for(&config).is_some());
        config.max_batch_size += 65_536;
        assert!(store.profile_for(&config).is_none());
    }
}
