//! The TAPAS profile store (§4.5, "Profiles").
//!
//! During the initial deployment of a datacenter the operator runs benchmarks and validation
//! tests; TAPAS uses that window for *offline profiling*: it learns, per server, (1) the
//! inlet-temperature response to outside temperature and datacenter load, (2) the GPU
//! temperature response to inlet temperature and GPU power, (3) the fan airflow curve and
//! (4) the power-load curve. When a new LLM is onboarded it also profiles every instance
//! configuration (the sweep of `llm-sim::profile`). During regular operation the predictions
//! of row and VM power are refined weekly from observed telemetry using percentile templates.
//!
//! The store deliberately contains *fitted* models (via `simkit::regression`), not references
//! to the ground-truth simulator models: the controllers only ever see what real profiling
//! could have measured.

use crate::configurator::SelectionIndex;
use dc_sim::engine::Datacenter;
use dc_sim::ids::{AisleId, GpuId, RowId, ServerId};
use dc_sim::index::OrdinalMap;
use dc_sim::topology::ServerSpec;
use llm_sim::config::{FrequencyScale, InstanceConfig, TensorParallelism};
use llm_sim::hardware::GpuHardware;
use llm_sim::model::{ModelSize, Quantization};
use llm_sim::pareto::ParetoFrontier;
use llm_sim::profile::ConfigProfile;
use serde::{Deserialize, Serialize};
use simkit::regression::{LinearModel, PiecewisePolynomial, Polynomial};
use simkit::units::{Celsius, CubicFeetPerMinute, Kilowatts, Watts};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use workload::prediction::PowerTemplate;

/// Per-server fitted thermal and power models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerProfile {
    /// The server this profile describes.
    pub server: ServerId,
    /// Its row (for power budgeting).
    pub row: RowId,
    /// Its aisle (for airflow budgeting).
    pub aisle: AisleId,
    /// Hardware specification (public knowledge from the SKU).
    pub spec: ServerSpec,
    /// Fitted inlet temperature vs outside temperature at a reference (50 %) datacenter load.
    pub inlet_vs_outside: PiecewisePolynomial,
    /// Additional inlet °C per unit of datacenter load (0→1).
    pub inlet_load_sensitivity_c: f64,
    /// Fitted worst-GPU temperature vs `[inlet °C, per-GPU power W]` (Eq. 2).
    pub worst_gpu_temp: LinearModel,
    /// Fitted server power (kW) vs mean GPU load.
    pub power_curve: Polynomial,
}

impl ServerProfile {
    /// Predicted inlet temperature at an outside temperature and datacenter load.
    #[must_use]
    pub fn predicted_inlet(&self, outside: Celsius, dc_load: f64) -> Celsius {
        let at_reference = self.inlet_vs_outside.evaluate(outside.value());
        let load_delta = (dc_load.clamp(0.0, 1.0) - 0.5) * self.inlet_load_sensitivity_c;
        Celsius::new(at_reference + load_delta)
    }

    /// Predicted temperature of the hottest GPU at a given inlet temperature and per-GPU
    /// power.
    #[must_use]
    pub fn predicted_worst_gpu_temp(&self, inlet: Celsius, gpu_power: Watts) -> Celsius {
        Celsius::new(self.worst_gpu_temp.predict(&[inlet.value(), gpu_power.value()]))
    }

    /// The per-GPU power budget that keeps the hottest GPU at or below `limit` for a given
    /// inlet temperature (the inverse of the fitted Eq. 2).
    #[must_use]
    pub fn gpu_power_budget(&self, inlet: Celsius, limit: Celsius) -> Watts {
        let coeffs = self.worst_gpu_temp.coefficients();
        let power_coeff = coeffs.get(1).copied().unwrap_or(0.1).max(1e-6);
        let base = self.worst_gpu_temp.intercept() + coeffs[0] * inlet.value();
        Watts::new(((limit.value() - base) / power_coeff).max(0.0))
    }

    /// Predicted server power at a mean GPU load in `[0, 1]`.
    #[must_use]
    pub fn predicted_power(&self, load: f64) -> Kilowatts {
        let load = load.clamp(0.0, 1.0);
        Kilowatts::new(
            self.power_curve
                .evaluate(load)
                .clamp(0.0, self.spec.max_power.value()),
        )
    }

    /// Predicted server airflow at a mean GPU load (linear between the SKU's idle and maximum
    /// airflow).
    #[must_use]
    pub fn predicted_airflow(&self, load: f64) -> CubicFeetPerMinute {
        let load = load.clamp(0.0, 1.0);
        self.spec.idle_airflow + (self.spec.max_airflow - self.spec.idle_airflow) * load
    }

    /// Checks that every fitted value is finite and that the worst-GPU temperature model
    /// takes the two features of Eq. 2.
    ///
    /// # Errors
    /// Returns the first problem found, naming this server and the model.
    pub fn check(&self) -> Result<(), ProfileError> {
        let server = self.server;
        let inlet = &self.inlet_vs_outside;
        let inlet_values = inlet.breakpoints().iter().chain(
            inlet.segments().iter().flat_map(|segment| segment.coefficients()),
        );
        let gpu = &self.worst_gpu_temp;
        let intercept = gpu.intercept();
        let gpu_values = std::iter::once(&intercept).chain(gpu.coefficients());
        non_finite(server, ProfileModel::InletVsOutside, inlet_values)?;
        non_finite(
            server,
            ProfileModel::InletLoadSensitivity,
            [&self.inlet_load_sensitivity_c],
        )?;
        non_finite(server, ProfileModel::WorstGpuTemp, gpu_values)?;
        if gpu.coefficients().len() != 2 {
            return Err(ProfileError::GpuModelFeatures {
                server,
                features: gpu.coefficients().len(),
            });
        }
        non_finite(server, ProfileModel::PowerCurve, self.power_curve.coefficients())
    }
}

/// The fitted model of a [`ServerProfile`] a [`ProfileError`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileModel {
    /// `inlet_vs_outside` (Eq. 1): a breakpoint or a segment coefficient.
    InletVsOutside,
    /// `inlet_load_sensitivity_c`.
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
            ProfileModel::InletLoadSensitivity => "inlet_load_sensitivity_c",
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
    /// The worst-GPU temperature model does not take the two features
    /// `[inlet °C, per-GPU power W]` of Eq. 2.
    GpuModelFeatures {
        /// The profiled server.
        server: ServerId,
        /// The model's feature count.
        features: usize,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::NonFinite { server, model, value } => write!(
                f,
                "server {server}: its fitted {} model holds a non-finite value ({value})",
                model.name()
            ),
            ProfileError::GpuModelFeatures { server, features } => write!(
                f,
                "server {server}: its worst_gpu_temp model takes {features} features, not \
                 [inlet °C, per-GPU power W]"
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
        Some(&value) => Err(ProfileError::NonFinite { server, model, value }),
        None => Ok(()),
    }
}

/// LLM configuration profiles and the Pareto frontiers derived from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmProfiles {
    /// Every profiled configuration that fits the hardware.
    pub profiles: Vec<ConfigProfile>,
    /// The overall Pareto frontier.
    pub frontier: ParetoFrontier,
    /// Per-model-size frontiers (Fig. 16 keeps them separate because quality differs).
    pub frontier_by_model: BTreeMap<ModelSize, ParetoFrontier>,
}

impl LlmProfiles {
    /// Profiles every configuration on the given GPU generation.
    #[must_use]
    pub fn profile(gpu: &GpuHardware) -> Self {
        let profiles = ConfigProfile::sweep(gpu);
        let frontier = ParetoFrontier::compute(&profiles);
        let frontier_by_model = ModelSize::ALL
            .into_iter()
            .map(|size| (size, ParetoFrontier::for_model(&profiles, size)))
            .collect();
        Self { profiles, frontier, frontier_by_model }
    }

    /// Process-wide shared profile of a GPU generation.
    ///
    /// The sweep is a pure function of the hardware parameters, so repeated simulator
    /// constructions (parameter sweeps, benches) share one `Arc` instead of re-profiling
    /// the full configuration space every time.
    #[must_use]
    pub fn shared(gpu: &GpuHardware) -> Arc<Self> {
        Self::shared_indexed(gpu).0
    }

    /// [`Self::shared`] together with the sweep's [`SweepIndex`], built once per process
    /// and GPU generation like the sweep itself.
    fn shared_indexed(gpu: &GpuHardware) -> (Arc<Self>, Arc<SweepIndex>) {
        type SweepCache = Mutex<HashMap<u64, (Arc<LlmProfiles>, Arc<SweepIndex>)>>;
        static CACHE: OnceLock<SweepCache> = OnceLock::new();
        let key = gpu_fingerprint(gpu);
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some((llm, index)) = cache.lock().expect("llm profile cache").get(&key) {
            return (Arc::clone(llm), Arc::clone(index));
        }
        // Profile outside the lock: sweeps are independent and this keeps the critical
        // section tiny.
        let llm = Self::profile(gpu);
        let index = Arc::new(SweepIndex::build(&llm));
        let mut cache = cache.lock().expect("llm profile cache");
        let (llm, index) = cache.entry(key).or_insert((Arc::new(llm), index));
        (Arc::clone(llm), Arc::clone(index))
    }
}

/// The lookup structures over one sweep: the profile-slot table behind
/// [`ProfileStore::profile_for`] and the configurator's selection index.
#[derive(Debug)]
struct SweepIndex {
    /// Position in `LlmProfiles::profiles` of each profiling-grid point (`None` for grid
    /// points the sweep skipped because they do not fit in memory).
    slots: Box<[Option<u16>]>,
    selection: SelectionIndex,
}

impl SweepIndex {
    fn build(llm: &LlmProfiles) -> Self {
        let mut slots = vec![None; SWEEP_POINTS];
        for (slot, profile) in llm.profiles.iter().enumerate() {
            let point = sweep_point(&profile.config).expect("sweep profiles lie on the grid");
            slots[point] = Some(u16::try_from(slot).expect("sweep fits u16 slots"));
        }
        Self { slots: slots.into(), selection: SelectionIndex::build(&llm.profiles) }
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
    let frequency = FrequencyScale::STEPS.iter().position(|s| s.to_bits() == bits)?;
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
    /// Servers per row, indexed by [`RowId`].
    pub row_servers: OrdinalMap<RowId, Vec<ServerId>>,
    /// Servers per aisle, indexed by [`AisleId`].
    pub aisle_servers: OrdinalMap<AisleId, Vec<ServerId>>,
}

/// The complete profile store TAPAS consults at run time.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    /// Per-server fitted models, indexed by `ServerId::index`.
    pub servers: Vec<ServerProfile>,
    /// LLM configuration profiles and frontiers (shared across stores for one GPU model).
    /// Private so the index below can never go stale: see [`Self::llm`] and
    /// [`Self::with_llm_profiles`].
    llm: Arc<LlmProfiles>,
    /// Row/aisle budgets.
    pub budgets: InfrastructureBudgets,
    /// Weekly-refined row power templates, indexed by [`RowId`] (`None` until the first
    /// refinement of that row).
    pub row_templates: OrdinalMap<RowId, Option<PowerTemplate>>,
    /// GPU throttle limit minus a safety margin; the controllers aim to stay below this.
    pub thermal_headroom_target: Celsius,
    /// Lookup structures over `llm`, shared with it.
    index: Arc<SweepIndex>,
}

impl ProfileStore {
    /// Runs offline profiling against a datacenter and a GPU generation.
    ///
    /// The profiling probes the datacenter's response at a grid of outside temperatures, loads
    /// and per-GPU powers — exactly what an operator does with benchmarks during initial
    /// deployment — and fits the regression models of Eq. (1)–(4) to the observations.
    #[must_use]
    pub fn offline_profiling(dc: &Datacenter, gpu: &GpuHardware) -> Self {
        let layout = dc.layout();
        let mut servers = Vec::with_capacity(layout.server_count());
        for server in layout.servers() {
            // Eq. 1: inlet vs outside at 50 % datacenter load.
            let inlet_samples: Vec<(f64, f64)> = (-10..=45)
                .map(|t| {
                    let outside = Celsius::new(f64::from(t));
                    (
                        f64::from(t),
                        dc.inlet_model().inlet_temp(server.id, outside, 0.5, 0.0).value(),
                    )
                })
                .collect();
            let inlet_vs_outside =
                PiecewisePolynomial::fit(&inlet_samples, &[-10.0, 15.0, 25.0, 45.0], 1)
                    .expect("inlet profiling fit");
            let low = dc
                .inlet_model()
                .inlet_temp(server.id, Celsius::new(22.0), 0.0, 0.0)
                .value();
            let high = dc
                .inlet_model()
                .inlet_temp(server.id, Celsius::new(22.0), 1.0, 0.0)
                .value();
            let inlet_load_sensitivity_c = high - low;

            // Eq. 2: worst-GPU temperature vs inlet and per-GPU power.
            let mut gpu_samples = Vec::new();
            for inlet in [16.0, 20.0, 24.0, 28.0, 32.0, 36.0] {
                for power in [60.0, 150.0, 250.0, 350.0, 450.0, 600.0] {
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
                    gpu_samples.push((vec![inlet, power], worst));
                }
            }
            let worst_gpu_temp = LinearModel::fit(&gpu_samples).expect("gpu profiling fit");

            // Eq. 4: server power vs load.
            let power_samples: Vec<(f64, f64)> = (0..=10)
                .map(|i| {
                    let load = f64::from(i) / 10.0;
                    (load, dc.power_model().server_power(&server.spec, load).value())
                })
                .collect();
            let power_curve = Polynomial::fit(&power_samples, 2).expect("power profiling fit");

            servers.push(ServerProfile {
                server: server.id,
                row: server.row,
                aisle: server.aisle,
                spec: server.spec,
                inlet_vs_outside,
                inlet_load_sensitivity_c,
                worst_gpu_temp,
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
            row_servers: layout.rows().iter().map(|r| r.servers.clone()).collect(),
            aisle_servers: layout
                .aisles()
                .iter()
                .map(|a| a.servers.clone())
                .collect(),
        };

        let (llm, index) = LlmProfiles::shared_indexed(gpu);
        Self {
            servers,
            llm,
            index,
            row_templates: OrdinalMap::filled(layout.rows().len(), None),
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

    /// Replaces the LLM profiles (e.g. with a re-profiled or hand-edited sweep) and rebuilds
    /// the indices over them.
    ///
    /// # Panics
    /// Panics if a profile lies off the profiling grid (`InstanceConfig::enumerate`), and,
    /// naming the configuration, if a profile's goodput or blended server power is not
    /// finite (the configurator's order would silently mis-rank it).
    #[must_use]
    pub fn with_llm_profiles(mut self, llm: Arc<LlmProfiles>) -> Self {
        self.index = Arc::new(SweepIndex::build(&llm));
        self.llm = llm;
        self
    }

    /// LLM configuration profiles and frontiers.
    #[must_use]
    pub fn llm(&self) -> &LlmProfiles {
        &self.llm
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
        self.profile_slot(config).map(|slot| &self.llm.profiles[slot])
    }

    /// Position of a configuration's profile in `llm().profiles`, if it was part of the
    /// sweep.
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

    /// The weekly refinement step (§4.5): fits a conservative P99 template per row from the
    /// previous week's observed row power. `history` is indexed by row ordinal (the shape
    /// the simulator accumulates); rows with no samples keep their previous template.
    pub fn refine_row_templates(&mut self, history: &[Vec<(simkit::time::SimTime, f64)>]) {
        for (ordinal, samples) in history.iter().enumerate() {
            if !samples.is_empty() {
                self.row_templates[RowId::new(ordinal)] =
                    Some(PowerTemplate::fit(workload::prediction::TemplateKind::P99, samples));
            }
        }
    }

    /// Predicted peak power of a row: the refined template's weekly peak when available,
    /// otherwise the provisioned budget (the conservative assumption of §4.1).
    #[must_use]
    pub fn predicted_row_peak(&self, row: RowId) -> Kilowatts {
        match self.row_templates.get(row).and_then(Option::as_ref) {
            Some(template) => Kilowatts::new(template.predicted_peak()),
            None => self.budgets.row_power.get(row).copied().unwrap_or(Kilowatts::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::topology::LayoutConfig;
    use simkit::time::SimTime;

    fn store() -> (Datacenter, ProfileStore) {
        let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 42);
        let store = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
        (dc, store)
    }

    #[test]
    fn check_names_the_server_and_model_of_a_non_finite_coefficient() {
        let (_, mut corrupt) = store();
        assert_eq!(corrupt.check(), Ok(()));
        let coefficients = corrupt.servers[7].worst_gpu_temp.coefficients().to_vec();
        corrupt.servers[7].worst_gpu_temp = LinearModel::from_coefficients(f64::NAN, coefficients);
        let error = corrupt.check().expect_err("a NaN intercept fails the check");
        assert!(matches!(
            error,
            ProfileError::NonFinite { server, model: ProfileModel::WorstGpuTemp, value }
                if server == ServerId::new(7) && value.is_nan()
        ));
        assert!(error.to_string().contains("worst_gpu_temp"), "{error}");

        let (_, mut corrupt) = store();
        corrupt.servers[3].power_curve = Polynomial::from_coefficients(vec![1.0, f64::INFINITY]);
        corrupt.servers[5].inlet_load_sensitivity_c = f64::NAN;
        assert_eq!(
            corrupt.check(),
            Err(ProfileError::NonFinite {
                server: ServerId::new(3),
                model: ProfileModel::PowerCurve,
                value: f64::INFINITY,
            }),
            "the first server in order is reported"
        );

        let (_, mut corrupt) = store();
        corrupt.servers[2].worst_gpu_temp = LinearModel::from_coefficients(40.0, vec![1.0]);
        assert_eq!(
            corrupt.check(),
            Err(ProfileError::GpuModelFeatures { server: ServerId::new(2), features: 1 })
        );
    }

    #[test]
    fn profiling_covers_every_server() {
        let (dc, store) = store();
        assert_eq!(store.server_count(), dc.layout().server_count());
        assert_eq!(store.budgets.row_power.len(), dc.layout().rows().len());
        assert_eq!(store.budgets.aisle_airflow.len(), dc.layout().aisles().len());
        assert!(!store.llm().profiles.is_empty());
        assert!(!store.llm().frontier.is_empty());
        assert_eq!(store.llm().frontier_by_model.len(), 3);
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
                assert!((truth - predicted).abs() < 1.0, "error {}", (truth - predicted).abs());
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
        for (slot, profile) in store.llm().profiles.iter().enumerate() {
            assert_eq!(store.profile_slot(&profile.config), Some(slot));
        }
        // Every grid point has its own table entry: class and point are bijections.
        let mut points: Vec<usize> =
            InstanceConfig::enumerate().iter().filter_map(sweep_point).collect();
        points.sort_unstable();
        points.dedup();
        assert_eq!(points.len(), SWEEP_POINTS);
        let classes: std::collections::BTreeSet<usize> =
            InstanceConfig::enumerate().iter().map(variant_class).collect();
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

    #[test]
    fn row_peak_prediction_prefers_refined_templates() {
        let (_, mut store) = store();
        let row = RowId::new(0);
        let budget = store.budgets.row_power[row];
        assert_eq!(store.predicted_row_peak(row), budget);
        // Refine with a row-ordinal-indexed history peaking at half the budget for row 0.
        let history: Vec<(SimTime, f64)> = (0..7 * 24)
            .map(|h| (SimTime::from_hours(h), budget.value() * 0.5))
            .collect();
        store.refine_row_templates(&[history]);
        let refined = store.predicted_row_peak(row);
        assert!((refined.value() - budget.value() * 0.5).abs() < 1e-6);
        // Rows without history keep the conservative budget.
        assert_eq!(store.predicted_row_peak(RowId::new(1)), store.budgets.row_power[RowId::new(1)]);
    }
}
