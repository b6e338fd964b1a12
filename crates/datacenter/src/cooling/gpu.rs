//! Per-GPU temperature model (Eq. 2 of the paper).
//!
//! The characterization finds that a linear regression of GPU temperature on the server inlet
//! temperature and the GPU power draw reaches a mean absolute error below 1 °C (Fig. 7):
//! `T_gpu = a · T_inlet + b · P_gpu + c + offset_gpu`.
//!
//! Within one server, GPUs with identical utilization differ by up to ≈10 °C because of the
//! chassis layout (GPUs closer to the inlet — the even-numbered slots — run cooler) and
//! process variation (Fig. 8–9). GPU memory tracks the GPU temperature, running slightly
//! hotter under memory-intensive (decode-dominated) load and slightly cooler otherwise.

use crate::ids::{GpuId, ServerId};
use crate::index::TopologyIndex;
use crate::topology::Layout;
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::units::{Celsius, Watts};

/// Coefficients of the linear GPU temperature model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuThermalCoefficients {
    /// Sensitivity to the server inlet temperature (°C per °C).
    pub inlet_coeff: f64,
    /// Sensitivity to the GPU power draw (°C per W).
    pub power_coeff: f64,
    /// Intercept (°C).
    pub intercept: f64,
    /// Extra temperature of the hotter (odd, obstructed) GPU slots relative to the cooler
    /// (even, inlet-adjacent) slots.
    pub layout_penalty_c: f64,
    /// Standard deviation of the per-GPU process-variation offset.
    pub process_variation_std_c: f64,
    /// Memory temperature offset relative to the GPU under memory-bound load.
    pub mem_offset_membound_c: f64,
    /// Memory temperature offset relative to the GPU under compute-bound load.
    pub mem_offset_computebound_c: f64,
}

impl GpuThermalCoefficients {
    /// The inlet-dependent part of the GPU temperature: `a · T_inlet + c`. Single source of
    /// the linear model shared by [`GpuThermalModel::temperatures`] and the engine's fused
    /// per-row pass (which adds `b · P_gpu + offset` per slot).
    #[inline]
    #[must_use]
    pub fn base_terms(&self, inlet: Celsius) -> f64 {
        self.inlet_coeff * inlet.value() + self.intercept
    }

    /// Memory temperature offset relative to the GPU for a given memory-boundedness.
    #[inline]
    #[must_use]
    pub fn memory_offset(&self, memory_boundedness: f64) -> f64 {
        let mem_frac = memory_boundedness.clamp(0.0, 1.0);
        self.mem_offset_computebound_c
            + (self.mem_offset_membound_c - self.mem_offset_computebound_c) * mem_frac
    }
}

impl Default for GpuThermalCoefficients {
    fn default() -> Self {
        Self {
            inlet_coeff: 0.9,
            power_coeff: 0.10,
            intercept: 5.0,
            layout_penalty_c: 4.0,
            process_variation_std_c: 1.8,
            mem_offset_membound_c: 3.0,
            mem_offset_computebound_c: -2.0,
        }
    }
}

/// Temperatures of one GPU at one evaluation step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuTemperatures {
    /// GPU junction temperature.
    pub gpu: Celsius,
    /// GPU memory (HBM) temperature.
    pub memory: Celsius,
}

/// One step's GPU temperatures for a whole datacenter: a contiguous server-major
/// structure-of-arrays junction plane plus one memory offset per server.
///
/// The junction plane (`gpu_c`) is one flat `f64` vector, stride-indexed through the
/// server-major GPU offsets of a [`TopologyIndex`]. The physics kernels write the plane
/// with branch-free lane loops, and datacenter-wide scans (hottest GPU, fleet
/// aggregation) walk one dense `f64` slice. Memory (HBM) temperatures track their GPU by
/// a *per-server* offset (Eq. 2's memory-boundedness term), so the grid stores that
/// offset per server instead of a second per-GPU plane — at 10k-server scale a full
/// memory plane write is ~20 % of the step's memory traffic — and computes
/// `mem = gpu + offset` on access.
///
/// Id-keyed accessors ([`Self::get`], [`Self::server`]) read the planes; the serialized
/// form is the storage itself.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TempGrid {
    /// Flat per-GPU junction temperatures (°C), server-major.
    gpu_c: Vec<f64>,
    /// Per-server memory-temperature offset (°C): `mem[g] = gpu_c[g] + mem_offset_c[s]`
    /// for every GPU `g` of server `s`.
    mem_offset_c: Vec<f64>,
    /// Server-major GPU prefix sums (length `servers + 1`), copied from the topology index
    /// that shaped the grid.
    offsets: Vec<u32>,
}

impl Default for TempGrid {
    fn default() -> Self {
        Self { gpu_c: Vec::new(), mem_offset_c: Vec::new(), offsets: vec![0] }
    }
}

/// The temperatures of one server's GPUs: a contiguous junction-plane window plus the
/// server's memory offset.
#[derive(Debug, Clone, Copy)]
pub struct ServerTemps<'a> {
    gpu_c: &'a [f64],
    mem_offset_c: f64,
}

impl<'a> ServerTemps<'a> {
    /// Number of GPUs in the server.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gpu_c.len()
    }

    /// Returns `true` if the server has no GPUs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gpu_c.is_empty()
    }

    /// The temperatures of one GPU slot.
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    #[must_use]
    pub fn get(&self, slot: usize) -> GpuTemperatures {
        GpuTemperatures {
            gpu: Celsius::new(self.gpu_c[slot]),
            memory: Celsius::new(self.gpu_c[slot] + self.mem_offset_c),
        }
    }

    /// The server's junction-temperature plane window (°C).
    #[must_use]
    pub fn gpu_c(&self) -> &'a [f64] {
        self.gpu_c
    }

    /// Iterates the server's GPU temperatures in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = GpuTemperatures> + '_ {
        (0..self.gpu_c.len()).map(|slot| self.get(slot))
    }
}

impl TempGrid {
    /// A zeroed grid shaped for one datacenter's topology.
    #[must_use]
    pub fn for_topology(topology: &TopologyIndex) -> Self {
        Self {
            gpu_c: vec![0.0; topology.gpu_count()],
            mem_offset_c: vec![0.0; topology.server_count()],
            offsets: topology.gpu_offsets().to_vec(),
        }
    }

    /// Number of servers covered.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of GPUs covered.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.gpu_c.len()
    }

    /// Returns `true` if the grid covers no GPUs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gpu_c.is_empty()
    }

    /// The view of one server ordinal.
    fn server_at(&self, ordinal: usize) -> ServerTemps<'_> {
        let start = self.offsets[ordinal] as usize;
        let end = self.offsets[ordinal + 1] as usize;
        ServerTemps { gpu_c: &self.gpu_c[start..end], mem_offset_c: self.mem_offset_c[ordinal] }
    }

    /// The temperatures of every GPU in one server.
    ///
    /// # Panics
    /// Panics if the server ordinal is out of range.
    #[must_use]
    pub fn server(&self, server: ServerId) -> ServerTemps<'_> {
        self.server_at(server.index())
    }

    /// The temperatures of one GPU.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[must_use]
    pub fn get(&self, gpu: GpuId) -> GpuTemperatures {
        self.server(gpu.server).get(gpu.slot)
    }

    /// Iterates every GPU's temperatures in server-major order.
    pub fn iter(&self) -> impl Iterator<Item = GpuTemperatures> + '_ {
        self.iter_servers()
            .flat_map(|(_, server)| (0..server.len()).map(move |slot| server.get(slot)))
    }

    /// Iterates `(server, per-GPU view)` pairs in server order.
    pub fn iter_servers(&self) -> impl Iterator<Item = (ServerId, ServerTemps<'_>)> + '_ {
        (0..self.server_count()).map(|i| (ServerId::new(i), self.server_at(i)))
    }

    /// The flat server-major junction-temperature plane (°C).
    #[must_use]
    pub fn gpu_plane(&self) -> &[f64] {
        &self.gpu_c
    }

    /// Mutable kernel access: the flat junction plane plus the per-server memory-offset
    /// plane.
    ///
    /// The junction plane doubles as the kernels' per-GPU power staging area: the power
    /// pass writes per-GPU watts into it and the thermal pass transforms them to
    /// temperatures in place, which avoids streaming a separate power plane through the
    /// cache on every step.
    #[must_use]
    pub fn kernel_planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.gpu_c, &mut self.mem_offset_c)
    }

    /// The hottest GPU junction temperature in the grid.
    #[must_use]
    pub fn max_gpu(&self) -> Celsius {
        Celsius::new(self.gpu_c.iter().copied().fold(f64::MIN, f64::max))
    }

    /// The hottest GPU-memory temperature in the grid.
    #[must_use]
    pub fn max_mem(&self) -> Celsius {
        self.iter()
            .map(|t| t.memory)
            .fold(Celsius::new(f64::MIN), Celsius::max)
    }
}

/// Per-GPU thermal model with layout and process-variation offsets.
///
/// Offsets are stored flat (server-major) so per-row physics can walk contiguous slices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuThermalModel {
    coeffs: GpuThermalCoefficients,
    /// Per-GPU offsets, server-major.
    offsets: Vec<f64>,
    /// Start of each server's offset run in `offsets` (length `servers + 1`).
    starts: Vec<u32>,
}

impl GpuThermalModel {
    /// Builds the model for a layout with deterministic per-GPU offsets.
    #[must_use]
    pub fn for_layout(layout: &Layout, coeffs: GpuThermalCoefficients, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).derive("gpu-thermal");
        let mut offsets = Vec::with_capacity(layout.gpu_count());
        let mut starts = Vec::with_capacity(layout.server_count() + 1);
        starts.push(0);
        for server in layout.servers() {
            for slot in 0..server.spec.gpus_per_server {
                let layout_offset = if slot % 2 == 0 {
                    0.0
                } else {
                    coeffs.layout_penalty_c
                };
                offsets.push(layout_offset + rng.normal(0.0, coeffs.process_variation_std_c));
            }
            starts.push(offsets.len() as u32);
        }
        Self { coeffs, offsets, starts }
    }

    /// The model coefficients.
    #[must_use]
    pub fn coefficients(&self) -> &GpuThermalCoefficients {
        &self.coeffs
    }

    /// The static offset of a GPU (layout + process variation).
    ///
    /// # Panics
    /// Panics if the GPU id is out of range.
    #[must_use]
    pub fn offset(&self, gpu: GpuId) -> f64 {
        self.server_offsets(gpu.server)[gpu.slot]
    }

    /// The static offsets of every GPU in a server, as a contiguous slice.
    ///
    /// # Panics
    /// Panics if the server id is out of range.
    #[must_use]
    pub fn server_offsets(&self, server: crate::ids::ServerId) -> &[f64] {
        let start = self.starts[server.index()] as usize;
        let end = self.starts[server.index() + 1] as usize;
        &self.offsets[start..end]
    }

    /// All per-GPU offsets as one flat server-major plane, indexed by the same prefix sums
    /// as [`crate::index::TopologyIndex::gpu_offsets`] (both are built from the layout's
    /// server-order GPU counts). The engine's row kernels slice this plane per row.
    #[must_use]
    pub fn offsets_flat(&self) -> &[f64] {
        &self.offsets
    }

    /// GPU and memory temperatures given the server inlet temperature, this GPU's power draw
    /// and the memory-boundedness of its current work (0 = fully compute-bound prefill,
    /// 1 = fully memory-bound decode).
    #[must_use]
    pub fn temperatures(
        &self,
        gpu: GpuId,
        inlet: Celsius,
        gpu_power: Watts,
        memory_boundedness: f64,
    ) -> GpuTemperatures {
        let c = &self.coeffs;
        let base = c.base_terms(inlet) + c.power_coeff * gpu_power.value() + self.offset(gpu);
        let mem_offset = c.memory_offset(memory_boundedness);
        GpuTemperatures {
            gpu: Celsius::new(base),
            memory: Celsius::new(base + mem_offset),
        }
    }

    /// Inverse model: the maximum GPU power that keeps the *hottest* GPU of a server at or
    /// below `limit`, for a given inlet temperature.
    ///
    /// TAPAS's instance configurator uses this to turn a temperature headroom into a power
    /// budget when selecting configurations.
    #[must_use]
    pub fn power_for_temp_limit(
        &self,
        server: crate::ids::ServerId,
        inlet: Celsius,
        limit: Celsius,
    ) -> Watts {
        let c = &self.coeffs;
        let worst_offset = self
            .server_offsets(server)
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        let available =
            limit.value() - c.inlet_coeff * inlet.value() - c.intercept - worst_offset;
        Watts::new((available / c.power_coeff).max(0.0))
    }

    /// Number of servers covered.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::topology::LayoutConfig;
    use simkit::stats;

    fn model() -> GpuThermalModel {
        let layout = LayoutConfig::real_cluster_two_rows().build();
        GpuThermalModel::for_layout(&layout, GpuThermalCoefficients::default(), 42)
    }

    #[test]
    fn temperature_is_linear_in_inlet_and_power() {
        let m = model();
        let gpu = GpuId::new(ServerId::new(0), 0);
        let base = m.temperatures(gpu, Celsius::new(20.0), Watts::new(300.0), 0.5);
        let hotter_inlet = m.temperatures(gpu, Celsius::new(25.0), Watts::new(300.0), 0.5);
        let more_power = m.temperatures(gpu, Celsius::new(20.0), Watts::new(400.0), 0.5);
        assert!((hotter_inlet.gpu.value() - base.gpu.value() - 0.9 * 5.0).abs() < 1e-9);
        assert!((more_power.gpu.value() - base.gpu.value() - 0.10 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn realistic_operating_point_matches_paper_range() {
        // At ~22 °C inlet and 400 W per GPU the paper's Fig. 6/7 shows roughly 55–70 °C.
        let m = model();
        let temps: Vec<f64> = (0..8)
            .map(|slot| {
                m.temperatures(
                    GpuId::new(ServerId::new(0), slot),
                    Celsius::new(22.0),
                    Watts::new(400.0),
                    0.5,
                )
                .gpu
                .value()
            })
            .collect();
        for t in &temps {
            assert!((45.0..80.0).contains(t), "unexpected GPU temperature {t}");
        }
    }

    #[test]
    fn even_slots_are_cooler_on_average() {
        let layout = LayoutConfig::production_datacenter().build();
        let m = GpuThermalModel::for_layout(&layout, GpuThermalCoefficients::default(), 1);
        let mut even = Vec::new();
        let mut odd = Vec::new();
        for server in layout.servers() {
            for slot in 0..8 {
                let off = m.offset(GpuId::new(server.id, slot));
                if slot % 2 == 0 {
                    even.push(off);
                } else {
                    odd.push(off);
                }
            }
        }
        let diff = stats::mean(&odd).unwrap() - stats::mean(&even).unwrap();
        assert!((diff - 4.0).abs() < 0.5, "layout penalty should be ≈4 °C, got {diff}");
    }

    #[test]
    fn within_server_spread_is_up_to_ten_degrees() {
        let layout = LayoutConfig::production_datacenter().build();
        let m = GpuThermalModel::for_layout(&layout, GpuThermalCoefficients::default(), 3);
        let mut spreads = Vec::new();
        for server in layout.servers() {
            let temps: Vec<f64> = (0..8)
                .map(|slot| {
                    m.temperatures(
                        GpuId::new(server.id, slot),
                        Celsius::new(22.0),
                        Watts::new(400.0),
                        0.5,
                    )
                    .gpu
                    .value()
                })
                .collect();
            spreads.push(stats::max(&temps).unwrap() - stats::min(&temps).unwrap());
        }
        let typical = stats::mean(&spreads).unwrap();
        let worst = stats::max(&spreads).unwrap();
        assert!(typical > 3.0, "typical within-server spread too small: {typical}");
        assert!(worst < 20.0, "worst within-server spread implausibly large: {worst}");
        assert!(worst > 7.0, "worst within-server spread should approach 10 °C: {worst}");
    }

    #[test]
    fn memory_temperature_tracks_boundedness() {
        let m = model();
        let gpu = GpuId::new(ServerId::new(5), 2);
        let decode = m.temperatures(gpu, Celsius::new(22.0), Watts::new(300.0), 1.0);
        let prefill = m.temperatures(gpu, Celsius::new(22.0), Watts::new(300.0), 0.0);
        assert!(decode.memory.value() > decode.gpu.value());
        assert!(prefill.memory.value() < prefill.gpu.value());
        // Same GPU power => same GPU temperature regardless of boundedness.
        assert_eq!(decode.gpu, prefill.gpu);
    }

    #[test]
    fn power_for_temp_limit_inverts_the_model() {
        let m = model();
        let server = ServerId::new(7);
        let inlet = Celsius::new(24.0);
        let limit = Celsius::new(85.0);
        let power = m.power_for_temp_limit(server, inlet, limit);
        assert!(power.value() > 0.0);
        // Running every GPU at that power must keep all of them at or below the limit.
        for slot in 0..8 {
            let t = m.temperatures(GpuId::new(server, slot), inlet, power, 0.5);
            assert!(t.gpu.value() <= limit.value() + 1e-6);
        }
        // An unreachable limit yields zero power rather than a negative one.
        let impossible = m.power_for_temp_limit(server, Celsius::new(90.0), Celsius::new(20.0));
        assert_eq!(impossible.value(), 0.0);
    }

    #[test]
    fn temp_grid_views_agree_with_flat_storage() {
        let layout = LayoutConfig::small_test_cluster().build();
        let topology = TopologyIndex::from_layout(&layout);
        let mut grid = TempGrid::for_topology(&topology);
        assert_eq!(grid.server_count(), 8);
        assert_eq!(grid.gpu_count(), 64);
        assert!(!grid.is_empty());
        {
            let (gpu_c, mem_offsets) = grid.kernel_planes_mut();
            for (i, g) in gpu_c.iter_mut().enumerate() {
                *g = i as f64;
            }
            mem_offsets.fill(0.5);
        }
        // Per-server views are the right windows of the flat planes, with memory derived
        // as `gpu + offset`.
        let second = grid.server(ServerId::new(1));
        assert_eq!(second.len(), 8);
        assert!(!second.is_empty());
        assert_eq!(second.get(3).gpu.value(), 11.0);
        assert_eq!(second.gpu_c()[3], 11.0);
        assert_eq!(second.get(3).memory.value(), 11.5);
        assert_eq!(second.iter().count(), 8);
        assert_eq!(grid.get(GpuId::new(ServerId::new(1), 3)).memory.value(), 11.5);
        assert_eq!(grid.iter().count(), 64);
        assert_eq!(grid.gpu_plane().len(), 64);
        let servers: Vec<ServerId> = grid.iter_servers().map(|(s, _)| s).collect();
        assert_eq!(servers.len(), 8);
        assert_eq!(servers[7], ServerId::new(7));
        assert_eq!(grid.max_gpu().value(), 63.0);
        assert_eq!(grid.max_mem().value(), 63.5);
        // The serialized grid is its storage: the junction plane, the per-server memory
        // offsets and the prefix sums.
        let json = serde_json::to_string(&grid).unwrap();
        assert!(json.starts_with("{\"gpu_c\":[0,1,2,"), "{json}");
        assert!(json.contains("],\"mem_offset_c\":[0.5,0.5,"), "{json}");
        assert!(json.ends_with(",\"offsets\":[0,8,16,24,32,40,48,56,64]}"), "{json}");
        assert!(TempGrid::default().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let layout = LayoutConfig::small_test_cluster().build();
        let a = GpuThermalModel::for_layout(&layout, GpuThermalCoefficients::default(), 9);
        let b = GpuThermalModel::for_layout(&layout, GpuThermalCoefficients::default(), 9);
        assert_eq!(a, b);
        assert_eq!(a.server_count(), 8);
    }
}
