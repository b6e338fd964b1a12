//! Physical topology: servers, racks, rows, cold aisles and the hardware specifications of
//! the GPU servers they host.
//!
//! The paper studies datacenters arranged in cold aisles of two rows each, fed by AHUs
//! (Fig. 1). GPU racks are power-dense, so rows host fewer servers than in general-purpose
//! datacenters. [`LayoutConfig`] builds a [`Layout`] with the full parent/child structure and
//! the provisioned airflow/power budgets that Eq. (3) and Eq. (4) constrain.

use crate::ids::{AisleId, PduId, RackId, RowId, ServerId, UpsId};
use serde::{Deserialize, Serialize};
use simkit::units::{CubicFeetPerMinute, Kilowatts};

/// The GPU generation a server is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA DGX A100 class server (8 × A100).
    A100,
    /// NVIDIA DGX H100 class server (8 × H100).
    H100,
}

impl GpuModel {
    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GpuModel::A100 => "DGX-A100",
            GpuModel::H100 => "DGX-H100",
        }
    }
}

/// Hardware specification of a GPU server.
///
/// The defaults follow the figures the paper quotes: a DGX A100 has a server-level TDP of
/// 6.5 kW and moves ≈840 CFM at 80 % fan PWM; a DGX H100 has a TDP of 10.2 kW and ≈1105 CFM.
/// GPUs throttle at 85 °C.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// GPU generation.
    pub model: GpuModel,
    /// Number of GPUs per server (8 in both DGX variants).
    pub gpus_per_server: usize,
    /// Power drawn by an idle server (fans, CPUs, memory, storage still draw significant
    /// power, §2.2).
    pub idle_power: Kilowatts,
    /// Maximum (TDP) server power at full load.
    pub max_power: Kilowatts,
    /// Per-GPU maximum power draw.
    pub gpu_max_power: Kilowatts,
    /// Airflow consumed by an idle server.
    pub idle_airflow: CubicFeetPerMinute,
    /// Airflow consumed at full load (80 % PWM figure from the manufacturer specs).
    pub max_airflow: CubicFeetPerMinute,
    /// GPU junction temperature at which the hardware throttles.
    pub gpu_throttle_temp_c: f64,
    /// GPU memory temperature at which the hardware throttles.
    pub mem_throttle_temp_c: f64,
}

impl ServerSpec {
    /// Specification of a DGX A100 class server.
    #[must_use]
    pub fn dgx_a100() -> Self {
        Self {
            model: GpuModel::A100,
            gpus_per_server: 8,
            idle_power: Kilowatts::new(1.6),
            max_power: Kilowatts::new(6.5),
            gpu_max_power: Kilowatts::new(0.4),
            idle_airflow: CubicFeetPerMinute::new(420.0),
            max_airflow: CubicFeetPerMinute::new(840.0),
            gpu_throttle_temp_c: 85.0,
            mem_throttle_temp_c: 95.0,
        }
    }

    /// Specification of a DGX H100 class server.
    #[must_use]
    pub fn dgx_h100() -> Self {
        Self {
            model: GpuModel::H100,
            gpus_per_server: 8,
            idle_power: Kilowatts::new(2.2),
            max_power: Kilowatts::new(10.2),
            gpu_max_power: Kilowatts::new(0.7),
            idle_airflow: CubicFeetPerMinute::new(520.0),
            max_airflow: CubicFeetPerMinute::new(1105.0),
            gpu_throttle_temp_c: 85.0,
            mem_throttle_temp_c: 95.0,
        }
    }
}

/// One GPU server and its position in the physical hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Server {
    /// Server id (global index).
    pub id: ServerId,
    /// Containing rack.
    pub rack: RackId,
    /// Containing row.
    pub row: RowId,
    /// Containing cold aisle.
    pub aisle: AisleId,
    /// Vertical position in the rack (0 = bottom).
    pub height_in_rack: usize,
    /// Position of the rack within the row (0 = closest to the AHU end).
    pub rack_position_in_row: usize,
    /// Hardware specification.
    pub spec: ServerSpec,
}

/// One rack of servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rack {
    /// Rack id (global index).
    pub id: RackId,
    /// Containing row.
    pub row: RowId,
    /// Position within the row.
    pub position_in_row: usize,
    /// Servers hosted in this rack, bottom to top.
    pub servers: Vec<ServerId>,
}

/// One row of racks. A row is the unit of power budgeting (Eq. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row id.
    pub id: RowId,
    /// Containing aisle.
    pub aisle: AisleId,
    /// Racks in the row.
    pub racks: Vec<RackId>,
    /// Servers in the row.
    pub servers: Vec<ServerId>,
    /// Provisioned power budget for the row.
    pub power_budget: Kilowatts,
    /// PDU pair feeding this row.
    pub pdu: PduId,
}

/// One cold aisle: two rows sharing AHUs. An aisle is the unit of airflow budgeting (Eq. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aisle {
    /// Aisle id.
    pub id: AisleId,
    /// The rows (normally two) served by this aisle's AHUs.
    pub rows: Vec<RowId>,
    /// Servers drawing air from this aisle.
    pub servers: Vec<ServerId>,
    /// Provisioned AHU airflow for the aisle.
    pub airflow_provisioned: CubicFeetPerMinute,
    /// Number of AHUs serving the aisle (used for failure modelling: one AHU failing removes
    /// `1/ahu_count` of the provisioned airflow).
    pub ahu_count: usize,
}

/// A PDU pair in the power hierarchy, feeding one or more rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pdu {
    /// PDU id.
    pub id: PduId,
    /// Rows fed by this PDU pair.
    pub rows: Vec<RowId>,
    /// Parent UPS.
    pub ups: UpsId,
    /// Power budget of the PDU pair.
    pub power_budget: Kilowatts,
}

/// A UPS in the power hierarchy, feeding one or more PDU pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ups {
    /// UPS id.
    pub id: UpsId,
    /// PDU pairs fed by this UPS.
    pub pdus: Vec<PduId>,
    /// Power budget of the UPS.
    pub power_budget: Kilowatts,
}

/// The complete physical layout of a datacenter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layout {
    servers: Vec<Server>,
    racks: Vec<Rack>,
    rows: Vec<Row>,
    aisles: Vec<Aisle>,
    pdus: Vec<Pdu>,
    upses: Vec<Ups>,
    /// Datacenter-level power budget (at the ATS).
    datacenter_power_budget: Kilowatts,
}

impl Layout {
    /// All servers, indexed by [`ServerId::index`].
    #[must_use]
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// All racks.
    #[must_use]
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// All rows.
    #[must_use]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// All aisles.
    #[must_use]
    pub fn aisles(&self) -> &[Aisle] {
        &self.aisles
    }

    /// All PDU pairs.
    #[must_use]
    pub fn pdus(&self) -> &[Pdu] {
        &self.pdus
    }

    /// All UPSes.
    #[must_use]
    pub fn upses(&self) -> &[Ups] {
        &self.upses
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Looks up a server.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[must_use]
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.index()]
    }

    /// Looks up a row.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[must_use]
    pub fn row(&self, id: RowId) -> &Row {
        &self.rows[id.index()]
    }

    /// Looks up an aisle.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[must_use]
    pub fn aisle(&self, id: AisleId) -> &Aisle {
        &self.aisles[id.index()]
    }

    /// Datacenter-level power budget.
    #[must_use]
    pub fn datacenter_power_budget(&self) -> Kilowatts {
        self.datacenter_power_budget
    }

    /// Total GPU count across all servers.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.servers.iter().map(|s| s.spec.gpus_per_server).sum()
    }

    /// Returns the layout with every server's spec replaced by `f(server)` — the entry
    /// point for mixed fleets (e.g. H100 rows inside an A100 site) and for differential
    /// tests that need ragged GPU counts or mixed-spec rows, which exercise the physics
    /// engine's general (non-row-uniform) kernels.
    ///
    /// Structure (rows, aisles, power hierarchy) and the provisioned budgets are left as
    /// built; callers that change TDPs materially should build with matching provisioning
    /// fractions instead.
    #[must_use]
    pub fn map_server_specs(mut self, mut f: impl FnMut(&Server) -> ServerSpec) -> Self {
        for server in &mut self.servers {
            server.spec = f(server);
        }
        self
    }
}

/// A [`LayoutConfig`] field that [`LayoutConfig::check`] rejects.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutError {
    /// The offending field, e.g. `racks_per_row` or `server_spec.idle_power`.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
    /// What the field must be.
    pub expected: &'static str,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "layout field {} is {}, expected {}",
            self.field, self.value, self.expected
        )
    }
}

impl std::error::Error for LayoutError {}

/// Configuration used to construct a [`Layout`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutConfig {
    /// Number of cold aisles (each aisle has two rows).
    pub aisles: usize,
    /// Racks per row.
    pub racks_per_row: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Server hardware specification.
    pub server_spec: ServerSpec,
    /// Row power budget as a fraction of the row's aggregate server TDP. `1.0` means the row
    /// can sustain every server at TDP simultaneously (no oversubscription).
    pub row_power_provisioning: f64,
    /// Aisle airflow budget as a fraction of the aisle's aggregate maximum server airflow.
    pub aisle_airflow_provisioning: f64,
    /// PDU power budget as a fraction of the aggregate budget of its rows.
    pub pdu_power_provisioning: f64,
    /// UPS power budget as a fraction of the aggregate budget of its PDUs.
    pub ups_power_provisioning: f64,
    /// Number of PDU pairs fed by each UPS.
    pub pdus_per_ups: usize,
    /// AHUs per aisle (for failure granularity).
    pub ahus_per_aisle: usize,
}

impl LayoutConfig {
    /// A small A100 layout suitable for unit tests: 1 aisle × 2 rows × 2 racks × 2 servers.
    #[must_use]
    pub fn small_test_cluster() -> Self {
        Self {
            aisles: 1,
            racks_per_row: 2,
            servers_per_rack: 2,
            server_spec: ServerSpec::dgx_a100(),
            row_power_provisioning: 1.0,
            aisle_airflow_provisioning: 1.0,
            pdu_power_provisioning: 1.0,
            ups_power_provisioning: 1.0,
            pdus_per_ups: 2,
            ahus_per_aisle: 4,
        }
    }

    /// The two-row, 80-server A100 configuration of the paper's real-cluster experiment
    /// (§5.1, Fig. 18): one aisle, two rows, ten racks per row, four servers per rack.
    #[must_use]
    pub fn real_cluster_two_rows() -> Self {
        Self {
            aisles: 1,
            racks_per_row: 10,
            servers_per_rack: 4,
            server_spec: ServerSpec::dgx_a100(),
            row_power_provisioning: 0.85,
            aisle_airflow_provisioning: 0.9,
            pdu_power_provisioning: 1.0,
            ups_power_provisioning: 1.0,
            pdus_per_ups: 1,
            ahus_per_aisle: 4,
        }
    }

    /// A ~1000-server A100 datacenter comparable to the large-scale simulation of Fig. 19:
    /// 13 aisles × 2 rows × 10 racks × 4 servers = 1040 servers.
    #[must_use]
    pub fn production_datacenter() -> Self {
        Self {
            aisles: 13,
            racks_per_row: 10,
            servers_per_rack: 4,
            server_spec: ServerSpec::dgx_a100(),
            row_power_provisioning: 0.85,
            aisle_airflow_provisioning: 0.9,
            pdu_power_provisioning: 0.95,
            ups_power_provisioning: 0.95,
            pdus_per_ups: 3,
            ahus_per_aisle: 4,
        }
    }

    /// Total number of servers this configuration will produce.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.aisles * 2 * self.racks_per_row * self.servers_per_rack
    }

    /// Checks what [`LayoutConfig::build`] asserts and what the estimates built on the
    /// layout need: non-zero dimensions, `pdus_per_ups` and `ahus_per_aisle`, finite
    /// positive provisioning fractions, a non-zero GPU count, finite power, airflow and
    /// temperature specifications, and idle power and airflow at most their maxima.
    ///
    /// # Errors
    /// Returns the first offending field.
    pub fn check(&self) -> Result<(), LayoutError> {
        let error = |field, value, expected| {
            Err(LayoutError {
                field,
                value,
                expected,
            })
        };
        let counts = [
            ("aisles", self.aisles),
            ("racks_per_row", self.racks_per_row),
            ("servers_per_rack", self.servers_per_rack),
            ("pdus_per_ups", self.pdus_per_ups),
            ("ahus_per_aisle", self.ahus_per_aisle),
            (
                "server_spec.gpus_per_server",
                self.server_spec.gpus_per_server,
            ),
        ];
        if let Some(&(field, value)) = counts.iter().find(|(_, value)| *value == 0) {
            return error(field, value as f64, "non-zero");
        }
        let fractions = [
            ("row_power_provisioning", self.row_power_provisioning),
            (
                "aisle_airflow_provisioning",
                self.aisle_airflow_provisioning,
            ),
            ("pdu_power_provisioning", self.pdu_power_provisioning),
            ("ups_power_provisioning", self.ups_power_provisioning),
        ];
        // NaN must fail too, so test the accepting range rather than its negation.
        if let Some(&(field, value)) = fractions
            .iter()
            .find(|(_, value)| !(value.is_finite() && *value > 0.0))
        {
            return error(field, value, "finite and positive");
        }
        let spec = &self.server_spec;
        let specs = [
            ("server_spec.idle_power", spec.idle_power.value()),
            ("server_spec.max_power", spec.max_power.value()),
            ("server_spec.gpu_max_power", spec.gpu_max_power.value()),
            ("server_spec.idle_airflow", spec.idle_airflow.value()),
            ("server_spec.max_airflow", spec.max_airflow.value()),
            ("server_spec.gpu_throttle_temp_c", spec.gpu_throttle_temp_c),
            ("server_spec.mem_throttle_temp_c", spec.mem_throttle_temp_c),
        ];
        if let Some(&(field, value)) = specs.iter().find(|(_, value)| !value.is_finite()) {
            return error(field, value, "finite");
        }
        if spec.idle_power > spec.max_power {
            return error(
                "server_spec.idle_power",
                spec.idle_power.value(),
                "at most max_power",
            );
        }
        if spec.idle_airflow > spec.max_airflow {
            return error(
                "server_spec.idle_airflow",
                spec.idle_airflow.value(),
                "at most max_airflow",
            );
        }
        Ok(())
    }

    /// Builds the layout.
    ///
    /// # Panics
    /// Panics if any dimension is zero or any provisioning fraction is non-positive
    /// ([`LayoutConfig::check`] reports these, and more, as errors).
    #[must_use]
    pub fn build(&self) -> Layout {
        assert!(
            self.aisles > 0 && self.racks_per_row > 0 && self.servers_per_rack > 0,
            "layout dimensions must be non-zero"
        );
        assert!(
            self.row_power_provisioning > 0.0
                && self.aisle_airflow_provisioning > 0.0
                && self.pdu_power_provisioning > 0.0
                && self.ups_power_provisioning > 0.0,
            "provisioning fractions must be positive"
        );
        assert!(self.pdus_per_ups > 0, "pdus_per_ups must be non-zero");
        assert!(self.ahus_per_aisle > 0, "ahus_per_aisle must be non-zero");

        let mut servers = Vec::new();
        let mut racks = Vec::new();
        let mut rows = Vec::new();
        let mut aisles = Vec::new();
        let spec = self.server_spec;

        for aisle_idx in 0..self.aisles {
            let aisle_id = AisleId::new(aisle_idx);
            let mut aisle_rows = Vec::new();
            let mut aisle_servers = Vec::new();
            for row_in_aisle in 0..2 {
                let row_idx = aisle_idx * 2 + row_in_aisle;
                let row_id = RowId::new(row_idx);
                let mut row_racks = Vec::new();
                let mut row_servers = Vec::new();
                for rack_pos in 0..self.racks_per_row {
                    let rack_idx = row_idx * self.racks_per_row + rack_pos;
                    let rack_id = RackId::new(rack_idx);
                    let mut rack_servers = Vec::new();
                    for height in 0..self.servers_per_rack {
                        let server_id = ServerId::new(servers.len());
                        servers.push(Server {
                            id: server_id,
                            rack: rack_id,
                            row: row_id,
                            aisle: aisle_id,
                            height_in_rack: height,
                            rack_position_in_row: rack_pos,
                            spec,
                        });
                        rack_servers.push(server_id);
                        row_servers.push(server_id);
                        aisle_servers.push(server_id);
                    }
                    racks.push(Rack {
                        id: rack_id,
                        row: row_id,
                        position_in_row: rack_pos,
                        servers: rack_servers,
                    });
                    row_racks.push(rack_id);
                }
                let row_max_power: Kilowatts = row_servers.iter().map(|_| spec.max_power).sum();
                rows.push(Row {
                    id: row_id,
                    aisle: aisle_id,
                    racks: row_racks,
                    servers: row_servers,
                    power_budget: row_max_power * self.row_power_provisioning,
                    pdu: PduId::new(0), // patched below once PDUs are laid out
                });
                aisle_rows.push(row_id);
            }
            let aisle_max_airflow: CubicFeetPerMinute =
                aisle_servers.iter().map(|_| spec.max_airflow).sum();
            aisles.push(Aisle {
                id: aisle_id,
                rows: aisle_rows,
                servers: aisle_servers,
                airflow_provisioned: aisle_max_airflow * self.aisle_airflow_provisioning,
                ahu_count: self.ahus_per_aisle,
            });
        }

        // Power hierarchy: one PDU pair per aisle (i.e. per two rows), grouped under UPSes.
        let mut pdus = Vec::new();
        for aisle in &aisles {
            let pdu_id = PduId::new(pdus.len());
            let budget: Kilowatts = aisle
                .rows
                .iter()
                .map(|r| rows[r.index()].power_budget)
                .sum::<Kilowatts>()
                * self.pdu_power_provisioning;
            for row_id in &aisle.rows {
                rows[row_id.index()].pdu = pdu_id;
            }
            pdus.push(Pdu {
                id: pdu_id,
                rows: aisle.rows.clone(),
                ups: UpsId::new(0), // patched below
                power_budget: budget,
            });
        }

        let mut upses = Vec::new();
        for chunk in pdus.chunks_mut(self.pdus_per_ups) {
            let ups_id = UpsId::new(upses.len());
            let budget: Kilowatts = chunk.iter().map(|p| p.power_budget).sum::<Kilowatts>()
                * self.ups_power_provisioning;
            let mut members = Vec::new();
            for pdu in chunk.iter_mut() {
                pdu.ups = ups_id;
                members.push(pdu.id);
            }
            upses.push(Ups {
                id: ups_id,
                pdus: members,
                power_budget: budget,
            });
        }

        let datacenter_power_budget: Kilowatts = upses.iter().map(|u| u.power_budget).sum();

        Layout {
            servers,
            racks,
            rows,
            aisles,
            pdus,
            upses,
            datacenter_power_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_figures() {
        let a100 = ServerSpec::dgx_a100();
        assert_eq!(a100.gpus_per_server, 8);
        assert_eq!(a100.max_power.value(), 6.5);
        assert_eq!(a100.max_airflow.value(), 840.0);
        assert_eq!(a100.gpu_throttle_temp_c, 85.0);
        let h100 = ServerSpec::dgx_h100();
        assert_eq!(h100.max_power.value(), 10.2);
        assert_eq!(h100.max_airflow.value(), 1105.0);
        assert_eq!(GpuModel::A100.name(), "DGX-A100");
        assert_eq!(GpuModel::H100.name(), "DGX-H100");
    }

    #[test]
    fn small_layout_has_consistent_structure() {
        let cfg = LayoutConfig::small_test_cluster();
        let layout = cfg.build();
        assert_eq!(layout.server_count(), cfg.server_count());
        assert_eq!(layout.server_count(), 8);
        assert_eq!(layout.rows().len(), 2);
        assert_eq!(layout.aisles().len(), 1);
        assert_eq!(layout.racks().len(), 4);
        assert_eq!(layout.gpu_count(), 64);
        // Every server is listed exactly once in its row, rack and aisle.
        for server in layout.servers() {
            assert!(layout.row(server.row).servers.contains(&server.id));
            assert!(layout.aisle(server.aisle).servers.contains(&server.id));
            assert!(layout.racks()[server.rack.index()]
                .servers
                .contains(&server.id));
        }
        // Row -> PDU -> UPS chains are consistent.
        for row in layout.rows() {
            let pdu = &layout.pdus()[row.pdu.index()];
            assert!(pdu.rows.contains(&row.id));
            let ups = &layout.upses()[pdu.ups.index()];
            assert!(ups.pdus.contains(&pdu.id));
        }
    }

    #[test]
    fn real_cluster_matches_paper_scale() {
        let layout = LayoutConfig::real_cluster_two_rows().build();
        assert_eq!(layout.server_count(), 80);
        assert_eq!(layout.rows().len(), 2);
        assert_eq!(layout.rows()[0].servers.len(), 40);
    }

    #[test]
    fn production_datacenter_is_about_a_thousand_servers() {
        let cfg = LayoutConfig::production_datacenter();
        assert_eq!(cfg.server_count(), 1040);
        let layout = cfg.build();
        assert_eq!(layout.server_count(), 1040);
        assert_eq!(layout.aisles().len(), 13);
        assert_eq!(layout.upses().len(), 5); // 13 PDUs in groups of 3 -> 5 UPSes
    }

    #[test]
    fn budgets_scale_with_provisioning_fractions() {
        let mut cfg = LayoutConfig::small_test_cluster();
        cfg.row_power_provisioning = 0.5;
        let layout = cfg.build();
        let row = &layout.rows()[0];
        let expected = Kilowatts::new(4.0 * 6.5 * 0.5);
        assert!((row.power_budget.value() - expected.value()).abs() < 1e-9);
        let aisle = &layout.aisles()[0];
        assert!((aisle.airflow_provisioned.value() - 8.0 * 840.0).abs() < 1e-9);
    }

    #[test]
    fn total_max_power_is_sum_of_tdps() {
        let layout = LayoutConfig::small_test_cluster().build();
        let tdp_sum: Kilowatts = layout.servers().iter().map(|s| s.spec.max_power).sum();
        assert!((tdp_sum.value() - 8.0 * 6.5).abs() < 1e-9);
        assert!(layout.datacenter_power_budget().value() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_panics() {
        let mut cfg = LayoutConfig::small_test_cluster();
        cfg.racks_per_row = 0;
        let _ = cfg.build();
    }

    #[test]
    #[should_panic(expected = "provisioning fractions must be positive")]
    fn zero_provisioning_panics() {
        let mut cfg = LayoutConfig::small_test_cluster();
        cfg.row_power_provisioning = 0.0;
        let _ = cfg.build();
    }

    #[test]
    fn check_names_the_offending_field() {
        assert_eq!(LayoutConfig::small_test_cluster().check(), Ok(()));
        assert_eq!(LayoutConfig::production_datacenter().check(), Ok(()));
        let field = |mutate: &dyn Fn(&mut LayoutConfig)| {
            let mut cfg = LayoutConfig::small_test_cluster();
            mutate(&mut cfg);
            cfg.check().map_err(|e| e.field)
        };
        assert_eq!(field(&|c| c.aisles = 0), Err("aisles"));
        assert_eq!(field(&|c| c.racks_per_row = 0), Err("racks_per_row"));
        assert_eq!(field(&|c| c.servers_per_rack = 0), Err("servers_per_rack"));
        assert_eq!(field(&|c| c.pdus_per_ups = 0), Err("pdus_per_ups"));
        assert_eq!(field(&|c| c.ahus_per_aisle = 0), Err("ahus_per_aisle"));
        assert_eq!(
            field(&|c| c.server_spec.gpus_per_server = 0),
            Err("server_spec.gpus_per_server")
        );
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                field(&|c| c.row_power_provisioning = bad),
                Err("row_power_provisioning")
            );
            assert_eq!(
                field(&|c| c.aisle_airflow_provisioning = bad),
                Err("aisle_airflow_provisioning")
            );
            assert_eq!(
                field(&|c| c.pdu_power_provisioning = bad),
                Err("pdu_power_provisioning")
            );
            assert_eq!(
                field(&|c| c.ups_power_provisioning = bad),
                Err("ups_power_provisioning")
            );
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let kw = Kilowatts::new(bad);
            let cfm = CubicFeetPerMinute::new(bad);
            assert_eq!(
                field(&|c| c.server_spec.idle_power = kw),
                Err("server_spec.idle_power")
            );
            assert_eq!(
                field(&|c| c.server_spec.max_power = kw),
                Err("server_spec.max_power")
            );
            assert_eq!(
                field(&|c| c.server_spec.gpu_max_power = kw),
                Err("server_spec.gpu_max_power")
            );
            assert_eq!(
                field(&|c| c.server_spec.idle_airflow = cfm),
                Err("server_spec.idle_airflow")
            );
            assert_eq!(
                field(&|c| c.server_spec.max_airflow = cfm),
                Err("server_spec.max_airflow")
            );
            assert_eq!(
                field(&|c| c.server_spec.gpu_throttle_temp_c = bad),
                Err("server_spec.gpu_throttle_temp_c")
            );
            assert_eq!(
                field(&|c| c.server_spec.mem_throttle_temp_c = bad),
                Err("server_spec.mem_throttle_temp_c")
            );
        }
        // Idle above the maximum: negative maxima included.
        assert_eq!(
            field(&|c| c.server_spec.idle_power = Kilowatts::new(7.0)),
            Err("server_spec.idle_power")
        );
        assert_eq!(
            field(&|c| c.server_spec.max_airflow = CubicFeetPerMinute::new(-840.0)),
            Err("server_spec.idle_airflow")
        );
        let error = LayoutConfig {
            aisles: 0,
            ..LayoutConfig::small_test_cluster()
        }
        .check();
        assert_eq!(
            error.unwrap_err().to_string(),
            "layout field aisles is 0, expected non-zero"
        );
    }

    #[test]
    fn spatial_positions_are_recorded() {
        let layout = LayoutConfig::small_test_cluster().build();
        let last = layout.server(ServerId::new(7));
        assert_eq!(last.height_in_rack, 1);
        assert_eq!(last.rack_position_in_row, 1);
        assert_eq!(last.row.index(), 1);
        assert_eq!(last.aisle.index(), 0);
    }
}
