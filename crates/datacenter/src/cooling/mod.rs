//! Air-cooling model.
//!
//! The cooling chain the paper describes (§2.1) is: outside air → datacenter cooling devices →
//! AHUs blow cold air into the contained cold aisle → server fans pull the air through the
//! chassis (over the GPUs) → hot air exhausts into the hot aisle → cooling devices recool it.
//!
//! Three sub-models cover the chain:
//!
//! * [`inlet`] — the server inlet temperature as a function of outside temperature, datacenter
//!   load and spatial position (Eq. 1, Fig. 3–5).
//! * [`gpu`] — the per-GPU (and GPU-memory) temperature as a function of inlet temperature and
//!   GPU power (Eq. 2, Fig. 7–9), including per-slot layout offsets and process variation.
//! * [`airflow`] — server fan airflow as a function of load and the aisle-level AHU
//!   provisioning constraint (Eq. 3), plus the heat-recirculation penalty when it is violated.

pub mod airflow;
pub mod gpu;
pub mod inlet;

pub use airflow::{AirflowModel, AisleAirflowAssessment};
pub use gpu::{GpuTemperatures, GpuThermalModel, ServerTemps, TempGrid};
pub use inlet::InletModel;
