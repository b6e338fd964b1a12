//! Electrical power model.
//!
//! * [`server`] — server power as a polynomial of GPU load with a significant idle floor
//!   (§2.2: even idle GPU servers draw substantial power for fans, CPUs, memory and storage).
//! * [`hierarchy`] — the three-level power delivery hierarchy (rows → PDU pairs → UPS → ATS)
//!   with per-level budgets, utilization assessment and proportional power capping when a
//!   level exceeds its budget (Eq. 4), including the reduced capacity that follows a UPS
//!   failure (§5.4 uses 75 %).

pub mod hierarchy;
pub mod server;

pub use hierarchy::{
    CapacityState, CappingDirective, LevelUtilization, PowerAssessment, PowerHierarchy,
};
pub use server::ServerPowerModel;
