//! # dc-sim — datacenter substrate for the TAPAS reproduction
//!
//! This crate models the physical infrastructure that §2 of the paper characterizes:
//!
//! * [`topology`] — the physical hierarchy: datacenter → cold aisles (each served by AHUs and
//!   containing two rows) → rows → racks → GPU servers → 8 GPUs per server, together with the
//!   server hardware specifications (DGX A100 / DGX H100).
//! * [`weather`] — outside air temperature as a function of time for different climates.
//! * [`cooling`] — the air-cooling model: server inlet temperature (Eq. 1), per-GPU
//!   temperature (Eq. 2), server fan airflow and aisle AHU provisioning (Eq. 3), and heat
//!   recirculation when an aisle's airflow demand exceeds its provisioning.
//! * [`power`] — the electrical model: server power as a polynomial of GPU load, and the
//!   three-level power-delivery hierarchy (rows → PDU pairs → UPS → ATS) with budgets,
//!   redundancy, and power capping (Eq. 4).
//! * [`failures`] — cooling and power failure injection (AHU failure, cooling-device failure,
//!   UPS failure) with the capacity reductions the paper uses in §5.4 (90 % cooling, 75 %
//!   power).
//! * [`index`] — frozen topology ordinals ([`TopologyIndex`] handles, one per datacenter)
//!   and the dense id-keyed telemetry containers ([`OrdinalMap`]) every per-step shape is
//!   built on.
//! * [`engine`] — the per-step evaluation pipeline that turns one activity record per
//!   server (how many GPUs run, at what utilization and frequency) into temperatures, aggregate powers, violations and capping directives, built on
//!   structure-of-arrays, row-batched, branch-free kernels.
//! * [`kernel_reference`] — the retained scalar reference implementation the batched
//!   kernels are pinned bitwise-equal to (the engine's FP-order contract, executable).
//!
//! The crate is purely a *physics* substrate: it knows nothing about VMs, LLMs or policies.
//! Those live in the `workload`, `llm-sim` and `tapas` crates.
//!
//! # Example
//!
//! ```
//! use dc_sim::topology::LayoutConfig;
//! use dc_sim::engine::{Datacenter, StepInput};
//! use simkit::units::Celsius;
//!
//! let layout = LayoutConfig::small_test_cluster().build();
//! let mut dc = Datacenter::new(layout, 42);
//! let idle = StepInput::idle(dc.layout(), Celsius::new(20.0));
//! let outcome = dc.evaluate(&idle);
//! assert!(outcome.max_gpu_temp().value() < 60.0, "idle cluster should be cool");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cooling;
pub mod engine;
pub mod failures;
pub mod ids;
pub mod index;
pub mod kernel_reference;
pub mod power;
pub mod topology;
pub mod weather;

pub use engine::{Datacenter, StepInput, StepOutcome};
pub use ids::{AisleId, GpuId, RackId, RowId, ServerId};
pub use index::{OrdinalMap, TopologyIndex, TopologyOrdinal};
pub use topology::{GpuModel, Layout, LayoutConfig, LayoutError, ServerSpec};
pub use weather::{Climate, WeatherModel};
