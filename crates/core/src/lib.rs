//! # tapas — thermal- and power-aware scheduling for LLM inference clusters
//!
//! This crate is the reproduction of the paper's contribution: the TAPAS framework (§4).
//! TAPAS extends a conventional cloud LLM-inference cluster with three thermal- and
//! power-aware mechanisms, all driven by offline-profiled models and weekly-refined
//! predictions:
//!
//! 1. **Workload placement** ([`placement`]) — the per-cluster VM allocator filters out
//!    aisles/rows whose predicted peak airflow/power a new VM would violate, steers IaaS VMs
//!    to cooler servers and SaaS VMs to warmer servers, and balances the IaaS/SaaS mix per
//!    row.
//! 2. **Request routing** ([`routing`]) — the per-endpoint load balancer avoids instances
//!    whose server, row or aisle is at risk of a thermal, power or airflow violation, then
//!    applies KV-affinity / energy-concentration / load-spread ordering.
//! 3. **Instance configuration** ([`configurator`]) — the per-VM controller translates
//!    thermal and power headroom into per-instance budgets and walks the profiled Pareto
//!    frontier (GPU frequency, batch size, parallelism, quantization, model size) to maximize
//!    goodput within them, treating model-quality-affecting changes as the last resort.
//!
//! Supporting modules: [`profiles`] (the offline profiling store the three mechanisms
//! consult), [`state`] (cluster occupancy bookkeeping), [`emergency`] (cooling/power failure
//! response), [`geo`] (the fleet-level site selector that steers VM arrivals across
//! datacenters by power headroom and thermal slack), and [`policy`] (the Baseline / Place /
//! Route / Config ablation matrix of §5.2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod configurator;
pub mod emergency;
pub mod geo;
pub mod placement;
pub mod policy;
pub mod profiles;
pub mod routing;
pub mod state;

pub use configurator::{ConfigDecision, InstanceConfigurator, InstanceLimits};
pub use emergency::{EmergencyPlan, EmergencyResponder};
pub use geo::{GeoConfig, GeoPlacement, SiteSignals};
pub use placement::{PlacementPlanner, PlacementRequest, TapasPlacement};
pub use policy::Policy;
pub use profiles::{ProfileStore, ServerProfile};
pub use routing::{
    BaselineRouter, CandidateView, PreparedRoutingContext, RecentIndex, RecentWindow, RouteKeys,
    RouterScratch, RoutingContext, TapasRouter,
};
pub use state::{ClusterState, PlacedVm, VmSlotMap};
