//! # tapas-repro — workspace root for the TAPAS reproduction
//!
//! This crate re-exports the workspace's public surface as a convenience prelude for the
//! examples and integration tests. The actual functionality lives in the member crates:
//!
//! * [`simkit`] — simulation substrate (units, time, statistics, regression, RNG).
//! * [`dc_sim`] — datacenter physics (topology, cooling, power, failures).
//! * [`llm_sim`] — LLM inference substrate (models, configurations, profiles, engine).
//! * [`workload`] — trace generators (VM arrivals, endpoints, diurnal load, prediction).
//! * [`tapas`] — the paper's contribution: placement, routing, instance configuration,
//!   emergency response and the policy matrix.
//! * [`cluster_sim`] — the end-to-end discrete-time cluster simulator and the experiment
//!   harnesses.
//!
//! ```
//! use tapas_repro::prelude::*;
//!
//! let report = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
//! assert!(report.peak_row_power_kw() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use cluster_sim;
pub use dc_sim;
pub use llm_sim;
pub use simkit;
pub use tapas;
pub use workload;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use cluster_sim::experiment::{
        ExperimentConfig, FleetConfig, GeoPolicy, RequestFabricConfig, SiteConfig,
    };
    pub use cluster_sim::fabric::{ArrivalBuffer, FabricGenerator, FabricRequest, RequestFabric};
    pub use cluster_sim::fleet::FleetSimulator;
    pub use cluster_sim::metrics::{
        FleetReport, LatencyHistogram, RequestMetrics, RunReport, SloThresholds,
    };
    pub use cluster_sim::scenario::generator::{generate, GeneratorConfig, IntensityTier};
    pub use cluster_sim::scenario::{
        energy_cost_usd, fleet_energy_cost_usd, ResolvedTimeline, Scenario, ScenarioBuilder,
        ScenarioError, ScenarioEvent, SiteSelector,
    };
    pub use cluster_sim::simulator::ClusterSimulator;
    pub use dc_sim::engine::{Datacenter, StepInput};
    pub use dc_sim::failures::FailureSchedule;
    pub use dc_sim::topology::{LayoutConfig, ServerSpec};
    pub use dc_sim::weather::Climate;
    pub use llm_sim::config::InstanceConfig;
    pub use llm_sim::hardware::GpuHardware;
    pub use llm_sim::profile::ConfigProfile;
    pub use llm_sim::batch::{BatchCompletion, BatchScheduler};
    pub use simkit::queue::EventQueue;
    pub use simkit::time::{SimDuration, SimTime};
    pub use simkit::units::{Celsius, Kilowatts, Watts};
    pub use tapas::policy::Policy;
    pub use tapas::profiles::ProfileStore;
    pub use workload::trace::{
        parse_csv, parse_jsonl, vm_arrivals_from_trace, TraceError, TraceRecord,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let config = ExperimentConfig::small_smoke_test();
        assert_eq!(config.policy, Policy::Baseline);
        let _ = Celsius::new(20.0);
        let _ = InstanceConfig::default_70b();
    }
}
