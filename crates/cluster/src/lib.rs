//! # cluster-sim — end-to-end cluster simulator for the TAPAS reproduction
//!
//! This crate wires the substrates together into the discrete-time simulator the paper uses
//! for its evaluation (§5.1): the datacenter physics engine (`dc-sim`), the LLM profiles and
//! engine (`llm-sim`), the workload generators (`workload`) and the TAPAS policies (`tapas`).
//!
//! * [`experiment`] — experiment configuration: cluster size, policy, IaaS/SaaS mix,
//!   oversubscription level, climate, duration and step, plus the multi-datacenter
//!   [`experiment::FleetConfig`] (per-site layout/climate/seed and the geo placement
//!   policy). Configurations compose a [`scenario::Scenario`] for everything episodic.
//! * [`scenario`] — the typed, time-indexed event timeline (weather episodes, grid-price
//!   curves, infrastructure failures, demand shaping) with per-site targeting, a fluent
//!   [`scenario::ScenarioBuilder`], typed [`scenario::ScenarioError`] validation, and
//!   dense per-step resolution ([`scenario::ResolvedTimeline`]).
//! * [`simulator`] — one datacenter cell's step: VM arrivals/retirements and placement,
//!   endpoint request routing, instance configuration, IaaS load replay, physics
//!   evaluation and throttling/capping bookkeeping.
//! * [`fleet`] — the run loop: N datacenter cells under distinct climates, with geo-aware
//!   arrival splitting (a single-site run is a pinned one-site fleet).
//! * [`fabric`] — the opt-in request fabric: an event-timestamped (millisecond) fleet-wide
//!   inference-request stream, geo-routed per request and admitted into per-endpoint
//!   continuous-batching schedulers under KV-cache occupancy constraints, yielding
//!   per-request TTFT/TBT histograms and SLO attainment curves.
//! * [`metrics`] — per-run report: time series of maximum GPU temperature and peak row power,
//!   event counts, capped-time fractions, SLO attainment and average result quality;
//!   fleet-wide aggregation in [`metrics::FleetReport`].
//! * [`placement_study`] — the random-placement study of Fig. 11.
//! * [`oversubscription`] — the oversubscription sweep of Fig. 21.
//! * [`emergency`] — the failure-management comparison of Table 2.
//!
//! # Example
//!
//! ```
//! use cluster_sim::experiment::ExperimentConfig;
//! use cluster_sim::simulator::ClusterSimulator;
//! use tapas::policy::Policy;
//!
//! let mut config = ExperimentConfig::small_smoke_test();
//! config.policy = Policy::Tapas;
//! let report = ClusterSimulator::new(config).run();
//! assert!(report.max_gpu_temp.peak().unwrap() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod emergency;
pub mod experiment;
pub mod fabric;
pub mod fleet;
pub mod metrics;
pub mod oversubscription;
pub mod placement_study;
pub mod scenario;
pub mod simulator;

pub use experiment::{ExperimentConfig, FleetConfig, GeoPolicy, RequestFabricConfig, SiteConfig};
pub use fabric::{ArrivalBuffer, FabricGenerator, FabricRequest, RequestFabric};
pub use fleet::FleetSimulator;
pub use metrics::{FleetReport, LatencyHistogram, RequestMetrics, RunReport};
pub use scenario::{
    ResolvedTimeline, Scenario, ScenarioBuilder, ScenarioError, ScenarioEvent, SiteSelector,
};
pub use simulator::ClusterSimulator;
