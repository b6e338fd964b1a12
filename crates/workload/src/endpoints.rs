//! SaaS endpoint catalog.
//!
//! The SaaS offering serves multiple LLM inference endpoints, each backed by a dedicated set
//! of VMs across which the load balancer routes requests (§3.2). Fig. 12b shows a heavy-tailed
//! endpoint-size distribution: half of all SaaS VMs belong to endpoints with more than 100
//! VMs. The evaluation (§5.1) uses 10 endpoints with 23–100 VMs each; the catalog supports
//! both shapes.

use llm_sim::config::InstanceConfig;
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use std::fmt;

/// Unique endpoint identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct EndpointId(pub u64);

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "endpoint-{}", self.0)
    }
}

/// One SaaS LLM-inference endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Endpoint {
    /// Unique id.
    pub id: EndpointId,
    /// Number of VMs (instances) the endpoint runs.
    pub vm_count: usize,
    /// Default serving configuration for the endpoint's instances.
    pub default_config: InstanceConfig,
    /// Peak aggregate request rate (requests per minute) at the top of the diurnal cycle.
    pub peak_requests_per_minute: f64,
    /// Quality SLO: the minimum average result quality (`[0, 1]`) the endpoint must deliver.
    pub quality_slo: f64,
    /// Number of distinct customers issuing requests to this endpoint.
    pub customers: u64,
}

impl Endpoint {
    /// Peak request rate per VM, assuming perfectly balanced routing.
    #[must_use]
    pub fn peak_rate_per_vm(&self) -> f64 {
        if self.vm_count == 0 {
            0.0
        } else {
            self.peak_requests_per_minute / self.vm_count as f64
        }
    }
}

/// A catalog of endpoints for one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointCatalog {
    endpoints: Vec<Endpoint>,
}

impl EndpointCatalog {
    /// The evaluation-scale catalog (§5.1): `count` endpoints with VM counts drawn uniformly
    /// between 23 and 100, each serving Llama-2 70B by default.
    ///
    /// `requests_per_vm_per_minute` sets the peak load level: the paper's instances are sized
    /// so that at peak load each VM serves on the order of tens of requests per minute.
    #[must_use]
    pub fn evaluation(count: usize, requests_per_vm_per_minute: f64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).derive("endpoints");
        let endpoints = (0..count)
            .map(|i| {
                let vm_count = rng.uniform_usize(23, 101);
                Endpoint {
                    id: EndpointId(i as u64),
                    vm_count,
                    default_config: InstanceConfig::default_70b(),
                    peak_requests_per_minute: requests_per_vm_per_minute * vm_count as f64,
                    quality_slo: 0.9,
                    customers: 200 + rng.uniform_usize(0, 2000) as u64,
                }
            })
            .collect();
        Self { endpoints }
    }

    /// A production-shaped catalog whose VM counts follow the heavy-tailed distribution of
    /// Fig. 12b (sizes drawn from a bounded Pareto between 2 and 500 VMs).
    #[must_use]
    pub fn production_shaped(count: usize, requests_per_vm_per_minute: f64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed).derive("endpoints-heavy");
        let endpoints = (0..count)
            .map(|i| {
                let vm_count = rng.bounded_pareto(2.0, 500.0, 0.8).round().max(1.0) as usize;
                Endpoint {
                    id: EndpointId(i as u64),
                    vm_count,
                    default_config: InstanceConfig::default_70b(),
                    peak_requests_per_minute: requests_per_vm_per_minute * vm_count as f64,
                    quality_slo: 0.9,
                    customers: 100 + rng.uniform_usize(0, 5000) as u64,
                }
            })
            .collect();
        Self { endpoints }
    }

    /// Builds a catalog from explicit endpoints.
    #[must_use]
    pub fn from_endpoints(endpoints: Vec<Endpoint>) -> Self {
        Self { endpoints }
    }

    /// All endpoints.
    #[must_use]
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Looks up an endpoint.
    #[must_use]
    pub fn get(&self, id: EndpointId) -> Option<&Endpoint> {
        self.endpoints.iter().find(|e| e.id == id)
    }

    /// Number of endpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Returns `true` if the catalog has no endpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Total VM demand across all endpoints.
    #[must_use]
    pub fn total_vms(&self) -> usize {
        self.endpoints.iter().map(|e| e.vm_count).sum()
    }

    /// Scales every endpoint's VM count by `factor` (at least one VM each), preserving the
    /// per-VM request rate. Used to fit the catalog to a target cluster size.
    #[must_use]
    pub fn scaled_to_total_vms(&self, target_total: usize) -> Self {
        let current = self.total_vms().max(1);
        let factor = target_total as f64 / current as f64;
        let endpoints = self
            .endpoints
            .iter()
            .map(|e| {
                let per_vm_rate = e.peak_rate_per_vm();
                let vm_count = ((e.vm_count as f64 * factor).round() as usize).max(1);
                Endpoint {
                    id: e.id,
                    vm_count,
                    default_config: e.default_config,
                    peak_requests_per_minute: per_vm_rate * vm_count as f64,
                    quality_slo: e.quality_slo,
                    customers: e.customers,
                }
            })
            .collect();
        Self { endpoints }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats;

    #[test]
    fn evaluation_catalog_matches_paper_shape() {
        let catalog = EndpointCatalog::evaluation(10, 10.0, 42);
        assert_eq!(catalog.len(), 10);
        assert!(!catalog.is_empty());
        for e in catalog.endpoints() {
            assert!((23..=100).contains(&e.vm_count), "vm count {}", e.vm_count);
            assert!((e.peak_requests_per_minute - 10.0 * e.vm_count as f64).abs() < 1e-9);
            assert!((e.peak_rate_per_vm() - 10.0).abs() < 1e-9);
            assert_eq!(e.quality_slo, 0.9);
        }
        assert_eq!(catalog.get(EndpointId(3)).unwrap().id, EndpointId(3));
        assert!(catalog.get(EndpointId(99)).is_none());
    }

    #[test]
    fn production_catalog_is_heavy_tailed() {
        let catalog = EndpointCatalog::production_shaped(300, 10.0, 7);
        let sizes: Vec<f64> = catalog
            .endpoints()
            .iter()
            .map(|e| e.vm_count as f64)
            .collect();
        let p50 = stats::percentile(&sizes, 50.0).unwrap();
        let max = stats::max(&sizes).unwrap();
        assert!(
            max > 8.0 * p50,
            "distribution should be heavy tailed: p50={p50} max={max}"
        );
        // Fig. 12b: a large share of all VMs belongs to big endpoints.
        let total: f64 = sizes.iter().sum();
        let in_big: f64 = sizes.iter().filter(|&&s| s >= 100.0).sum();
        assert!(
            in_big / total > 0.25,
            "big endpoints should own a large share of VMs"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = EndpointCatalog::evaluation(10, 10.0, 1);
        let b = EndpointCatalog::evaluation(10, 10.0, 1);
        let c = EndpointCatalog::evaluation(10, 10.0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scaling_preserves_per_vm_rate() {
        let catalog = EndpointCatalog::evaluation(10, 12.0, 3);
        let scaled = catalog.scaled_to_total_vms(40);
        assert!(
            scaled.total_vms() >= 10,
            "every endpoint keeps at least one VM"
        );
        assert!(scaled.total_vms() < catalog.total_vms());
        for e in scaled.endpoints() {
            assert!((e.peak_rate_per_vm() - 12.0).abs() < 1e-9);
            assert!(e.vm_count >= 1);
        }
    }

    #[test]
    fn empty_endpoint_rate_is_zero() {
        let e = Endpoint {
            id: EndpointId(0),
            vm_count: 0,
            default_config: InstanceConfig::default_70b(),
            peak_requests_per_minute: 50.0,
            quality_slo: 0.9,
            customers: 10,
        };
        assert_eq!(e.peak_rate_per_vm(), 0.0);
        assert_eq!(EndpointId(4).to_string(), "endpoint-4");
    }
}
