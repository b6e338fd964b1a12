//! VM arrival and lifetime generation.
//!
//! The evaluation replays a one-week VM arrival trace with a 50/50 IaaS/SaaS split over about
//! a thousand servers (§5.1). Fig. 12a shows that GPU VMs are long-lived — over 60 % run for
//! more than two weeks — so within any one week most of the population is already resident.
//! The generator therefore produces (1) an *initial population* that occupies a configurable
//! fraction of the cluster at time zero and (2) a stream of additional arrivals during the
//! simulated horizon, both with lifetimes drawn from a long-tailed distribution calibrated to
//! Fig. 12a.

use crate::endpoints::EndpointCatalog;
use crate::vm::{IaasCustomerId, Vm, VmId, VmKind};
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};

/// Configuration of the arrival generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Fraction of generated VMs that are SaaS (the paper's default evaluation mix is 0.5).
    pub saas_fraction: f64,
    /// Number of servers the initial population should occupy.
    pub initial_population: usize,
    /// Mean number of additional VM arrivals per day during the horizon.
    pub arrivals_per_day: f64,
    /// Number of distinct IaaS customers.
    pub iaas_customers: u64,
    /// Simulation horizon; arrivals are generated in `[0, horizon)`.
    pub horizon: SimTime,
}

impl ArrivalConfig {
    /// The paper's one-week evaluation shape for a cluster of `servers` servers.
    #[must_use]
    pub fn evaluation_week(servers: usize) -> Self {
        Self {
            saas_fraction: 0.5,
            initial_population: servers * 9 / 10,
            arrivals_per_day: (servers as f64 * 0.05).max(1.0),
            iaas_customers: 40,
            horizon: SimTime::from_days(7),
        }
    }
}

/// Generates VMs (initial population + arrivals) for one simulation run.
#[derive(Debug, Clone)]
pub struct VmArrivalGenerator {
    config: ArrivalConfig,
    rng: SimRng,
    next_id: u64,
}

impl VmArrivalGenerator {
    /// Creates a generator.
    #[must_use]
    pub fn new(config: ArrivalConfig, seed: u64) -> Self {
        Self {
            config,
            rng: SimRng::seed_from(seed).derive("vm-arrivals"),
            next_id: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// Draws a VM lifetime matching Fig. 12a: ≈20 % of VMs are short-lived (hours to a couple
    /// of days), the rest long-lived with more than 60 % exceeding two weeks.
    pub fn draw_lifetime(&mut self) -> SimDuration {
        let u = self.rng.uniform(0.0, 1.0);
        let days = if u < 0.2 {
            // Short-lived: 2 hours to 2 days.
            self.rng.uniform(2.0 / 24.0, 2.0)
        } else if u < 0.4 {
            // Medium: 2 days to 2 weeks.
            self.rng.uniform(2.0, 14.0)
        } else {
            // Long-lived: 2 weeks to 10 weeks.
            self.rng.uniform(14.0, 70.0)
        };
        SimDuration::from_minutes((days * 24.0 * 60.0).round().max(1.0) as u64)
    }

    /// Draws the kind of the next VM, spreading SaaS VMs across the catalog's endpoints
    /// proportionally to their VM demand.
    fn draw_kind(&mut self, catalog: &EndpointCatalog) -> VmKind {
        let is_saas = !catalog.is_empty() && self.rng.chance(self.config.saas_fraction);
        if is_saas {
            let weights: Vec<f64> = catalog
                .endpoints()
                .iter()
                .map(|e| e.vm_count.max(1) as f64)
                .collect();
            let idx = self.rng.weighted_index(&weights);
            VmKind::Saas {
                endpoint: catalog.endpoints()[idx].id,
            }
        } else {
            VmKind::Iaas {
                customer: IaasCustomerId(self.rng.next_u64() % self.config.iaas_customers),
            }
        }
    }

    fn next_vm(&mut self, arrival: SimTime, kind: VmKind, lifetime: SimDuration) -> Vm {
        let id = VmId(self.next_id);
        self.next_id += 1;
        Vm {
            id,
            kind,
            arrival,
            lifetime,
        }
    }

    /// Generates the initial resident population (arrival time zero, lifetimes long enough to
    /// outlive their draw even though part of it notionally elapsed before the simulation).
    pub fn initial_population(&mut self, catalog: &EndpointCatalog) -> Vec<Vm> {
        (0..self.config.initial_population)
            .map(|_| {
                let kind = self.draw_kind(catalog);
                let lifetime = self.draw_lifetime();
                self.next_vm(SimTime::ZERO, kind, lifetime)
            })
            .collect()
    }

    /// Generates the additional arrivals over the horizon as a Poisson process.
    pub fn arrivals(&mut self, catalog: &EndpointCatalog) -> Vec<Vm> {
        let horizon_days = self.config.horizon.as_days();
        let mean_total = self.config.arrivals_per_day * horizon_days;
        let count = self.rng.poisson(mean_total);
        let mut vms: Vec<Vm> = (0..count)
            .map(|_| {
                let minute = self
                    .rng
                    .uniform(0.0, self.config.horizon.as_minutes().max(1) as f64)
                    as u64;
                let kind = self.draw_kind(catalog);
                let lifetime = self.draw_lifetime();
                self.next_vm(SimTime::from_minutes(minute), kind, lifetime)
            })
            .collect();
        vms.sort_by_key(|vm| vm.arrival);
        vms
    }

    /// Generates the whole trace: initial population followed by the arrival stream.
    pub fn generate(&mut self, catalog: &EndpointCatalog) -> Vec<Vm> {
        let mut all = self.initial_population(catalog);
        all.extend(self.arrivals(catalog));
        all
    }
}

/// Deterministic weighted splitter for partitioning one arrival stream across sites.
///
/// Implements smooth weighted round-robin: each call adds every site's weight to its
/// running credit, picks the site with the highest credit (ties break toward the lowest
/// index), and charges the winner the total weight. Over any window the assignment counts
/// track the weights, the sequence is a pure function of the weights (no RNG), and with
/// equal weights it degenerates to plain round-robin starting at site 0 — the naive
/// geo-oblivious baseline a headroom-seeking fleet router is compared against.
#[derive(Debug, Clone)]
pub struct WeightedSplitter {
    weights: Vec<f64>,
    credit: Vec<f64>,
    total: f64,
}

impl WeightedSplitter {
    /// Creates a splitter over per-site weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, any weight is negative or non-finite, or all weights
    /// are zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "splitter needs at least one site");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        Self {
            weights: weights.to_vec(),
            credit: vec![0.0; weights.len()],
            total,
        }
    }

    /// Number of sites the splitter spreads over.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.weights.len()
    }

    /// The site receiving the next item.
    pub fn next_site(&mut self) -> usize {
        let mut best = 0usize;
        let mut best_credit = f64::NEG_INFINITY;
        for (site, (credit, weight)) in self.credit.iter_mut().zip(&self.weights).enumerate() {
            *credit += *weight;
            if *credit > best_credit {
                best_credit = *credit;
                best = site;
            }
        }
        self.credit[best] -= self.total;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> EndpointCatalog {
        EndpointCatalog::evaluation(10, 10.0, 42)
    }

    #[test]
    fn lifetimes_match_fig12a() {
        let mut generator = VmArrivalGenerator::new(ArrivalConfig::evaluation_week(1000), 1);
        let lifetimes: Vec<f64> = (0..5000)
            .map(|_| generator.draw_lifetime().as_days())
            .collect();
        let over_two_weeks =
            lifetimes.iter().filter(|&&d| d >= 14.0).count() as f64 / lifetimes.len() as f64;
        assert!(
            (0.55..0.70).contains(&over_two_weeks),
            "over 60 % of VMs should live more than two weeks, got {over_two_weeks}"
        );
        assert!(lifetimes.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn initial_population_has_requested_size_and_mix() {
        let config = ArrivalConfig::evaluation_week(1000);
        let mut generator = VmArrivalGenerator::new(config.clone(), 2);
        let population = generator.initial_population(&catalog());
        assert_eq!(population.len(), config.initial_population);
        let saas = population.iter().filter(|vm| vm.kind.is_saas()).count() as f64;
        let fraction = saas / population.len() as f64;
        assert!((fraction - 0.5).abs() < 0.05, "saas fraction {fraction}");
        assert!(population.iter().all(|vm| vm.arrival == SimTime::ZERO));
        // Ids are unique.
        let mut ids: Vec<u64> = population.iter().map(|vm| vm.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), population.len());
    }

    #[test]
    fn arrivals_are_sorted_and_within_horizon() {
        let config = ArrivalConfig::evaluation_week(1000);
        let mut generator = VmArrivalGenerator::new(config.clone(), 3);
        let arrivals = generator.arrivals(&catalog());
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(arrivals.iter().all(|vm| vm.arrival < config.horizon));
        // Roughly arrivals_per_day × 7 arrivals.
        let expected = config.arrivals_per_day * 7.0;
        assert!((arrivals.len() as f64 - expected).abs() < expected * 0.5);
    }

    #[test]
    fn saas_fraction_zero_and_one_are_respected() {
        let mut config = ArrivalConfig::evaluation_week(200);
        config.saas_fraction = 0.0;
        let mut generator = VmArrivalGenerator::new(config.clone(), 4);
        assert!(generator
            .initial_population(&catalog())
            .iter()
            .all(|vm| vm.kind.is_iaas()));
        config.saas_fraction = 1.0;
        let mut generator = VmArrivalGenerator::new(config, 4);
        assert!(generator
            .initial_population(&catalog())
            .iter()
            .all(|vm| vm.kind.is_saas()));
    }

    #[test]
    fn empty_catalog_forces_iaas() {
        let mut config = ArrivalConfig::evaluation_week(100);
        config.saas_fraction = 1.0;
        let mut generator = VmArrivalGenerator::new(config, 5);
        let empty = EndpointCatalog::from_endpoints(Vec::new());
        assert!(generator
            .initial_population(&empty)
            .iter()
            .all(|vm| vm.kind.is_iaas()));
    }

    #[test]
    fn deterministic_given_seed() {
        let config = ArrivalConfig::evaluation_week(300);
        let mut a = VmArrivalGenerator::new(config.clone(), 9);
        let mut b = VmArrivalGenerator::new(config, 9);
        assert_eq!(a.generate(&catalog()), b.generate(&catalog()));
    }

    #[test]
    fn equal_weights_split_round_robin_from_site_zero() {
        let mut splitter = WeightedSplitter::new(&[1.0, 1.0, 1.0]);
        let sites: Vec<usize> = (0..6).map(|_| splitter.next_site()).collect();
        assert_eq!(sites, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn weighted_split_tracks_the_weights() {
        let mut splitter = WeightedSplitter::new(&[3.0, 1.0]);
        let mut counts = [0usize; 2];
        for _ in 0..4000 {
            counts[splitter.next_site()] += 1;
        }
        assert_eq!(counts, [3000, 1000]);
        // A zero-weight site never receives anything.
        let mut skewed = WeightedSplitter::new(&[0.0, 1.0]);
        assert!((0..100).all(|_| skewed.next_site() == 1));
    }

    #[test]
    fn splitter_is_deterministic() {
        let mut a = WeightedSplitter::new(&[2.0, 1.0, 1.0]);
        let mut b = WeightedSplitter::new(&[2.0, 1.0, 1.0]);
        let seq_a: Vec<usize> = (0..64).map(|_| a.next_site()).collect();
        let seq_b: Vec<usize> = (0..64).map(|_| b.next_site()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    #[should_panic(expected = "at least one weight must be positive")]
    fn all_zero_weights_panic() {
        let _ = WeightedSplitter::new(&[0.0, 0.0]);
    }
}
