//! The random-placement study of Fig. 11.
//!
//! §3.1 deploys 80 VMs across two rows and evaluates 100 000 random placements: the worst
//! placement exceeds the 85 °C GPU limit and draws 27 % more peak row power than the best,
//! and maximum temperature and peak power are uncorrelated across placements — the
//! motivation for considering both dimensions when placing VMs.

use dc_sim::engine::{ActivityPlanes, Datacenter, StepInput};
use dc_sim::failures::FailureState;
use dc_sim::topology::LayoutConfig;
use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::units::Celsius;

/// Result of evaluating one random placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementSample {
    /// Hottest GPU temperature across the cluster.
    pub max_temp_c: f64,
    /// Peak row power.
    pub peak_row_power_kw: f64,
}

/// The study configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementStudy {
    /// Number of VMs to place (the paper uses 80 across two rows).
    pub vm_count: usize,
    /// Number of random placements to evaluate.
    pub samples: usize,
    /// Outside temperature at which placements are evaluated.
    pub outside_temp_c: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for PlacementStudy {
    fn default() -> Self {
        Self {
            vm_count: 60,
            samples: 1000,
            outside_temp_c: 32.0,
            seed: 42,
        }
    }
}

impl PlacementStudy {
    /// Runs the study on the two-row, 80-server cluster of the paper.
    ///
    /// Each sample places `vm_count` busy VMs (with heterogeneous loads) on random servers
    /// and evaluates the resulting peak temperature and row power at a peak-load instant.
    #[must_use]
    pub fn run(&self) -> Vec<PlacementSample> {
        let layout = LayoutConfig::real_cluster_two_rows().build();
        let dc = Datacenter::new(layout, self.seed);
        let mut rng = SimRng::seed_from(self.seed).derive("placement-study");
        let server_count = dc.layout().server_count();
        let vm_count = self.vm_count.min(server_count);

        // Heterogeneous per-VM loads: some VMs run hot, some are light.
        let vm_loads: Vec<f64> = (0..vm_count).map(|_| rng.uniform(0.45, 1.0)).collect();

        (0..self.samples)
            .map(|_| {
                let mut servers: Vec<usize> = (0..server_count).collect();
                rng.shuffle(&mut servers);
                let mut activity = ActivityPlanes::idle_for(dc.layout());
                for (vm, &server) in vm_loads.iter().zip(servers.iter()) {
                    activity.set_uniform(server, *vm);
                }
                let outcome = dc.evaluate(&StepInput {
                    outside_temp: Celsius::new(self.outside_temp_c),
                    activity,
                    failures: FailureState::healthy(),
                    power_cap: 1.0,
                });
                PlacementSample {
                    max_temp_c: outcome.max_gpu_temp().value(),
                    peak_row_power_kw: outcome.peak_row_power().value(),
                }
            })
            .collect()
    }

    /// Pearson correlation between maximum temperature and peak power across samples.
    #[must_use]
    pub fn temperature_power_correlation(samples: &[PlacementSample]) -> f64 {
        if samples.len() < 2 {
            return 0.0;
        }
        let temps: Vec<f64> = samples.iter().map(|s| s.max_temp_c).collect();
        let powers: Vec<f64> = samples.iter().map(|s| s.peak_row_power_kw).collect();
        let mt = simkit::stats::mean(&temps).expect("non-empty");
        let mp = simkit::stats::mean(&powers).expect("non-empty");
        let cov: f64 = temps
            .iter()
            .zip(&powers)
            .map(|(t, p)| (t - mt) * (p - mp))
            .sum();
        let vt: f64 = temps.iter().map(|t| (t - mt) * (t - mt)).sum();
        let vp: f64 = powers.iter().map(|p| (p - mp) * (p - mp)).sum();
        if vt <= 0.0 || vp <= 0.0 {
            0.0
        } else {
            cov / (vt.sqrt() * vp.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats;

    fn samples() -> Vec<PlacementSample> {
        PlacementStudy {
            vm_count: 60,
            samples: 120,
            outside_temp_c: 32.0,
            seed: 7,
        }
        .run()
    }

    #[test]
    fn placement_spread_matches_fig11_shape() {
        let samples = samples();
        assert_eq!(samples.len(), 120);
        let temps: Vec<f64> = samples.iter().map(|s| s.max_temp_c).collect();
        let powers: Vec<f64> = samples.iter().map(|s| s.peak_row_power_kw).collect();
        // Placements differ in peak temperature and peak power.
        let temp_spread = stats::max(&temps).unwrap() - stats::min(&temps).unwrap();
        let power_spread = (stats::max(&powers).unwrap() - stats::min(&powers).unwrap())
            / stats::min(&powers).unwrap();
        assert!(temp_spread > 1.0, "temperature spread {temp_spread}");
        assert!(power_spread > 0.05, "relative power spread {power_spread}");
        // Typical placements sit in a plausible GPU temperature range.
        let p50 = stats::percentile(&temps, 50.0).unwrap();
        assert!((60.0..86.0).contains(&p50), "median peak temperature {p50}");
    }

    #[test]
    fn temperature_and_power_are_weakly_correlated() {
        let samples = samples();
        let corr = PlacementStudy::temperature_power_correlation(&samples);
        assert!(
            corr.abs() < 0.5,
            "Fig. 11b: placements show no strong correlation, got {corr}"
        );
        assert_eq!(PlacementStudy::temperature_power_correlation(&[]), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = PlacementStudy {
            samples: 10,
            ..PlacementStudy::default()
        }
        .run();
        let b = PlacementStudy {
            samples: 10,
            ..PlacementStudy::default()
        }
        .run();
        assert_eq!(a, b);
    }
}
