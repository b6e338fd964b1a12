//! The temperature/power vs goodput Pareto frontier (Fig. 16).
//!
//! Fig. 16 plots every profiled configuration as normalized temperature and power (lower is
//! better) against normalized goodput (higher is better), grouped by model size. Each model
//! has a Pareto frontier of configurations that minimize temperature/power with minimal
//! goodput loss. TAPAS's instance configurator searches the whole sweep through its own
//! selection index (`tapas::configurator`); this module only draws the figure.
//!
//! Because GPU temperature is (to first order) linear in per-GPU power at a fixed inlet
//! temperature (Eq. 2), the per-GPU power of the hottest phase is used as the temperature
//! proxy, and the blended server power as the power axis.

use crate::model::ModelSize;
use crate::profile::ConfigProfile;
use serde::{Deserialize, Serialize};

/// One point of the trade-off space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The profiled configuration.
    pub profile: ConfigProfile,
    /// Temperature proxy: per-GPU power of the hottest phase, in watts.
    pub temp_proxy_w: f64,
    /// Server power (blended 30 % prefill / 70 % decode), in kilowatts.
    pub server_power_kw: f64,
    /// Goodput in tokens/s.
    pub goodput: f64,
}

impl ParetoPoint {
    /// Builds the point for a profile.
    #[must_use]
    pub fn from_profile(profile: ConfigProfile) -> Self {
        let temp_proxy_w = profile
            .prefill
            .gpu_power
            .value()
            .max(profile.decode.gpu_power.value());
        Self {
            profile,
            temp_proxy_w,
            server_power_kw: profile.blended_server_power(0.7).value(),
            goodput: profile.goodput_tokens_per_s,
        }
    }

    /// Returns `true` if `other` dominates `self`: at least as good on every axis and strictly
    /// better on at least one (lower temperature proxy, lower power, higher goodput).
    #[must_use]
    pub fn is_dominated_by(&self, other: &ParetoPoint) -> bool {
        let no_worse = other.temp_proxy_w <= self.temp_proxy_w
            && other.server_power_kw <= self.server_power_kw
            && other.goodput >= self.goodput;
        let strictly_better = other.temp_proxy_w < self.temp_proxy_w
            || other.server_power_kw < self.server_power_kw
            || other.goodput > self.goodput;
        no_worse && strictly_better
    }
}

/// The Pareto-optimal subset of a configuration sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoFrontier {
    points: Vec<ParetoPoint>,
}

impl ParetoFrontier {
    /// Computes the frontier over a set of profiles.
    #[must_use]
    pub fn compute(profiles: &[ConfigProfile]) -> Self {
        let candidates: Vec<ParetoPoint> = profiles
            .iter()
            .copied()
            .map(ParetoPoint::from_profile)
            .collect();
        let mut points: Vec<ParetoPoint> = candidates
            .iter()
            .filter(|p| !candidates.iter().any(|q| p.is_dominated_by(q)))
            .copied()
            .collect();
        points.sort_by(|a, b| {
            b.goodput
                .partial_cmp(&a.goodput)
                .expect("goodput is finite")
        });
        Self { points }
    }

    /// Computes the frontier restricted to one model size (matching Fig. 16's per-model
    /// frontiers).
    #[must_use]
    pub fn for_model(profiles: &[ConfigProfile], size: ModelSize) -> Self {
        let filtered: Vec<ConfigProfile> = profiles
            .iter()
            .filter(|p| p.config.variant.size == size)
            .copied()
            .collect();
        Self::compute(&filtered)
    }

    /// Frontier points, sorted by descending goodput.
    #[must_use]
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of frontier points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the frontier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InstanceConfig;
    use crate::hardware::GpuHardware;
    use crate::model::ModelSize;
    use crate::profile::ConfigProfile;

    fn sweep() -> Vec<ConfigProfile> {
        ConfigProfile::sweep(&GpuHardware::a100())
    }

    #[test]
    fn frontier_is_nonempty_and_undominated() {
        let profiles = sweep();
        let frontier = ParetoFrontier::compute(&profiles);
        assert!(!frontier.is_empty());
        assert!(frontier.len() < profiles.len());
        // No frontier point dominates another frontier point.
        for a in frontier.points() {
            for b in frontier.points() {
                assert!(!a.is_dominated_by(b) || a == b);
            }
        }
        // Points are sorted by descending goodput.
        assert!(frontier
            .points()
            .windows(2)
            .all(|w| w[0].goodput >= w[1].goodput));
    }

    #[test]
    fn every_profile_is_dominated_by_or_on_the_frontier() {
        let profiles = sweep();
        let frontier = ParetoFrontier::compute(&profiles);
        for p in profiles.iter().copied().map(ParetoPoint::from_profile) {
            let on_frontier = frontier
                .points()
                .iter()
                .any(|f| f.profile.config == p.profile.config);
            let dominated = frontier.points().iter().any(|f| p.is_dominated_by(f));
            assert!(on_frontier || dominated);
        }
    }

    #[test]
    fn per_model_frontiers_only_contain_that_model() {
        let profiles = sweep();
        for size in ModelSize::ALL {
            let frontier = ParetoFrontier::for_model(&profiles, size);
            assert!(!frontier.is_empty());
            assert!(frontier
                .points()
                .iter()
                .all(|p| p.profile.config.variant.size == size));
        }
    }

    #[test]
    fn smaller_models_reach_lower_power_on_their_frontier() {
        // Fig. 16: the 7B cloud reaches at least as low a power floor as the 70B cloud and
        // extends to much higher goodput.
        let profiles = sweep();
        let f70 = ParetoFrontier::for_model(&profiles, ModelSize::Llama2_70B);
        let f7 = ParetoFrontier::for_model(&profiles, ModelSize::Llama2_7B);
        let min_power_70 = f70
            .points()
            .iter()
            .map(|p| p.server_power_kw)
            .fold(f64::MAX, f64::min);
        let min_power_7 = f7
            .points()
            .iter()
            .map(|p| p.server_power_kw)
            .fold(f64::MAX, f64::min);
        assert!(min_power_7 <= min_power_70 + 1e-9);
        let max_goodput_70 = f70.points().iter().map(|p| p.goodput).fold(0.0, f64::max);
        let max_goodput_7 = f7.points().iter().map(|p| p.goodput).fold(0.0, f64::max);
        assert!(max_goodput_7 > 2.0 * max_goodput_70);
    }

    #[test]
    fn quality_floor_excludes_small_models() {
        // The smaller models dominate on power and goodput, so every point on the combined
        // frontier above a high quality floor is a 70B point, and the 70B frontier has one.
        let profiles = sweep();
        let high_quality = |frontier: &ParetoFrontier| {
            frontier
                .points()
                .iter()
                .filter(|p| p.profile.quality >= 0.95)
                .map(|p| p.profile.config.variant.size)
                .collect::<Vec<_>>()
        };
        let f70 = ParetoFrontier::for_model(&profiles, ModelSize::Llama2_70B);
        assert!(!high_quality(&f70).is_empty());
        assert!(high_quality(&ParetoFrontier::compute(&profiles))
            .iter()
            .all(|&size| size == ModelSize::Llama2_70B));
        // No configuration has a quality above 1.0.
        assert!(profiles.iter().all(|p| p.quality <= 1.0));
    }

    #[test]
    fn single_profile_frontier_is_that_profile() {
        let profile = ConfigProfile::build(&InstanceConfig::default_70b(), &GpuHardware::a100());
        let frontier = ParetoFrontier::compute(&[profile]);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier.points()[0].profile.config, profile.config);
        let empty = ParetoFrontier::compute(&[]);
        assert!(empty.is_empty());
    }
}
