//! The per-VM instance configurator (§4.3, §4.5 "Instance Configurator").
//!
//! For every SaaS instance, TAPAS periodically computes the maximum allowable per-GPU power
//! (from the GPU temperature headroom via the fitted Eq. 2), server power (from the row power
//! headroom) and airflow, then selects the configuration that maximizes goodput within those
//! limits while honouring the endpoint's quality SLO. Changes that affect quality (model size
//! or quantization) are a last resort: the configurator first tries frequency and batch-size
//! changes (which apply online), then parallelism, and only then model downgrades — and it
//! reports the reload downtime so the router can steer requests away during the transition.

use crate::profiles::{variant_class, ProfileStore, VARIANT_CLASSES};
use llm_sim::config::{InstanceConfig, ReconfigurationCost};
use llm_sim::profile::ConfigProfile;
use serde::{Deserialize, Serialize};
use simkit::units::{Kilowatts, Watts};

/// The budgets the configurator must keep one instance within.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceLimits {
    /// Maximum per-GPU power (derived from the GPU temperature headroom).
    pub max_gpu_power: Watts,
    /// Maximum server power for the slice the instance occupies (derived from the row power
    /// headroom).
    pub max_server_power: Kilowatts,
    /// Minimum goodput the instance should retain if possible (tokens/s of offered load).
    pub demand_tokens_per_s: f64,
}

impl InstanceLimits {
    /// Unconstrained limits (normal operation with ample headroom).
    #[must_use]
    pub fn unconstrained(demand_tokens_per_s: f64) -> Self {
        Self {
            max_gpu_power: Watts::new(f64::MAX),
            max_server_power: Kilowatts::new(f64::MAX),
            demand_tokens_per_s,
        }
    }
}

/// The configurator's decision for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigDecision {
    /// The configuration to run.
    pub config: InstanceConfig,
    /// The profiled behaviour of that configuration.
    pub profile: ConfigProfile,
    /// Cost of switching from the current configuration.
    pub cost: ReconfigurationCost,
    /// Whether the decision had to accept quality below the SLO to satisfy the limits.
    pub quality_degraded: bool,
}

/// Decode share of the blended server power the configurator ranks configurations by.
const DECODE_FRACTION: f64 = 0.7;

/// One sweep profile as the selection scan reads it: the two limit checks, the ranking
/// figures and the profile's (variant, TP) class, without the fat [`ConfigProfile`].
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Hottest per-GPU power across prefill and decode (W).
    hottest_gpu_w: f64,
    /// Hottest server-slice power across prefill and decode (kW).
    server_kw: f64,
    goodput: f64,
    quality: f64,
    /// Variant class (`profiles::variant_class`).
    class: u16,
    /// Position of the profile in the sweep (`ProfileStore::sweep`).
    slot: u16,
}

impl Candidate {
    /// `InstanceConfigurator::fits` on the dense figures.
    fn fits(&self, limits: &InstanceLimits) -> bool {
        self.hottest_gpu_w <= limits.max_gpu_power.value()
            && self.server_kw <= limits.max_server_power.value()
    }
}

/// The configurator's selection order over one profile sweep, built with the sweep's
/// shared index (once per process and GPU generation) and read through [`ProfileStore`].
///
/// [`InstanceConfigurator::select`] picks, among the profiles that fit the limits, the
/// maximum of `(meets demand, cost rank, goodput, −blended power, sweep index)`. `order`
/// sorts the sweep by `(goodput ↓, blended power ↑, sweep index ↓)`, so "meets demand"
/// (`goodput ≥ demand`) is a prefix of it and, within each (meets demand, cost rank)
/// group, the first fitting candidate in `order` is the group's winner. The scan therefore
/// visits the groups best first and stops at the first fitting candidate.
#[derive(Debug)]
pub(crate) struct SelectionIndex {
    /// Every sweep profile in selection order.
    order: Vec<Candidate>,
    /// Position in `order` of each sweep slot.
    position_of_slot: Vec<u16>,
    /// Per variant class, the ascending `order` positions of its members.
    class_members: Vec<Vec<u16>>,
    /// Sweep slot of the lowest-power profile (the first one on ties), the fallback when
    /// nothing fits.
    coolest: usize,
}

impl SelectionIndex {
    /// Builds the index over a profile sweep.
    ///
    /// # Panics
    /// Panics, naming the configuration, if a profile's goodput or blended server power is
    /// not finite (the order would silently mis-rank it), or if the sweep is empty.
    #[must_use]
    pub(crate) fn build(profiles: &[ConfigProfile]) -> Self {
        assert!(!profiles.is_empty(), "profile sweep is never empty");
        let power: Vec<f64> = profiles
            .iter()
            .map(|p| p.blended_server_power(DECODE_FRACTION).value())
            .collect();
        for (profile, &power) in profiles.iter().zip(&power) {
            assert!(
                profile.goodput_tokens_per_s.is_finite() && power.is_finite(),
                "profile of {} has non-finite goodput {} or blended power {power} kW",
                profile.config,
                profile.goodput_tokens_per_s,
            );
        }
        let mut slots: Vec<usize> = (0..profiles.len()).collect();
        let finite = |a: f64, b: f64| a.partial_cmp(&b).expect("checked finite");
        slots.sort_by(|&a, &b| {
            finite(
                profiles[b].goodput_tokens_per_s,
                profiles[a].goodput_tokens_per_s,
            )
            .then(finite(power[a], power[b]))
            .then(b.cmp(&a))
        });
        let order: Vec<Candidate> = slots
            .iter()
            .map(|&slot| {
                let p = &profiles[slot];
                Candidate {
                    hottest_gpu_w: p.prefill.gpu_power.value().max(p.decode.gpu_power.value()),
                    server_kw: p
                        .prefill
                        .server_power
                        .value()
                        .max(p.decode.server_power.value()),
                    goodput: p.goodput_tokens_per_s,
                    quality: p.quality,
                    class: variant_class(&p.config) as u16,
                    slot: u16::try_from(slot).expect("sweep fits u16 slots"),
                }
            })
            .collect();
        let mut position_of_slot = vec![0; profiles.len()];
        let mut class_members = vec![Vec::new(); VARIANT_CLASSES];
        for (position, candidate) in order.iter().enumerate() {
            position_of_slot[usize::from(candidate.slot)] = position as u16;
            class_members[usize::from(candidate.class)].push(position as u16);
        }
        let coolest = (0..profiles.len())
            .min_by(|&a, &b| finite(power[a], power[b]))
            .expect("non-empty");
        Self {
            order,
            position_of_slot,
            class_members,
            coolest,
        }
    }

    /// The winning `order` position among the candidates `admit` accepts that fit
    /// `limits`, or `None` if none fits. `current` is the current configuration's
    /// position (cost rank 2) and `class` its variant class (cost rank 1).
    fn scan(
        &self,
        current: Option<usize>,
        class: usize,
        limits: &InstanceLimits,
        admit: impl Fn(&Candidate) -> bool,
    ) -> Option<usize> {
        let fits = |position: usize| {
            let c = &self.order[position];
            c.fits(limits) && admit(c)
        };
        let meets = self
            .order
            .partition_point(|c| c.goodput >= limits.demand_tokens_per_s);
        let members = &self.class_members[class];
        let members_meeting = members.partition_point(|&p| usize::from(p) < meets);
        let class = class as u16;
        for (range, members) in [
            (0..meets, &members[..members_meeting]),
            (meets..self.order.len(), &members[members_meeting..]),
        ] {
            // Cost rank 2: no change.
            if let Some(position) = current.filter(|p| range.contains(p)) {
                if fits(position) {
                    return Some(position);
                }
            }
            // Cost rank 1: an online change within the class.
            if let Some(&position) = members
                .iter()
                .find(|&&p| Some(usize::from(p)) != current && fits(usize::from(p)))
            {
                return Some(usize::from(position));
            }
            // Cost rank 0: a model reload.
            if let Some(position) = range
                .clone()
                .find(|&p| self.order[p].class != class && fits(p))
            {
                return Some(position);
            }
        }
        None
    }
}

/// The TAPAS instance configurator.
#[derive(Debug, Clone)]
pub struct InstanceConfigurator {
    /// Quality SLO in `[0, 1]`; configurations below it are last-resort only.
    pub quality_slo: f64,
}

impl InstanceConfigurator {
    /// Creates a configurator with the endpoint's quality SLO.
    #[must_use]
    pub fn new(quality_slo: f64) -> Self {
        Self {
            quality_slo: quality_slo.clamp(0.0, 1.0),
        }
    }

    /// Returns `true` if a profile fits the limits.
    fn fits(profile: &ConfigProfile, limits: &InstanceLimits) -> bool {
        let hottest_gpu = profile
            .prefill
            .gpu_power
            .value()
            .max(profile.decode.gpu_power.value());
        let server = profile
            .prefill
            .server_power
            .value()
            .max(profile.decode.server_power.value());
        hottest_gpu <= limits.max_gpu_power.value() && server <= limits.max_server_power.value()
    }

    /// Selects the configuration for one instance.
    ///
    /// The candidates are the profiled configurations that fit the limits (hottest per-GPU
    /// power and server power at or below them). If some of them meet the quality SLO, the
    /// choice is among those; otherwise it is among all of them and the decision is marked
    /// `quality_degraded`. Within the chosen set the winner is the maximum of, in order:
    /// (1) meeting the offered demand (`goodput ≥ demand`), (2) cheaper reconfiguration
    /// (no change, then an online frequency or batch change within the current (variant,
    /// TP) class, then a model reload — the paper's "last resort" rule), (3) higher
    /// goodput, (4) lower blended server power, and (5) on exact ties, the later profile
    /// in sweep order. If nothing fits, the lowest-power profile is returned (the first
    /// one on ties): the closest the instance can get to compliance, while the failure
    /// manager sheds the remaining excess elsewhere.
    ///
    /// The store's selection index honours this order: it sorts the sweep once by (3), (4)
    /// and (5), scans the groups of (1) and (2) best first, and stops at the first fitting
    /// profile. [`Self::select_reference`] is the plain scan over the sweep, and both
    /// return the same decision.
    #[must_use]
    pub fn select(
        &self,
        current: &InstanceConfig,
        limits: &InstanceLimits,
        profiles: &ProfileStore,
    ) -> ConfigDecision {
        let index = profiles.selection_index();
        let current_position = profiles
            .profile_slot(current)
            .map(|slot| usize::from(index.position_of_slot[slot]));

        // Fast path: when the current configuration fits, meets the demand and satisfies
        // the quality SLO, it alone holds the top cost rank in the top group. This is the
        // steady state for most instances on most steps.
        if let Some(position) = current_position {
            let c = &index.order[position];
            if c.fits(limits)
                && c.goodput >= limits.demand_tokens_per_s
                && c.quality >= self.quality_slo
            {
                let profile = profiles.sweep()[usize::from(c.slot)];
                return ConfigDecision {
                    config: profile.config,
                    profile,
                    cost: ReconfigurationCost::None,
                    quality_degraded: false,
                };
            }
        }

        let class = variant_class(current);
        let decide = |slot: usize, quality_degraded: bool| {
            let profile = profiles.sweep()[slot];
            ConfigDecision {
                config: profile.config,
                cost: current.reconfiguration_cost(&profile.config),
                quality_degraded,
                profile,
            }
        };
        // First within the quality SLO; otherwise degrade quality (last resort).
        let slo = self.quality_slo;
        if let Some(position) = index.scan(current_position, class, limits, |c| c.quality >= slo) {
            return decide(usize::from(index.order[position].slot), false);
        }
        if let Some(position) = index.scan(current_position, class, limits, |_| true) {
            return decide(usize::from(index.order[position].slot), true);
        }
        decide(index.coolest, profiles.sweep()[index.coolest].quality < slo)
    }

    /// The executable reference of [`Self::select`]: one pass over the whole sweep that
    /// keeps the best fitting profile by the documented preference order. Used by the
    /// differential tests.
    #[must_use]
    pub fn select_reference(
        &self,
        current: &InstanceConfig,
        limits: &InstanceLimits,
        profiles: &ProfileStore,
    ) -> ConfigDecision {
        let all = profiles.sweep();

        // Preference key, compared lexicographically: (1) meets the offered demand, (2)
        // cheaper reconfiguration, (3) higher goodput, (4) lower blended power. On exact
        // ties the later profile in sweep order wins, matching `Iterator::max_by`.
        #[derive(Clone, Copy, PartialEq)]
        struct Key {
            meets_demand: bool,
            cost_rank: u8,
            goodput: f64,
            power: f64,
        }
        impl Key {
            fn at_least(&self, other: &Key) -> bool {
                match self.meets_demand.cmp(&other.meets_demand) {
                    std::cmp::Ordering::Less => return false,
                    std::cmp::Ordering::Greater => return true,
                    std::cmp::Ordering::Equal => {}
                }
                match self.cost_rank.cmp(&other.cost_rank) {
                    std::cmp::Ordering::Less => return false,
                    std::cmp::Ordering::Greater => return true,
                    std::cmp::Ordering::Equal => {}
                }
                if self.goodput != other.goodput {
                    return self.goodput > other.goodput;
                }
                // Lower power is better.
                self.power <= other.power
            }
        }

        // One pass over the sweep, tracking the best fitting profile within the quality SLO
        // and the best fitting profile overall (the quality-degraded fallback).
        let mut best_quality: Option<(Key, &ConfigProfile)> = None;
        let mut best_any: Option<(Key, &ConfigProfile)> = None;
        for profile in all {
            if !Self::fits(profile, limits) {
                continue;
            }
            let key = Key {
                meets_demand: profile.goodput_tokens_per_s >= limits.demand_tokens_per_s,
                cost_rank: match current.reconfiguration_cost(&profile.config) {
                    ReconfigurationCost::None => 2,
                    ReconfigurationCost::Online => 1,
                    ReconfigurationCost::Reload { .. } => 0,
                },
                goodput: profile.goodput_tokens_per_s,
                power: profile.blended_server_power(DECODE_FRACTION).value(),
            };
            let replace =
                |best: &Option<(Key, &ConfigProfile)>| best.is_none_or(|(k, _)| key.at_least(&k));
            if replace(&best_any) {
                best_any = Some((key, profile));
            }
            if profile.quality >= self.quality_slo && replace(&best_quality) {
                best_quality = Some((key, profile));
            }
        }

        let decide = |profile: &ConfigProfile, quality_degraded: bool| ConfigDecision {
            config: profile.config,
            cost: current.reconfiguration_cost(&profile.config),
            quality_degraded,
            profile: *profile,
        };
        if let Some((_, profile)) = best_quality {
            return decide(profile, false);
        }
        if let Some((_, profile)) = best_any {
            return decide(profile, true);
        }
        // Nothing fits at all: run the lowest-power configuration available.
        let coolest = all
            .iter()
            .min_by(|a, b| {
                a.blended_server_power(DECODE_FRACTION)
                    .value()
                    .partial_cmp(&b.blended_server_power(DECODE_FRACTION).value())
                    .expect("finite power")
            })
            .expect("profile sweep is never empty");
        decide(coolest, coolest.quality < self.quality_slo)
    }

    /// Convenience: the decision under no thermal/power pressure. Used by the baseline (which
    /// never reconfigures) and at instance start-up.
    #[must_use]
    pub fn unconstrained(
        &self,
        current: &InstanceConfig,
        demand: f64,
        profiles: &ProfileStore,
    ) -> ConfigDecision {
        self.select(current, &InstanceLimits::unconstrained(demand), profiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_sim::engine::Datacenter;
    use dc_sim::topology::LayoutConfig;
    use llm_sim::hardware::GpuHardware;
    use llm_sim::model::ModelSize;

    fn profiles() -> ProfileStore {
        let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 42);
        ProfileStore::offline_profiling(&dc, &GpuHardware::a100())
    }

    #[test]
    fn unconstrained_selection_keeps_quality_and_high_goodput() {
        let profiles = profiles();
        let configurator = InstanceConfigurator::new(0.9);
        let current = InstanceConfig::default_70b();
        let decision = configurator.unconstrained(&current, 500.0, &profiles);
        assert!(!decision.quality_degraded);
        assert!(decision.profile.quality >= 0.9);
        assert!(decision.profile.goodput_tokens_per_s >= 500.0);
        assert_eq!(decision.config.variant.size, ModelSize::Llama2_70B);
    }

    #[test]
    fn tight_gpu_power_budget_forces_a_cooler_configuration() {
        let profiles = profiles();
        let configurator = InstanceConfigurator::new(0.9);
        let current = InstanceConfig::default_70b();
        let unconstrained = configurator.unconstrained(&current, 100.0, &profiles);
        let limits = InstanceLimits {
            max_gpu_power: Watts::new(220.0),
            max_server_power: Kilowatts::new(f64::MAX),
            demand_tokens_per_s: 100.0,
        };
        let constrained = configurator.select(&current, &limits, &profiles);
        let hottest = constrained
            .profile
            .prefill
            .gpu_power
            .value()
            .max(constrained.profile.decode.gpu_power.value());
        assert!(hottest <= 220.0);
        assert!(
            constrained.profile.goodput_tokens_per_s <= unconstrained.profile.goodput_tokens_per_s
        );
        // Quality stays within the SLO if at all possible.
        assert!(constrained.profile.quality >= 0.9 || constrained.quality_degraded);
    }

    #[test]
    fn severe_limits_degrade_quality_as_last_resort() {
        let profiles = profiles();
        let configurator = InstanceConfigurator::new(0.99);
        let current = InstanceConfig::default_70b();
        // A server power budget so low that no full-quality 70B FP16 configuration fits.
        let limits = InstanceLimits {
            max_gpu_power: Watts::new(400.0),
            max_server_power: Kilowatts::new(1.0),
            demand_tokens_per_s: 10.0,
        };
        let decision = configurator.select(&current, &limits, &profiles);
        assert!(decision.quality_degraded);
        assert!(decision.profile.quality < 0.99);
        assert!(
            decision
                .profile
                .prefill
                .server_power
                .value()
                .max(decision.profile.decode.server_power.value())
                <= 1.0
        );
    }

    #[test]
    fn impossible_limits_fall_back_to_lowest_power() {
        let profiles = profiles();
        let configurator = InstanceConfigurator::new(0.9);
        let current = InstanceConfig::default_70b();
        let limits = InstanceLimits {
            max_gpu_power: Watts::new(1.0),
            max_server_power: Kilowatts::new(0.001),
            demand_tokens_per_s: 10.0,
        };
        let decision = configurator.select(&current, &limits, &profiles);
        // The fallback is the lowest-power profile in the sweep.
        let min_power = profiles
            .sweep()
            .iter()
            .map(|p| p.blended_server_power(0.7).value())
            .fold(f64::MAX, f64::min);
        assert!((decision.profile.blended_server_power(0.7).value() - min_power).abs() < 1e-9);
    }

    #[test]
    fn mild_pressure_prefers_online_changes_over_model_reloads() {
        let profiles = profiles();
        let configurator = InstanceConfigurator::new(0.9);
        let current = InstanceConfig::default_70b();
        // A modest per-GPU power cut that a frequency/batch change can absorb.
        let unconstrained = configurator.unconstrained(&current, 100.0, &profiles);
        let hottest_now = unconstrained
            .profile
            .prefill
            .gpu_power
            .value()
            .max(unconstrained.profile.decode.gpu_power.value());
        let limits = InstanceLimits {
            max_gpu_power: Watts::new(hottest_now * 0.9),
            max_server_power: Kilowatts::new(f64::MAX),
            demand_tokens_per_s: 50.0,
        };
        let decision = configurator.select(&current, &limits, &profiles);
        assert!(!decision.quality_degraded);
        assert!(
            !decision.cost.requires_reload() || decision.config.variant == current.variant,
            "a mild cut should not force a model reload: {:?}",
            decision.cost
        );
    }

    #[test]
    #[should_panic(expected = "profile of llama2-70b")]
    fn non_finite_profiles_fail_loudly_when_indexed() {
        let store = profiles();
        let mut sweep = store.sweep().to_vec();
        let at = sweep
            .iter()
            .position(|p| p.config == InstanceConfig::default_70b())
            .expect("default is profiled");
        sweep[at].goodput_tokens_per_s = f64::NAN;
        let _ = store.with_sweep(sweep.into());
    }

    #[test]
    fn index_orders_by_goodput_then_power_then_later_slot() {
        let store = profiles();
        let index = store.selection_index();
        let all = store.sweep();
        let power = |slot: usize| all[slot].blended_server_power(DECODE_FRACTION).value();
        for pair in index.order.windows(2) {
            let (a, b) = (usize::from(pair[0].slot), usize::from(pair[1].slot));
            assert!(
                pair[0].goodput > pair[1].goodput
                    || (pair[0].goodput == pair[1].goodput
                        && (power(a) < power(b) || (power(a) == power(b) && a > b)))
            );
        }
        let coolest = (0..all.len()).map(power).fold(f64::INFINITY, f64::min);
        assert_eq!(power(index.coolest), coolest);
    }

    #[test]
    fn no_change_has_zero_cost() {
        let profiles = profiles();
        let configurator = InstanceConfigurator::new(0.9);
        let current = InstanceConfig::default_70b();
        let decision = configurator.unconstrained(&current, 100.0, &profiles);
        if decision.config == current {
            assert_eq!(decision.cost, ReconfigurationCost::None);
        }
        assert_eq!(InstanceConfigurator::new(2.0).quality_slo, 1.0);
    }
}
