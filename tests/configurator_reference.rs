//! Differential tests pinning the indexed instance configurator
//! (`InstanceConfigurator::select` over the store's selection index) to its reference, the
//! plain scan behind `InstanceConfigurator::select_reference`, on whole `ConfigDecision`s.
//!
//! Cases draw the current configuration from the sweep, from grid points the sweep skipped
//! (they do not fit in memory), and from off-grid points (an unlisted frequency, a batch
//! size past `u16`); power limits around the profiles' own powers (exactly at them, just
//! inside and outside) plus 0, ∞ and NaN; demand at 0, NaN, negative, huge and exactly at
//! some profile's goodput; and quality SLOs from 0 to 1. Half of the cases run on a sweep
//! edited to hold exact (goodput, blended power) ties within and across variant classes,
//! so the sweep-index tie-break decides.

use dc_sim::engine::Datacenter;
use dc_sim::topology::LayoutConfig;
use llm_sim::config::{FrequencyScale, InstanceConfig, ReconfigurationCost};
use llm_sim::hardware::GpuHardware;
use llm_sim::profile::ConfigProfile;
use simkit::rng::SimRng;
use simkit::units::{Kilowatts, Watts};
use tapas::configurator::{InstanceConfigurator, InstanceLimits};
use tapas::profiles::ProfileStore;

const CASES: usize = 12_000;

fn store() -> ProfileStore {
    let dc = Datacenter::new(LayoutConfig::small_test_cluster().build(), 42);
    ProfileStore::offline_profiling(&dc, &GpuHardware::a100())
}

/// The store with its sweep edited so that many profiles share their (goodput, power)
/// figures with another one: the copy takes the source's phase profiles and goodput but
/// keeps its own configuration and quality.
fn tied_store(base: &ProfileStore, rng: &mut SimRng) -> ProfileStore {
    let mut profiles = base.sweep().to_vec();
    let n = profiles.len();
    for _ in 0..n / 3 {
        let from = profiles[rng.uniform_usize(0, n)];
        // Half the ties stay within the source's variant class (online changes tie),
        // half land anywhere (reloads tie with each other and with online changes).
        let to = if rng.chance(0.5) {
            let class: Vec<usize> = (0..n)
                .filter(|&i| {
                    profiles[i].config.variant == from.config.variant
                        && profiles[i].config.parallelism == from.config.parallelism
                })
                .collect();
            class[rng.uniform_usize(0, class.len())]
        } else {
            rng.uniform_usize(0, n)
        };
        let target = &mut profiles[to];
        *target = ConfigProfile {
            config: target.config,
            quality: target.quality,
            ..from
        };
    }
    base.clone().with_sweep(profiles.into())
}

fn hottest_gpu(p: &ConfigProfile) -> f64 {
    p.prefill.gpu_power.value().max(p.decode.gpu_power.value())
}

fn hottest_server(p: &ConfigProfile) -> f64 {
    p.prefill
        .server_power
        .value()
        .max(p.decode.server_power.value())
}

/// A limit drawn around `at` (some profile's own figure): exactly at it, just inside or
/// outside, scaled, or one of the edge values.
fn limit_around(rng: &mut SimRng, at: f64) -> f64 {
    match rng.uniform_usize(0, 10) {
        0 => 0.0,
        1 => f64::INFINITY,
        2 => f64::NAN,
        3 => f64::MAX,
        4 | 5 => at,
        6 => at * (1.0 + 1e-12),
        7 => at * (1.0 - 1e-12),
        _ => at * rng.uniform(0.6, 1.4),
    }
}

fn current_config(rng: &mut SimRng, profiles: &[ConfigProfile]) -> InstanceConfig {
    let mut config = profiles[rng.uniform_usize(0, profiles.len())].config;
    match rng.uniform_usize(0, 10) {
        // A grid point the sweep skipped (does not fit in GPU memory) or any grid point.
        0 => {
            let grid = InstanceConfig::enumerate();
            config = grid[rng.uniform_usize(0, grid.len())];
        }
        // An unlisted frequency, possibly a hair off a sweep step.
        1 => {
            config.frequency = if rng.chance(0.5) {
                FrequencyScale::new(rng.uniform(0.1, 1.0))
            } else {
                FrequencyScale::new(f64::from_bits(config.frequency.value().to_bits() - 1))
            };
        }
        // A batch size past `u16`, which once aliased the sweep's batch 64 profile.
        2 => config.max_batch_size += 65_536,
        3 => config.max_batch_size = 32,
        _ => {}
    }
    config
}

#[test]
fn indexed_select_matches_the_reference_scan() {
    let base = store();
    let mut rng = SimRng::seed_from(20).derive("configurator-reference");
    let tied = tied_store(&base, &mut rng);
    let mut outcomes = [0usize; 5];
    for case in 0..CASES {
        let store = if case % 2 == 0 { &base } else { &tied };
        let profiles = store.sweep();
        let pick = |rng: &mut SimRng| profiles[rng.uniform_usize(0, profiles.len())];
        let current = current_config(&mut rng, profiles);
        let (gpu_at, server_at) = if rng.chance(0.3) {
            // Both limits exactly at one profile's figures.
            let p = pick(&mut rng);
            (hottest_gpu(&p), hottest_server(&p))
        } else {
            (
                hottest_gpu(&pick(&mut rng)),
                hottest_server(&pick(&mut rng)),
            )
        };
        let demand = match rng.uniform_usize(0, 10) {
            0 => 0.0,
            1 => f64::NAN,
            2 => 1e300,
            3 => -1.0,
            4..=6 => pick(&mut rng).goodput_tokens_per_s,
            _ => pick(&mut rng).goodput_tokens_per_s * rng.uniform(0.0, 1.5),
        };
        let limits = InstanceLimits {
            max_gpu_power: Watts::new(limit_around(&mut rng, gpu_at)),
            max_server_power: Kilowatts::new(limit_around(&mut rng, server_at)),
            demand_tokens_per_s: demand,
        };
        let slo = [0.0, 0.5, 0.9, 0.9, 0.9, 0.99, 1.0][rng.uniform_usize(0, 7)];
        let configurator = InstanceConfigurator::new(slo);
        let fast = configurator.select(&current, &limits, store);
        let reference = configurator.select_reference(&current, &limits, store);
        assert_eq!(
            fast, reference,
            "case {case}: current {current}, limits {limits:?}, slo {slo}"
        );
        let outcome = match reference.cost {
            _ if reference.quality_degraded => 0,
            ReconfigurationCost::None => 1,
            ReconfigurationCost::Online => 2,
            ReconfigurationCost::Reload { .. }
                if reference.profile.goodput_tokens_per_s >= demand =>
            {
                3
            }
            ReconfigurationCost::Reload { .. } => 4,
        };
        outcomes[outcome] += 1;
    }
    // Every preference group is exercised: degraded quality, no change, online change,
    // reloads that meet the demand and reloads that do not.
    assert!(outcomes.iter().all(|&n| n >= 100), "{outcomes:?}");
}

#[test]
fn off_sweep_configurations_have_no_profile_and_no_zero_cost_decision() {
    let store = store();
    let mut current = InstanceConfig::default_70b();
    current.max_batch_size += 65_536;
    assert!(store.profile_for(&current).is_none());
    let decision = InstanceConfigurator::new(0.9).unconstrained(&current, 100.0, &store);
    assert_ne!(decision.cost, ReconfigurationCost::None);
    assert_eq!(
        decision,
        InstanceConfigurator::new(0.9).select_reference(
            &current,
            &InstanceLimits::unconstrained(100.0),
            &store
        )
    );
}
