//! Fleet-layer integration tests: multi-datacenter simulations with per-site climates,
//! geo-aware arrival splitting, and a pinned multi-site fleet against the single-site run.

use tapas_repro::prelude::*;

/// A 3-site climate-stressed fleet (hot/temperate/cold copies of the real-cluster row
/// pair) used for the geo-routing comparisons: load builds from arrivals over one
/// simulated day while the hot site rides a heatwave, so a geo-oblivious split pushes the
/// hot site over its thermal limit.
fn stress_fleet(geo: GeoPolicy) -> FleetConfig {
    let base = ExperimentConfig::real_cluster_hour(Policy::Baseline)
        .with_duration(SimTime::from_hours(24))
        .with_step(SimDuration::from_minutes(10))
        .with_initial_occupancy(0.15)
        .with_arrivals_per_day(70.0);
    let mut fleet = FleetConfig::evaluation(base, 3).with_geo(geo);
    fleet.sites[0].climate.mean_temp_c = 43.0;
    fleet
}

/// The same climate stress expressed through the scenario API: the hot site keeps its
/// stock climate preset and a scenario heatwave overlays the extra 13 °C that
/// [`stress_fleet`] hard-codes into the climate's mean.
fn overlay_stress_fleet(geo: GeoPolicy) -> FleetConfig {
    let base = ExperimentConfig::real_cluster_hour(Policy::Baseline)
        .with_duration(SimTime::from_hours(24))
        .with_step(SimDuration::from_minutes(10))
        .with_initial_occupancy(0.15)
        .with_arrivals_per_day(70.0)
        .with_scenario(
            Scenario::builder()
                .weather(0, SimTime::ZERO, SimTime::from_hours(24), 13.0)
                .build()
                .expect("valid heatwave scenario"),
        );
    FleetConfig::evaluation(base, 3).with_geo(geo)
}

/// A 3-site fleet whose sites share a climate so only the grid price differentiates
/// them: the scenario pins an all-day price spike on site 0.
fn priced_fleet(geo: GeoPolicy, spike: bool) -> FleetConfig {
    let base = ExperimentConfig::real_cluster_hour(Policy::Baseline)
        .with_climate(Climate::temperate())
        .with_duration(SimTime::from_hours(24))
        .with_step(SimDuration::from_minutes(10))
        .with_initial_occupancy(0.15)
        .with_arrivals_per_day(70.0);
    let mut fleet = FleetConfig::evaluation(base, 3).with_geo(geo);
    for site in &mut fleet.sites {
        site.climate = Climate::temperate();
    }
    fleet.base.climate = fleet.sites[0].climate;
    if spike {
        fleet.base.scenario = Scenario::builder()
            .grid_price_spike(0, SimTime::ZERO, SimTime::from_hours(24), 400.0)
            .build()
            .expect("valid price scenario");
    }
    fleet
}

/// A 3-site fleet with the geo router pinned to site 0 and the single-datacenter arrival
/// stream reproduces the plain `ClusterSimulator` run bit for bit on the pinned site,
/// while the other sites idle.
#[test]
fn pinned_three_site_fleet_is_bit_identical_to_the_single_dc_simulation() {
    let mut fleet_config = FleetConfig::evaluation(ExperimentConfig::small_smoke_test(), 3)
        .with_geo(GeoPolicy::Pinned(0));
    fleet_config.arrival_scale = 1.0;
    let single_config = fleet_config.site_experiment(0);

    let fleet = FleetSimulator::new(fleet_config).run();
    let single = ClusterSimulator::new(single_config).run();

    let fleet_site = serde_json::to_string(&fleet.sites[0]).expect("serialize");
    let single_run = serde_json::to_string(&single).expect("serialize");
    assert_eq!(
        fleet_site, single_run,
        "pinned site must reproduce the single-DC run"
    );
    assert_eq!(fleet.vms_routed[1], 0);
    assert_eq!(fleet.vms_routed[2], 0);
    assert_eq!(fleet.sites[1].requests_served, 0);
}

/// The unpinned geo router shifts VM arrivals toward the coolest / highest-headroom site:
/// under a hot/temperate/cold spread the cold site must receive more VMs than the hot one.
#[test]
fn geo_router_shifts_load_toward_the_coolest_site() {
    let report = FleetSimulator::new(stress_fleet(GeoPolicy::Headroom)).run();
    let routed = &report.vms_routed;
    assert!(
        routed[2] > routed[0],
        "cold site should out-receive the hot site: routed {routed:?}"
    );
    assert!(routed.iter().sum::<u64>() > 0);
}

/// Geo routing must beat the naive round-robin split on at least one recorded stress
/// metric (thermal throttling or power capping) without sacrificing the others.
#[test]
fn geo_routing_beats_round_robin_under_climate_stress() {
    let geo = FleetSimulator::new(stress_fleet(GeoPolicy::Headroom)).run();
    let rr = FleetSimulator::new(stress_fleet(GeoPolicy::RoundRobin)).run();

    let geo_stress = [
        geo.thermal_throttled_minutes(),
        geo.power_capped_minutes(),
        geo.thermal_throttle_events() as f64,
        geo.power_cap_events() as f64,
    ];
    let rr_stress = [
        rr.thermal_throttled_minutes(),
        rr.power_capped_minutes(),
        rr.thermal_throttle_events() as f64,
        rr.power_cap_events() as f64,
    ];
    assert!(
        geo_stress.iter().zip(&rr_stress).any(|(g, r)| g < r),
        "geo routing should strictly improve a stress metric: geo {geo_stress:?} vs rr {rr_stress:?}"
    );
    assert!(
        geo_stress.iter().zip(&rr_stress).all(|(g, r)| g <= r),
        "geo routing must not worsen a stress metric: geo {geo_stress:?} vs rr {rr_stress:?}"
    );
    // The fleet still serves comparable traffic while dodging the stress.
    assert!(geo.total_requests_served() > 0 && rr.total_requests_served() > 0);
    assert!(geo.mean_quality() >= rr.mean_quality() - 0.05);
}

/// The heatwave-overlay scenario reproduces the geo win of the climate-mutation stress
/// fleet through the new API: geo routing must beat round-robin on a stress metric
/// without worsening any, and the cold site must out-receive the overlaid hot site.
#[test]
fn scenario_heatwave_overlay_reproduces_the_geo_win() {
    let geo = FleetSimulator::new(overlay_stress_fleet(GeoPolicy::Headroom)).run();
    let rr = FleetSimulator::new(overlay_stress_fleet(GeoPolicy::RoundRobin)).run();
    assert!(
        geo.vms_routed[2] > geo.vms_routed[0],
        "cold site should out-receive the heatwave site: routed {:?}",
        geo.vms_routed
    );
    let geo_stress = [
        geo.thermal_throttled_minutes(),
        geo.power_capped_minutes(),
        geo.thermal_throttle_events() as f64,
        geo.power_cap_events() as f64,
    ];
    let rr_stress = [
        rr.thermal_throttled_minutes(),
        rr.power_capped_minutes(),
        rr.thermal_throttle_events() as f64,
        rr.power_cap_events() as f64,
    ];
    assert!(
        geo_stress.iter().zip(&rr_stress).any(|(g, r)| g < r),
        "geo routing should strictly improve a stress metric: geo {geo_stress:?} vs rr {rr_stress:?}"
    );
    assert!(
        geo_stress.iter().zip(&rr_stress).all(|(g, r)| g <= r),
        "geo routing must not worsen a stress metric: geo {geo_stress:?} vs rr {rr_stress:?}"
    );
    assert!(geo.mean_quality() >= rr.mean_quality() - 0.05);
}

/// A grid-price spike at one site shifts VM arrivals away under the headroom router's
/// new price signal; a pinned split ignores prices entirely and is bit-identical with
/// and without the spike.
#[test]
fn grid_price_spike_shifts_load_away_under_headroom_routing() {
    let spiked = FleetSimulator::new(priced_fleet(GeoPolicy::Headroom, true)).run();
    let flat = FleetSimulator::new(priced_fleet(GeoPolicy::Headroom, false)).run();
    assert!(
        spiked.vms_routed[0] < flat.vms_routed[0],
        "the spiked site must lose load: spiked {:?} vs flat {:?}",
        spiked.vms_routed,
        flat.vms_routed
    );
    assert!(
        spiked.vms_routed[0] < spiked.vms_routed[1] && spiked.vms_routed[0] < spiked.vms_routed[2],
        "the expensive site must receive the least load: {:?}",
        spiked.vms_routed
    );
    // The router only steers on relative price: energy cost drops under the spike
    // compared to splitting the same spike round-robin.
    let spiked_rr = FleetSimulator::new(priced_fleet(GeoPolicy::RoundRobin, true)).run();
    let geo_cost = fleet_energy_cost_usd(&spiked, &priced_fleet(GeoPolicy::Headroom, true));
    let rr_cost = fleet_energy_cost_usd(&spiked_rr, &priced_fleet(GeoPolicy::RoundRobin, true));
    assert!(
        geo_cost < rr_cost,
        "price-aware routing must cut energy cost: geo ${geo_cost:.0} vs rr ${rr_cost:.0}"
    );
}

/// A pinned split never consults prices: the run with the spike is bit-identical to the
/// run without it.
#[test]
fn pinned_split_is_unchanged_by_a_price_spike() {
    let spiked = FleetSimulator::new(priced_fleet(GeoPolicy::Pinned(1), true)).run();
    let flat = FleetSimulator::new(priced_fleet(GeoPolicy::Pinned(1), false)).run();
    assert_eq!(spiked.vms_routed, flat.vms_routed);
    assert_eq!(
        serde_json::to_string(&spiked).expect("serialize"),
        serde_json::to_string(&flat).expect("serialize"),
        "a pinned fleet must be bit-identical with and without a price-only scenario"
    );
}

/// The acceptance scenario: heatwave + UPS failure + grid-price spike composed on a
/// 3-site fleet via the builder, run end to end. Price-aware geo routing must beat
/// round-robin on energy cost without worsening throttling or SLO attainment.
#[test]
fn composed_scenario_geo_routing_beats_round_robin_on_cost() {
    let compose = |geo: GeoPolicy| {
        // A loaded fleet (every site starts with a solid instance base) hit by a
        // heatwave and a price spike on site 0 plus a mid-day UPS failure on site 1.
        let base = ExperimentConfig::real_cluster_hour(Policy::Baseline)
            .with_duration(SimTime::from_hours(24))
            .with_step(SimDuration::from_minutes(10))
            .with_initial_occupancy(0.7)
            .with_arrivals_per_day(70.0)
            .with_scenario(
                Scenario::builder()
                    .weather(0, SimTime::ZERO, SimTime::from_hours(24), 13.0)
                    .grid_price_spike(0, SimTime::ZERO, SimTime::from_hours(24), 320.0)
                    .fail_ups(1, SimTime::from_hours(6), SimTime::from_hours(9), 0.75)
                    .build()
                    .expect("valid composed scenario"),
            );
        let fleet = FleetConfig::evaluation(base, 3).with_geo(geo);
        fleet.check().expect("valid fleet");
        fleet
    };
    let geo = FleetSimulator::new(compose(GeoPolicy::Headroom)).run();
    let rr = FleetSimulator::new(compose(GeoPolicy::RoundRobin)).run();

    let geo_cost = fleet_energy_cost_usd(&geo, &compose(GeoPolicy::Headroom));
    let rr_cost = fleet_energy_cost_usd(&rr, &compose(GeoPolicy::RoundRobin));
    assert!(
        geo_cost < rr_cost,
        "geo must be cheaper: geo ${geo_cost:.0} vs rr ${rr_cost:.0}"
    );
    assert!(
        geo.thermal_throttle_events() <= rr.thermal_throttle_events(),
        "geo {} vs rr {} throttle events",
        geo.thermal_throttle_events(),
        rr.thermal_throttle_events()
    );
    assert!(
        geo.power_cap_events() <= rr.power_cap_events(),
        "geo {} vs rr {} cap events",
        geo.power_cap_events(),
        rr.power_cap_events()
    );
    assert!(
        geo.slo_attainment() >= rr.slo_attainment(),
        "geo SLO {} vs rr SLO {}",
        geo.slo_attainment(),
        rr.slo_attainment()
    );
    assert!(geo.total_requests_served() > 0 && rr.total_requests_served() > 0);
}

/// Per-site climates flow through the fleet config into genuinely diverging
/// outside-temperature traces (distinct presets and weather seeds per site).
#[test]
fn site_outside_temperature_traces_diverge() {
    use tapas_repro::dc_sim::weather::WeatherModel;
    let fleet = stress_fleet(GeoPolicy::Headroom);
    let mut traces: Vec<Vec<f64>> = fleet
        .sites
        .iter()
        .map(|site| {
            let mut weather = WeatherModel::new(site.climate, site.seed);
            (0..72)
                .map(|h| weather.outside_temp(SimTime::from_hours(h)).value())
                .collect()
        })
        .collect();
    // Pairwise distinct traces.
    for i in 0..traces.len() {
        for j in (i + 1)..traces.len() {
            assert_ne!(
                traces[i], traces[j],
                "sites {i} and {j} share a weather trace"
            );
        }
    }
    // And the climates order the means: hot > temperate > cold.
    let means: Vec<f64> = traces
        .iter_mut()
        .map(|t| t.iter().sum::<f64>() / t.len() as f64)
        .collect();
    assert!(
        means[0] > means[1] && means[1] > means[2],
        "means {means:?}"
    );
}
