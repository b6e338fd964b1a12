//! Fig. 10 — row power utilization over a week for sample rows, and the heavy-tailed P50/P99
//! distribution of row power across the datacenter.

use cluster_sim::experiment::ExperimentConfig;
use cluster_sim::simulator::ClusterSimulator;
use dc_sim::engine::{Datacenter, StepInput};
use dc_sim::topology::LayoutConfig;
use dc_sim::weather::{Climate, WeatherModel};
use serde::Serialize;
use simkit::time::SimTime;
use simkit::units::Celsius;
use tapas::policy::Policy;
use tapas_bench::{full_scale_requested, header, print_table, write_json};
use workload::arrivals::{ArrivalConfig, VmArrivalGenerator};
use workload::endpoints::EndpointCatalog;
use workload::iaas::IaasLoadModel;

#[derive(Serialize)]
struct Fig10Output {
    /// Per-row P99 power utilization (fraction of the hottest row's P99).
    row_p99_normalized: Vec<f64>,
    /// How much less P99 power the median row draws than the most power-hungry row.
    p50_row_vs_max_pct: f64,
    /// Sample timeline (hour, utilization) for the hottest row.
    hottest_row_timeline: Vec<(f64, f64)>,
}

fn main() {
    header("Figure 10: row power utilization timeline and cross-row distribution");
    // Build an IaaS-only population placed obliviously (the characterization predates TAPAS),
    // then replay two days of diurnal load and record per-row power.
    let layout = LayoutConfig::production_datacenter().build();
    let dc = Datacenter::new(layout, 42);
    let catalog = EndpointCatalog::evaluation(4, 10.0, 42);
    let mut arrivals = ArrivalConfig::evaluation_week(dc.layout().server_count());
    arrivals.saas_fraction = 0.0;
    arrivals.initial_population = dc.layout().server_count() * 9 / 10;
    let mut generator = VmArrivalGenerator::new(arrivals, 42);
    let population = generator.initial_population(&catalog);
    let iaas = IaasLoadModel::new(40, 42);
    let mut weather = WeatherModel::new(Climate::hot(), 42);

    let hours = if full_scale_requested() { 7 * 24 } else { 48 };
    let mut per_row_power: Vec<Vec<f64>> = vec![Vec::new(); dc.layout().rows().len()];
    for h in 0..hours {
        let now = SimTime::from_hours(h);
        let outside = weather.outside_temp(now);
        let mut input = StepInput::idle(dc.layout(), Celsius::new(outside.value()));
        for (i, vm) in population.iter().enumerate() {
            if i >= dc.layout().server_count() {
                break;
            }
            let load = iaas.load_at(vm, now);
            input.activity.set_uniform(i, load);
        }
        let outcome = dc.evaluate(&input);
        for (row, power) in outcome.row_power() {
            per_row_power[row.index()].push(power.value());
        }
    }

    let p99s: Vec<f64> = per_row_power
        .iter()
        .map(|v| simkit::stats::percentile(v, 99.0).unwrap_or(0.0))
        .collect();
    let max_p99 = simkit::stats::max(&p99s).unwrap();
    let p50_of_p99 = simkit::stats::percentile(&p99s, 50.0).unwrap();
    let hottest_row = p99s
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap();

    let output = Fig10Output {
        row_p99_normalized: p99s.iter().map(|p| p / max_p99).collect(),
        p50_row_vs_max_pct: (1.0 - p50_of_p99 / max_p99) * 100.0,
        hottest_row_timeline: per_row_power[hottest_row]
            .iter()
            .enumerate()
            .map(|(h, p)| (h as f64, p / max_p99))
            .collect(),
    };

    print_table(
        "Cross-row P99 power",
        &[
            ("rows measured".to_string(), format!("{}", p99s.len())),
            (
                "median row draws less P99 power than the hottest row by".to_string(),
                format!(
                    "{:.1} % (paper: ≈28 % for 50 % of rows)",
                    output.p50_row_vs_max_pct
                ),
            ),
        ],
    );

    // A placed-workload comparison also exists through the full simulator; run a short one to
    // show the same periodicity under a 50/50 mix.
    let report = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
    let _ = Policy::Baseline;
    println!(
        "smoke-test cluster peak row power for reference: {:.1} kW",
        report.peak_row_power_kw()
    );

    write_json("fig10_row_power", &output);
}
