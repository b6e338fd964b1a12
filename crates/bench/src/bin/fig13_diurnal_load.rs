//! Fig. 13 — normalized load over four weeks for an example VM and the corresponding row
//! power, both showing a clear diurnal pattern.

use serde::Serialize;
use simkit::time::SimTime;
use tapas_bench::{header, write_json};
use workload::diurnal::DiurnalPattern;
use workload::iaas::IaasLoadModel;
use workload::vm::{IaasCustomerId, Vm, VmId, VmKind};

#[derive(Serialize)]
struct Fig13Output {
    /// (day, normalized load) for one example VM over four weeks.
    vm_load: Vec<(f64, f64)>,
    /// (day, normalized power) for a synthetic row aggregating 40 VMs.
    row_power: Vec<(f64, f64)>,
    peak_to_trough_ratio: f64,
}

fn main() {
    header("Figure 13: diurnal VM load and row power over four weeks");
    let model = IaasLoadModel::new(40, 42);
    let vm = Vm {
        id: VmId(0),
        kind: VmKind::Iaas {
            customer: IaasCustomerId(3),
        },
        arrival: SimTime::ZERO,
        lifetime: simkit::time::SimDuration::from_days(60),
    };
    let vm_load: Vec<(f64, f64)> = (0..28 * 24)
        .map(|h| {
            let t = SimTime::from_hours(h);
            (t.as_days(), model.load_at(&vm, t))
        })
        .collect();

    // A row aggregates many VMs from a handful of customers: its power inherits the diurnal
    // pattern but smoother.
    let patterns: Vec<DiurnalPattern> = (0..40)
        .map(|i| DiurnalPattern::interactive(42 + i).with_peak_hour(13.0 + (i % 5) as f64))
        .collect();
    let row_raw: Vec<f64> = (0..28 * 24)
        .map(|h| {
            let t = SimTime::from_hours(h);
            patterns
                .iter()
                .map(|p| 1.6 + 4.9 * p.load_at(t))
                .sum::<f64>()
        })
        .collect();
    let row_max = simkit::stats::max(&row_raw).unwrap();
    let row_min = simkit::stats::min(&row_raw).unwrap();
    let row_power: Vec<(f64, f64)> = row_raw
        .iter()
        .enumerate()
        .map(|(h, p)| (h as f64 / 24.0, p / row_max))
        .collect();

    println!("day, vm load, row power (first three days shown)");
    for ((d, load), (_, power)) in vm_load.iter().zip(row_power.iter()).take(72).step_by(3) {
        println!("{d:5.2}, {load:5.2}, {power:5.2}");
    }
    println!(
        "\npaper: both the VM load and the row power show a distinctly periodic diurnal pattern."
    );

    write_json(
        "fig13_diurnal_load",
        &Fig13Output {
            vm_load,
            row_power,
            peak_to_trough_ratio: row_max / row_min,
        },
    );
}
