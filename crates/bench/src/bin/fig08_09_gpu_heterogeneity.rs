//! Fig. 8 / Fig. 9 — per-GPU temperature heterogeneity: up to ≈10 °C within one server under
//! identical load, a >20 °C range across a datacenter, and cooler even-numbered slots.

use dc_sim::engine::Datacenter;
use dc_sim::ids::GpuId;
use dc_sim::topology::LayoutConfig;
use serde::Serialize;
use simkit::stats::{Ecdf, Summary};
use simkit::units::{Celsius, Watts};
use tapas_bench::{header, print_table, write_json};

#[derive(Serialize)]
struct Fig0809Output {
    per_slot_median_c: Vec<f64>,
    within_server_spread_p99_c: f64,
    datacenter_range_c: f64,
    gpu_temp_cdf: Vec<(f64, f64)>,
}

fn main() {
    header("Figures 8–9: per-GPU temperature heterogeneity at high load");
    let dc = Datacenter::new(LayoutConfig::production_datacenter().build(), 42);
    let inlet = Celsius::new(24.0);
    let power = Watts::new(380.0);

    let mut all_temps = Vec::new();
    let mut per_slot: Vec<Vec<f64>> = vec![Vec::new(); 8];
    let mut spreads = Vec::new();
    for server in dc.layout().servers() {
        let temps: Vec<f64> = (0..8)
            .map(|slot| {
                dc.gpu_model()
                    .temperatures(GpuId::new(server.id, slot), inlet, power, 0.6)
                    .gpu
                    .value()
            })
            .collect();
        for (slot, &t) in temps.iter().enumerate() {
            per_slot[slot].push(t);
            all_temps.push(t);
        }
        spreads.push(simkit::stats::max(&temps).unwrap() - simkit::stats::min(&temps).unwrap());
    }

    let per_slot_median: Vec<f64> = per_slot
        .iter()
        .map(|v| Summary::from_values(v).p50)
        .collect();
    let output = Fig0809Output {
        per_slot_median_c: per_slot_median.clone(),
        within_server_spread_p99_c: simkit::stats::percentile(&spreads, 99.0).unwrap(),
        datacenter_range_c: simkit::stats::max(&all_temps).unwrap()
            - simkit::stats::min(&all_temps).unwrap(),
        gpu_temp_cdf: Ecdf::new(&all_temps).curve(40),
    };

    let mut rows: Vec<(String, String)> = per_slot_median
        .iter()
        .enumerate()
        .map(|(slot, median)| (format!("GPU{} median", slot + 1), format!("{median:.1} °C")))
        .collect();
    rows.push((
        "P99 within-server spread".to_string(),
        format!(
            "{:.1} °C (paper: up to ≈10 °C)",
            output.within_server_spread_p99_c
        ),
    ));
    rows.push((
        "datacenter-wide range".to_string(),
        format!("{:.1} °C (paper: > 20 °C)", output.datacenter_range_c),
    ));
    print_table("Per-slot GPU temperature at identical load", &rows);
    println!(
        "\npaper: even-numbered GPUs (closer to the inlet) run cooler than odd-numbered ones."
    );

    write_json("fig08_09_gpu_heterogeneity", &output);
}
