//! Fig. 5 — inlet temperature as a function of datacenter load and outside temperature.

use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::LayoutConfig;
use serde::Serialize;
use simkit::units::Celsius;
use tapas_bench::{header, print_series, write_json};

#[derive(Serialize)]
struct Fig05Output {
    /// (outside °C, inlet °C) series per datacenter load level.
    by_load: Vec<(f64, Vec<(f64, f64)>)>,
    /// Inlet increase (°C) from idle to full load at 35 °C outside.
    load_delta_at_35c: f64,
}

fn main() {
    header("Figure 5: inlet temperature vs datacenter load and outside temperature");
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let server = ServerId::new(10);

    let mut by_load = Vec::new();
    for load in [0.0, 0.5, 1.0] {
        let series: Vec<(f64, f64)> = (10..=40)
            .step_by(5)
            .map(|t| {
                let outside = Celsius::new(f64::from(t));
                (
                    f64::from(t),
                    dc.inlet_model()
                        .inlet_temp(server, outside, load, 0.0)
                        .value(),
                )
            })
            .collect();
        print_series(&format!("load {:.0} %", load * 100.0), &series);
        by_load.push((load, series));
    }
    let idle = dc
        .inlet_model()
        .inlet_temp(server, Celsius::new(35.0), 0.0, 0.0)
        .value();
    let busy = dc
        .inlet_model()
        .inlet_temp(server, Celsius::new(35.0), 1.0, 0.0)
        .value();
    println!(
        "\nAt 35 °C outside the inlet rises {:.1} °C from idle to full load (paper: ≈2 °C).",
        busy - idle
    );

    write_json(
        "fig05_inlet_vs_load",
        &Fig05Output {
            by_load,
            load_delta_at_35c: busy - idle,
        },
    );
}
