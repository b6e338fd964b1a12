//! Fig. 2 / Fig. 3 — server inlet temperature follows the outside temperature, with
//! per-server offsets and the three-regime relationship (floor below ≈15 °C, linear to
//! ≈25 °C, compressed slope above).

use dc_sim::engine::Datacenter;
use dc_sim::ids::ServerId;
use dc_sim::topology::LayoutConfig;
use dc_sim::weather::{Climate, WeatherModel};
use serde::Serialize;
use simkit::time::SimTime;
use tapas_bench::{header, print_series, write_json};

#[derive(Serialize)]
struct Fig0203Output {
    /// (outside °C, inlet °C) regression points for three sample servers.
    regression: Vec<(String, Vec<(f64, f64)>)>,
    /// One month of (day, outside °C, inlet °C of server 2) samples.
    timeline: Vec<(f64, f64, f64)>,
}

fn main() {
    header("Figures 2–3: inlet temperature vs outside temperature for sample servers");
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let servers = [ServerId::new(2), ServerId::new(25), ServerId::new(78)];

    // Fig. 3: the inlet/outside regression for each sample server.
    let mut regression = Vec::new();
    for (i, &server) in servers.iter().enumerate() {
        let points: Vec<(f64, f64)> = (-5..=40)
            .step_by(5)
            .map(|t| {
                let outside = simkit::units::Celsius::new(f64::from(t));
                (
                    f64::from(t),
                    dc.inlet_model()
                        .inlet_temp(server, outside, 0.5, 0.0)
                        .value(),
                )
            })
            .collect();
        print_series(&format!("server {} inlet vs outside", i + 1), &points);
        regression.push((format!("server-{}", i + 1), points));
    }

    // Fig. 2: a month-long timeline for one server in a temperate summer.
    let mut weather = WeatherModel::new(Climate::temperate(), 42);
    let timeline: Vec<(f64, f64, f64)> = (0..(30 * 24))
        .map(|h| {
            let t = SimTime::from_hours(h);
            let outside = weather.outside_temp(t);
            let inlet = dc.inlet_model().inlet_temp(servers[0], outside, 0.5, 0.0);
            (t.as_days(), outside.value(), inlet.value())
        })
        .collect();
    println!("\nday, outside °C, inlet °C (first week shown)");
    for (d, o, i) in timeline.iter().take(7 * 24).step_by(12) {
        println!("{d:5.2}, {o:6.1}, {i:6.1}");
    }
    println!("\npaper: inlet follows outside; floor ≈18 °C below 15 °C outside; servers differ by a ~2 °C offset.");

    write_json(
        "fig02_03_inlet_vs_outside",
        &Fig0203Output {
            regression,
            timeline,
        },
    );
}
