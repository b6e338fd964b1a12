//! Fig. 4 — inlet temperature distribution across physical entities: rows, racks within a
//! row, and height within a rack.

use dc_sim::engine::Datacenter;
use dc_sim::topology::LayoutConfig;
use serde::Serialize;
use simkit::stats::Summary;
use simkit::units::Celsius;
use std::collections::BTreeMap;
use tapas_bench::{header, print_table, write_json};

#[derive(Serialize)]
struct GroupStat {
    group: String,
    median_inlet_c: f64,
    spread_c: f64,
}

fn main() {
    header("Figure 4: inlet temperature by row, rack position within row, and height in rack");
    let dc = Datacenter::new(LayoutConfig::production_datacenter().build(), 42);
    let outside = Celsius::new(28.0);

    let inlet = |server: dc_sim::ids::ServerId| {
        dc.inlet_model()
            .inlet_temp(server, outside, 0.6, 0.0)
            .value()
    };

    let mut by_row: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut by_rack_pos: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut by_height: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for server in dc.layout().servers() {
        by_row
            .entry(server.row.index())
            .or_default()
            .push(inlet(server.id));
        by_rack_pos
            .entry(server.rack_position_in_row)
            .or_default()
            .push(inlet(server.id));
        by_height
            .entry(server.height_in_rack)
            .or_default()
            .push(inlet(server.id));
    }

    let mut stats = Vec::new();
    let mut table = Vec::new();
    let mut summarize = |label: &str, groups: &BTreeMap<usize, Vec<f64>>| {
        let medians: Vec<f64> = groups
            .values()
            .map(|v| Summary::from_values(v).p50)
            .collect();
        let spread = simkit::stats::max(&medians).unwrap() - simkit::stats::min(&medians).unwrap();
        table.push((format!("{label} median spread"), format!("{spread:.2} °C")));
        for (k, v) in groups {
            stats.push(GroupStat {
                group: format!("{label}-{k}"),
                median_inlet_c: Summary::from_values(v).p50,
                spread_c: spread,
            });
        }
    };
    summarize("row", &by_row);
    summarize("rack-position", &by_rack_pos);
    summarize("height", &by_height);

    print_table("Median inlet spread per grouping", &table);
    println!("\npaper: rows differ by up to ≈1 °C, racks within a row by up to ≈2 °C, height has a minor impact.");

    write_json("fig04_spatial_heterogeneity", &stats);
}
