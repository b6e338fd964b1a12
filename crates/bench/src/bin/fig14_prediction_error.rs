//! Fig. 14 — CDF of the row- and customer-based power prediction error with P50/P90/P99
//! templates; row prediction is within 10 % for most row-hours and the conservative P99
//! template rarely under-predicts.

use serde::Serialize;
use simkit::rng::SimRng;
use simkit::stats::Ecdf;
use simkit::time::SimTime;
use tapas_bench::{header, print_table, write_json};
use workload::diurnal::DiurnalPattern;
use workload::prediction::{PowerTemplate, TemplateKind};

#[derive(Serialize)]
struct Fig14Output {
    row_error_cdf: Vec<(f64, f64)>,
    row_within_10pct: f64,
    p99_underprediction_fraction: f64,
    customer_error_cdf_p50: Vec<(f64, f64)>,
    customer_underprediction_p90: f64,
    customer_underprediction_p99: f64,
}

/// One week of `(time, value)` samples.
type WeekSeries = Vec<(SimTime, f64)>;

/// Synthesizes a two-week signal: an aggregate "row" (many VMs, low relative noise) or a
/// single "customer" (one VM, higher relative noise).
fn two_weeks(vms: usize, seed: u64) -> (WeekSeries, WeekSeries) {
    let patterns: Vec<DiurnalPattern> = (0..vms)
        .map(|i| DiurnalPattern::interactive(seed + i as u64).with_peak_hour(12.0 + (i % 6) as f64))
        .collect();
    let mut rng = SimRng::seed_from(seed).derive("fig14");
    let sample = |minute: u64, rng: &mut SimRng| {
        let t = SimTime::from_minutes(minute);
        let base: f64 = patterns.iter().map(|p| 1.6 + 4.9 * p.load_at(t)).sum();
        (t, base + rng.normal(0.0, 0.05 * base))
    };
    let week1 = (0..7 * 1440)
        .step_by(10)
        .map(|m| sample(m, &mut rng))
        .collect();
    let week2 = (7 * 1440..14 * 1440)
        .step_by(10)
        .map(|m| sample(m, &mut rng))
        .collect();
    (week1, week2)
}

fn main() {
    header("Figure 14: power prediction error CDFs (row- and customer-based templates)");

    // Row-based: aggregate of 40 VMs, P50 template (Fig. 14a).
    let (row_history, row_future) = two_weeks(40, 1);
    let row_template = PowerTemplate::fit(TemplateKind::P50, &row_history);
    let row_errors = row_template.percentage_errors(&row_future);
    let row_within_10 =
        row_errors.iter().filter(|e| e.abs() <= 10.0).count() as f64 / row_errors.len() as f64;
    let p99_template = PowerTemplate::fit(TemplateKind::P99, &row_history);
    let p99_under = p99_template.underprediction_fraction(&row_future);

    // Customer-based: a single VM, templates P50/P90/P99 (Fig. 14b).
    let (customer_history, customer_future) = two_weeks(1, 2);
    let c_p50 = PowerTemplate::fit(TemplateKind::P50, &customer_history);
    let c_p90 = PowerTemplate::fit(TemplateKind::P90, &customer_history);
    let c_p99 = PowerTemplate::fit(TemplateKind::P99, &customer_history);

    let output = Fig14Output {
        row_error_cdf: Ecdf::new(&row_errors).curve(30),
        row_within_10pct: row_within_10,
        p99_underprediction_fraction: p99_under,
        customer_error_cdf_p50: Ecdf::new(&c_p50.percentage_errors(&customer_future)).curve(30),
        customer_underprediction_p90: c_p90.underprediction_fraction(&customer_future),
        customer_underprediction_p99: c_p99.underprediction_fraction(&customer_future),
    };

    print_table(
        "Prediction quality",
        &[
            (
                "row-hours within ±10 % (P50 template)".to_string(),
                format!(
                    "{:.1} % (paper: most row-hours)",
                    output.row_within_10pct * 100.0
                ),
            ),
            (
                "row-hours under-predicted by the P99 template".to_string(),
                format!(
                    "{:.1} % (paper: < 4 %)",
                    output.p99_underprediction_fraction * 100.0
                ),
            ),
            (
                "customer-hours under-predicted (P90 / P99)".to_string(),
                format!(
                    "{:.1} % / {:.1} % (paper: 2–7 %)",
                    output.customer_underprediction_p90 * 100.0,
                    output.customer_underprediction_p99 * 100.0
                ),
            ),
        ],
    );

    write_json("fig14_prediction_error", &output);
}
