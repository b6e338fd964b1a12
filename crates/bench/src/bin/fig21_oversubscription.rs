//! Fig. 21 — oversubscription sweep: fraction of time under thermal/power capping as racks
//! are added without adding cooling or power capacity.
//!
//! The paper finds the Baseline starts capping heavily beyond ≈20 % oversubscription while
//! TAPAS keeps capping below 0.7 % of the time up to ≈40 %, enabling ≈40 % more capacity on
//! the same infrastructure.

use cluster_sim::experiment::ExperimentConfig;
use cluster_sim::oversubscription::{sweep, OversubscriptionPoint};
use serde::Serialize;
use tapas::policy::Policy;
use tapas_bench::{full_scale_requested, header, write_json};

#[derive(Serialize)]
struct Fig21Output {
    baseline: Vec<OversubscriptionPoint>,
    tapas: Vec<OversubscriptionPoint>,
}

fn main() {
    let full = full_scale_requested();
    header("Figure 21: time under thermal/power capping vs oversubscription level");
    let base = if full {
        ExperimentConfig::production_week(Policy::Baseline)
    } else {
        ExperimentConfig::medium(Policy::Baseline)
    };
    let levels = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let baseline = sweep(&base, Policy::Baseline, &levels);
    let tapas = sweep(&base, Policy::Tapas, &levels);

    println!(
        "{:>8} {:>18} {:>18} {:>18} {:>18}",
        "extra%", "base thermal%", "base power%", "tapas thermal%", "tapas power%"
    );
    for (b, t) in baseline.iter().zip(tapas.iter()) {
        println!(
            "{:>8.0} {:>18.3} {:>18.3} {:>18.3} {:>18.3}",
            b.oversubscription * 100.0,
            b.thermal_capped_fraction * 100.0,
            b.power_capped_fraction * 100.0,
            t.thermal_capped_fraction * 100.0,
            t.power_capped_fraction * 100.0
        );
    }
    println!(
        "\npaper: Baseline capping grows quickly beyond 20 %; TAPAS stays below 0.7 % up to 40 %."
    );

    write_json("fig21_oversubscription", &Fig21Output { baseline, tapas });
}
