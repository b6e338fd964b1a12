//! Oversubscription planner: how many extra racks can this datacenter absorb before thermal
//! or power capping becomes significant? This is the provisioning question Fig. 21 answers —
//! the paper finds TAPAS makes ≈40 % additional capacity safe.
//!
//! Run with:
//! ```text
//! cargo run --release --example oversubscription_planner
//! ```

use cluster_sim::oversubscription::sweep;
use tapas_repro::prelude::*;

fn main() {
    println!("Oversubscription planner (two-row cluster, one-day replay per point)\n");
    let mut base = ExperimentConfig::medium(Policy::Baseline);
    base.duration = SimTime::from_days(1);

    let levels = [0.0, 0.1, 0.2, 0.3, 0.4];
    let baseline = sweep(&base, Policy::Baseline, &levels);
    let tapas = sweep(&base, Policy::Tapas, &levels);

    println!(
        "{:>8} | {:>22} | {:>22}",
        "extra %", "Baseline capped (th/pw %)", "TAPAS capped (th/pw %)"
    );
    let mut safe_baseline = 0.0;
    let mut safe_tapas = 0.0;
    for (b, t) in baseline.iter().zip(&tapas) {
        println!(
            "{:>8.0} | {:>10.2} / {:>9.2} | {:>10.2} / {:>9.2}",
            b.oversubscription * 100.0,
            b.thermal_capped_fraction * 100.0,
            b.power_capped_fraction * 100.0,
            t.thermal_capped_fraction * 100.0,
            t.power_capped_fraction * 100.0
        );
        let capped_b = b.thermal_capped_fraction.max(b.power_capped_fraction);
        let capped_t = t.thermal_capped_fraction.max(t.power_capped_fraction);
        if capped_b <= 0.007 {
            safe_baseline = b.oversubscription;
        }
        if capped_t <= 0.007 {
            safe_tapas = t.oversubscription;
        }
    }
    println!(
        "\nLargest level with capping below 0.7 % of the time: Baseline {:.0} %, TAPAS {:.0} %",
        safe_baseline * 100.0,
        safe_tapas * 100.0
    );
    println!(
        "(The paper reports TAPAS sustains up to 40 % additional servers at < 0.7 % capping.)"
    );
}
