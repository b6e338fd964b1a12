//! Fig. 12 — VM lifetime CDF (most GPU VMs live for weeks) and the number of VMs per SaaS
//! endpoint (heavy-tailed; half of all VMs belong to endpoints with >100 VMs).

use serde::Serialize;
use simkit::stats::Ecdf;
use tapas_bench::{header, print_table, write_json};
use workload::arrivals::{ArrivalConfig, VmArrivalGenerator};
use workload::endpoints::EndpointCatalog;

#[derive(Serialize)]
struct Fig12Output {
    lifetime_cdf_days: Vec<(f64, f64)>,
    fraction_over_two_weeks: f64,
    endpoint_size_cdf: Vec<(f64, f64)>,
    vm_share_in_large_endpoints: f64,
}

fn main() {
    header("Figure 12: VM lifetimes and VMs per SaaS endpoint");
    let mut generator = VmArrivalGenerator::new(ArrivalConfig::evaluation_week(1000), 42);
    let lifetimes: Vec<f64> = (0..20_000)
        .map(|_| generator.draw_lifetime().as_days())
        .collect();
    let over_two_weeks =
        lifetimes.iter().filter(|&&d| d >= 14.0).count() as f64 / lifetimes.len() as f64;

    let catalog = EndpointCatalog::production_shaped(400, 10.0, 42);
    let sizes: Vec<f64> = catalog
        .endpoints()
        .iter()
        .map(|e| e.vm_count as f64)
        .collect();
    let total_vms: f64 = sizes.iter().sum();
    let in_large: f64 = sizes.iter().filter(|&&s| s >= 100.0).sum();

    let output = Fig12Output {
        lifetime_cdf_days: Ecdf::new(&lifetimes).curve(30),
        fraction_over_two_weeks: over_two_weeks,
        endpoint_size_cdf: Ecdf::new(&sizes).curve(30),
        vm_share_in_large_endpoints: in_large / total_vms,
    };

    print_table(
        "Distributions",
        &[
            (
                "VMs living longer than two weeks".to_string(),
                format!(
                    "{:.1} % (paper: > 60 %)",
                    output.fraction_over_two_weeks * 100.0
                ),
            ),
            (
                "share of SaaS VMs in endpoints with ≥100 VMs".to_string(),
                format!(
                    "{:.1} % (paper: ≈50 %)",
                    output.vm_share_in_large_endpoints * 100.0
                ),
            ),
        ],
    );

    write_json("fig12_vm_distributions", &output);
}
