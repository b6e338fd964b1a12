//! Fig. 6 / Fig. 7 — GPU and GPU-memory temperature alongside inlet temperature and GPU
//! power, and the linear regression of GPU temperature on inlet temperature and power
//! (mean absolute error below 1 °C).

use dc_sim::engine::Datacenter;
use dc_sim::ids::{GpuId, ServerId};
use dc_sim::topology::LayoutConfig;
use llm_sim::hardware::GpuHardware;
use serde::Serialize;
use simkit::units::{Celsius, Watts};
use tapas::profiles::ProfileStore;
use tapas_bench::{header, print_table, write_json};

#[derive(Serialize)]
struct Fig0607Output {
    /// (gpu power W, inlet °C, gpu °C, mem °C) samples.
    samples: Vec<(f64, f64, f64, f64)>,
    regression_mae_c: f64,
}

fn main() {
    header("Figures 6–7: GPU/memory temperature vs inlet temperature and GPU power");
    let dc = Datacenter::new(LayoutConfig::real_cluster_two_rows().build(), 42);
    let profiles = ProfileStore::offline_profiling(&dc, &GpuHardware::a100());
    let server = ServerId::new(5);
    let gpu = GpuId::new(server, 1);

    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for inlet in [18.0, 22.0, 26.0, 30.0] {
        for power in [60.0, 200.0, 300.0, 400.0, 500.0, 600.0] {
            let temps =
                dc.gpu_model()
                    .temperatures(gpu, Celsius::new(inlet), Watts::new(power), 0.6);
            samples.push((power, inlet, temps.gpu.value(), temps.memory.value()));
            // Fitted model error against the worst GPU of the server (the paper's regression
            // achieves < 1 °C MAE).
            let worst = (0..8)
                .map(|slot| {
                    dc.gpu_model()
                        .temperatures(
                            GpuId::new(server, slot),
                            Celsius::new(inlet),
                            Watts::new(power),
                            0.6,
                        )
                        .gpu
                        .value()
                })
                .fold(f64::MIN, f64::max);
            let predicted = profiles
                .server(server)
                .predicted_worst_gpu_temp(Celsius::new(inlet), Watts::new(power))
                .value();
            errors.push((worst - predicted).abs());
        }
    }
    let mae = simkit::stats::mean(&errors).unwrap();

    println!("power W, inlet °C, GPU °C, mem °C");
    for (p, i, g, m) in &samples {
        println!("{p:7.0}, {i:7.1}, {g:6.1}, {m:6.1}");
    }
    print_table(
        "Regression quality",
        &[(
            "fitted Eq. 2 mean absolute error".to_string(),
            format!("{mae:.2} °C (paper: < 1 °C)"),
        )],
    );

    write_json(
        "fig06_07_gpu_temp_model",
        &Fig0607Output {
            samples,
            regression_mae_c: mae,
        },
    );
}
