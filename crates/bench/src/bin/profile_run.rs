//! Where a whole fabric run spends its time, measured inside the program.
//!
//! Builds the `fabric80_day` benchmark workload (80 servers, one day at one-minute steps,
//! the request fabric at its default full rate), switches on the simulator's phase
//! profile, runs every step and prints one row per phase: milliseconds, share of the run
//! and microseconds per step. The profile reads the clock only; the run is the same run
//! the benchmark times. The config fingerprint (FNV-1a of the configuration's JSON) is
//! printed so the run can be matched to a benchmark manifest line.
//!
//! ```text
//! cargo run --release -p tapas-bench --bin profile_run -- [--seed 7]
//! ```

use cluster_sim::experiment::{ExperimentConfig, FleetConfig, RequestFabricConfig};
use cluster_sim::fleet::FleetSimulator;
use simkit::profile::StepPhase;
use simkit::time::{SimClock, SimTime};
use std::process::ExitCode;
use std::time::Instant;
use tapas::policy::Policy;

/// The `fabric80_day` workload at `seed`.
fn fabric80_day(seed: u64) -> FleetConfig {
    FleetConfig::single_site(
        ExperimentConfig::real_cluster_hour(Policy::Tapas)
            .with_seed(seed)
            .with_duration(SimTime::from_days(1))
            .with_request_fabric(RequestFabricConfig::default()),
    )
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

fn parse_seed() -> Result<u64, String> {
    let mut seed = 7;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(seed)
}

fn main() -> ExitCode {
    let seed = match parse_seed() {
        Ok(seed) => seed,
        Err(error) => {
            eprintln!("profile_run: {error}");
            return ExitCode::from(2);
        }
    };
    let config = fabric80_day(seed);
    let json = serde_json::to_string(&config).expect("configurations serialize");
    println!(
        "workload=fabric80_day seed={seed} config=0x{:016x}",
        fnv1a(json.as_bytes())
    );

    let mut sim = FleetSimulator::new(config.clone());
    sim.enable_phase_profile();
    let mut clock = SimClock::new(config.base.step, config.base.duration);
    let start = Instant::now();
    loop {
        sim.step(clock.now());
        if clock.tick().is_none() {
            break;
        }
    }
    let run_ns = start.elapsed().as_nanos() as u64;

    let profile = sim.phase_profile();
    let steps = profile.steps().max(1);
    let row = |label: &str, ns: u64| {
        println!(
            "{label:<16} {:>10.1} {:>6.1}% {:>10.1}",
            ns as f64 / 1e6,
            100.0 * ns as f64 / run_ns.max(1) as f64,
            ns as f64 / 1e3 / steps as f64
        );
    };
    println!(
        "{:<16} {:>10} {:>7} {:>10}",
        "phase", "ms", "share", "us/step"
    );
    for phase in StepPhase::ALL {
        row(phase.label(), profile.ns(phase));
    }
    row("unprofiled", run_ns.saturating_sub(profile.total_ns()));
    row("run", run_ns);
    println!("steps {}", profile.steps());
    ExitCode::SUCCESS
}
