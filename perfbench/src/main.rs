//! End-to-end benchmark of the TAPAS simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --setup-once
//! ```
//!
//! `run.py` builds this binary and drives it; see `README.md` for the metrics, the
//! layer → end-to-end map and how to read the numbers.
//!
//! * `--trace 0` times whole runs through the public entry points only:
//!   `FleetSimulator::new(config)` then `.run()`, cycling through the workload's timed
//!   seeds (`--seed` and seeds derived from it) until `--seconds` have passed and the
//!   first seed has run twice. `run_ref` divides each run by the reference kernel timed
//!   around it (`reference.rs`) and averages the per-seed medians. `peak_rss_mb` is the
//!   process's high-water resident set when the first run returns. Every run's report is
//!   checked (finite metrics, the fabric conservation identity) and must match the first
//!   run on its seed; the two runs of `--seed` are digested and must agree.
//! * `--trace 1` makes one untraced run (the reference for `trace.overhead`), one run
//!   that times every `FleetSimulator::step` call, and then replays each layer's public
//!   functions on the workload's own inputs (see `layers.rs`).
//! * `--setup-once` times one `FleetSimulator::new` in a fresh process, so the process-wide
//!   profile cache is cold, as it is for a user's single run.
//!
//! The last line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any failed check exits with code 1 before that line is printed.

mod layers;
mod reference;
mod stats;
mod workloads;

use cluster_sim::experiment::FleetConfig;
use cluster_sim::fleet::FleetSimulator;
use cluster_sim::metrics::FleetReport;
use simkit::events::EventKind;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One metric as printed: name, value (`None` = not applicable here) and unit.
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: Some(value),
            unit,
        }
    }

    fn not_applicable(name: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            value: None,
            unit,
        }
    }
}

/// The gated end-to-end metrics this binary measures, in the order the JSON line carries
/// them (`run.py` adds `setup_s`, which needs fresh processes). Raw `run_s` is printed
/// but not gated: on a shared host it swings by up to 2× between runs, so the gate reads
/// the host-normalised `run_ref` instead (see `reference.rs`).
pub const GATED_END_TO_END: [&str; 4] =
    ["run_ref", "peak_rss_mb", "peak_gpu_temp_c", "mean_quality"];

/// The simulated outcome of one run: what TAPAS is judged on, plus the failure counts.
#[derive(Clone, Copy, PartialEq)]
struct Outcome {
    /// FNV-1a of the serialized `FleetReport`, when it was taken.
    digest: Option<u64>,
    thermal_throttle_events: usize,
    power_cap_events: usize,
    peak_gpu_temp_c: f64,
    slo_attainment: f64,
    mean_quality: f64,
    /// `(attainment at 5×, TTFT p99 histogram edge in ms)` when the fabric ran.
    fabric: Option<(f64, f64)>,
    vms_arrived: u64,
    vms_rejected: u64,
    requests_arrived: u64,
    requests_shed: u64,
    requests_timed_out: u64,
    vms_placed: usize,
    reconfigurations: usize,
}

impl Outcome {
    /// Reads and checks a report, digesting it if `digest` is set (serializing a week-long
    /// report takes about half as long as running it). Fails on a broken fabric
    /// conservation identity, a non-finite outcome, or a site that did not record every
    /// step.
    fn check(report: &FleetReport, config: &FleetConfig, digest: bool) -> Result<Self, String> {
        let steps = config.base.duration.as_minutes() / config.base.step.as_minutes() + 1;
        for (site, run) in report.sites.iter().enumerate() {
            if run.max_gpu_temp.len() as u64 != steps {
                return Err(format!(
                    "site {site} recorded {} steps, expected {steps}",
                    run.max_gpu_temp.len()
                ));
            }
        }
        let count = |kind| {
            report
                .sites
                .iter()
                .map(|s| s.events.count(kind))
                .sum::<usize>()
        };
        let fabric = report.request_fabric();
        let (mut requests_arrived, mut requests_shed, mut requests_timed_out) = (0, 0, 0);
        if let Some(metrics) = &fabric {
            let life = metrics.lifecycle;
            let accounted =
                metrics.completed + life.shed + life.timeouts + life.in_flight_at_horizon;
            if life.arrived != accounted {
                return Err(format!(
                    "fabric identity broken: arrived {} != completed {} + shed {} + timeouts {} \
                     + in flight {}",
                    life.arrived,
                    metrics.completed,
                    life.shed,
                    life.timeouts,
                    life.in_flight_at_horizon
                ));
            }
            (requests_arrived, requests_shed, requests_timed_out) =
                (life.arrived, life.shed, life.timeouts);
        }
        let outcome = Self {
            digest: digest.then(|| stats::json_digest(report)),
            thermal_throttle_events: report.thermal_throttle_events(),
            power_cap_events: report.power_cap_events(),
            peak_gpu_temp_c: report.peak_temperature_c(),
            slo_attainment: report.slo_attainment(),
            mean_quality: report.mean_quality(),
            fabric: fabric.map(|m| (m.attainment_at(5.0), m.ttft.quantile_edge_ms(0.99) as f64)),
            vms_arrived: report.total_vms_routed(),
            vms_rejected: count(EventKind::VmRejected) as u64,
            requests_arrived,
            requests_shed,
            requests_timed_out,
            vms_placed: count(EventKind::VmPlaced),
            reconfigurations: count(EventKind::InstanceReconfigured),
        };
        for metric in outcome.metrics() {
            if metric.value.is_some_and(|v| !v.is_finite()) {
                return Err(format!("{} is not finite", metric.name));
            }
        }
        Ok(outcome)
    }

    /// `true` when two runs of one workload and seed agree: every outcome, and the
    /// digests where both were taken.
    fn matches(&self, other: &Self) -> bool {
        let digests_agree = match (self.digest, other.digest) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        digests_agree
            && Self {
                digest: None,
                ..*self
            } == Self {
                digest: None,
                ..*other
            }
    }

    fn failed(&self) -> u64 {
        self.vms_rejected + self.requests_shed + self.requests_timed_out
    }

    fn attempted(&self) -> u64 {
        self.vms_arrived + self.requests_arrived
    }

    /// The simulated end-to-end metrics (deterministic for a workload and seed).
    fn metrics(&self) -> Vec<Metric> {
        let fabric = |name, unit, pick: fn((f64, f64)) -> f64| match self.fabric {
            Some(values) => Metric::new(name, pick(values), unit),
            None => Metric::not_applicable(name, unit),
        };
        vec![
            Metric::new(
                "thermal_throttle_events",
                self.thermal_throttle_events as f64,
                "count",
            ),
            Metric::new("power_cap_events", self.power_cap_events as f64, "count"),
            Metric::new("peak_gpu_temp_c", self.peak_gpu_temp_c, "degC"),
            Metric::new("slo_attainment", self.slo_attainment, "fraction"),
            Metric::new("mean_quality", self.mean_quality, "fraction"),
            fabric("fabric_attainment_5x", "fraction", |(attainment, _)| {
                attainment
            }),
            fabric("ttft_p99_ms", "sim_ms", |(_, p99)| p99),
            Metric::new(
                "failed_ratio",
                self.failed() as f64 / self.attempted().max(1) as f64,
                "fraction",
            ),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_once: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10,
        trace: false,
        setup_once: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-once" {
            args.setup_once = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let Some(config) = workloads::config(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            workloads::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.setup_once {
        let before = reference::time_kernel();
        let start = Instant::now();
        let sim = FleetSimulator::new(config);
        let setup_s = start.elapsed().as_secs_f64();
        drop(sim);
        let after = reference::time_kernel();
        println!("setup_s {setup_s} kernel_s {before} {after}");
        return ExitCode::SUCCESS;
    }
    let result = if args.trace {
        run_traced(&args, &config)
    } else {
        run_timed(&args, &config)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: check failed: {error}");
            ExitCode::from(1)
        }
    }
}

/// The run manifest: what was run, on what, and what it produced. Wall-clock never
/// enters the digest.
fn print_manifest(args: &Args, config: &FleetConfig, outcome: &Outcome) {
    let digest = outcome.digest.expect("the first run is digested");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "manifest workload={} seed={} config=0x{:016x} features=[] nproc={nproc} digest=0x{digest:016x}",
        args.workload,
        args.seed,
        stats::json_digest(config),
    );
}

/// `--trace 0`: whole runs, medians, correctness checks. The runs cycle through the
/// workload's timed seeds (`workloads::timed_seeds`, the first being `--seed`) until
/// `--seconds` have passed and the first seed has run twice. Each run is bracketed by
/// timings of the reference kernel and divided by the mean of its two brackets; `run_ref`
/// is the mean over seeds of each seed's median. Every run's outcome must match the first
/// run on its seed, and the first seed's two first runs are digested and must agree. The
/// simulated metrics and the manifest are those of `--seed`.
fn run_timed(args: &Args, config: &FleetConfig) -> Result<(), String> {
    let seeds = workloads::timed_seeds(&args.workload, args.seed);
    let configs: Vec<FleetConfig> = seeds
        .iter()
        .map(|&seed| workloads::config(&args.workload, seed).expect("a known workload"))
        .collect();
    // The run that repeats the first seed, and is digested to compare with run 0.
    let repeat = seeds.len();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut run_s = Vec::new();
    let mut run_ref = vec![Vec::new(); seeds.len()];
    let mut setup_s = Vec::new();
    let mut kernel_s = vec![reference::time_kernel()];
    let mut first: Vec<Option<Outcome>> = vec![None; seeds.len()];
    let mut peak_rss_mb = 0.0;
    for run in 0.. {
        let seed = run % seeds.len();
        let config = &configs[seed];
        let t0 = Instant::now();
        let sim = FleetSimulator::new(config.clone());
        let t1 = Instant::now();
        let report = sim.run();
        let t2 = Instant::now();
        let before = kernel_s[kernel_s.len() - 1];
        let after = reference::time_kernel();
        kernel_s.push(after);
        setup_s.push((t1 - t0).as_secs_f64());
        run_s.push((t2 - t1).as_secs_f64());
        run_ref[seed].push((t2 - t1).as_secs_f64() / ((before + after) / 2.0));
        if run == 0 {
            // Before the digest, whose serialization tree dwarfs the simulator's memory.
            peak_rss_mb = max_rss_kib() / 1024.0;
        }
        let outcome = Outcome::check(&report, config, run == 0 || run == repeat)?;
        drop(report);
        let first_outcome = *first[seed].get_or_insert(outcome);
        if !outcome.matches(&first_outcome) {
            return Err(format!(
                "run {} differs from the first run on seed {} (digest or outcome)",
                run + 1,
                seeds[seed]
            ));
        }
        if run >= repeat && started.elapsed() >= budget {
            break;
        }
    }
    let outcome = first[0].expect("at least one run");
    print_manifest(args, config, &outcome);
    let samples = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let per_seed: Vec<f64> = run_ref
        .iter()
        .map(|runs| stats::median(runs).expect("every seed ran"))
        .collect();
    for (seed, median) in seeds.iter().zip(&per_seed) {
        println!("run_ref seed {seed}: {median:.4}");
    }
    println!(
        "run_s samples ({} runs over {} seeds): {}",
        run_s.len(),
        seeds.len(),
        samples(&run_s)
    );
    println!(
        "reference kernel s (around the runs): {}",
        samples(&kernel_s)
    );
    println!(
        "in-process setup_s median {:.6} (profile cache warm after run 1)",
        stats::median(&setup_s).expect("runs")
    );
    let mut metrics = vec![
        Metric::new(
            "run_ref",
            per_seed.iter().sum::<f64>() / per_seed.len() as f64,
            "ref",
        ),
        Metric::new("run_s", stats::median(&run_s).expect("runs"), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    metrics.extend(outcome.metrics());
    for metric in &metrics {
        match metric.value {
            Some(value) => println!("metric {} {value} {}", metric.name, metric.unit),
            None => println!("metric {} n/a {} (fabric off)", metric.name, metric.unit),
        }
    }
    println!(
        "failed_ratio base: ({} VMs rejected + {} requests shed + {} timed out) / ({} VMs arrived + {} requests arrived)",
        outcome.vms_rejected,
        outcome.requests_shed,
        outcome.requests_timed_out,
        outcome.vms_arrived,
        outcome.requests_arrived,
    );
    let gated: Vec<&Metric> = GATED_END_TO_END
        .iter()
        .map(|name| find(&metrics, name))
        .collect();
    print_result(run_s.len(), &gated);
    Ok(())
}

/// High-water resident set of this process so far, in KiB (Linux `getrusage`).
fn max_rss_kib() -> f64 {
    use std::ffi::{c_int, c_long};
    /// `struct rusage` on Linux: two `timeval`s (two longs each), then fourteen longs.
    #[repr(C)]
    struct Rusage {
        utime: [c_long; 2],
        stime: [c_long; 2],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of `struct rusage`, so
    // getrusage writes only inside it; RUSAGE_SELF is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        status, 0,
        "getrusage(RUSAGE_SELF) fails only on a bad pointer"
    );
    usage.maxrss as f64
}

fn find<'a>(metrics: &'a [Metric], name: &str) -> &'a Metric {
    metrics
        .iter()
        .find(|m| m.name == name)
        .expect("metric is produced")
}

/// Prints the final JSON line. `attempted` counts whole simulation runs; a run whose
/// checks fail stops the benchmark before this line, so `failed` is 0 when it prints.
fn print_result(attempted: usize, metrics: &[&Metric]) {
    let mut body = String::new();
    for (i, metric) in metrics.iter().enumerate() {
        assert!(stats::valid_metric_name(metric.name) && stats::valid_unit(metric.unit));
        let value = metric.value.expect("gated metrics apply to every workload");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        )
        .expect("writing to a String");
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{body}}}}}"
    );
}

/// `--trace 1`: the per-layer numbers.
fn run_traced(args: &Args, config: &FleetConfig) -> Result<(), String> {
    // Untraced reference run: run time for `trace.overhead`, report counts, digest.
    let sim = FleetSimulator::new(config.clone());
    let start = Instant::now();
    let report = sim.run();
    let untraced_s = start.elapsed().as_secs_f64();
    let outcome = Outcome::check(&report, config, true)?;
    drop(report);
    print_manifest(args, config, &outcome);

    let traced = layers::traced_run(config);
    let mut replays = layers::replay(config, &traced)?;
    let notes = std::mem::take(&mut replays.notes);

    let steady = &traced.step_ms[1..];
    let mut sorted = steady.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(sorted.len())
        .ok_or_else(|| format!("only {} steady steps", sorted.len()))?;
    let p50 = stats::percentile(&sorted, 50.0).expect("steady steps");
    let traced_total_s: f64 = traced.step_ms.iter().sum::<f64>() / 1e3;
    let mut metrics = vec![
        Metric::new("cluster.first_step_ms", traced.step_ms[0], "ms"),
        Metric::new("cluster.step_p50_ms", p50, "ms"),
        Metric::new(
            "cluster.step_p95_ms",
            stats::percentile(&sorted, 95.0).expect("steady"),
            "ms",
        ),
        Metric::new(
            "cluster.step_tail_ms",
            stats::percentile(&sorted, tail).expect("steady"),
            "ms",
        ),
        Metric::new("cluster.step_tail_pct", tail, "%"),
        Metric::new("cluster.step_samples", sorted.len() as f64, "count"),
        Metric::new("cluster.steps", traced.step_ms.len() as f64, "count"),
        Metric::new("cluster.vms_placed", outcome.vms_placed as f64, "count"),
        Metric::new(
            "cluster.reconfigurations",
            outcome.reconfigurations as f64,
            "count",
        ),
        Metric::new("trace.overhead", traced_total_s / untraced_s, "ratio"),
    ];
    metrics.extend(replays.metrics(p50));
    for metric in &metrics {
        println!(
            "metric {} {} {}",
            metric.name,
            metric.value.expect("per-layer"),
            metric.unit
        );
    }
    for note in &notes {
        println!("note {note}");
    }
    let gated: Vec<&Metric> = layers::PER_LAYER
        .iter()
        .map(|name| find(&metrics, name))
        .collect();
    print_result(1, &gated);
    Ok(())
}
