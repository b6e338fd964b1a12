//! Automated bench snapshot capture for `BENCH_router.json`.
//!
//! Runs the criterion benches N times (best-of-N: the reference container shares one
//! vCPU, so any single run can be inflated by a noisy neighbour), merges the per-bench
//! best mins/medians, and either records them as a named section of `BENCH_router.json`
//! or soft-checks them against a recorded section (print warnings, always exit 0 — the
//! CI perf-regression check must not turn container noise into red builds).
//!
//! ```text
//! # record a section (the PR-capture workflow, previously hand-rolled):
//! cargo run --release -p tapas-bench --bin bench_snapshot -- \
//!     --section post_soa_physics --runs 3 --note "measured after the SoA kernels"
//!
//! # CI soft check against the recorded section (warn-only):
//! cargo run --release -p tapas-bench --bin bench_snapshot -- \
//!     --check --against post_soa_physics --runs 1 --benches end_to_end,hierarchy \
//!     --tolerance 3.0
//! ```

use serde::Value;
use std::path::PathBuf;
use std::process::Command;
use tapas_bench::snapshot::{
    compare_against, merge_best, parse_criterion_out, section_value, upsert_section, BenchResult,
};

const DEFAULT_BENCHES: &str =
    "router,end_to_end,hierarchy,fleet,scenario,request_fabric,configurator,allocator";

struct Args {
    section: String,
    runs: usize,
    benches: Vec<String>,
    out: PathBuf,
    check: bool,
    against: Option<String>,
    tolerance: f64,
    note: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        section: String::from("snapshot"),
        runs: 3,
        benches: DEFAULT_BENCHES.split(',').map(str::to_string).collect(),
        out: tapas_bench::workspace_root().join("BENCH_router.json"),
        check: false,
        against: None,
        tolerance: 3.0,
        note: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--section" => args.section = value("--section")?,
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--benches" => {
                args.benches = value("--benches")?
                    .split(',')
                    .filter(|b| !b.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = true,
            "--against" => args.against = Some(value("--against")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--note" => args.note = Some(value("--note")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.runs == 0 {
        return Err(String::from("--runs must be at least 1"));
    }
    Ok(args)
}

/// Runs one bench target with `CRITERION_OUT` pointed at `out_file`.
fn run_bench(bench: &str, out_file: &PathBuf) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| String::from("cargo"));
    let status = Command::new(cargo)
        .args(["bench", "-p", "tapas-bench", "--bench", bench])
        .env("CRITERION_OUT", out_file)
        .status()
        .map_err(|e| format!("failed to spawn cargo bench --bench {bench}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo bench --bench {bench} failed with {status}"))
    }
}

fn measure(args: &Args) -> Result<Vec<BenchResult>, String> {
    let mut runs = Vec::with_capacity(args.runs);
    for run in 0..args.runs {
        let out_file =
            std::env::temp_dir().join(format!("criterion-out-{}-{run}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&out_file);
        for bench in &args.benches {
            run_bench(bench, &out_file)?;
        }
        let contents = std::fs::read_to_string(&out_file)
            .map_err(|e| format!("no criterion output at {}: {e}", out_file.display()))?;
        let results = parse_criterion_out(&contents);
        if results.is_empty() {
            return Err(format!("run {run} produced no parseable results"));
        }
        println!(
            "[bench_snapshot] run {}/{}: {} results",
            run + 1,
            args.runs,
            results.len()
        );
        runs.push(results);
        let _ = std::fs::remove_file(&out_file);
    }
    Ok(merge_best(&runs))
}

fn report(merged: &[BenchResult]) {
    for result in merged {
        println!(
            "[bench_snapshot] {:<44} min {:>12.1} ns   median {:>12.1} ns",
            result.name, result.min_ns, result.median_ns
        );
    }
}

/// The baseline document's text and its parse.
fn load_document(path: &PathBuf) -> Result<(String, Value), String> {
    let contents = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let document = serde_json::from_str(&contents)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Ok((contents, document))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_snapshot: {message}");
            std::process::exit(2);
        }
    };
    // Resolve the baseline document (and, in check mode, the recorded section) *before*
    // spending minutes on the timed bench runs, so a misspelled section or a missing
    // baseline file fails in milliseconds instead of after the full suite.
    if args.check {
        // Soft perf-regression check: compare best-of-N mins against the recorded mins
        // with a generous tolerance. Warn-only — exit 0 regardless — because the shared
        // reference box is too noisy for a hard gate; the output is for humans reading
        // the CI log.
        let section_name = args.against.as_deref().unwrap_or(&args.section);
        let recorded = match load_document(&args.out)
            .and_then(|(_, doc)| doc.get(section_name).cloned().map_err(|e| e.to_string()))
        {
            Ok(recorded) => recorded,
            Err(message) => {
                println!("::warning::bench_snapshot check skipped: {message}");
                return;
            }
        };
        let merged = match measure(&args) {
            Ok(merged) => merged,
            Err(message) => {
                // Warn-only all the way down: a transient bench failure on the shared
                // box must not turn the soft check into a red build.
                println!("::warning::bench_snapshot check skipped: {message}");
                return;
            }
        };
        report(&merged);
        let regressions = compare_against(&recorded, &merged, args.tolerance);
        if regressions.is_empty() {
            println!(
                "[bench_snapshot] no regressions beyond {:.1}x vs `{section_name}`",
                args.tolerance
            );
        } else {
            for r in &regressions {
                println!(
                    "::warning::bench `{}` is {:.2}x the recorded min \
                     ({:.1} ns vs {:.1} ns in `{section_name}`)",
                    r.name, r.ratio, r.current_min_ns, r.recorded_min_ns
                );
            }
        }
        return;
    }

    // A missing baseline file bootstraps from an empty document (the tool maintains the
    // file, so it must be able to create it); an unparseable one is still a hard error —
    // silently clobbering a corrupted baseline would destroy the recorded history.
    let document = if args.out.exists() {
        match load_document(&args.out) {
            Ok((document, _)) => document,
            Err(message) => {
                eprintln!("bench_snapshot: {message}");
                std::process::exit(1);
            }
        }
    } else {
        String::from("{}\n")
    };
    let merged = match measure(&args) {
        Ok(merged) => merged,
        Err(message) => {
            eprintln!("bench_snapshot: {message}");
            std::process::exit(1);
        }
    };
    report(&merged);
    let section = section_value(&merged, args.note.as_deref());
    let updated = match upsert_section(&document, &args.section, &section) {
        Ok(updated) => updated,
        Err(message) => {
            eprintln!("bench_snapshot: {message}");
            std::process::exit(1);
        }
    };
    if let Err(err) = std::fs::write(&args.out, updated) {
        eprintln!("bench_snapshot: cannot write {}: {err}", args.out.display());
        std::process::exit(1);
    }
    println!(
        "[bench_snapshot] recorded section `{}` ({} benches, best of {} runs) in {}",
        args.section,
        merged.len(),
        args.runs,
        args.out.display()
    );
}
