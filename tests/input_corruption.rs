//! Seeded corruption property tests for user input: mutated copies of a scenario fleet
//! config, of the sample request traces, of a serialized run report and of a generated
//! scenario must end in `Ok` or a typed error, never a panic. Mutations are bit flips,
//! truncations and deletions of the inputs.

use simkit::rng::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tapas_repro::prelude::*;

const FLEET_JSON: &str = include_str!("golden/scenario_fleet.json");
const SAMPLE_CSV: &str = include_str!("data/sample_requests.csv");
const SAMPLE_JSONL: &str = include_str!("data/sample_requests.jsonl");

/// Mutated copies per input.
const CASES: usize = 1500;

/// One or two mutations of `input`. Half are bit flips in a digit: those mostly keep
/// the input well-formed and move a value (a window end, a site index, a fraction) past
/// what the checks accept. The rest are bit flips anywhere, deletions of a short run and
/// truncations. Flips touch only the low seven bits, so an ASCII input stays ASCII (and
/// therefore valid UTF-8).
fn mutate(rng: &mut SimRng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..rng.uniform_usize(1, 3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.uniform_usize(0, bytes.len());
        match rng.uniform_usize(0, 6) {
            0..=2 => {
                let digits: Vec<usize> = (0..bytes.len())
                    .filter(|&i| bytes[i].is_ascii_digit())
                    .collect();
                let at = if digits.is_empty() {
                    at
                } else {
                    digits[rng.uniform_usize(0, digits.len())]
                };
                bytes[at] ^= 1 << rng.uniform_usize(0, 4);
            }
            3 => bytes[at] ^= 1 << rng.uniform_usize(0, 7),
            4 => {
                let end = (at + rng.uniform_usize(1, 8)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Feeds `CASES` mutations of `input` to `classify` and counts the outcome classes it
/// returns (`0..N`), failing with the offending input if any case panics.
fn tally<const N: usize>(seed: u64, input: &str, classify: impl Fn(&str) -> usize) -> [usize; N] {
    assert!(
        input.is_ascii(),
        "the mutator keeps UTF-8 validity only for ASCII inputs"
    );
    let mut rng = SimRng::seed_from(seed).derive("input-corruption");
    let mut counts = [0; N];
    for case in 0..CASES {
        let bytes = mutate(&mut rng, input.as_bytes());
        let text = std::str::from_utf8(&bytes).expect("mutations keep ASCII");
        let class = catch_unwind(AssertUnwindSafe(|| classify(text)))
            .unwrap_or_else(|_| panic!("case {case} panicked on input:\n{text}"));
        counts[class] += 1;
    }
    counts
}

#[test]
fn corrupted_fleet_configs_end_in_typed_errors() {
    let counts = tally(
        31,
        FLEET_JSON.trim_end(),
        |text| match serde_json::from_str::<FleetConfig>(text).map(|fleet| fleet.check()) {
            Err(_) => 0,
            Ok(Err(_)) => 1,
            Ok(Ok(())) => 2,
        },
    );
    let [parse_errors, check_errors, valid] = counts;
    // Most mutations break the syntax or the shape; some keep both and break an
    // invariant `check` owns (an empty window, a site out of range, a capacity fraction).
    assert!(parse_errors >= CASES / 2, "{counts:?}");
    assert!(check_errors >= 10, "{counts:?}");
    assert!(valid >= CASES / 10, "{counts:?}");
}

#[test]
fn corrupted_request_traces_end_in_typed_errors() {
    for (seed, input, parse) in [
        (
            32,
            SAMPLE_CSV,
            parse_csv as fn(&str) -> Result<Vec<TraceRecord>, TraceError>,
        ),
        (33, SAMPLE_JSONL, parse_jsonl),
    ] {
        let counts = tally(seed, input, |text| usize::from(parse(text).is_ok()));
        let [errors, parsed] = counts;
        assert!(errors >= CASES / 2, "seed {seed}: {counts:?}");
        assert!(parsed >= CASES / 10, "seed {seed}: {counts:?}");
    }
}

/// `json` with every non-ASCII character written as a `\uXXXX` escape: the same document,
/// in the ASCII the mutator needs. (Non-ASCII only occurs inside JSON strings.)
fn ascii_escaped(json: &str) -> String {
    json.chars()
        .map(|c| {
            if c.is_ascii() {
                c.to_string()
            } else {
                let code = u32::from(c);
                assert!(code <= 0xFFFF, "escape needs a surrogate pair: {c}");
                format!("\\u{code:04x}")
            }
        })
        .collect()
}

#[test]
fn corrupted_run_reports_end_in_typed_errors() {
    let mut config = ExperimentConfig::small_smoke_test();
    config.policy = Policy::Tapas;
    let report = ClusterSimulator::new(config).run();
    let original = serde_json::to_string(&report).expect("reports serialize");
    let json = ascii_escaped(&original);
    let reparsed = serde_json::from_str::<RunReport>(&json).expect("escaped report parses");
    assert_eq!(
        serde_json::to_string(&reparsed).expect("reports serialize"),
        original
    );
    let counts = tally(34, &json, |text| {
        match serde_json::from_str::<RunReport>(text) {
            Err(_) => 0,
            Ok(report) => {
                // A report that parses answers its summary queries without panicking,
                // whatever values the mutation left in it.
                let figures = [
                    report.peak_temperature_c(),
                    report.normalized_peak_power(),
                    report.normalized_peak_temperature(),
                    report.thermal_capped_time_fraction(),
                    report.power_capped_time_fraction(),
                    report.slo_attainment(),
                    report.mean_quality(),
                    report.worst_step_slo_violations() as f64,
                ];
                let _ = (figures, report.last_stress_event_minute());
                1
            }
        }
    });
    let [parse_errors, parsed] = counts;
    // Digit flips inside numbers mostly keep the document well-formed.
    assert!(parse_errors >= CASES / 10, "{counts:?}");
    assert!(parsed >= CASES / 4, "{counts:?}");
}

#[test]
fn corrupted_generated_scenarios_end_in_typed_errors() {
    let sites = 4;
    let duration = SimTime::from_hours(6);
    let scenario = generate(
        7,
        &GeneratorConfig::new(IntensityTier::Adversarial, sites, duration),
    );
    let json = ascii_escaped(&serde_json::to_string(&scenario).expect("scenarios serialize"));
    let counts = tally(35, &json, |text| {
        match serde_json::from_str::<Scenario>(text) {
            Err(_) => 0,
            Ok(scenario) => match scenario.validate(sites) {
                Err(_) => 1,
                Ok(()) => {
                    // A scenario that validates resolves for every site it may target.
                    for site in 0..sites {
                        let _ = scenario.resolve(site, duration, SimDuration::from_minutes(5), 4);
                    }
                    2
                }
            },
        }
    });
    let [parse_errors, check_errors, valid] = counts;
    assert!(parse_errors >= CASES / 4, "{counts:?}");
    assert!(check_errors >= 10, "{counts:?}");
    assert!(valid >= CASES / 10, "{counts:?}");
}
