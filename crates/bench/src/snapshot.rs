//! Bench snapshot tooling: parse `CRITERION_OUT` result lines, merge best-of-N runs, and
//! maintain the `BENCH_router.json` baseline document.
//!
//! The vendored criterion harness appends one JSON line per benchmark to the file named
//! by the `CRITERION_OUT` environment variable. The `bench_snapshot` binary drives the
//! benches N times, merges each benchmark's best (smallest) min/median across runs —
//! best-of-N is the right estimator on the shared 1-vCPU reference box, where any single
//! run can be inflated by a noisy neighbour — and records the result as a named section
//! of `BENCH_router.json`, or compares it against a recorded section (the CI soft
//! perf-regression check: warn, don't fail).

use serde::Value;
use std::ops::Range;

/// One benchmark's measurement (per-iteration nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name as criterion reports it (group benches are `group/name`).
    pub name: String,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
}

/// Parses the JSON lines a `CRITERION_OUT` run appended. Unparseable lines are skipped
/// (the file only ever receives criterion's own output, but a crashed run can truncate).
#[must_use]
pub fn parse_criterion_out(contents: &str) -> Vec<BenchResult> {
    contents
        .lines()
        .filter_map(|line| {
            let value: Value = serde_json::from_str(line.trim()).ok()?;
            Some(BenchResult {
                name: String::from_value(value.get("name").ok()?).ok()?,
                min_ns: f64::from_value(value.get("min_ns").ok()?).ok()?,
                median_ns: f64::from_value(value.get("median_ns").ok()?).ok()?,
            })
        })
        .collect()
}

/// Merges several runs' results into one best-of-N list: per benchmark name (first-seen
/// order), the smallest `min_ns` and the smallest `median_ns` across runs.
#[must_use]
pub fn merge_best(runs: &[Vec<BenchResult>]) -> Vec<BenchResult> {
    let mut merged: Vec<BenchResult> = Vec::new();
    for result in runs.iter().flatten() {
        match merged.iter_mut().find(|m| m.name == result.name) {
            Some(best) => {
                best.min_ns = best.min_ns.min(result.min_ns);
                best.median_ns = best.median_ns.min(result.median_ns);
            }
            None => merged.push(result.clone()),
        }
    }
    merged
}

/// Renders merged results as a `BENCH_router.json` section value: an ordered map of
/// benchmark name → `{min_ns, median_ns}`, optionally preceded by a `note`.
#[must_use]
pub fn section_value(results: &[BenchResult], note: Option<&str>) -> Value {
    let mut entries: Vec<(String, Value)> = Vec::new();
    if let Some(note) = note {
        entries.push((String::from("note"), Value::Str(note.to_string())));
    }
    for result in results {
        entries.push((
            result.name.clone(),
            Value::Map(vec![
                (String::from("min_ns"), Value::F64(round1(result.min_ns))),
                (
                    String::from("median_ns"),
                    Value::F64(round1(result.median_ns)),
                ),
            ]),
        ));
    }
    Value::Map(entries)
}

fn round1(value: f64) -> f64 {
    (value * 10.0).round() / 10.0
}

/// Inserts or replaces a named section in the baseline document's text, preserving the
/// order of existing keys (a replaced section stays where it was; a new one is appended).
///
/// Only the named section's text changes: every other byte of the document is kept. A
/// parse-and-reserialize round trip would not do that, because the JSON writer prints an
/// integral float such as `1.0` as `1`.
///
/// # Errors
/// Returns an error if the document does not parse or is not a JSON map.
pub fn upsert_section(document: &str, section: &str, value: &Value) -> Result<String, String> {
    let parsed: Value = serde_json::from_str(document).map_err(|e| e.to_string())?;
    if !matches!(parsed, Value::Map(_)) {
        return Err(format!(
            "baseline document must be a JSON map, got {}",
            parsed.kind()
        ));
    }
    let rendered = serde_json::to_string_pretty(value)
        .map_err(|e| e.to_string())?
        .replace('\n', "\n  ");
    let (entries, close) = top_level_entries(document);
    let (at, inserted) = match entries.iter().find(|(key, _)| key == section) {
        Some((_, span)) => (span.clone(), rendered),
        None => {
            let key = serde_json::to_string(section).map_err(|e| e.to_string())?;
            match entries.last() {
                Some((_, last)) => (last.end..last.end, format!(",\n  {key}: {rendered}")),
                None => (close..close, format!("\n  {key}: {rendered}\n")),
            }
        }
    };
    Ok(format!(
        "{}{inserted}{}",
        &document[..at.start],
        &document[at.end..]
    ))
}

/// The top-level entries of a JSON map's text, as `(key, value byte range)`, and the offset
/// of its closing brace. The text must already have parsed as a map.
fn top_level_entries(text: &str) -> (Vec<(String, Range<usize>)>, usize) {
    let bytes = text.as_bytes();
    let mut entries = Vec::new();
    let mut at = skip_whitespace(bytes, skip_whitespace(bytes, 0) + 1);
    while bytes[at] != b'}' {
        let key_end = skip_string(bytes, at);
        let key = serde_json::from_str(&text[at..key_end]).expect("the text parsed");
        let start = skip_whitespace(bytes, skip_whitespace(bytes, key_end) + 1);
        let end = skip_value(bytes, start);
        entries.push((key, start..end));
        at = skip_whitespace(bytes, end);
        if bytes[at] == b',' {
            at = skip_whitespace(bytes, at + 1);
        }
    }
    (entries, at)
}

fn skip_whitespace(bytes: &[u8], mut at: usize) -> usize {
    while bytes[at].is_ascii_whitespace() {
        at += 1;
    }
    at
}

/// The offset just past the string literal opening at `at`.
fn skip_string(bytes: &[u8], mut at: usize) -> usize {
    at += 1;
    while bytes[at] != b'"' {
        at += if bytes[at] == b'\\' { 2 } else { 1 };
    }
    at + 1
}

/// The offset just past the JSON value starting at `at`.
fn skip_value(bytes: &[u8], mut at: usize) -> usize {
    match bytes[at] {
        b'"' => skip_string(bytes, at),
        b'{' | b'[' => {
            let mut depth = 0usize;
            loop {
                match bytes[at] {
                    b'"' => {
                        at = skip_string(bytes, at);
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return at + 1;
                        }
                    }
                    _ => {}
                }
                at += 1;
            }
        }
        _ => {
            while !matches!(bytes[at], b',' | b'}' | b']') && !bytes[at].is_ascii_whitespace() {
                at += 1;
            }
            at
        }
    }
}

/// One soft-check finding: a benchmark whose current best min exceeds the recorded min
/// by more than the tolerance factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Recorded baseline min (ns).
    pub recorded_min_ns: f64,
    /// Current best min (ns).
    pub current_min_ns: f64,
    /// `current / recorded`.
    pub ratio: f64,
}

/// Compares current results against a recorded section with a generous tolerance factor
/// (noise on the shared reference box dwarfs real small regressions; this check exists
/// to catch order-of-magnitude mistakes, not percent drift). Benchmarks missing from the
/// recorded section are ignored.
#[must_use]
pub fn compare_against(
    recorded_section: &Value,
    current: &[BenchResult],
    tolerance: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for result in current {
        let Ok(entry) = recorded_section.get(&result.name) else {
            continue;
        };
        let Ok(recorded) = entry.get("min_ns").and_then(f64::from_value) else {
            continue;
        };
        if recorded > 0.0 && result.min_ns > recorded * tolerance {
            regressions.push(Regression {
                name: result.name.clone(),
                recorded_min_ns: recorded,
                current_min_ns: result.min_ns,
                ratio: result.min_ns / recorded,
            });
        }
    }
    regressions
}

use serde::Deserialize as _;

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, min: f64, median: f64) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            min_ns: min,
            median_ns: median,
        }
    }

    #[test]
    fn parses_criterion_out_lines() {
        let contents = "\
{\"name\":\"physics_step_80_servers\",\"min_ns\":1400.0,\"median_ns\":1450.2,\"max_ns\":1700.0}
not json
{\"name\":\"fleet_step_16_datacenters\",\"min_ns\":500000.0,\"median_ns\":512345.5,\"max_ns\":600000.0}
";
        let results = parse_criterion_out(contents);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "physics_step_80_servers");
        assert_eq!(results[0].median_ns, 1450.2);
        assert_eq!(results[1].min_ns, 500000.0);
    }

    #[test]
    fn merge_takes_best_of_each_metric_per_name() {
        let runs = vec![
            vec![result("a", 100.0, 120.0), result("b", 10.0, 11.0)],
            vec![result("a", 90.0, 130.0)],
            vec![result("b", 12.0, 10.5)],
        ];
        let merged = merge_best(&runs);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], result("a", 90.0, 120.0));
        assert_eq!(merged[1], result("b", 10.0, 10.5));
    }

    #[test]
    fn section_round_trips_through_json() {
        let section = section_value(&[result("a", 90.05, 120.0)], Some("note text"));
        let json = serde_json::to_string(&section).unwrap();
        assert!(json.contains("\"note\":\"note text\""));
        assert!(
            json.contains("\"min_ns\":90.1"),
            "rounded to one decimal: {json}"
        );
    }

    #[test]
    fn upsert_replaces_in_place_and_appends_new() {
        let doc = "{\"description\":\"d\",\"old\":{\"a\":{\"min_ns\":1.0}},\"tail\":1}";
        let doc =
            upsert_section(doc, "old", &section_value(&[result("a", 2.0, 3.0)], None)).unwrap();
        let doc = upsert_section(
            &doc,
            "fresh",
            &section_value(&[result("b", 4.0, 5.0)], None),
        )
        .unwrap();
        let Value::Map(entries) = serde_json::from_str(&doc).unwrap() else {
            panic!("map")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["description", "old", "tail", "fresh"]);
        assert!(
            doc.contains("\"old\":{\n    \"a\": {\n      \"min_ns\": 2"),
            "{doc}"
        );
        assert!(upsert_section("true", "x", &Value::Null).is_err());
        assert!(upsert_section("{\"x\":", "x", &Value::Null).is_err());
        let empty = upsert_section("{}\n", "x", &Value::Map(Vec::new())).unwrap();
        let empty: Value = serde_json::from_str(&empty).unwrap();
        assert_eq!(empty.get("x").unwrap(), &Value::Map(Vec::new()));
    }

    #[test]
    fn upsert_keeps_every_other_section_byte_for_byte() {
        // An untouched section holds integral floats and a string with braces and escapes.
        let doc = concat!(
            "{\n  \"kept\": {\n    \"a\": {\n      \"min_ns\": 1.0,\n",
            "      \"note\": \"x}, \\\"y\\\"\"\n    }\n  },\n",
            "  \"old\": [1.0, {\"b\": 2.0}],\n  \"tail\": 3.0\n}\n"
        );
        let section = section_value(&[result("c", 7.0, 8.0)], None);
        let replaced = upsert_section(doc, "old", &section).unwrap();
        let (head, rest) = doc.split_once("[1.0, {\"b\": 2.0}]").unwrap();
        assert!(replaced.starts_with(head), "{replaced}");
        assert!(replaced.ends_with(rest), "{replaced}");
        let appended = upsert_section(doc, "new", &section).unwrap();
        assert!(
            appended.starts_with(doc.trim_end_matches("\n}\n")),
            "{appended}"
        );
        assert!(appended.ends_with("\n}\n"), "{appended}");
        for text in [&replaced, &appended] {
            assert!(
                text.contains("\"min_ns\": 1.0,") && text.contains("\"tail\": 3.0"),
                "{text}"
            );
        }
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let recorded = section_value(
            &[result("fast", 100.0, 110.0), result("slow", 100.0, 110.0)],
            Some("baseline"),
        );
        let current = vec![
            result("fast", 140.0, 150.0),    // 1.4x: within a 1.5x tolerance
            result("slow", 260.0, 280.0),    // 2.6x: flagged
            result("unknown", 999.0, 999.0), // not recorded: ignored
        ];
        let regressions = compare_against(&recorded, &current, 1.5);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "slow");
        assert!((regressions[0].ratio - 2.6).abs() < 1e-9);
    }
}
