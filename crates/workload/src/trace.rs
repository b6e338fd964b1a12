//! Inference-trace ingestion: Azure-LLM-inference-style CSV and JSONL parsers.
//!
//! Public LLM inference traces (e.g. the Azure LLM inference dataset) are tables of
//! per-request rows: an arrival timestamp, the endpoint (deployment) the request hit, and
//! the prompt/output token counts. This module parses both common encodings into
//! [`TraceRecord`]s with typed [`TraceError`]s, and converts record streams into the two
//! replay shapes the simulator consumes:
//!
//! * the request fabric replays records directly (each record is one
//!   `InferenceRequest`-shaped event), and
//! * `FleetSimulator::with_arrivals` takes a VM arrival stream, which
//!   [`vm_arrivals_from_trace`] synthesizes by mapping each record's endpoint activity
//!   onto SaaS VM arrivals.
//!
//! Column order in CSV is discovered from the header line; JSONL uses the same field
//! names (`timestamp_ms`, `endpoint`, `prompt_tokens`, `output_tokens`).

use crate::endpoints::EndpointId;
use crate::vm::{Vm, VmId, VmKind};
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use std::fmt;

/// One parsed trace row: a single inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival time in milliseconds from the trace origin.
    pub timestamp_ms: u64,
    /// Endpoint (deployment) identifier.
    pub endpoint: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output length in tokens.
    pub output_tokens: u32,
}

/// Typed trace-parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input contains no records (CSV: no data lines after the header).
    Empty,
    /// The CSV header is missing a required column.
    MissingColumn {
        /// The absent column name.
        column: &'static str,
    },
    /// A data line has fewer fields than the header declares.
    MissingField {
        /// 1-based line number in the input.
        line: usize,
        /// The field that was absent.
        field: &'static str,
    },
    /// A field failed to parse as the expected integer type.
    InvalidField {
        /// 1-based line number in the input.
        line: usize,
        /// The offending field.
        field: &'static str,
        /// The raw text that failed to parse.
        value: String,
    },
    /// A JSONL line is not a valid JSON object of the expected shape.
    MalformedLine {
        /// 1-based line number in the input.
        line: usize,
        /// Parser diagnostic.
        reason: String,
    },
    /// Timestamps must be non-decreasing (traces are replayed as event streams).
    UnsortedTimestamp {
        /// 1-based line number of the out-of-order record.
        line: usize,
    },
    /// A record names an endpoint the experiment's catalog does not contain.
    UnknownEndpoint {
        /// The unresolvable endpoint id.
        endpoint: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace contains no records"),
            TraceError::MissingColumn { column } => {
                write!(f, "trace header is missing the `{column}` column")
            }
            TraceError::MissingField { line, field } => {
                write!(f, "line {line}: missing `{field}` field")
            }
            TraceError::InvalidField { line, field, value } => {
                write!(
                    f,
                    "line {line}: `{field}` value `{value}` is not a valid number"
                )
            }
            TraceError::MalformedLine { line, reason } => {
                write!(f, "line {line}: malformed record ({reason})")
            }
            TraceError::UnsortedTimestamp { line } => {
                write!(
                    f,
                    "line {line}: timestamp decreases (trace must be time-sorted)"
                )
            }
            TraceError::UnknownEndpoint { endpoint } => {
                write!(
                    f,
                    "trace endpoint {endpoint} is not in the experiment's catalog"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

const COLUMNS: [&str; 4] = ["timestamp_ms", "endpoint", "prompt_tokens", "output_tokens"];

/// Parses a CSV trace: a header line naming at least the four required columns
/// (`timestamp_ms`, `endpoint`, `prompt_tokens`, `output_tokens`, any order, extra
/// columns ignored) followed by one record per line. Blank lines are skipped.
///
/// # Errors
/// Returns a [`TraceError`] naming the first offending line/column.
pub fn parse_csv(input: &str) -> Result<Vec<TraceRecord>, TraceError> {
    let mut lines = input.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((_, line)) if line.trim().is_empty() => continue,
            Some((_, line)) => break line,
            None => return Err(TraceError::Empty),
        }
    };
    let names: Vec<&str> = header.split(',').map(str::trim).collect();
    let mut positions = [0usize; 4];
    for (slot, column) in COLUMNS.iter().enumerate() {
        positions[slot] = names
            .iter()
            .position(|name| name == column)
            .ok_or(TraceError::MissingColumn { column })?;
    }

    let mut records = Vec::new();
    for (index, line) in lines {
        let line_no = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let mut values = [0u64; 4];
        for (slot, &column) in COLUMNS.iter().enumerate() {
            let raw = *fields
                .get(positions[slot])
                .ok_or(TraceError::MissingField {
                    line: line_no,
                    field: column,
                })?;
            values[slot] = raw.parse::<u64>().map_err(|_| TraceError::InvalidField {
                line: line_no,
                field: column,
                value: raw.to_string(),
            })?;
        }
        push_record(&mut records, values, line_no)?;
    }
    if records.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(records)
}

/// Parses a JSONL trace: one JSON object per line with the same field names as the CSV
/// columns. Blank lines are skipped.
///
/// # Errors
/// Returns a [`TraceError`] naming the first offending line.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceRecord>, TraceError> {
    let mut records = Vec::new();
    for (index, line) in input.lines().enumerate() {
        let line_no = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let record: TraceRecord =
            serde_json::from_str(line).map_err(|err| TraceError::MalformedLine {
                line: line_no,
                reason: err.to_string(),
            })?;
        push_record(
            &mut records,
            [
                record.timestamp_ms,
                record.endpoint,
                u64::from(record.prompt_tokens),
                u64::from(record.output_tokens),
            ],
            line_no,
        )?;
    }
    if records.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(records)
}

fn push_record(
    records: &mut Vec<TraceRecord>,
    values: [u64; 4],
    line_no: usize,
) -> Result<(), TraceError> {
    if records
        .last()
        .is_some_and(|prev| prev.timestamp_ms > values[0])
    {
        return Err(TraceError::UnsortedTimestamp { line: line_no });
    }
    records.push(TraceRecord {
        timestamp_ms: values[0],
        endpoint: values[1],
        prompt_tokens: u32::try_from(values[2]).map_err(|_| TraceError::InvalidField {
            line: line_no,
            field: "prompt_tokens",
            value: values[2].to_string(),
        })?,
        output_tokens: u32::try_from(values[3]).map_err(|_| TraceError::InvalidField {
            line: line_no,
            field: "output_tokens",
            value: values[3].to_string(),
        })?,
    });
    Ok(())
}

/// Synthesizes a VM arrival stream from a request trace for
/// `FleetSimulator::with_arrivals`: the first request each endpoint receives spawns
/// one SaaS VM for that endpoint (arrival rounded down to the trace minute, living for
/// `lifetime`), mirroring how capacity follows traffic in the studied clusters. Records
/// stay time-sorted, so the resulting stream is time-sorted too.
#[must_use]
pub fn vm_arrivals_from_trace(records: &[TraceRecord], lifetime: SimDuration) -> Vec<Vm> {
    let mut seen: Vec<u64> = Vec::new();
    let mut vms = Vec::new();
    for record in records {
        if seen.contains(&record.endpoint) {
            continue;
        }
        seen.push(record.endpoint);
        vms.push(Vm {
            id: VmId(vms.len() as u64),
            kind: VmKind::Saas {
                endpoint: EndpointId(record.endpoint),
            },
            arrival: SimTime::from_minutes(record.timestamp_ms / 60_000),
            lifetime,
        });
    }
    vms
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "\
timestamp_ms,endpoint,prompt_tokens,output_tokens
0,0,512,128
1500,1,200,40
1500,0,900,220
60000,1,333,77
";

    #[test]
    fn csv_parses_in_order() {
        let records = parse_csv(CSV).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(
            records[0],
            TraceRecord {
                timestamp_ms: 0,
                endpoint: 0,
                prompt_tokens: 512,
                output_tokens: 128
            }
        );
        assert_eq!(records[3].timestamp_ms, 60_000);
    }

    #[test]
    fn csv_accepts_reordered_and_extra_columns() {
        let input = "\
endpoint,region,output_tokens,timestamp_ms,prompt_tokens
3,westus,64,100,512
";
        let records = parse_csv(input).unwrap();
        assert_eq!(
            records[0],
            TraceRecord {
                timestamp_ms: 100,
                endpoint: 3,
                prompt_tokens: 512,
                output_tokens: 64
            }
        );
    }

    #[test]
    fn csv_errors_are_typed_and_positioned() {
        assert_eq!(parse_csv(""), Err(TraceError::Empty));
        assert_eq!(
            parse_csv("timestamp_ms,endpoint,prompt_tokens\n1,2,3\n"),
            Err(TraceError::MissingColumn {
                column: "output_tokens"
            })
        );
        assert_eq!(
            parse_csv("timestamp_ms,endpoint,prompt_tokens,output_tokens\n5,0,10\n"),
            Err(TraceError::MissingField {
                line: 2,
                field: "output_tokens"
            })
        );
        assert_eq!(
            parse_csv("timestamp_ms,endpoint,prompt_tokens,output_tokens\n5,zero,10,10\n"),
            Err(TraceError::InvalidField {
                line: 2,
                field: "endpoint",
                value: "zero".to_string()
            })
        );
        assert_eq!(
            parse_csv("timestamp_ms,endpoint,prompt_tokens,output_tokens\n9,0,1,1\n5,0,1,1\n"),
            Err(TraceError::UnsortedTimestamp { line: 3 })
        );
        // Errors display as readable messages.
        let msg = TraceError::InvalidField {
            line: 2,
            field: "endpoint",
            value: "zero".to_string(),
        }
        .to_string();
        assert!(msg.contains("line 2") && msg.contains("endpoint"));
    }

    #[test]
    fn jsonl_round_trips_the_csv_shape() {
        let jsonl = "\
{\"timestamp_ms\":0,\"endpoint\":0,\"prompt_tokens\":512,\"output_tokens\":128}
{\"timestamp_ms\":1500,\"endpoint\":1,\"prompt_tokens\":200,\"output_tokens\":40}

{\"timestamp_ms\":1500,\"endpoint\":0,\"prompt_tokens\":900,\"output_tokens\":220}
{\"timestamp_ms\":60000,\"endpoint\":1,\"prompt_tokens\":333,\"output_tokens\":77}
";
        assert_eq!(parse_jsonl(jsonl).unwrap(), parse_csv(CSV).unwrap());
    }

    #[test]
    fn jsonl_errors_name_the_line() {
        assert_eq!(parse_jsonl(""), Err(TraceError::Empty));
        match parse_jsonl("{\"timestamp_ms\":0}\n") {
            Err(TraceError::MalformedLine { line: 1, .. }) => {}
            other => panic!("expected MalformedLine, got {other:?}"),
        }
        assert_eq!(
            parse_jsonl(
                "{\"timestamp_ms\":9,\"endpoint\":0,\"prompt_tokens\":1,\"output_tokens\":1}\n\
                 {\"timestamp_ms\":5,\"endpoint\":0,\"prompt_tokens\":1,\"output_tokens\":1}\n"
            ),
            Err(TraceError::UnsortedTimestamp { line: 2 })
        );
    }

    #[test]
    fn vm_arrivals_follow_first_endpoint_appearance() {
        let records = parse_csv(CSV).unwrap();
        let vms = vm_arrivals_from_trace(&records, SimDuration::from_days(7));
        assert_eq!(vms.len(), 2);
        assert_eq!(
            vms[0].kind,
            VmKind::Saas {
                endpoint: EndpointId(0)
            }
        );
        assert_eq!(vms[0].arrival, SimTime::ZERO);
        assert_eq!(
            vms[1].kind,
            VmKind::Saas {
                endpoint: EndpointId(1)
            }
        );
        assert_eq!(vms[1].arrival, SimTime::from_minutes(0));
        assert_eq!(vms[0].id, VmId(0));
        assert_eq!(vms[1].id, VmId(1));
    }
}
