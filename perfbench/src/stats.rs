//! Small helpers the benchmark reports with: order statistics, the percentile rule,
//! metric-name checks and stable digests.

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`; `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The rank is computed in
/// integer per-mille so that e.g. p99.9 of 10 000 samples is exactly rank 9990.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    let per_mille = (p * 10.0).round() as usize;
    (n > 0).then(|| (per_mille * n).div_ceil(1000).clamp(1, n))
}

/// Samples ranked strictly above percentile `p` of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// The percentile rule: the highest of [`PERCENTILES`] with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when even the median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// `true` for a metric name the benchmark contract accepts: 1–64 characters of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit the benchmark contract accepts: 1–16 characters of ASCII letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// 64-bit FNV-1a, the digest the repository's determinism checks use.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Digest of a value's canonical JSON serialization. The vendored serializer writes maps
/// in declaration order and floats in shortest round-trip form, so equal values always
/// digest equally.
#[must_use]
pub fn json_digest<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("simulator types serialize")
            .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::experiment::FleetConfig;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 95.0), Some(95.0));
        assert_eq!(percentile(&sorted, 99.9), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond_the_reported_percentile() {
        // Too few samples for any percentile with ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median has exactly ten beyond it.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 100 samples: p90 has ten beyond, p95 only five.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_SAMPLES_BEYOND, "n={n} p={p}");
                // The next percentile up would break the rule.
                if let Some(&higher) = PERCENTILES.iter().find(|&&q| q > p) {
                    assert!(
                        samples_beyond(n, higher) < MIN_SAMPLES_BEYOND,
                        "n={n} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn metric_names_and_units_follow_the_contract_charset() {
        for name in [
            "run_s",
            "setup_s",
            "cluster.step_p95_ms",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_metric_name(name), "{name}");
        }
        for name in [
            "",
            "_leading",
            ".dot",
            "has space",
            "ünïcode",
            "a/b",
            "x".repeat(65).as_str(),
        ] {
            assert!(!valid_metric_name(name), "{name}");
        }
        for unit in ["s", "ms", "1/s", "%", "count", "MiB", "degC", "fraction"] {
            assert!(valid_unit(unit), "{unit}");
        }
        for unit in ["", "°C", "a b", "u".repeat(17).as_str()] {
            assert!(!valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn config_fingerprint_is_stable_and_sensitive() {
        let a = crate::workloads::config("fleet4_chaos", 7).expect("known");
        let b = crate::workloads::config("fleet4_chaos", 7).expect("known");
        assert_eq!(
            json_digest(&a),
            json_digest(&b),
            "same config, same fingerprint"
        );
        // A serialize → parse → serialize round trip keeps the fingerprint.
        let json = serde_json::to_string(&a).expect("serialize");
        let back: FleetConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(json_digest(&back), json_digest(&a));
        let other = crate::workloads::config("fleet4_chaos", 8).expect("known");
        assert_ne!(
            json_digest(&a),
            json_digest(&other),
            "the seed enters the fingerprint"
        );
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
