//! Per-run metrics reports: one [`RunReport`] per datacenter, aggregated fleet-wide by
//! [`FleetReport`] (site vectors in site-ordinal order, mirroring the dense-grid contract).

use serde::{Deserialize, Serialize};
use simkit::events::{EventKind, EventTally};
use simkit::series::TimeSeries;
use simkit::stats::Summary;
use simkit::time::{SimDuration, SimTime};

/// Upper bucket edges (milliseconds, inclusive) of the request-fabric latency
/// histograms: log-spaced powers of two from 1 ms to ~70 simulated minutes, plus an
/// implicit overflow bucket. Fixed edges keep recorded artifacts comparable across runs
/// and trivially mergeable across sites.
pub const LATENCY_BUCKET_EDGES_MS: [u64; 23] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
    131_072, 262_144, 524_288, 1_048_576, 2_097_152, 4_194_304,
];

/// SLO multipliers at which the attainment curves are sampled. A request counts toward
/// multiplier `m` when its latency is within `m ×` the unloaded target, so each curve
/// entry is already cumulative ("attainment if the SLO were `m ×`"). The paper's
/// headline SLO (5× unloaded latency) is one of the sampled points.
pub const SLO_CURVE_MULTIPLIERS: [f64; 8] = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0];

/// One endpoint's SLO latency thresholds in milliseconds, built once per endpoint from
/// its unloaded targets so recording a completion multiplies nothing: one threshold per
/// [`SLO_CURVE_MULTIPLIERS`] entry (`m × target_ms`, non-decreasing in `m`) and the
/// headline thresholds the goodput split is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloThresholds {
    /// `SLO_CURVE_MULTIPLIERS[i] ×` the TTFT target.
    ttft_ms: [f64; SLO_CURVE_MULTIPLIERS.len()],
    /// `SLO_CURVE_MULTIPLIERS[i] ×` the TBT target.
    tbt_ms: [f64; SLO_CURVE_MULTIPLIERS.len()],
    /// The headline multiplier × the TTFT target.
    headline_ttft_ms: f64,
    /// The headline multiplier × the TBT target.
    headline_tbt_ms: f64,
}

impl SloThresholds {
    /// Thresholds for unloaded `(TTFT, TBT)` targets in seconds (from the perf model) and
    /// the headline SLO multiplier. A target that is not positive is floored at
    /// `f64::MIN_POSITIVE` ms for the curves.
    #[must_use]
    pub fn new(ttft_target_s: f64, tbt_target_s: f64, headline: f64) -> Self {
        let ttft_target_ms = (ttft_target_s * 1000.0).max(f64::MIN_POSITIVE);
        let tbt_target_ms = (tbt_target_s * 1000.0).max(f64::MIN_POSITIVE);
        Self {
            ttft_ms: SLO_CURVE_MULTIPLIERS.map(|multiplier| multiplier * ttft_target_ms),
            tbt_ms: SLO_CURVE_MULTIPLIERS.map(|multiplier| multiplier * tbt_target_ms),
            headline_ttft_ms: headline * ttft_target_s * 1000.0,
            headline_tbt_ms: headline * tbt_target_s * 1000.0,
        }
    }
}

/// Index of the first threshold `sample` meets (`len` when it meets none, as NaN does).
/// The thresholds ascend, so the sample meets every later one too.
fn first_met(sample: f64, thresholds: &[f64]) -> usize {
    thresholds.iter().position(|&threshold| sample <= threshold).unwrap_or(thresholds.len())
}

/// A fixed-edge latency histogram over [`LATENCY_BUCKET_EDGES_MS`] (the last bucket is
/// the overflow bucket), plus a running sum for means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Bucket counts: `counts[i]` holds samples `<= LATENCY_BUCKET_EDGES_MS[i]` (and
    /// greater than the previous edge); the final extra entry counts overflow samples.
    pub counts: Vec<u64>,
    /// Sum of all recorded samples (ms), for the mean.
    pub sum_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { counts: vec![0; LATENCY_BUCKET_EDGES_MS.len() + 1], sum_ms: 0.0 }
    }

    /// The bucket of a sample: the first edge at or above it. The edges are the powers
    /// of two `2^0 ..= 2^22`, so for a sample above 1 ms that is `2^⌈log₂ sample⌉`, read
    /// off the float's exponent and mantissa. NaN is at or below no edge, so it
    /// overflows.
    fn bucket(sample_ms: f64) -> usize {
        const OVERFLOW: usize = LATENCY_BUCKET_EDGES_MS.len();
        const TOP_EDGE: f64 = LATENCY_BUCKET_EDGES_MS[OVERFLOW - 1] as f64;
        if sample_ms.is_nan() || sample_ms > TOP_EDGE {
            return OVERFLOW;
        }
        if sample_ms <= 1.0 {
            return 0;
        }
        let bits = sample_ms.to_bits();
        let floor_log2 = ((bits >> 52) & 0x7ff) as usize - 1023;
        let fraction = bits & ((1 << 52) - 1);
        floor_log2 + usize::from(fraction != 0)
    }

    /// Records one sample (milliseconds).
    pub fn record(&mut self, sample_ms: f64) {
        self.counts[Self::bucket(sample_ms)] += 1;
        self.sum_ms += sample_ms.max(0.0);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean sample (ms), `0.0` when empty.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        let total = self.total();
        if total == 0 { 0.0 } else { self.sum_ms / total as f64 }
    }

    /// The upper bucket edge (ms) below which at least `quantile` (in `[0, 1]`) of the
    /// samples fall — a conservative percentile read off the fixed buckets. Overflow
    /// samples report the largest edge.
    #[must_use]
    pub fn quantile_edge_ms(&self, quantile: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = (quantile.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let edge = bucket.min(LATENCY_BUCKET_EDGES_MS.len() - 1);
                return LATENCY_BUCKET_EDGES_MS[edge];
            }
        }
        LATENCY_BUCKET_EDGES_MS[LATENCY_BUCKET_EDGES_MS.len() - 1]
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum_ms += other.sum_ms;
    }
}

/// Request-lifecycle accounting beside the latency histograms: arrivals, preemption and
/// eviction volume (wasted work), retry/shed/timeout outcomes and the
/// goodput-vs-throughput token split. Plain counters, merged by addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifecycleMetrics {
    /// Requests offered to the schedulers (trace replay and generated traffic alike).
    pub arrived: u64,
    /// Sequences evicted mid-flight (a request preempted twice counts twice).
    pub preemptions: u64,
    /// KV tokens resident at eviction time (prompt + generated so far), summed.
    pub evicted_tokens: u64,
    /// Prompt tokens re-prefilled after eviction, summed.
    pub wasted_prefill_tokens: u64,
    /// Decode tokens generated and then thrown away by eviction, summed.
    pub wasted_decode_tokens: u64,
    /// Preempted requests successfully requeued for another attempt.
    pub retries: u64,
    /// Requests dropped after exhausting their retry budget (or that could never fit).
    pub timeouts: u64,
    /// Requests shed at admission because their deadline had already passed.
    pub shed: u64,
    /// Requests still queued or running when the horizon closed.
    pub in_flight_at_horizon: u64,
    /// Output tokens of every completed request (raw throughput).
    pub output_tokens: u64,
    /// Output tokens of completed requests that met the headline SLO (goodput).
    pub goodput_tokens: u64,
}

impl LifecycleMetrics {
    /// Goodput over throughput: the fraction of produced output tokens that also met
    /// the headline SLO. `1.0` when nothing completed.
    #[must_use]
    pub fn goodput_fraction(&self) -> f64 {
        if self.output_tokens == 0 {
            1.0
        } else {
            self.goodput_tokens as f64 / self.output_tokens as f64
        }
    }

    /// Adds another block's counters into this one.
    pub fn merge(&mut self, other: &Self) {
        self.arrived += other.arrived;
        self.preemptions += other.preemptions;
        self.evicted_tokens += other.evicted_tokens;
        self.wasted_prefill_tokens += other.wasted_prefill_tokens;
        self.wasted_decode_tokens += other.wasted_decode_tokens;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.shed += other.shed;
        self.in_flight_at_horizon += other.in_flight_at_horizon;
        self.output_tokens += other.output_tokens;
        self.goodput_tokens += other.goodput_tokens;
    }
}

/// Per-request serving metrics the request fabric records: TTFT and TBT histograms plus
/// SLO attainment curves sampled at [`SLO_CURVE_MULTIPLIERS`]. Sites merge losslessly
/// (fixed bucket edges, cumulative curve counters), which is how the fleet-level curves
/// are produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestMetrics {
    /// Requests that ran to completion.
    pub completed: u64,
    /// Time-to-first-token distribution (ms).
    pub ttft: LatencyHistogram,
    /// Mean time-between-tokens distribution (ms), over requests with 2+ output tokens.
    pub tbt: LatencyHistogram,
    /// `ttft_curve[i]` = completed requests whose TTFT was within
    /// `SLO_CURVE_MULTIPLIERS[i] ×` the unloaded TTFT target.
    pub ttft_curve: Vec<u64>,
    /// `tbt_curve[i]` = completed requests whose mean TBT was within
    /// `SLO_CURVE_MULTIPLIERS[i] ×` the unloaded TBT target.
    pub tbt_curve: Vec<u64>,
    /// `joint_curve[i]` = completed requests meeting *both* targets at multiplier `i` —
    /// the curve SLO attainment is read from.
    pub joint_curve: Vec<u64>,
    /// Request-lifecycle accounting (arrivals, preemptions, wasted work, shed/timeout
    /// outcomes, goodput split).
    pub lifecycle: LifecycleMetrics,
}

impl Default for RequestMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestMetrics {
    /// An empty metrics block.
    #[must_use]
    pub fn new() -> Self {
        Self {
            completed: 0,
            ttft: LatencyHistogram::new(),
            tbt: LatencyHistogram::new(),
            ttft_curve: vec![0; SLO_CURVE_MULTIPLIERS.len()],
            tbt_curve: vec![0; SLO_CURVE_MULTIPLIERS.len()],
            joint_curve: vec![0; SLO_CURVE_MULTIPLIERS.len()],
            lifecycle: LifecycleMetrics::default(),
        }
    }

    /// Records output tokens of one completed request into the goodput-vs-throughput
    /// split. `met_headline` is whether the request met the headline SLO multiplier.
    pub fn record_tokens(&mut self, output_tokens: u64, met_headline: bool) {
        self.lifecycle.output_tokens += output_tokens;
        if met_headline {
            self.lifecycle.goodput_tokens += output_tokens;
        }
    }

    /// Records one completed request against its endpoint's thresholds: the TTFT and
    /// TBT histograms, each attainment curve from its first met multiplier on, and the
    /// output tokens into the goodput split. Requests with a single output token have no
    /// TBT (`mean_tbt_ms` 0); they count as meeting any TBT multiplier.
    pub fn record(
        &mut self,
        thresholds: &SloThresholds,
        ttft_ms: f64,
        mean_tbt_ms: f64,
        output_tokens: u64,
    ) {
        self.completed += 1;
        self.ttft.record(ttft_ms);
        if mean_tbt_ms > 0.0 {
            self.tbt.record(mean_tbt_ms);
        }
        let ttft_from = first_met(ttft_ms, &thresholds.ttft_ms);
        let tbt_from =
            if mean_tbt_ms <= 0.0 { 0 } else { first_met(mean_tbt_ms, &thresholds.tbt_ms) };
        for count in &mut self.ttft_curve[ttft_from..] {
            *count += 1;
        }
        for count in &mut self.tbt_curve[tbt_from..] {
            *count += 1;
        }
        for count in &mut self.joint_curve[ttft_from.max(tbt_from)..] {
            *count += 1;
        }
        let met_headline = ttft_ms <= thresholds.headline_ttft_ms
            && (mean_tbt_ms <= 0.0 || mean_tbt_ms <= thresholds.headline_tbt_ms);
        self.record_tokens(output_tokens, met_headline);
    }

    /// SLO attainment (fraction of completed requests meeting both TTFT and TBT) at the
    /// smallest sampled multiplier `>= multiplier`; `1.0` when nothing completed.
    #[must_use]
    pub fn attainment_at(&self, multiplier: f64) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        let index = SLO_CURVE_MULTIPLIERS
            .iter()
            .position(|&m| m >= multiplier)
            .unwrap_or(SLO_CURVE_MULTIPLIERS.len() - 1);
        self.joint_curve[index] as f64 / self.completed as f64
    }

    /// The full joint attainment curve, one fraction per [`SLO_CURVE_MULTIPLIERS`] entry.
    #[must_use]
    pub fn attainment_curve(&self) -> Vec<f64> {
        if self.completed == 0 {
            return vec![1.0; SLO_CURVE_MULTIPLIERS.len()];
        }
        self.joint_curve
            .iter()
            .map(|&count| count as f64 / self.completed as f64)
            .collect()
    }

    /// Merges another site's metrics into this one (lossless: fixed edges, counters).
    pub fn merge(&mut self, other: &Self) {
        self.completed += other.completed;
        self.ttft.merge(&other.ttft);
        self.tbt.merge(&other.tbt);
        for (mine, theirs) in self.ttft_curve.iter_mut().zip(&other.ttft_curve) {
            *mine += theirs;
        }
        for (mine, theirs) in self.tbt_curve.iter_mut().zip(&other.tbt_curve) {
            *mine += theirs;
        }
        for (mine, theirs) in self.joint_curve.iter_mut().zip(&other.joint_curve) {
            *mine += theirs;
        }
        self.lifecycle.merge(&other.lifecycle);
    }

    /// One-line textual summary (used by examples and the fabric smoke output).
    #[must_use]
    pub fn one_liner(&self) -> String {
        format!(
            "requests={} ttft_p50={}ms ttft_p99={}ms tbt_p50={}ms tbt_p99={}ms slo5x={:.4}",
            self.completed,
            self.ttft.quantile_edge_ms(0.50),
            self.ttft.quantile_edge_ms(0.99),
            self.tbt.quantile_edge_ms(0.50),
            self.tbt.quantile_edge_ms(0.99),
            self.attainment_at(5.0),
        )
    }
}

/// Everything a simulation run records. Its size is bounded by the step count: per-step
/// series, counters, the per-kind event tally, and the fabric's fixed-bucket histograms.
/// No field grows with the number of events, requests or instances.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// The policy label the run used.
    pub policy: String,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Step length.
    pub step: SimDuration,
    /// Maximum GPU temperature per step (°C).
    pub max_gpu_temp: TimeSeries,
    /// Peak row power per step (kW).
    pub peak_row_power: TimeSeries,
    /// Total datacenter power per step (kW).
    pub datacenter_power: TimeSeries,
    /// Mean SaaS instance utilization per step.
    pub saas_utilization: TimeSeries,
    /// SaaS instances whose latency factor exceeded the SLO, per step.
    pub slo_violating_instances: TimeSeries,
    /// Provisioned row power budget (kW) of the most-loaded row, for normalization.
    pub row_power_budget_kw: f64,
    /// GPU throttle temperature (°C), for normalization.
    pub gpu_throttle_temp_c: f64,
    /// Per-kind tally of the run's events (throttling, capping, reconfigurations, …).
    pub events: EventTally,
    /// Sum of the result quality of every served instance-step, in recording order.
    pub quality_sum: f64,
    /// Instance-steps summed into `quality_sum`.
    pub quality_samples: u64,
    /// Total requests served.
    pub requests_served: u64,
    /// Requests that violated their latency SLO.
    pub slo_violations: u64,
    /// Per-request serving metrics, present only when the run had the request fabric
    /// enabled.
    pub request_fabric: Option<RequestMetrics>,
}

impl RunReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(policy: &str, horizon: SimTime, step: SimDuration) -> Self {
        Self {
            policy: policy.to_string(),
            horizon,
            step,
            max_gpu_temp: TimeSeries::new("max GPU temperature (°C)"),
            peak_row_power: TimeSeries::new("peak row power (kW)"),
            datacenter_power: TimeSeries::new("datacenter power (kW)"),
            saas_utilization: TimeSeries::new("mean SaaS utilization"),
            slo_violating_instances: TimeSeries::new("SLO-violating instances"),
            row_power_budget_kw: 0.0,
            gpu_throttle_temp_c: 85.0,
            events: EventTally::default(),
            quality_sum: 0.0,
            quality_samples: 0,
            requests_served: 0,
            slo_violations: 0,
            request_fabric: None,
        }
    }

    /// Peak of the maximum-GPU-temperature series over the whole run.
    #[must_use]
    pub fn peak_temperature_c(&self) -> f64 {
        self.max_gpu_temp.peak().unwrap_or(0.0)
    }

    /// Peak of the peak-row-power series over the whole run.
    #[must_use]
    pub fn peak_row_power_kw(&self) -> f64 {
        self.peak_row_power.peak().unwrap_or(0.0)
    }

    /// Peak row power normalized by the row budget.
    #[must_use]
    pub fn normalized_peak_power(&self) -> f64 {
        if self.row_power_budget_kw > 0.0 {
            self.peak_row_power_kw() / self.row_power_budget_kw
        } else {
            0.0
        }
    }

    /// Peak temperature normalized by the GPU throttle temperature.
    #[must_use]
    pub fn normalized_peak_temperature(&self) -> f64 {
        if self.gpu_throttle_temp_c > 0.0 {
            self.peak_temperature_c() / self.gpu_throttle_temp_c
        } else {
            0.0
        }
    }

    /// Fraction of steps during which at least one GPU was thermally throttled.
    #[must_use]
    pub fn thermal_capped_time_fraction(&self) -> f64 {
        self.events
            .fraction_of_time(EventKind::ThermalThrottle, self.horizon, self.step)
    }

    /// Fraction of steps during which at least one power-hierarchy level was capped.
    #[must_use]
    pub fn power_capped_time_fraction(&self) -> f64 {
        self.events.fraction_of_time(EventKind::PowerCap, self.horizon, self.step)
    }

    /// Largest number of SLO-violating instances in any single step — the "worst-step
    /// SLO" robustness metric of the scenario sweep. A run can keep mean attainment high
    /// while a single emergency step craters; this catches that step.
    #[must_use]
    pub fn worst_step_slo_violations(&self) -> usize {
        self.slo_violating_instances.peak().unwrap_or(0.0) as usize
    }

    /// Minute of the last thermal-throttle or power-cap event, if any. The scenario
    /// sweep compares it against the scenario's last emergency window
    /// ([`crate::scenario::Scenario::last_emergency_end`]) to measure how long a policy
    /// keeps struggling after the emergency itself has passed.
    #[must_use]
    pub fn last_stress_event_minute(&self) -> Option<u64> {
        [EventKind::ThermalThrottle, EventKind::PowerCap]
            .into_iter()
            .filter_map(|kind| self.events.last(kind))
            .map(SimTime::as_minutes)
            .max()
    }

    /// Fraction of requests that met the latency SLO.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.requests_served == 0 {
            1.0
        } else {
            1.0 - self.slo_violations as f64 / self.requests_served as f64
        }
    }

    /// Mean result quality across served instance-steps (1.0 when every one ran the
    /// full-size model, and when nothing was served).
    #[must_use]
    pub fn mean_quality(&self) -> f64 {
        if self.quality_samples == 0 {
            1.0
        } else {
            self.quality_sum / self.quality_samples as f64
        }
    }

    /// Summary of the maximum-temperature series.
    ///
    /// # Panics
    /// Panics if the run recorded no steps.
    #[must_use]
    pub fn temperature_summary(&self) -> Summary {
        self.max_gpu_temp.summary()
    }

    /// One-line textual summary used by the bench harnesses.
    #[must_use]
    pub fn one_liner(&self) -> String {
        format!(
            "{:<14} peak_temp={:6.1}C peak_row_power={:7.1}kW norm_power={:5.3} thermal_capped={:6.3}% power_capped={:6.3}% slo={:5.3} quality={:5.3}",
            self.policy,
            self.peak_temperature_c(),
            self.peak_row_power_kw(),
            self.normalized_peak_power(),
            self.thermal_capped_time_fraction() * 100.0,
            self.power_capped_time_fraction() * 100.0,
            self.slo_attainment(),
            self.mean_quality(),
        )
    }
}

/// Everything a fleet run records: one full [`RunReport`] per site plus the geo routing
/// bookkeeping, with fleet-wide aggregates derived on demand.
///
/// All per-site vectors are indexed by site ordinal (the order of
/// [`crate::experiment::FleetConfig::sites`]), so consumers can zip them against the
/// fleet configuration without any map lookups.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Label of the geo policy that split the arrivals.
    pub geo: String,
    /// Site names, by site ordinal.
    pub site_names: Vec<String>,
    /// Per-site run reports, by site ordinal.
    pub sites: Vec<RunReport>,
    /// VM arrivals routed to each site, by site ordinal.
    pub vms_routed: Vec<u64>,
    /// Arrivals steered to a healthy site while at least one site was in a power or
    /// thermal emergency.
    pub emergency_diversions: u64,
}

impl FleetReport {
    /// Number of sites.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total requests served fleet-wide.
    #[must_use]
    pub fn total_requests_served(&self) -> u64 {
        self.sites.iter().map(|s| s.requests_served).sum()
    }

    /// Total VM arrivals the fleet routed.
    #[must_use]
    pub fn total_vms_routed(&self) -> u64 {
        self.vms_routed.iter().sum()
    }

    /// Thermal throttle events summed over sites.
    #[must_use]
    pub fn thermal_throttle_events(&self) -> usize {
        self.sites.iter().map(|s| s.events.count(EventKind::ThermalThrottle)).sum()
    }

    /// Power capping events summed over sites.
    #[must_use]
    pub fn power_cap_events(&self) -> usize {
        self.sites.iter().map(|s| s.events.count(EventKind::PowerCap)).sum()
    }

    /// Site-minutes spent with at least one power-capped hierarchy level, summed over
    /// sites.
    #[must_use]
    pub fn power_capped_minutes(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| s.power_capped_time_fraction() * s.horizon.as_minutes() as f64)
            .sum()
    }

    /// Site-minutes spent with at least one thermally throttled GPU, summed over sites.
    #[must_use]
    pub fn thermal_throttled_minutes(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| s.thermal_capped_time_fraction() * s.horizon.as_minutes() as f64)
            .sum()
    }

    /// Largest number of SLO-violating instances in any single step, fleet-wide. Every
    /// cell runs the base step and horizon, so the sites' per-step counts sum by step
    /// index before the worst step is taken.
    #[must_use]
    pub fn worst_step_slo_violations(&self) -> usize {
        let steps = self.sites.iter().map(|s| s.slo_violating_instances.len()).max().unwrap_or(0);
        (0..steps)
            .map(|step| {
                let counts = self.sites.iter().map(|s| s.slo_violating_instances.values());
                counts.filter_map(|values| values.get(step)).sum::<f64>()
            })
            .fold(0.0, f64::max) as usize
    }

    /// Minute of the last thermal-throttle or power-cap event across the fleet, if any.
    #[must_use]
    pub fn last_stress_event_minute(&self) -> Option<u64> {
        self.sites.iter().filter_map(RunReport::last_stress_event_minute).max()
    }

    /// The hottest GPU temperature any site reached.
    #[must_use]
    pub fn peak_temperature_c(&self) -> f64 {
        self.sites.iter().map(RunReport::peak_temperature_c).fold(0.0, f64::max)
    }

    /// Mean result quality across every instance-step the fleet served.
    #[must_use]
    pub fn mean_quality(&self) -> f64 {
        let samples: u64 = self.sites.iter().map(|s| s.quality_samples).sum();
        if samples == 0 {
            return 1.0;
        }
        self.sites.iter().map(|s| s.quality_sum).sum::<f64>() / samples as f64
    }

    /// Fleet-level request-fabric metrics: the lossless merge of every site's
    /// [`RequestMetrics`] (fixed histogram edges and cumulative curve counters make the
    /// merge exact). `None` when no site ran the fabric. Fleet-wide TTFT/TBT percentile
    /// and SLO-attainment curves are read off the merged block; per-site curves stay
    /// available on each [`RunReport::request_fabric`].
    #[must_use]
    pub fn request_fabric(&self) -> Option<RequestMetrics> {
        let mut merged: Option<RequestMetrics> = None;
        for site in &self.sites {
            if let Some(metrics) = &site.request_fabric {
                merged.get_or_insert_with(RequestMetrics::new).merge(metrics);
            }
        }
        merged
    }

    /// Fraction of requests fleet-wide that met the latency SLO.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        let served = self.total_requests_served();
        if served == 0 {
            return 1.0;
        }
        let violations: u64 = self.sites.iter().map(|s| s.slo_violations).sum();
        1.0 - violations as f64 / served as f64
    }

    /// One-line textual summary used by the bench harnesses and examples.
    #[must_use]
    pub fn one_liner(&self) -> String {
        format!(
            "fleet[{}] geo={:<10} routed={:?} throttle_events={} cap_events={} capped_minutes={:.0} peak_temp={:.1}C quality={:.3}",
            self.site_count(),
            self.geo,
            self.vms_routed,
            self.thermal_throttle_events(),
            self.power_cap_events(),
            self.power_capped_minutes(),
            self.peak_temperature_c(),
            self.mean_quality(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_match_a_linear_edge_scan() {
        let linear = |sample_ms: f64| {
            LATENCY_BUCKET_EDGES_MS
                .iter()
                .position(|&edge| sample_ms <= edge as f64)
                .unwrap_or(LATENCY_BUCKET_EDGES_MS.len())
        };
        let mut samples = vec![
            0.0,
            -0.0,
            -1.0,
            -1.0e9,
            0.25,
            0.5,
            1.5,
            2.75,
            33.3,
            1.0e7,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &edge in &LATENCY_BUCKET_EDGES_MS {
            let edge = edge as f64;
            samples.extend([edge, edge.next_down(), edge.next_up(), edge * 0.75]);
        }
        for step in 1..2_000 {
            // Fractional TBT-like values: mean gaps of a few to a few hundred ms.
            samples.push(step as f64 / 7.0);
        }
        for sample in samples {
            let mut histogram = LatencyHistogram::new();
            histogram.record(sample);
            let bucket = histogram.counts.iter().position(|&count| count == 1).unwrap();
            assert_eq!(bucket, linear(sample), "sample {sample}");
            let sum = 0.0 + sample.max(0.0);
            assert_eq!(histogram.sum_ms.to_bits(), sum.to_bits(), "sum {sample}");
        }
    }

    /// A 5-minute-step SLO-violation series with the given per-step instance counts.
    fn violating_per_step(counts: &[f64]) -> TimeSeries {
        let mut series = TimeSeries::new("SLO-violating instances");
        for (i, &count) in counts.iter().enumerate() {
            series.push(SimTime::from_minutes(i as u64 * 5), count);
        }
        series
    }

    fn report_with_data() -> RunReport {
        let mut report = RunReport::new(
            "TAPAS",
            SimTime::from_minutes(20),
            SimDuration::from_minutes(5),
        );
        report.row_power_budget_kw = 200.0;
        for i in 0..4u64 {
            let t = SimTime::from_minutes(i * 5);
            report.max_gpu_temp.push(t, 60.0 + i as f64);
            report.peak_row_power.push(t, 150.0 + i as f64 * 10.0);
            report.datacenter_power.push(t, 400.0);
            report.saas_utilization.push(t, 0.5);
        }
        report.slo_violating_instances = violating_per_step(&[0.0, 1.0, 0.0, 0.0]);
        report.events.record(EventKind::ThermalThrottle, SimTime::from_minutes(5), 1);
        for quality in [1.0, 1.0, 0.72, 1.0] {
            report.quality_sum += quality;
            report.quality_samples += 1;
        }
        report.requests_served = 4;
        report.slo_violations = 1;
        report
    }

    #[test]
    fn aggregates_are_consistent() {
        let report = report_with_data();
        assert_eq!(report.peak_temperature_c(), 63.0);
        assert_eq!(report.peak_row_power_kw(), 180.0);
        assert!((report.normalized_peak_power() - 0.9).abs() < 1e-12);
        assert!((report.normalized_peak_temperature() - 63.0 / 85.0).abs() < 1e-12);
        assert!((report.thermal_capped_time_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(report.power_capped_time_fraction(), 0.0);
        assert!((report.slo_attainment() - 0.75).abs() < 1e-12);
        assert!((report.mean_quality() - 0.93).abs() < 1e-12);
        assert_eq!(report.worst_step_slo_violations(), 1);
        assert_eq!(report.temperature_summary().count, 4);
        let line = report.one_liner();
        assert!(line.contains("TAPAS"));
        assert!(line.contains("peak_temp"));
        assert!(line.contains("slo=0.750"), "{line}");
    }

    #[test]
    fn worst_step_slo_and_last_stress_event_bucket_the_event_log() {
        let mut report = report_with_data();
        report.slo_violating_instances = violating_per_step(&[0.0, 0.0, 2.0, 1.0]);
        assert_eq!(report.worst_step_slo_violations(), 2);
        assert_eq!(report.last_stress_event_minute(), Some(5));
        report.events.record(EventKind::PowerCap, SimTime::from_minutes(15), 1);
        assert_eq!(report.last_stress_event_minute(), Some(15));

        // Fleet-wide, the sites' per-step counts add up before the worst step is taken:
        // [0, 0, 2, 1] + [0, 1, 0, 2] peaks at 3, not at either site's 2 nor at 2 + 2.
        let mut other = report_with_data();
        other.slo_violating_instances = violating_per_step(&[0.0, 1.0, 0.0, 2.0]);
        let fleet = FleetReport {
            geo: "Headroom".to_string(),
            site_names: vec!["a".to_string(), "b".to_string()],
            sites: vec![report, other],
            vms_routed: vec![1, 1],
            emergency_diversions: 0,
        };
        assert_eq!(fleet.worst_step_slo_violations(), 3);
        assert_eq!(fleet.last_stress_event_minute(), Some(15));
    }

    #[test]
    fn empty_report_defaults() {
        let report = RunReport::new("Baseline", SimTime::from_hours(1), SimDuration::from_minutes(5));
        assert_eq!(report.peak_temperature_c(), 0.0);
        assert_eq!(report.normalized_peak_power(), 0.0);
        assert_eq!(report.slo_attainment(), 1.0);
        assert_eq!(report.mean_quality(), 1.0);
        assert_eq!(report.worst_step_slo_violations(), 0);
        let fleet = FleetReport {
            geo: String::new(),
            site_names: vec!["a".to_string()],
            sites: vec![report],
            vms_routed: vec![0],
            emergency_diversions: 0,
        };
        assert_eq!(fleet.mean_quality(), 1.0);
        assert_eq!(fleet.worst_step_slo_violations(), 0);
    }

    #[test]
    fn serde_round_trip() {
        let report = report_with_data();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.ends_with("\"request_fabric\":null}"), "every key is written");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.policy, report.policy);
        assert_eq!(back.requests_served, report.requests_served);
        assert_eq!(back.events, report.events);
        assert_eq!(back.request_fabric, None);
    }

    #[test]
    fn request_metrics_histograms_curves_and_merge() {
        let mut metrics = RequestMetrics::new();
        // Targets: TTFT 100 ms, TBT 10 ms. A fast, a mid and a slow request.
        let targets = SloThresholds::new(0.1, 0.01, 5.0);
        metrics.record(&targets, 80.0, 9.0, 0);
        metrics.record(&targets, 250.0, 18.0, 0);
        metrics.record(&targets, 2500.0, 300.0, 0);
        assert_eq!(metrics.completed, 3);
        assert_eq!(metrics.ttft.total(), 3);
        assert!((metrics.ttft.mean_ms() - (80.0 + 250.0 + 2500.0) / 3.0).abs() < 1e-9);
        // At 1x only the fast request qualifies; at 3x the mid one joins; the slow one
        // (25x TTFT, 30x TBT) is outside even the 20x tail.
        let curve = metrics.attainment_curve();
        assert!((curve[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((metrics.attainment_at(3.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((metrics.attainment_at(5.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((metrics.attainment_at(20.0) - 2.0 / 3.0).abs() < 1e-12);
        // Percentiles read conservative bucket edges.
        assert_eq!(metrics.ttft.quantile_edge_ms(0.5), 256);
        assert_eq!(metrics.ttft.quantile_edge_ms(0.99), 4096);
        // Single-token requests have no TBT and meet any TBT multiplier.
        let mut single = RequestMetrics::new();
        single.record(&targets, 80.0, 0.0, 0);
        assert_eq!(single.tbt.total(), 0);
        assert!((single.attainment_at(1.0) - 1.0).abs() < 1e-12);
        // Merge is lossless counter addition.
        let mut merged = metrics.clone();
        merged.merge(&single);
        assert_eq!(merged.completed, 4);
        assert_eq!(merged.joint_curve[0], 2);
        assert!(merged.one_liner().contains("requests=4"));
        // Empty metrics default to full attainment.
        assert!((RequestMetrics::new().attainment_at(5.0) - 1.0).abs() < 1e-12);
        assert_eq!(RequestMetrics::new().ttft.quantile_edge_ms(0.99), 0);
    }

    #[test]
    fn lifecycle_block_round_trips_and_merges_losslessly() {
        let mut metrics = RequestMetrics::new();
        metrics.record(&SloThresholds::new(0.1, 0.01, 5.0), 80.0, 9.0, 0);
        metrics.lifecycle.arrived = 5;
        metrics.lifecycle.in_flight_at_horizon = 4;
        metrics.record_tokens(120, true);
        metrics.lifecycle.preemptions = 2;
        metrics.lifecycle.evicted_tokens = 900;
        metrics.lifecycle.wasted_prefill_tokens = 800;
        metrics.lifecycle.wasted_decode_tokens = 100;
        metrics.lifecycle.retries = 1;
        metrics.lifecycle.timeouts = 1;
        metrics.lifecycle.shed = 3;
        metrics.record_tokens(40, false);
        let json = serde_json::to_string(&metrics).unwrap();
        assert!(json.contains("\"lifecycle\":{\"arrived\":5,"), "{json}");
        let back: RequestMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert!((back.lifecycle.goodput_fraction() - 120.0 / 160.0).abs() < 1e-12);

        // Site merge adds every lifecycle counter.
        let mut merged = metrics.clone();
        merged.merge(&metrics);
        assert_eq!(merged.lifecycle.arrived, 10);
        assert_eq!(merged.lifecycle.preemptions, 4);
        assert_eq!(merged.lifecycle.shed, 6);
        assert_eq!(merged.lifecycle.output_tokens, 320);
        assert_eq!(merged.lifecycle.goodput_tokens, 240);
        // Empty lifecycle reads as perfect goodput.
        assert!((LifecycleMetrics::default().goodput_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fabric_reports_round_trip_and_aggregate_fleet_wide() {
        let mut report = report_with_data();
        let mut metrics = RequestMetrics::new();
        metrics.record(&SloThresholds::new(0.1, 0.01, 5.0), 120.0, 12.0, 0);
        report.request_fabric = Some(metrics.clone());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"request_fabric\":{"));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.request_fabric, Some(metrics.clone()));

        // Fleet aggregation merges only the sites that ran the fabric.
        let fleet = FleetReport {
            geo: "Headroom".to_string(),
            site_names: vec!["a".to_string(), "b".to_string()],
            sites: vec![report, report_with_data()],
            vms_routed: vec![1, 1],
            emergency_diversions: 0,
        };
        let merged = fleet.request_fabric().expect("one site ran the fabric");
        assert_eq!(merged.completed, 1);
        assert_eq!(
            FleetReport {
                geo: String::new(),
                site_names: Vec::new(),
                sites: vec![report_with_data()],
                vms_routed: Vec::new(),
                emergency_diversions: 0,
            }
            .request_fabric(),
            None
        );
    }

    #[test]
    fn fleet_report_aggregates_across_sites() {
        let fleet = FleetReport {
            geo: "Headroom".to_string(),
            site_names: vec!["site0-hot".to_string(), "site1-cold".to_string()],
            sites: vec![report_with_data(), report_with_data()],
            vms_routed: vec![3, 5],
            emergency_diversions: 2,
        };
        assert_eq!(fleet.site_count(), 2);
        assert_eq!(fleet.total_requests_served(), 8);
        assert_eq!(fleet.total_vms_routed(), 8);
        assert_eq!(fleet.thermal_throttle_events(), 2);
        assert_eq!(fleet.power_cap_events(), 0);
        // Each site: 25 % of a 20-minute horizon throttled -> 5 site-minutes, 10 fleet-wide.
        assert!((fleet.thermal_throttled_minutes() - 10.0).abs() < 1e-9);
        assert_eq!(fleet.power_capped_minutes(), 0.0);
        assert_eq!(fleet.peak_temperature_c(), 63.0);
        assert!((fleet.mean_quality() - 0.93).abs() < 1e-12);
        assert!((fleet.slo_attainment() - 0.75).abs() < 1e-12);
        let line = fleet.one_liner();
        assert!(line.contains("fleet[2]") && line.contains("Headroom"));

        let json = serde_json::to_string(&fleet).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.site_names, fleet.site_names);
        assert_eq!(back.vms_routed, fleet.vms_routed);
        assert_eq!(back.emergency_diversions, 2);
    }
}
