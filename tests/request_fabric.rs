//! Request-fabric integration tests: event-queue ordering against a reference model, the
//! arrival buffer against the event queue and against a stable-sorted `Vec` in every
//! radix-pass class, completion recording against the per-multiplier loop it replaced,
//! KV-cache admission invariants, fabric-enabled fleet determinism, trace replay through
//! both encodings, and a pinned golden metrics artifact.
//!
//! Regenerate the golden file after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test --test request_fabric`.

use tapas_repro::prelude::*;
use tapas_repro::simkit::rng::SimRng;

const SAMPLE_CSV: &str = include_str!("data/sample_requests.csv");
const SAMPLE_JSONL: &str = include_str!("data/sample_requests.jsonl");
const GOLDEN_METRICS: &str = include_str!("golden/request_fabric_metrics.json");

fn fabric_smoke() -> ExperimentConfig {
    ExperimentConfig::small_smoke_test()
        .with_request_fabric(RequestFabricConfig::default())
}

// --- EventQueue ordering -----------------------------------------------------------

/// Reference model: a stable sort by timestamp preserves push order among equal
/// timestamps — exactly the `(time, seq)` contract the binary heap must honour.
#[test]
fn event_queue_matches_a_stable_sorted_reference_under_random_workloads() {
    let mut rng = SimRng::seed_from(2025).derive("queue-property");
    for round in 0..50 {
        let mut queue = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let pushes = 1 + rng.uniform_usize(0, 400);
        for payload in 0..pushes {
            // Narrow time range on odd rounds forces heavy timestamp collisions.
            let span = if round % 2 == 0 { 10_000 } else { 7 };
            let time = rng.uniform_usize(0, span) as u64;
            queue.push(time, payload);
            reference.push((time, payload));
        }
        reference.sort_by_key(|&(time, _)| time); // stable: ties keep push order
        let mut drained = Vec::new();
        while let Some((time, payload)) = queue.pop() {
            drained.push((time, payload));
        }
        assert_eq!(drained, reference, "round {round} diverged from the reference");
    }
}

#[test]
fn event_queue_drain_until_is_inclusive_and_leaves_the_rest() {
    let mut queue = EventQueue::new();
    for time in [5u64, 1, 9, 5, 3] {
        queue.push(time, time);
    }
    let mut drained = Vec::new();
    queue.drain_until(5, |time, _| drained.push(time));
    assert_eq!(drained, vec![1, 3, 5, 5]);
    assert_eq!(queue.len(), 1);
    assert_eq!(queue.peek_time(), Some(9));
}

// --- Arrival buffer vs. EventQueue -------------------------------------------------

/// Per-feature counters so the random cases provably exercise every path.
#[derive(Default)]
struct BufferCoverage {
    out_of_order_pushes: usize,
    equal_time_pushes: usize,
    pushes_after_partial_drain: usize,
    drains_leaving_events: usize,
    drains_at_an_event_time: usize,
    empty_drains: usize,
}

/// Replays one random operation sequence into an [`ArrivalBuffer`] and an [`EventQueue`]
/// (the heap the buffer replaced) and compares every drained event and the pending count
/// after every operation.
fn buffer_case(rng: &mut SimRng, coverage: &mut BufferCoverage) {
    let mut buffer = ArrivalBuffer::new();
    let mut heap = EventQueue::new();
    // Narrow spans force timestamp collisions; wide ones are mostly distinct.
    let span = [4u64, 50, 100_000][rng.uniform_usize(0, 3)];
    let mut last_time = 0u64;
    let mut pushed = 0u64;
    let mut times: Vec<u64> = Vec::new();
    let mut drained_once = false;
    for _ in 0..rng.uniform_usize(1, 40) {
        if rng.chance(0.6) {
            // A burst: in order, out of order, or a run of one repeated timestamp.
            let burst = rng.uniform_usize(1, 60);
            let style = rng.uniform_usize(0, 3);
            let base = rng.uniform_usize(0, span as usize) as u64;
            for _ in 0..burst {
                let time = match style {
                    0 => last_time + rng.uniform_usize(0, 3) as u64,
                    1 => rng.uniform_usize(0, span as usize) as u64,
                    _ => base,
                };
                if time < last_time && !buffer.is_empty() {
                    coverage.out_of_order_pushes += 1;
                }
                if times.contains(&time) {
                    coverage.equal_time_pushes += 1;
                }
                if drained_once && !buffer.is_empty() {
                    coverage.pushes_after_partial_drain += 1;
                }
                let request = FabricRequest {
                    id: pushed,
                    endpoint: rng.uniform_usize(0, 4) as u32,
                    prompt_tokens: rng.uniform_usize(1, 4096) as u32,
                    output_tokens: rng.uniform_usize(1, 512) as u32,
                };
                buffer.push(time, request);
                heap.push(time, request);
                times.push(time);
                last_time = time;
                pushed += 1;
            }
        } else {
            // A deadline at a pending timestamp, one past it, or anywhere in the span.
            let end_ms = match (rng.uniform_usize(0, 3), times.is_empty()) {
                (0, false) => times[rng.uniform_usize(0, times.len())],
                (1, false) => times[rng.uniform_usize(0, times.len())] + 1,
                _ => rng.uniform_usize(0, span as usize + 2) as u64,
            };
            if times.contains(&end_ms) {
                coverage.drains_at_an_event_time += 1;
            }
            let mut from_buffer = Vec::new();
            buffer.drain_before(end_ms, |time, request| from_buffer.push((time, request)));
            let mut from_heap = Vec::new();
            if let Some(deadline) = end_ms.checked_sub(1) {
                heap.drain_until(deadline, |time, request| from_heap.push((time, request)));
            }
            assert_eq!(from_buffer, from_heap, "drain before {end_ms} diverged");
            times.retain(|&time| time >= end_ms);
            if from_buffer.is_empty() {
                coverage.empty_drains += 1;
            }
            if !buffer.is_empty() {
                coverage.drains_leaving_events += 1;
            }
            drained_once = true;
        }
        assert_eq!(buffer.len(), heap.len(), "pending counts diverged");
    }
    let mut from_buffer = Vec::new();
    buffer.drain_before(u64::MAX, |time, request| from_buffer.push((time, request)));
    let mut from_heap = Vec::new();
    heap.drain_until(u64::MAX, |time, request| from_heap.push((time, request)));
    assert_eq!(from_buffer, from_heap, "final drain diverged");
    assert!(buffer.is_empty());
}

#[test]
fn arrival_buffer_drains_exactly_like_the_event_queue() {
    let mut rng = SimRng::seed_from(2026).derive("arrival-buffer");
    let mut coverage = BufferCoverage::default();
    for _ in 0..400 {
        buffer_case(&mut rng, &mut coverage);
    }
    let floors = [
        ("out-of-order pushes", coverage.out_of_order_pushes),
        ("equal-time pushes", coverage.equal_time_pushes),
        ("pushes after a partial drain", coverage.pushes_after_partial_drain),
        ("drains leaving events", coverage.drains_leaving_events),
        ("drains at an event time", coverage.drains_at_an_event_time),
        ("empty drains", coverage.empty_drains),
    ];
    for (what, count) in floors {
        assert!(count >= 100, "only {count} {what}");
    }
}

/// Replays random pushes and drains into an [`ArrivalBuffer`] and into a plain `Vec`
/// that is stably sorted by time before every drain (ties keep push order), with the
/// pending span — what the buffer's radix sort keys on — drawn from each pass class:
/// one byte, two bytes, three bytes, and `2^24` or more (the comparison-sort fallback).
/// Timestamps sit on a large base so only the span, not the magnitude, picks the class.
#[test]
fn arrival_buffer_matches_a_stable_sorted_vec_in_every_radix_class() {
    const CLASSES: [(u64, u64); 4] =
        [(1, 1 << 8), (1 << 8, 1 << 16), (1 << 16, 1 << 24), (1 << 24, 1 << 40)];
    let mut rng = SimRng::seed_from(2027).derive("arrival-buffer-radix");
    // Per class: drains that sorted a tail of that span, and tied timestamps drained.
    let mut sorted_spans = [0usize; CLASSES.len()];
    let mut ties = 0usize;
    let mut partial_drains = 0usize;
    for case in 0..240 {
        let (low, high) = CLASSES[case % CLASSES.len()];
        let base = rng.uniform_usize(0, 1 << 40) as u64;
        let mut buffer = ArrivalBuffer::new();
        let mut reference: Vec<(u64, FabricRequest)> = Vec::new();
        let mut id = 0u64;
        for _ in 0..rng.uniform_usize(2, 12) {
            // A burst spanning [low, high) from its first timestamp, with repeats.
            let span = rng.uniform_usize(low as usize, high as usize) as u64;
            let start = base + rng.uniform_usize(0, 1_000) as u64;
            let mut previous = start;
            for index in 0..rng.uniform_usize(1, 300) {
                let time = match (index, rng.uniform_usize(0, 4)) {
                    (0, _) => start,
                    (1, _) => start + span,
                    (_, 0) => previous,
                    _ => start + rng.uniform_usize(0, span as usize + 1) as u64,
                };
                let request = FabricRequest {
                    id,
                    endpoint: rng.uniform_usize(0, 4) as u32,
                    prompt_tokens: rng.uniform_usize(1, 4096) as u32,
                    output_tokens: rng.uniform_usize(1, 512) as u32,
                };
                buffer.push(time, request);
                reference.push((time, request));
                previous = time;
                id += 1;
            }
            if rng.chance(0.5) {
                continue;
            }
            // Drain part of the pending range: before a pending time, just past one, or
            // everything.
            let out_of_order = reference.windows(2).any(|pair| pair[1].0 < pair[0].0);
            let (min, max) = reference
                .iter()
                .fold((u64::MAX, 0), |(min, max), &(time, _)| (min.min(time), max.max(time)));
            if out_of_order {
                let class = CLASSES.iter().position(|&(_, top)| max - min < top).unwrap_or(3);
                sorted_spans[class] += 1;
            }
            reference.sort_by_key(|&(time, _)| time);
            let pick = reference[rng.uniform_usize(0, reference.len())].0;
            let end_ms = match rng.uniform_usize(0, 3) {
                0 => pick,
                1 => pick + 1,
                _ => u64::MAX,
            };
            let due = reference.partition_point(|&(time, _)| time < end_ms);
            ties += reference[..due].windows(2).filter(|pair| pair[0].0 == pair[1].0).count();
            if due < reference.len() {
                partial_drains += 1;
            }
            let mut drained = Vec::new();
            buffer.drain_before(end_ms, |time, request| drained.push((time, request)));
            assert_eq!(drained, reference[..due], "case {case}: drain before {end_ms}");
            reference.drain(..due);
            assert_eq!(buffer.len(), reference.len(), "case {case}: pending count");
        }
        reference.sort_by_key(|&(time, _)| time);
        let mut drained = Vec::new();
        buffer.drain_before(u64::MAX, |time, request| drained.push((time, request)));
        assert_eq!(drained, reference, "case {case}: final drain");
        assert!(buffer.is_empty());
    }
    for (class, &count) in sorted_spans.iter().enumerate() {
        assert!(count >= 20, "only {count} sorted tails in span class {class}");
    }
    assert!(ties >= 1_000, "only {ties} tied timestamps drained");
    assert!(partial_drains >= 100, "only {partial_drains} partial drains");
}

// --- Completion recording ------------------------------------------------------------

/// The per-completion recording loop `RequestMetrics::record` replaced, kept here as the
/// reference: 16 products and an edge search per completion, the histogram bucket by a
/// binary search over the edges.
fn record_by_the_multiplier_loop(
    metrics: &mut RequestMetrics,
    targets: (f64, f64),
    headline: f64,
    (ttft_ms, mean_tbt_ms, output_tokens): (f64, f64, u64),
) {
    let record_sample = |histogram: &mut LatencyHistogram, sample_ms: f64| {
        let edges = &tapas_repro::cluster_sim::metrics::LATENCY_BUCKET_EDGES_MS;
        let bucket = if sample_ms.is_nan() {
            edges.len()
        } else {
            edges.partition_point(|&edge| (edge as f64) < sample_ms)
        };
        histogram.counts[bucket] += 1;
        histogram.sum_ms += sample_ms.max(0.0);
    };
    let (ttft_target_s, tbt_target_s) = targets;
    metrics.completed += 1;
    record_sample(&mut metrics.ttft, ttft_ms);
    if mean_tbt_ms > 0.0 {
        record_sample(&mut metrics.tbt, mean_tbt_ms);
    }
    let ttft_target_ms = (ttft_target_s * 1000.0).max(f64::MIN_POSITIVE);
    let tbt_target_ms = (tbt_target_s * 1000.0).max(f64::MIN_POSITIVE);
    let multipliers = tapas_repro::cluster_sim::metrics::SLO_CURVE_MULTIPLIERS;
    for (i, &multiplier) in multipliers.iter().enumerate() {
        let ttft_ok = ttft_ms <= multiplier * ttft_target_ms;
        let tbt_ok = mean_tbt_ms <= 0.0 || mean_tbt_ms <= multiplier * tbt_target_ms;
        if ttft_ok {
            metrics.ttft_curve[i] += 1;
        }
        if tbt_ok {
            metrics.tbt_curve[i] += 1;
        }
        if ttft_ok && tbt_ok {
            metrics.joint_curve[i] += 1;
        }
    }
    let met_headline = ttft_ms <= headline * ttft_target_s * 1000.0
        && (mean_tbt_ms <= 0.0 || mean_tbt_ms <= headline * tbt_target_s * 1000.0);
    metrics.record_tokens(output_tokens, met_headline);
}

/// Threshold-set recording against the multiplier loop, at the boundaries: samples at
/// exactly `m × target` (and one ulp either side) for every curve multiplier and the
/// headline, 0 ms, single-token outputs (no TBT), NaN and infinities, and degenerate
/// targets. Curves, histograms, the bits of `sum_ms` and the goodput split must be equal.
#[test]
fn threshold_recording_matches_the_multiplier_loop_at_the_boundaries() {
    let multipliers = tapas_repro::cluster_sim::metrics::SLO_CURVE_MULTIPLIERS;
    let target_pairs =
        [(0.137, 0.0213), (0.25, 0.05), (1e-9, 1e-12), (0.0, -1.0), (f64::NAN, 0.02)];
    let mut rng = SimRng::seed_from(2028).derive("slo-recording");
    let mut boundary_samples = 0;
    for &targets in &target_pairs {
        for headline in [5.0, 2.0, 7.5] {
            let thresholds = SloThresholds::new(targets.0, targets.1, headline);
            let (mut fast, mut reference) = (RequestMetrics::new(), RequestMetrics::new());
            let mut edges = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0, 3.0];
            for multiplier in multipliers.iter().chain([&headline]) {
                for target_s in [targets.0, targets.1] {
                    let at = multiplier * (target_s * 1000.0).max(f64::MIN_POSITIVE);
                    let headline_at = headline * target_s * 1000.0;
                    edges.extend([at, at.next_down(), at.next_up(), headline_at]);
                }
            }
            let mut samples = Vec::new();
            for &ttft in &edges {
                for &tbt in &edges {
                    samples.push((ttft, tbt, rng.uniform_usize(1, 500) as u64));
                    boundary_samples += 1;
                }
                // A single-token output has no TBT.
                samples.push((ttft, 0.0, 1));
            }
            for _ in 0..500 {
                samples.push((
                    rng.uniform_usize(0, 20_000) as f64,
                    rng.uniform(0.0, 400.0),
                    rng.uniform_usize(1, 900) as u64,
                ));
            }
            for &sample in &samples {
                fast.record(&thresholds, sample.0, sample.1, sample.2);
                record_by_the_multiplier_loop(&mut reference, targets, headline, sample);
            }
            let context = format!("targets {targets:?}, headline {headline}");
            assert_eq!(fast.completed, reference.completed, "{context}");
            assert_eq!(fast.ttft_curve, reference.ttft_curve, "{context}");
            assert_eq!(fast.tbt_curve, reference.tbt_curve, "{context}");
            assert_eq!(fast.joint_curve, reference.joint_curve, "{context}");
            assert_eq!(fast.ttft.counts, reference.ttft.counts, "{context}");
            assert_eq!(fast.tbt.counts, reference.tbt.counts, "{context}");
            assert_eq!(fast.ttft.sum_ms.to_bits(), reference.ttft.sum_ms.to_bits(), "{context}");
            assert_eq!(fast.tbt.sum_ms.to_bits(), reference.tbt.sum_ms.to_bits(), "{context}");
            assert_eq!(fast.lifecycle, reference.lifecycle, "{context}");
            assert!(fast.lifecycle.goodput_tokens > 0 || targets.0.is_nan(), "{context}");
        }
    }
    assert!(boundary_samples > 10_000, "boundary samples: {boundary_samples}");
}

/// A trace with out-of-order records and timestamp ties between different shapes on one
/// endpoint, and the same records stably sorted by timestamp (ties keep record order).
fn shuffled_trace_and_its_stable_sort() -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    let mut rng = SimRng::seed_from(11).derive("shuffled-trace");
    let mut records: Vec<TraceRecord> = (0..400)
        .map(|_| TraceRecord {
            // Whole seconds over two hours: many requests share a millisecond.
            timestamp_ms: rng.uniform_usize(0, 7200) as u64 * 1000,
            endpoint: rng.uniform_usize(0, 2) as u64,
            prompt_tokens: rng.uniform_usize(16, 2048) as u32,
            output_tokens: rng.uniform_usize(1, 400) as u32,
        })
        .collect();
    rng.shuffle(&mut records);
    assert!(records.windows(2).any(|p| p[0].timestamp_ms > p[1].timestamp_ms));
    let mut sorted = records.clone();
    sorted.sort_by_key(|r| r.timestamp_ms);
    assert!(sorted.windows(2).any(|p| p[0].timestamp_ms == p[1].timestamp_ms));
    (records, sorted)
}

#[test]
fn out_of_order_trace_replays_like_its_stable_sort() {
    let (shuffled, sorted) = shuffled_trace_and_its_stable_sort();
    let replay = |records: &[TraceRecord]| {
        let report = ClusterSimulator::with_request_trace(fabric_smoke(), records)
            .expect("trace endpoints are in the smoke catalog")
            .run();
        serde_json::to_string(&report).expect("serialize")
    };
    assert_eq!(replay(&shuffled), replay(&sorted));

    let fleet_replay = |records: &[TraceRecord]| {
        let mut base = fabric_smoke();
        base.policy = Policy::Tapas;
        let report = FleetSimulator::with_request_trace(FleetConfig::evaluation(base, 3), records)
            .expect("trace endpoints are in the base catalog")
            .run();
        assert!(report.request_fabric().is_some_and(|m| m.completed > 0));
        serde_json::to_string(&report).expect("serialize")
    };
    assert_eq!(fleet_replay(&shuffled), fleet_replay(&sorted));
}

// --- KV-cache admission invariants -------------------------------------------------

/// Under sustained overload the scheduler's KV accounting must hold three invariants at
/// every step boundary: occupancy ≤ committed ≤ capacity, and all three non-negative.
/// Committed-peak admission means admitted sequences can always grow to completion.
#[test]
fn kv_occupancy_never_exceeds_committed_nor_capacity() {
    let gpu = GpuHardware::a100();
    let config = InstanceConfig::default_70b();
    let mut scheduler = BatchScheduler::new(config, &gpu, 1);
    let capacity = scheduler.kv_capacity();
    assert!(capacity > 0);

    let mut rng = SimRng::seed_from(7).derive("kv-invariants");
    let mut offered = 0u64;
    let mut completions = Vec::new();
    let mut completed = 0u64;
    let mut arrival = 0u64;
    for window in 0..240u64 {
        // A bursty arrival process that keeps the queue deep.
        for _ in 0..rng.uniform_usize(0, 6) {
            arrival += rng.uniform_usize(0, 450) as u64;
            let prompt = 1 + rng.uniform_usize(0, capacity / 6);
            let output = 1 + rng.uniform_usize(0, 300);
            scheduler.offer(offered, prompt, output, arrival);
            offered += 1;
        }
        let deadline = (window + 1) * 500 + arrival.saturating_sub(arrival % 500);
        completions.clear();
        scheduler.advance_to(deadline, &mut completions);
        completed += completions.len() as u64;
        assert!(
            scheduler.kv_in_use() <= scheduler.kv_committed(),
            "window {window}: occupancy {} exceeds committed {}",
            scheduler.kv_in_use(),
            scheduler.kv_committed()
        );
        assert!(
            scheduler.kv_committed() <= capacity,
            "window {window}: committed {} exceeds capacity {capacity}",
            scheduler.kv_committed()
        );
        for done in &completions {
            assert!(done.first_token_ms >= done.arrival_ms);
            assert!(done.finish_ms >= done.first_token_ms);
        }
    }
    assert!(completed > 0, "the overloaded scheduler still makes progress");
    assert!(offered > completed, "overload keeps a backlog (offered {offered})");
}

/// Randomized replica churn — shrinks standing in for failures, grows for recovery —
/// under sustained bursty load with the fault policy armed: the KV accounting
/// invariants `kv_in_use ≤ kv_committed ≤ kv_capacity` hold after every shrink and
/// every step (capacity itself moves with the replica count), every completion's TTFT
/// clock starts at the request's *original* arrival (re-admission after preemption
/// must not reset it), and no request ever vanishes: offered requests are exactly
/// partitioned into completed, shed, timed out, and still in flight.
#[test]
fn kv_invariants_hold_under_randomized_replica_churn() {
    let gpu = GpuHardware::a100();
    let config = InstanceConfig::default_70b();
    let mut scheduler = BatchScheduler::new(config, &gpu, 4);
    scheduler.set_fault_policy(30_000, 2, 256);
    let mut rng = SimRng::seed_from(11).derive("churn-invariants");
    let mut arrivals: Vec<u64> = Vec::new(); // original arrival, indexed by tag
    let mut completions = Vec::new();
    let mut completed = 0u64;
    let mut now = 0u64;
    let mut arrival = 0u64;

    fn assert_kv_invariants(scheduler: &BatchScheduler, label: &str) {
        assert!(
            scheduler.kv_in_use() <= scheduler.kv_committed(),
            "{label}: occupancy {} exceeds committed {}",
            scheduler.kv_in_use(),
            scheduler.kv_committed()
        );
        assert!(
            scheduler.kv_committed() <= scheduler.kv_capacity(),
            "{label}: committed {} exceeds capacity {}",
            scheduler.kv_committed(),
            scheduler.kv_capacity()
        );
    }

    for window in 0..300u64 {
        for _ in 0..rng.uniform_usize(0, 12) {
            // Arrivals are offered in nondecreasing time order (the stream contract).
            arrival = arrival.max(now) + rng.uniform_usize(0, 100) as u64;
            let prompt = 1 + rng.uniform_usize(0, 20_000);
            let output = 1 + rng.uniform_usize(0, 400);
            scheduler.offer(arrivals.len() as u64, prompt, output, arrival);
            arrivals.push(arrival);
        }
        // Replica churn: a shrink is a failure wave, a grow is recovery. Both must
        // leave the accounting consistent immediately, before any time passes.
        let replicas = 1 + rng.uniform_usize(0, 4);
        scheduler.set_replicas(replicas);
        assert_kv_invariants(&scheduler, &format!("window {window} after set_replicas"));

        now += 500;
        completions.clear();
        scheduler.advance_to(now, &mut completions);
        assert_kv_invariants(&scheduler, &format!("window {window} after advance"));
        for done in &completions {
            assert_eq!(
                done.arrival_ms,
                arrivals[done.tag as usize],
                "window {window}: TTFT must be measured from the original arrival"
            );
            assert!(done.first_token_ms >= done.arrival_ms);
            assert!(done.finish_ms >= done.first_token_ms);
        }
        completed += completions.len() as u64;
    }

    let faults = scheduler.faults();
    assert!(completed > 0, "the churned scheduler still completes work");
    assert!(faults.preemptions > 0, "shrinks must actually exercise preemption");
    assert_eq!(
        arrivals.len() as u64,
        completed
            + faults.shed
            + faults.timeouts
            + (scheduler.queue_len() + scheduler.running_len()) as u64,
        "request conservation must hold exactly ({faults:?})"
    );
}

// --- Fleet determinism -------------------------------------------------------------

#[test]
fn fabric_enabled_three_site_fleet_is_byte_identical_across_same_seed_runs() {
    let fleet = || {
        let mut base = fabric_smoke();
        base.policy = Policy::Tapas;
        FleetSimulator::new(FleetConfig::evaluation(base, 3)).run()
    };
    let a = fleet();
    let b = fleet();
    let json_a = serde_json::to_string(&a).expect("serialize");
    let json_b = serde_json::to_string(&b).expect("serialize");
    assert_eq!(json_a, json_b, "same-seed fabric fleets must serialize identically");
    // Every site ran the fabric and the fleet-wide merge sees their requests.
    let merged = a.request_fabric().expect("fabric enabled on every site");
    assert!(merged.completed > 0);
    for site in &a.sites {
        assert!(site.request_fabric.is_some());
    }
    // The per-request stream was actually spread by the geo stage.
    let active_sites = a
        .sites
        .iter()
        .filter(|s| s.request_fabric.as_ref().is_some_and(|m| m.completed > 0))
        .count();
    assert!(active_sites >= 2, "requests must spread beyond one site");
    // Attainment curves are cumulative in the multiplier.
    let curve = merged.attainment_curve();
    assert!(curve.windows(2).all(|p| p[0] <= p[1]), "curve must be monotone");
}

#[test]
fn single_site_fabric_fleet_wraps_the_plain_simulator() {
    let base = fabric_smoke();
    let fleet = FleetSimulator::new(FleetConfig::single_site(base.clone())).run();
    let single = ClusterSimulator::new(base).run();
    assert_eq!(
        serde_json::to_string(&fleet.sites[0]).expect("serialize"),
        serde_json::to_string(&single).expect("serialize"),
        "a 1-site fabric fleet must reproduce the single-datacenter run bit for bit"
    );
}

#[test]
fn disabling_the_fabric_leaves_reports_free_of_request_metrics() {
    let report = ClusterSimulator::new(ExperimentConfig::small_smoke_test()).run();
    assert!(report.request_fabric.is_none());
    let json = serde_json::to_string(&report).expect("serialize");
    assert!(json.ends_with("\"request_fabric\":null}"), "the key is written as null");
}

// --- Trace replay ------------------------------------------------------------------

#[test]
fn csv_and_jsonl_replays_are_byte_identical_and_complete_every_request() {
    let csv = parse_csv(SAMPLE_CSV).expect("sample CSV parses");
    let jsonl = parse_jsonl(SAMPLE_JSONL).expect("sample JSONL parses");
    assert_eq!(csv, jsonl, "the two sample encodings carry the same records");

    let from_csv = ClusterSimulator::with_request_trace(ExperimentConfig::small_smoke_test(), &csv)
        .expect("trace endpoints are in the smoke catalog")
        .run();
    let from_jsonl =
        ClusterSimulator::with_request_trace(ExperimentConfig::small_smoke_test(), &jsonl)
            .expect("trace endpoints are in the smoke catalog")
            .run();
    assert_eq!(
        serde_json::to_string(&from_csv).expect("serialize"),
        serde_json::to_string(&from_jsonl).expect("serialize"),
        "replaying either encoding must produce identical runs"
    );
    let metrics = from_csv.request_fabric.as_ref().expect("replay enables the fabric");
    assert_eq!(
        metrics.completed,
        csv.len() as u64,
        "every trace request finishes inside the two-hour horizon"
    );
    // TTFT and TBT were measured for every request.
    assert_eq!(metrics.ttft.total(), metrics.completed);
    assert_eq!(metrics.tbt.total(), metrics.completed);
}

#[test]
fn trace_replay_rejects_unknown_endpoints_with_a_typed_error() {
    let mut records = parse_csv(SAMPLE_CSV).expect("sample CSV parses");
    records[0].endpoint = 99;
    records.sort_by_key(|r| r.timestamp_ms);
    let err = ClusterSimulator::with_request_trace(ExperimentConfig::small_smoke_test(), &records)
        .expect_err("endpoint 99 is not in the smoke catalog");
    assert_eq!(err, TraceError::UnknownEndpoint { endpoint: 99 });
    let fleet_err = FleetSimulator::with_request_trace(
        FleetConfig::single_site(ExperimentConfig::small_smoke_test()),
        &records,
    )
    .map(|_| ())
    .expect_err("the fleet entry validates against the base catalog");
    assert_eq!(fleet_err, TraceError::UnknownEndpoint { endpoint: 99 });
}

#[test]
fn fleet_trace_replay_routes_records_across_sites() {
    let records = parse_csv(SAMPLE_CSV).expect("sample CSV parses");
    let mut base = ExperimentConfig::small_smoke_test();
    base.policy = Policy::Tapas;
    let report = FleetSimulator::with_request_trace(FleetConfig::evaluation(base, 3), &records)
        .expect("trace endpoints are in the base catalog")
        .run();
    let merged = report.request_fabric().expect("fabric enabled by the replay entry");
    assert_eq!(merged.completed, records.len() as u64);
}

// --- Golden artifact ---------------------------------------------------------------

/// Pins the serialized per-request metrics block of a seeded fabric run: histogram
/// bucket layout, curve layout and every count. Catches both behavioural drift in the
/// fabric (different completions) and serialization drift in the metrics block.
#[test]
fn fabric_metrics_golden_artifact_is_stable() {
    let report = ClusterSimulator::new(fabric_smoke()).run();
    let metrics = report.request_fabric.as_ref().expect("fabric enabled");
    let json = serde_json::to_string(metrics).expect("serialize");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/request_fabric_metrics.json"),
            &json,
        )
        .expect("write golden file");
        return;
    }

    assert_eq!(
        json,
        GOLDEN_METRICS.trim_end(),
        "fabric metrics drifted from the golden file; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test request_fabric"
    );
    let back: RequestMetrics = serde_json::from_str(GOLDEN_METRICS).expect("deserialize");
    assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
}
