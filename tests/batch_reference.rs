//! Differential tests pinning the event-cost continuous-batching scheduler
//! (`BatchScheduler::advance_to`: one iteration counter plus a finish-iteration heap) to
//! its reference, the per-sequence walk behind `BatchScheduler::advance_to_reference`.
//!
//! Each case clones one scheduler, drives the clones through the same random sequence of
//! offers, replica changes and serve windows — one with each serving path — and compares
//! after every call: the completions (order included, since downstream latency sums are
//! order-dependent), the clock, KV occupancy and commitment, queue and batch lengths, the
//! completion count, the fault counters, and the bits of `pressure()`. Cases cover both
//! stock configurations, single-token outputs, bursts with equal arrival times and equal
//! output lengths (many sequences finishing in one iteration, finishers pulled in from the
//! tail by `swap_remove`), replica shrinks and grows between windows (preemption), deadline
//! shedding on and off, retry budgets 0–3 (timeouts), deadlines that end mid-iteration and
//! deadlines in the past.

use llm_sim::batch::{BatchCompletion, BatchScheduler};
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use simkit::rng::SimRng;

const CASES: u64 = 160;

/// What the cases exercised, summed over all of them, so a generator change that stops
/// reaching a behaviour fails loudly instead of passing vacuously.
#[derive(Default)]
struct Coverage {
    completions: u64,
    single_token: u64,
    shared_finish_groups: u64,
    preemptions: u64,
    timeouts: u64,
    shed: u64,
    past_deadlines: u64,
}

fn assert_same(fast: &BatchScheduler, reference: &BatchScheduler, context: &str) {
    assert_eq!(fast.now_ms(), reference.now_ms(), "now_ms: {context}");
    assert_eq!(fast.kv_in_use(), reference.kv_in_use(), "kv_in_use: {context}");
    assert_eq!(fast.kv_committed(), reference.kv_committed(), "kv_committed: {context}");
    assert_eq!(fast.queue_len(), reference.queue_len(), "queue_len: {context}");
    assert_eq!(fast.running_len(), reference.running_len(), "running_len: {context}");
    assert_eq!(fast.completed_total(), reference.completed_total(), "completed: {context}");
    assert_eq!(fast.faults(), reference.faults(), "faults: {context}");
    assert_eq!(fast.degrade_level(), reference.degrade_level(), "degrade: {context}");
    assert_eq!(
        fast.pressure().to_bits(),
        reference.pressure().to_bits(),
        "pressure: {context}"
    );
}

/// Groups of two or more completions with one finish time in a single call's output
/// (each group is one iteration completing several sequences).
fn shared_finish_groups(completions: &[BatchCompletion]) -> u64 {
    let mut groups = 0;
    let mut run = 1;
    for pair in completions.windows(2) {
        if pair[0].finish_ms == pair[1].finish_ms {
            run += 1;
            if run == 2 {
                groups += 1;
            }
        } else {
            run = 1;
        }
    }
    groups
}

fn run_case(seed: u64, coverage: &mut Coverage) {
    let mut rng = SimRng::seed_from(seed);
    let config = if rng.chance(0.5) {
        InstanceConfig::default_70b()
    } else {
        InstanceConfig::small_fallback()
    };
    let max_replicas = 5;
    let mut fast =
        BatchScheduler::new(config, &GpuHardware::a100(), rng.uniform_usize(1, max_replicas));
    let shed_deadline_ms =
        if rng.chance(0.5) { rng.uniform_usize(20, 4_000) as u64 } else { 0 };
    let max_retries = rng.uniform_usize(0, 4) as u32;
    fast.set_fault_policy(shed_deadline_ms, max_retries, rng.uniform_usize(1, 400) as u64);
    let mut reference = fast.clone();
    // Long prompts make KV the binding admission constraint and make shrinks preempt.
    let long_prompt = BatchScheduler::new(config, &GpuHardware::a100(), 1).kv_capacity() / 6;

    let (mut fast_out, mut reference_out) = (Vec::new(), Vec::new());
    let mut arrival = 0u64;
    let mut deadline = 0u64;
    let mut tag = 0u64;
    let windows = rng.uniform_usize(4, 14);
    for window in 0..windows {
        // A burst of offers. Arrivals often repeat and output lengths are drawn from a
        // few values, so many sequences are admitted together and finish together.
        let burst = rng.uniform_usize(0, 80);
        let shared_output = rng.uniform_usize(1, 12);
        for _ in 0..burst {
            if rng.chance(0.4) {
                arrival += rng.uniform_usize(0, 400) as u64;
            }
            let prompt = if rng.chance(0.15) {
                rng.uniform_usize(long_prompt / 2, long_prompt + 1)
            } else {
                rng.uniform_usize(0, 600)
            };
            let output = match rng.uniform_usize(0, 4) {
                0 => 1,
                1 => shared_output,
                2 => rng.uniform_usize(1, 8),
                _ => rng.uniform_usize(1, 60),
            };
            fast.offer(tag, prompt, output, arrival);
            reference.offer(tag, prompt, output, arrival);
            tag += 1;
        }

        if rng.chance(0.35) {
            let replicas = rng.uniform_usize(1, max_replicas);
            fast.set_replicas(replicas);
            reference.set_replicas(replicas);
            assert_same(&fast, &reference, &format!("seed {seed} window {window} resize"));
        }

        let now = fast.now_ms();
        deadline = if rng.chance(0.1) {
            coverage.past_deadlines += 1;
            now.saturating_sub(rng.uniform_usize(0, 500) as u64)
        } else {
            deadline.max(now) + rng.uniform_usize(1, 3_000) as u64
        };
        let before = fast_out.len();
        fast.advance_to(deadline, &mut fast_out);
        reference.advance_to_reference(deadline, &mut reference_out);
        let context = format!("seed {seed} window {window} deadline {deadline}");
        assert_eq!(fast_out, reference_out, "completions: {context}");
        assert_same(&fast, &reference, &context);
        coverage.shared_finish_groups += shared_finish_groups(&fast_out[before..]);

        fast.note_pressure_window();
        reference.note_pressure_window();
        assert_same(&fast, &reference, &format!("{context} pressure window"));
    }

    // Drain at full size so every admitted sequence finishes on both paths.
    fast.set_replicas(max_replicas);
    reference.set_replicas(max_replicas);
    let drain = fast.now_ms() + 3_600_000;
    fast.advance_to(drain, &mut fast_out);
    reference.advance_to_reference(drain, &mut reference_out);
    assert_eq!(fast_out, reference_out, "completions: seed {seed} drain");
    assert_same(&fast, &reference, &format!("seed {seed} drain"));

    let faults = fast.faults();
    coverage.completions += fast_out.len() as u64;
    coverage.single_token += fast_out.iter().filter(|c| c.output_tokens == 1).count() as u64;
    coverage.preemptions += faults.preemptions;
    coverage.timeouts += faults.timeouts;
    coverage.shed += faults.shed;
}

#[test]
fn event_cost_scheduler_matches_the_per_sequence_walk() {
    let mut coverage = Coverage::default();
    for seed in 0..CASES {
        run_case(seed, &mut coverage);
    }
    assert!(coverage.completions > 10_000, "too few completions: {}", coverage.completions);
    assert!(coverage.single_token > 100, "single-token outputs: {}", coverage.single_token);
    assert!(
        coverage.shared_finish_groups > 500,
        "iterations completing several sequences: {}",
        coverage.shared_finish_groups
    );
    assert!(coverage.preemptions > 50, "preemptions: {}", coverage.preemptions);
    assert!(coverage.timeouts > 5, "timeouts: {}", coverage.timeouts);
    assert!(coverage.shed > 50, "shed: {}", coverage.shed);
    assert!(coverage.past_deadlines > 20, "past deadlines: {}", coverage.past_deadlines);
}

/// One admitted burst with short and long outputs interleaved: the short ones finish in
/// one iteration from interior and tail positions, so `swap_remove` reorders them, and
/// the event-cost path must emit the walk's order, not plain position order.
#[test]
fn one_iteration_completing_interleaved_finishers_keeps_walk_order() {
    let config = InstanceConfig::default_70b();
    let mut fast = BatchScheduler::new(config, &GpuHardware::a100(), 1);
    for tag in 0..12u64 {
        let output = if tag % 3 == 0 { 9 } else { 4 };
        fast.offer(tag, 100, output, 0);
    }
    let mut reference = fast.clone();
    let (mut fast_out, mut reference_out) = (Vec::new(), Vec::new());
    fast.advance_to(60_000, &mut fast_out);
    reference.advance_to_reference(60_000, &mut reference_out);
    assert_eq!(fast_out.len(), 12);
    assert_eq!(fast_out, reference_out);
    assert_same(&fast, &reference, "interleaved finishers");
    let tags: Vec<u64> = fast_out.iter().map(|c| c.tag).collect();
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    assert_ne!(tags, sorted, "swap_remove reorders a multi-finisher iteration");
}
