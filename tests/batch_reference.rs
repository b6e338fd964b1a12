//! Differential tests pinning the event-cost continuous-batching scheduler
//! (`BatchScheduler::advance_to`: one iteration counter, a finish-iteration ring and quiet
//! runs) to its reference, the per-sequence walk behind
//! `BatchScheduler::advance_to_reference`.
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
//! deadlines in the past. Targeted cases add outputs longer than the ring (far finishes
//! sharing a bucket with near ones), preemption victims sharing a bucket, quiet runs that
//! span whole serve windows, and a ready front that does not fit and wakes the scheduler
//! only at its shed time.

use llm_sim::batch::{BatchCompletion, BatchScheduler, FINISH_RING};
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

/// Advances both schedulers to `deadline` and compares their outputs and state.
fn advance_both(
    fast: &mut BatchScheduler,
    reference: &mut BatchScheduler,
    deadline: u64,
    outputs: &mut (Vec<BatchCompletion>, Vec<BatchCompletion>),
    context: &str,
) {
    fast.advance_to(deadline, &mut outputs.0);
    reference.advance_to_reference(deadline, &mut outputs.1);
    assert_eq!(outputs.0, outputs.1, "completions: {context}");
    assert_same(fast, reference, context);
}

/// Offers the same request to both schedulers.
fn offer_both(
    schedulers: (&mut BatchScheduler, &mut BatchScheduler),
    tag: u64,
    prompt: usize,
    output: usize,
    arrival: u64,
) {
    schedulers.0.offer(tag, prompt, output, arrival);
    schedulers.1.offer(tag, prompt, output, arrival);
}

/// Outputs of `k`, `k + FINISH_RING` and `k + 2 FINISH_RING` tokens admitted together
/// finish in one ring bucket, laps apart. Offered far, near, far, near, the near ones
/// complete from the head and from the middle of the bucket list while the far ones stay
/// linked and are revisited a lap later. Staggered bursts then file later admissions
/// into buckets that still hold far finishes.
#[test]
fn outputs_longer_than_the_ring_share_buckets_with_near_finishes() {
    let ring = FINISH_RING;
    let mut fast = BatchScheduler::new(InstanceConfig::small_fallback(), &GpuHardware::a100(), 2);
    let mut reference = fast.clone();
    let mut rng = SimRng::seed_from(23);
    let mut tag = 0u64;
    for output in [ring + 5, 5, 2 * ring + 5, 5, ring + 1, 1] {
        offer_both((&mut fast, &mut reference), tag, 64, output, 0);
        tag += 1;
    }
    let mut outputs = (Vec::new(), Vec::new());
    let mut deadline = 0;
    for window in 0..60u64 {
        if window % 4 == 1 {
            // One burst: the same near length at every lap, so its far members share
            // buckets with its near ones and with the earlier bursts' far finishes.
            let k = rng.uniform_usize(1, 40);
            for lap in 0..3 {
                for _ in 0..rng.uniform_usize(1, 3) {
                    let prompt = rng.uniform_usize(1, 300);
                    offer_both((&mut fast, &mut reference), tag, prompt, k + lap * ring, deadline);
                    tag += 1;
                }
            }
        }
        deadline += rng.uniform_usize(500, 20_000) as u64;
        let context = format!("window {window}");
        advance_both(&mut fast, &mut reference, deadline, &mut outputs, &context);
    }
    let drain = fast.now_ms() + 3_600_000_000;
    advance_both(&mut fast, &mut reference, drain, &mut outputs, "drain");
    assert_eq!(outputs.0.len() as u64, tag, "every request completes");
    let lapped = outputs.0.iter().filter(|c| c.output_tokens > ring).count();
    let double_lapped = outputs.0.iter().filter(|c| c.output_tokens > 2 * ring).count();
    assert!(lapped >= 20, "outputs longer than the ring: {lapped}");
    assert!(double_lapped >= 10, "outputs longer than two laps: {double_lapped}");
}

/// Preemption is LIFO by admission, and a bucket list is in reverse admission order, so
/// each victim is the newest entry of its bucket with older entries — near and far
/// finishes of the same bucket — linked behind it. Repeated shrinks evict such victims;
/// the entries left behind must still complete exactly when the walk completes them, and
/// requeued victims re-enter the ring on re-admission.
#[test]
fn preemption_unlinks_victims_from_shared_buckets() {
    let ring = FINISH_RING;
    let mut coverage = Coverage::default();
    let mut multi_victim_shrinks = 0;
    for seed in 0..16 {
        let mut rng = SimRng::seed_from(1_000 + seed);
        let config = InstanceConfig::default_70b();
        let mut fast = BatchScheduler::new(config, &GpuHardware::a100(), 4);
        fast.set_fault_policy(0, 3, rng.uniform_usize(1, 300) as u64);
        let mut reference = fast.clone();
        // Prompts of a fifth of one replica's cache: a shrink to one replica strands the
        // commitment and preempts the newest admissions.
        let prompt = fast.kv_capacity() / 4 / 5;
        let mut outputs = (Vec::new(), Vec::new());
        let mut tag = 0;
        let k = rng.uniform_usize(20, 200);
        // One admission wave: every sequence admitted in the same iteration, near and far
        // finishes of one bucket, then a second wave an iteration or more later.
        for wave in 0..2 {
            for index in 0..rng.uniform_usize(4, 10) {
                let output = if index % 2 == 0 { k } else { k + ring };
                offer_both((&mut fast, &mut reference), tag, prompt, output, wave * 40);
                tag += 1;
            }
        }
        let mut deadline = 0;
        for window in 0..8 {
            deadline += rng.uniform_usize(20, 600) as u64;
            let context = format!("{seed}/{window}");
            advance_both(&mut fast, &mut reference, deadline, &mut outputs, &context);
            let replicas = if window % 2 == 0 { 1 } else { 4 };
            let before = fast.faults().preemptions;
            fast.set_replicas(replicas);
            reference.set_replicas(replicas);
            assert_same(&fast, &reference, &format!("seed {seed} window {window} resize"));
            if fast.faults().preemptions > before + 1 {
                multi_victim_shrinks += 1;
            }
        }
        fast.set_replicas(4);
        reference.set_replicas(4);
        let drain = fast.now_ms() + 3_600_000_000;
        advance_both(&mut fast, &mut reference, drain, &mut outputs, &format!("{seed} drain"));
        let faults = fast.faults();
        assert_eq!(outputs.0.len() as u64 + faults.timeouts, tag, "seed {seed}");
        coverage.preemptions += faults.preemptions;
        coverage.completions += outputs.0.len() as u64;
    }
    assert!(coverage.preemptions > 40, "preemptions: {}", coverage.preemptions);
    assert!(multi_victim_shrinks > 10, "multi-victim shrinks: {multi_victim_shrinks}");
    assert!(coverage.completions > 100, "completions: {}", coverage.completions);
}

/// A full batch of long outputs, advanced in windows a few iterations long: a window with
/// no admission and no completion is one quiet run from start to deadline. So is every
/// window before a future arrival becomes ready. Each window is compared with the walk.
#[test]
fn quiet_runs_span_whole_serve_windows() {
    let mut quiet_full_windows = 0;
    let mut quiet_waiting_windows = 0;
    for (seed, replicas) in [(0u64, 1usize), (1, 2), (2, 3)] {
        let mut rng = SimRng::seed_from(500 + seed);
        let config = InstanceConfig::default_70b();
        let mut fast = BatchScheduler::new(config, &GpuHardware::a100(), replicas);
        let mut reference = fast.clone();
        let slots = config.max_batch_size * replicas;
        let mut tag = 0;
        // More requests than slots, so the queue waits on a full batch; outputs from two
        // lengths, so completions come in groups with long quiet stretches between.
        for _ in 0..slots + 20 {
            let output = if rng.chance(0.5) { 300 } else { 700 };
            offer_both((&mut fast, &mut reference), tag, 200, output, 0);
            tag += 1;
        }
        let mut outputs = (Vec::new(), Vec::new());
        let mut deadline = 0;
        for window in 0..400 {
            let (done, queued, kv) = (outputs.0.len(), fast.queue_len(), fast.kv_in_use());
            deadline += rng.uniform_usize(50, 400) as u64;
            let context = format!("{seed}/{window}");
            advance_both(&mut fast, &mut reference, deadline, &mut outputs, &context);
            let quiet = outputs.0.len() == done && fast.queue_len() == queued;
            if quiet && fast.running_len() == slots && fast.kv_in_use() >= kv + 2 * slots {
                quiet_full_windows += 1;
            }
        }
        // Drain, then a few sequences with a far-future arrival behind them: the windows
        // before it is ready are quiet runs that end at each deadline.
        let drain = fast.now_ms() + 3_600_000;
        advance_both(&mut fast, &mut reference, drain, &mut outputs, &format!("{seed} drain"));
        let start = fast.now_ms();
        for _ in 0..4 {
            offer_both((&mut fast, &mut reference), tag, 100, 5_000, start);
            tag += 1;
        }
        offer_both((&mut fast, &mut reference), tag, 100, 10, start + 30_000);
        tag += 1;
        let mut deadline = start;
        while fast.completed_total() < tag {
            let (queued, kv, running) = (fast.queue_len(), fast.kv_in_use(), fast.running_len());
            deadline += rng.uniform_usize(100, 2_000) as u64;
            let context = format!("{seed} at {deadline}");
            advance_both(&mut fast, &mut reference, deadline, &mut outputs, &context);
            let quiet = fast.queue_len() == queued && fast.kv_in_use() >= kv + 8;
            if running == 4 && queued == 1 && quiet {
                quiet_waiting_windows += 1;
            }
            assert!(deadline < start + 100_000_000, "seed {seed}: the tail never drained");
        }
    }
    assert!(quiet_full_windows > 50, "quiet windows on a full batch: {quiet_full_windows}");
    assert!(quiet_waiting_windows > 10, "quiet windows before an arrival: {quiet_waiting_windows}");
}

/// Shedding on, a long sequence holding most of the cache and a ready queue front that
/// does not fit: admission cannot act until the front's age passes the deadline, so the
/// scheduler stays quiet until the first iteration that starts after the shed time and
/// sheds the front there, while the long sequence is still running. In the `exact` cases
/// the shed time is an iteration boundary: the front must be shed at that very
/// iteration, and a small request queued behind it admitted there, not one later.
#[test]
fn a_ready_front_that_does_not_fit_wakes_at_its_shed_time() {
    let config = InstanceConfig::default_70b();
    let base = BatchScheduler::new(config, &GpuHardware::a100(), 1);
    let big = base.kv_capacity() * 3 / 5;
    // Iteration boundaries while only the long sequence runs (the unfit front never
    // changes them), one `advance_to` call per iteration.
    let boundaries: Vec<u64> = {
        let mut probe = base.clone();
        probe.offer(0, big, 3_000, 0);
        probe.offer(1, big, 10, 0);
        let mut out = Vec::new();
        (0..200)
            .map(|_| {
                probe.advance_to(probe.now_ms() + 1, &mut out);
                probe.now_ms()
            })
            .collect()
    };
    let mut unfit_front_sheds = 0;
    let mut exact_wakeups = 0;
    let cases = [(0u64, 300u64, false), (1, 777, false), (2, 1_500, false), (3, 4_000, false)]
        .into_iter()
        .chain([5, 17, 60, 150].map(|k| (k, boundaries[k as usize] - 1, true)));
    for (seed, shed_deadline_ms, exact) in cases {
        let mut rng = SimRng::seed_from(900 + seed);
        let mut fast = base.clone();
        fast.set_fault_policy(shed_deadline_ms, 3, 256);
        let mut reference = fast.clone();
        offer_both((&mut fast, &mut reference), 0, big, 3_000, 0);
        // Ready at once, but the first sequence's commitment leaves no room for it.
        offer_both((&mut fast, &mut reference), 1, big, 10, 0);
        // Behind it, a small request young enough to be admitted when the front goes.
        let small_arrival = if exact { shed_deadline_ms } else { rng.uniform_usize(0, 50) as u64 };
        offer_both((&mut fast, &mut reference), 2, 100, 10, small_arrival);
        let mut outputs = (Vec::new(), Vec::new());
        let mut deadline = 0;
        let mut shed_while_running = false;
        while fast.queue_len() > 0 || fast.running_len() > 0 {
            deadline += rng.uniform_usize(10, 250) as u64;
            let context = format!("{seed} at {deadline}");
            advance_both(&mut fast, &mut reference, deadline, &mut outputs, &context);
            if fast.faults().shed > 0 && !shed_while_running {
                shed_while_running = fast.running_len() >= 1 && outputs.0.is_empty();
                assert!(fast.now_ms() > shed_deadline_ms, "shed before the deadline passed");
            }
        }
        if shed_while_running {
            unfit_front_sheds += 1;
        }
        if exact {
            let small = outputs.0.iter().find(|c| c.tag == 2).expect("the small request is served");
            assert!(small.first_token_ms > shed_deadline_ms + 1, "seed {seed}");
            exact_wakeups += 1;
        }
    }
    assert_eq!(unfit_front_sheds, 8, "every case sheds the unfit front mid-decode");
    assert_eq!(exact_wakeups, 4);
}
