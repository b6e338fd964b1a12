//! Request-fabric batch scheduler: continuous batching with KV-cache admission.
//!
//! [`BatchScheduler`] is the crate's serving model: an aggregate, *event-timestamped*
//! scheduler for all the replicas an endpoint runs at a site, on the request fabric's
//! integer-millisecond clock, with KV-cache occupancy tracked the way "Online Scheduling
//! for LLM Inference with KV Cache Constraints" (PAPERS.md) models it —
//! **incrementally**: the prompt is pinned at admission, occupancy grows by one token per
//! running sequence per decode iteration, and the sequence's whole footprint is evicted on
//! completion.
//!
//! Admission is still safe against the incremental growth: the scheduler tracks the
//! *committed peak* (current occupancy plus the remaining decode growth of every running
//! sequence) and admits a request only when the committed peak plus the request's full
//! footprint fits. Because every admitted sequence runs to completion, observed occupancy
//! can never exceed capacity — the invariant `tests/request_fabric.rs` pins — while the
//! occupancy curve itself is the incremental prefill + per-token-growth + eviction shape.
//!
//! **Event-cost iterations.** Every running sequence produces exactly one token per
//! iteration, so its progress is a function of one global counter: a sequence admitted
//! when the counter read `admit_iter` has generated `iterations − admit_iter` tokens and
//! finishes in iteration `admit_iter + output_tokens − 1`. A finish time is therefore an
//! iteration number, and [`BatchScheduler::advance_to`] files each running sequence in a
//! *finish-iteration ring*: [`FINISH_RING`] buckets indexed by `finish mod FINISH_RING`,
//! each an intrusive doubly linked list of batch slots, plus a bitmap of the occupied
//! buckets. A slot keeps its exact finish, so an output longer than the ring shares a
//! bucket with nearer finishes and is merely revisited once per lap; preemption unlinks
//! its victim in O(1). The batch itself is never walked.
//!
//! **Quiet runs.** Between events the scheduler runs whole stretches of iterations in a
//! tight loop: iterations in which admission cannot act (the batch is full, the queue
//! front is not ready yet, or it does not fit and is not yet past its shedding deadline)
//! and whose finish bucket is empty. Such an iteration admits nothing and completes
//! nothing, so the running set — and with it the per-replica batch — is fixed, and
//! `kv_in_use` grows by exactly the batch size per iteration: the mean context
//! `kv_in_use / n` grows by exactly one, so the division becomes an increment. Each
//! quiet iteration still times itself through the same iteration-time helper as a full
//! one (its own `ceil`), so the clock is bit-identical. A quiet run ends at the deadline,
//! at the admission wake-up time (the front's ready time, or its shed time) or at the
//! next occupied bucket, found from the bitmap; the iteration there takes the full path.
//!
//! Completions within one iteration are emitted in exactly the order of a front-to-back
//! walk that `swap_remove`s each finisher (a finisher pulled in from the tail is met
//! next, at the freed position), because downstream latency sums are order-dependent f64
//! sums. [`BatchScheduler::advance_to_reference`] is that walk, kept as the differential
//! reference (`tests/batch_reference.rs`).

use crate::config::InstanceConfig;
use crate::hardware::GpuHardware;
use crate::perf::{PerfModel, StepModel};
use std::collections::VecDeque;

/// Buckets of the finish-iteration ring (a power of two: the default
/// `RequestShape::max_total_tokens`, so a default-shaped output never laps the ring).
pub const FINISH_RING: usize = 8192;

const RING_MASK: u64 = FINISH_RING as u64 - 1;

/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// `x.ceil() as u64` — saturating, NaN to 0 — without the `ceil` call that baseline
/// x86-64 code makes (`roundsd` needs SSE4.1): truncate, then add one when truncation
/// dropped a fraction. Exact: below 2⁵³ the truncation and its `f64` are exact, above it
/// every `f64` is an integer, and the cast saturates like the `ceil` path's.
fn ceil_to_u64(x: f64) -> u64 {
    let truncated = x as u64;
    if (truncated as f64) < x { truncated.saturating_add(1) } else { truncated }
}

/// KV-cache capacity in tokens of one replica: the HBM left after weights are resident
/// (with a 10 % activation margin), divided by the per-token KV footprint.
#[must_use]
pub fn kv_capacity_tokens(config: &InstanceConfig, gpu: &GpuHardware) -> usize {
    let total_hbm_gb = gpu.memory_capacity_gb * config.parallelism.gpus() as f64;
    let free_gb = (total_hbm_gb - config.variant.weight_bytes_gb()).max(1.0) * 0.9;
    (free_gb * 1.0e9 / config.variant.kv_bytes_per_token()).max(1024.0) as usize
}

/// A request that finished serving, with integer-millisecond per-request timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCompletion {
    /// Caller-provided cookie identifying the request (e.g. a request id).
    pub tag: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Output length in tokens.
    pub output_tokens: usize,
    /// When the request arrived at the scheduler (fabric event time).
    pub arrival_ms: u64,
    /// When the first output token was produced.
    pub first_token_ms: u64,
    /// When the final output token was produced.
    pub finish_ms: u64,
}

impl BatchCompletion {
    /// Time to first token in milliseconds.
    #[must_use]
    pub fn ttft_ms(&self) -> u64 {
        self.first_token_ms.saturating_sub(self.arrival_ms)
    }

    /// Mean time between output tokens in milliseconds (0 for single-token outputs).
    #[must_use]
    pub fn mean_tbt_ms(&self) -> f64 {
        if self.output_tokens > 1 {
            (self.finish_ms - self.first_token_ms) as f64 / (self.output_tokens - 1) as f64
        } else {
            0.0
        }
    }

    /// End-to-end latency in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> u64 {
        self.finish_ms.saturating_sub(self.arrival_ms)
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    tag: u64,
    prompt_tokens: usize,
    output_tokens: usize,
    arrival_ms: u64,
    /// Earliest admission time: equals `arrival_ms` for fresh requests, or the
    /// deterministic backoff re-delivery time for preempted requeues.
    ready_ms: u64,
    /// Admission attempts consumed so far (0 = never admitted).
    attempts: u32,
}

#[derive(Debug, Clone, Copy)]
struct Active {
    tag: u64,
    prompt_tokens: usize,
    output_tokens: usize,
    /// The scheduler's iteration counter at admission: the sequence has generated
    /// `iterations − admit_iter` tokens.
    admit_iter: u64,
    arrival_ms: u64,
    first_token_ms: Option<u64>,
    /// Monotone admission ordinal; preemption evicts the highest (LIFO), which
    /// `Vec::swap_remove` order cannot provide.
    seq: u64,
    attempts: u32,
    /// Stable handle in the finish ring; `slots[slot].pos` is the index in `running`.
    slot: u32,
}

/// A batch slot: where its sequence sits in `running`, and its place in the finish ring.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The exact finish iteration (the ring bucket is this modulo [`FINISH_RING`]).
    finish: u64,
    pos: u32,
    next: u32,
    prev: u32,
}

/// The finish-iteration ring: one intrusive slot list per bucket and a bitmap of the
/// non-empty buckets (32 KiB + 1 KiB, allocated at the first admission so a scheduler
/// that never serves costs nothing).
#[derive(Debug, Clone, Default)]
struct FinishRing {
    heads: Box<[u32]>,
    occupied: Box<[u64]>,
}

impl FinishRing {

    fn bucket(iteration: u64) -> usize {
        (iteration & RING_MASK) as usize
    }

    fn is_occupied(&self, bucket: usize) -> bool {
        self.occupied[bucket / 64] & (1 << (bucket % 64)) != 0
    }

    /// Links `slot` at the head of its finish bucket.
    fn insert(&mut self, slots: &mut [Slot], slot: u32) {
        if self.heads.is_empty() {
            self.heads = vec![NIL; FINISH_RING].into_boxed_slice();
            self.occupied = vec![0; FINISH_RING / 64].into_boxed_slice();
        }
        let bucket = Self::bucket(slots[slot as usize].finish);
        let head = self.heads[bucket];
        slots[slot as usize].next = head;
        slots[slot as usize].prev = NIL;
        if head == NIL {
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            slots[head as usize].prev = slot;
        }
        self.heads[bucket] = slot;
    }

    /// Unlinks `slot` from its finish bucket.
    fn remove(&mut self, slots: &mut [Slot], slot: u32) {
        let Slot { finish, next, prev, .. } = slots[slot as usize];
        if prev == NIL {
            let bucket = Self::bucket(finish);
            self.heads[bucket] = next;
            if next == NIL {
                self.occupied[bucket / 64] &= !(1 << (bucket % 64));
            }
        } else {
            slots[prev as usize].next = next;
        }
        if next != NIL {
            slots[next as usize].prev = prev;
        }
    }

    /// Iterations from `iteration` to the first one whose bucket is occupied (0 when its
    /// own is), or `None` when the ring is empty.
    fn distance_to_occupied(&self, iteration: u64) -> Option<u64> {
        let start = Self::bucket(iteration);
        let words = self.occupied.len();
        let first_word = start / 64;
        // The start word's bits from `start` up, then every word in ring order, ending
        // with the start word again (its low bits are the wrap-around).
        let high = self.occupied[first_word] & (u64::MAX << (start % 64));
        if high != 0 {
            return Some((first_word * 64 + high.trailing_zeros() as usize - start) as u64);
        }
        for step in 1..=words {
            let word = (first_word + step) % words;
            let bits = self.occupied[word];
            if bits != 0 {
                let bucket = word * 64 + bits.trailing_zeros() as usize;
                return Some(((bucket + FINISH_RING - start) % FINISH_RING) as u64);
            }
        }
        None
    }
}

/// Fault-tolerance counters a scheduler accumulates over its lifetime: preemption and
/// eviction volume (wasted work), retry/timeout outcomes and shed requests. All zero in
/// a failure-free run, which keeps failure-free artifacts byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerFaults {
    /// Sequences evicted mid-flight (a request preempted twice counts twice).
    pub preemptions: u64,
    /// KV tokens resident at eviction time (prompt + generated so far), summed.
    pub evicted_tokens: u64,
    /// Prompt tokens that must re-prefill after eviction, summed.
    pub wasted_prefill_tokens: u64,
    /// Decode tokens generated then thrown away by eviction, summed.
    pub wasted_decode_tokens: u64,
    /// Preempted requests successfully requeued for another attempt.
    pub retries: u64,
    /// Requests dropped after exhausting the retry budget (or that can never fit the
    /// current capacity) — counted, never silent.
    pub timeouts: u64,
    /// Requests shed at admission because their deadline had already passed.
    pub shed: u64,
}

/// Degradation levels above this are clamped; each level tightens the admission budget
/// by 5 %, so the floor is 80 % of capacity.
const MAX_DEGRADE_LEVEL: u32 = 4;

/// Cap on the exponential backoff shift so the delay cannot overflow or exceed
/// `backoff_base_ms << 8`.
const MAX_BACKOFF_SHIFT: u32 = 8;

/// Aggregate continuous-batching scheduler for the replicas of one endpoint at one site.
///
/// Time is an integer millisecond clock; iteration durations come from the same analytic
/// [`PerfModel`] as the per-instance engine (rounded up to whole milliseconds), so the
/// schedule is exactly reproducible for a pinned arrival stream — no floats accumulate in
/// the clock.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    config: InstanceConfig,
    perf: PerfModel,
    /// `perf`'s step formulas for `config`, built once (an iteration times one of each).
    step: StepModel,
    kv_capacity_per_replica: usize,
    replicas: usize,
    kv_in_use: usize,
    kv_committed: usize,
    queued_tokens: usize,
    queue: VecDeque<Pending>,
    running: Vec<Active>,
    /// Iterations run so far (each produces one token per running sequence).
    iterations: u64,
    /// Every running sequence's slot, filed by finish iteration.
    ring: FinishRing,
    /// Per slot: position in `running` and finish-ring links.
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Scratch: positions of the sequences finishing in the current iteration.
    finishing: Vec<u32>,
    now_ms: u64,
    completed_total: u64,
    admission_seq: u64,
    faults: SchedulerFaults,
    /// Deadline shedding: a request whose age at admission exceeds this is shed.
    /// 0 disables shedding (and graceful degradation) entirely — the default, so
    /// fabric runs without an explicit fault policy behave exactly as before.
    shed_deadline_ms: u64,
    /// Preemption retry budget: a request evicted more than this many times is dropped
    /// (counted as a timeout).
    max_retries: u32,
    /// Base of the exponential requeue backoff (doubles per attempt).
    backoff_base_ms: u64,
    /// Current graceful-degradation level (0 = none); raised under sustained pressure,
    /// lowered when pressure clears. Only consulted when shedding is enabled.
    degrade_level: u32,
}

impl BatchScheduler {
    /// Creates a scheduler for `replicas` instances of `config` on a GPU generation.
    #[must_use]
    pub fn new(config: InstanceConfig, gpu: &GpuHardware, replicas: usize) -> Self {
        let perf = PerfModel::new(*gpu);
        Self {
            config,
            perf,
            step: perf.step_model(&config),
            kv_capacity_per_replica: kv_capacity_tokens(&config, gpu),
            replicas: replicas.max(1),
            kv_in_use: 0,
            kv_committed: 0,
            queued_tokens: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            iterations: 0,
            ring: FinishRing::default(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            finishing: Vec::new(),
            now_ms: 0,
            completed_total: 0,
            admission_seq: 0,
            faults: SchedulerFaults::default(),
            shed_deadline_ms: 0,
            max_retries: 3,
            backoff_base_ms: 256,
            degrade_level: 0,
        }
    }

    /// The scheduler's configuration.
    #[must_use]
    pub fn config(&self) -> &InstanceConfig {
        &self.config
    }

    /// The performance model backing the scheduler.
    #[must_use]
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Aggregate KV-cache capacity in tokens across the current replica count.
    #[must_use]
    pub fn kv_capacity(&self) -> usize {
        self.kv_capacity_per_replica * self.replicas
    }

    /// KV-cache tokens currently resident (prompts of running sequences plus every token
    /// they have generated so far).
    #[must_use]
    pub fn kv_in_use(&self) -> usize {
        self.kv_in_use
    }

    /// Committed KV peak: current occupancy plus the remaining decode growth of every
    /// running sequence. Admission compares this, not raw occupancy, against capacity.
    #[must_use]
    pub fn kv_committed(&self) -> usize {
        self.kv_committed
    }

    /// Requests waiting for admission.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently in the running batch.
    #[must_use]
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Requests completed over the scheduler's lifetime.
    #[must_use]
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Current scheduler time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Demand pressure on the endpoint's KV budget: committed peak plus the queued
    /// backlog's footprint, over capacity. 1.0 means admission is about to stall;
    /// values above it measure backlog depth. Saturates at 4.0.
    #[must_use]
    pub fn pressure(&self) -> f64 {
        let demand = (self.kv_committed + self.queued_tokens) as f64;
        (demand / self.kv_capacity() as f64).min(4.0)
    }

    /// Rescales the scheduler to a new replica count (pool grew, shrank, or replicas
    /// failed).
    ///
    /// A downsize that strands the committed KV peak above the new capacity — or the
    /// running batch above the surviving replicas' decode slots (`max_batch_size ×
    /// replicas`; a killed replica's slots die with it) — preempts running sequences
    /// newest-first (LIFO by admission ordinal) until both invariants hold again: each
    /// victim's footprint is evicted, its generated tokens are counted as wasted work,
    /// and the request is requeued with its **original** `arrival_ms` plus a
    /// deterministic backoff — it will re-prefill from scratch on re-admission. Victims
    /// over the retry budget are dropped and counted as timeouts, never silently.
    pub fn set_replicas(&mut self, replicas: usize) {
        self.replicas = replicas.max(1);
        self.preempt_to_fit();
    }

    /// Configures the fault-tolerance policy. `shed_deadline_ms` is the per-request
    /// admission deadline (0 disables deadline shedding and graceful degradation);
    /// `max_retries` bounds how often a preempted request is requeued before it is
    /// dropped as a timeout; `backoff_base_ms` seeds the exponential requeue backoff.
    pub fn set_fault_policy(
        &mut self,
        shed_deadline_ms: u64,
        max_retries: u32,
        backoff_base_ms: u64,
    ) {
        self.shed_deadline_ms = shed_deadline_ms;
        self.max_retries = max_retries;
        self.backoff_base_ms = backoff_base_ms.max(1);
    }

    /// Lifetime fault-tolerance counters (all zero in a failure-free run).
    #[must_use]
    pub fn faults(&self) -> SchedulerFaults {
        self.faults
    }

    /// Current graceful-degradation level (0 when shedding is disabled or pressure is
    /// low; each level tightens the admission budget by 5 %, floor 80 %).
    #[must_use]
    pub fn degrade_level(&self) -> u32 {
        self.degrade_level
    }

    /// One graceful-degradation tick, called once per serve window by the fabric:
    /// sustained KV pressure above 1.0 tightens the admission budget one notch (5 % per
    /// level, floor 80 %), and a clear window relaxes it one notch. A no-op unless
    /// deadline shedding is enabled — degradation exists to shed *less* by admitting
    /// more conservatively first.
    pub fn note_pressure_window(&mut self) {
        if self.shed_deadline_ms == 0 {
            return;
        }
        if self.pressure() > 1.0 {
            self.degrade_level = (self.degrade_level + 1).min(MAX_DEGRADE_LEVEL);
        } else {
            self.degrade_level = self.degrade_level.saturating_sub(1);
        }
    }

    /// The admission budget after graceful degradation. The full capacity when shedding
    /// is disabled or the batch is idle (tightening an empty scheduler would only stall
    /// the queue without protecting any in-flight work).
    fn admission_capacity(&self) -> usize {
        if self.shed_deadline_ms == 0 || self.degrade_level == 0 || self.running.is_empty() {
            self.kv_capacity()
        } else {
            self.kv_capacity() * (20 - self.degrade_level as usize) / 20
        }
    }

    /// Preempts running sequences newest-first until `kv_committed <= kv_capacity` and
    /// `running_len <= max_batch` both hold. KV overflow binds when footprints are large
    /// (long contexts); the slot bound binds when replica failures wipe out most of a
    /// deep pool — the survivors cannot decode the dead replicas' sequences.
    fn preempt_to_fit(&mut self) {
        while (self.kv_committed > self.kv_capacity() || self.running.len() > self.max_batch())
            && !self.running.is_empty()
        {
            let victim_index = self
                .running
                .iter()
                .enumerate()
                .max_by_key(|(_, seq)| seq.seq)
                .map(|(index, _)| index)
                .expect("running is non-empty");
            let victim = self.remove_running(victim_index);
            let generated = (self.iterations - victim.admit_iter) as usize;
            self.kv_in_use -= victim.prompt_tokens + generated;
            self.kv_committed -= victim.prompt_tokens + victim.output_tokens;
            self.faults.preemptions += 1;
            self.faults.evicted_tokens += (victim.prompt_tokens + generated) as u64;
            self.faults.wasted_prefill_tokens += victim.prompt_tokens as u64;
            self.faults.wasted_decode_tokens += generated as u64;
            let attempts = victim.attempts + 1;
            if attempts > self.max_retries {
                self.faults.timeouts += 1;
                continue;
            }
            self.faults.retries += 1;
            let backoff = self.backoff_base_ms << (attempts - 1).min(MAX_BACKOFF_SHIFT);
            self.queued_tokens += victim.prompt_tokens + victim.output_tokens;
            // Victims are evicted newest-first and each goes to the queue front, so the
            // requeued block ends up oldest-first — the queue stays arrival-ordered.
            self.queue.push_front(Pending {
                tag: victim.tag,
                prompt_tokens: victim.prompt_tokens,
                output_tokens: victim.output_tokens,
                arrival_ms: victim.arrival_ms,
                ready_ms: self.now_ms + backoff,
                attempts,
            });
        }
    }

    /// Enqueues a request. `arrival_ms` must be non-decreasing across calls — the fabric
    /// drains its event queue in timestamp order, which guarantees it.
    pub fn offer(&mut self, tag: u64, prompt_tokens: usize, output_tokens: usize, arrival_ms: u64) {
        debug_assert!(
            self.queue.back().is_none_or(|p| p.arrival_ms <= arrival_ms),
            "requests must be offered in arrival order"
        );
        let output_tokens = output_tokens.max(1);
        self.queued_tokens += prompt_tokens + output_tokens;
        self.queue.push_back(Pending {
            tag,
            prompt_tokens,
            output_tokens,
            arrival_ms,
            ready_ms: arrival_ms,
            attempts: 0,
        });
    }

    fn max_batch(&self) -> usize {
        self.config.max_batch_size * self.replicas
    }

    /// Per-replica share of an aggregate quantity (batch slots or prompt tokens).
    fn per_replica(&self, aggregate: usize) -> usize {
        aggregate.div_ceil(self.replicas)
    }

    /// Admits queued requests while batch slots and committed KV headroom allow; returns
    /// the admitted prompt tokens (they prefill in the current iteration). Requests
    /// whose deadline has already passed are shed here (when shedding is enabled), and
    /// requests that can never fit the current capacity are dropped as timeouts rather
    /// than blocking the queue forever.
    fn admit(&mut self) -> usize {
        let mut admitted_prompt_tokens = 0;
        while self.running.len() < self.max_batch() {
            let Some(front) = self.queue.front().copied() else { break };
            if front.ready_ms > self.now_ms {
                break;
            }
            let footprint = front.prompt_tokens + front.output_tokens;
            if self.shed_deadline_ms > 0
                && self.now_ms > front.arrival_ms + self.shed_deadline_ms
            {
                self.queue.pop_front();
                self.queued_tokens -= footprint;
                self.faults.shed += 1;
                continue;
            }
            if self.kv_committed + footprint > self.admission_capacity() {
                if self.running.is_empty() && footprint > self.kv_capacity() {
                    // Larger than the whole (possibly downsized) cache: it can never be
                    // admitted, so drop it as a timeout instead of stalling the queue.
                    self.queue.pop_front();
                    self.queued_tokens -= footprint;
                    self.faults.timeouts += 1;
                    continue;
                }
                break;
            }
            self.queue.pop_front();
            self.queued_tokens -= footprint;
            self.kv_committed += footprint;
            // Incremental accounting: the prompt is pinned now, decode tokens as they
            // are produced. A requeued victim re-prefills from scratch here.
            self.kv_in_use += front.prompt_tokens;
            admitted_prompt_tokens += front.prompt_tokens;
            let seq = self.admission_seq;
            self.admission_seq += 1;
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                self.slots.push(Slot { finish: 0, pos: 0, next: NIL, prev: NIL });
                (self.slots.len() - 1) as u32
            });
            let entry = &mut self.slots[slot as usize];
            entry.pos = self.running.len() as u32;
            entry.finish = self.iterations + front.output_tokens as u64 - 1;
            self.ring.insert(&mut self.slots, slot);
            self.running.push(Active {
                tag: front.tag,
                prompt_tokens: front.prompt_tokens,
                output_tokens: front.output_tokens,
                admit_iter: self.iterations,
                arrival_ms: front.arrival_ms,
                first_token_ms: None,
                seq,
                attempts: front.attempts,
                slot,
            });
        }
        admitted_prompt_tokens
    }

    /// Removes the sequence at `index` from the running batch (`swap_remove`: the tail
    /// sequence takes its place), unlinks it from the finish ring and releases its slot.
    /// The caller owns the victim's KV accounting.
    fn remove_running(&mut self, index: usize) -> Active {
        let removed = self.running.swap_remove(index);
        if let Some(moved) = self.running.get(index) {
            self.slots[moved.slot as usize].pos = index as u32;
        }
        self.ring.remove(&mut self.slots, removed.slot);
        self.free_slots.push(removed.slot);
        removed
    }

    /// Completes the sequence at `index` at the current time: evicts its footprint and
    /// appends its completion to `out`.
    fn complete(&mut self, index: usize, out: &mut Vec<BatchCompletion>) {
        let seq = self.remove_running(index);
        let footprint = seq.prompt_tokens + seq.output_tokens;
        self.kv_in_use -= footprint;
        self.kv_committed -= footprint;
        self.completed_total += 1;
        out.push(BatchCompletion {
            tag: seq.tag,
            prompt_tokens: seq.prompt_tokens,
            output_tokens: seq.output_tokens,
            arrival_ms: seq.arrival_ms,
            first_token_ms: seq.first_token_ms.expect("stamped in its first iteration"),
            finish_ms: self.now_ms,
        });
    }

    /// Duration of one iteration in whole milliseconds (at least 1): the prefill of
    /// `admitted_prompt_tokens` newly admitted prompt tokens, then one decode step for a
    /// per-replica batch of `batch` sequences at mean context `mean_context`. Replicas
    /// split the batch evenly, so the aggregate iteration time is the per-replica
    /// share's time. Full and quiet iterations both time themselves here.
    fn iteration_ms(
        &self,
        admitted_prompt_tokens: usize,
        batch: usize,
        mean_context: usize,
    ) -> u64 {
        let prefill_s = if admitted_prompt_tokens > 0 {
            self.step.prefill_time_s(self.per_replica(admitted_prompt_tokens))
        } else {
            0.0
        };
        let decode_s = self.step.decode_step_time_s(batch, mean_context.max(1));
        ceil_to_u64((prefill_s + decode_s) * 1000.0).max(1)
    }

    /// Admits what fits, then runs the part of one scheduler iteration both serving
    /// paths share: the clock advances by the iteration time, every running sequence's
    /// new token is charged to `kv_in_use`, and the iteration counter ticks. Returns the
    /// index in `running` where this iteration's admissions start, or `None` when the
    /// batch is idle and the clock jumped instead — to the next ready time (arrival, or
    /// backoff re-delivery for a requeued victim) or the deadline, whichever is earlier.
    /// A ready front is always consumed by `admit` (admitted, shed or dropped), so a
    /// jump target is strictly in the future — no livelock.
    fn begin_iteration(&mut self, deadline_ms: u64) -> Option<usize> {
        let admitted_from = self.running.len();
        let admitted_prompt_tokens = self.admit();
        if self.running.is_empty() {
            self.now_ms = match self.queue.front() {
                Some(front) if front.ready_ms <= deadline_ms => front.ready_ms,
                _ => deadline_ms,
            };
            return None;
        }
        let batch = self.running.len();
        self.now_ms += self.iteration_ms(
            admitted_prompt_tokens,
            self.per_replica(batch),
            self.kv_in_use / batch,
        );
        // Every running sequence produces one token (+1 KV token each).
        self.kv_in_use += batch;
        self.iterations += 1;
        Some(admitted_from)
    }

    /// The clock reading from which `admit` can act, short of a completion: the front's
    /// ready time if it is not ready; if it is ready, now when it fits and otherwise its
    /// shed time (at or before now when it is sheddable already). `u64::MAX` if the batch
    /// is full, the queue is empty, or the ready front does not fit and shedding is off.
    fn admission_wake_ms(&self) -> u64 {
        if self.running.len() >= self.max_batch() {
            return u64::MAX;
        }
        let Some(front) = self.queue.front() else { return u64::MAX };
        if front.ready_ms > self.now_ms {
            return front.ready_ms;
        }
        if self.kv_committed + front.prompt_tokens + front.output_tokens
            <= self.admission_capacity()
        {
            return self.now_ms;
        }
        if self.shed_deadline_ms > 0 {
            (front.arrival_ms + self.shed_deadline_ms).saturating_add(1)
        } else {
            u64::MAX
        }
    }

    /// Runs the quiet iterations ahead (see the module docs): while the clock is before
    /// both `deadline_ms` and the admission wake-up time and the next iteration's finish
    /// bucket is empty, an iteration only advances the clock, the counter and
    /// `kv_in_use`. The running set is fixed throughout, so the batch is hoisted and the
    /// mean context is an increment.
    fn quiet_run(&mut self, deadline_ms: u64) {
        let batch = self.running.len();
        if batch == 0 {
            return;
        }
        let limit_ms = deadline_ms.min(self.admission_wake_ms());
        if self.now_ms >= limit_ms {
            return;
        }
        let Some(quiet) = self.ring.distance_to_occupied(self.iterations) else { return };
        let per_replica = self.per_replica(batch);
        let mut context = self.kv_in_use / batch;
        let mut now_ms = self.now_ms;
        let mut ran = 0;
        while ran < quiet && now_ms < limit_ms {
            now_ms += self.iteration_ms(0, per_replica, context);
            context += 1;
            ran += 1;
        }
        self.now_ms = now_ms;
        self.iterations += ran;
        self.kv_in_use += batch * ran as usize;
    }

    /// Advances the scheduler to `deadline_ms`, appending finished requests to `out`.
    ///
    /// The final iteration may overshoot the deadline (iterations are atomic); the clock
    /// carries across calls, so the next window resumes exactly where this one stopped.
    /// A deadline at or before the current clock (the previous window overshot past it)
    /// is a no-op.
    ///
    /// An iteration touches only the sequences it admits or completes, and quiet runs
    /// skip admission altogether (see the module docs); the result is identical to
    /// [`Self::advance_to_reference`].
    pub fn advance_to(&mut self, deadline_ms: u64, out: &mut Vec<BatchCompletion>) {
        while self.now_ms < deadline_ms {
            self.quiet_run(deadline_ms);
            if self.now_ms >= deadline_ms {
                break;
            }
            let Some(admitted_from) = self.begin_iteration(deadline_ms) else { continue };
            let now_ms = self.now_ms;
            for seq in &mut self.running[admitted_from..] {
                seq.first_token_ms = Some(now_ms);
            }

            // Sequences whose finish iteration is the one that just ran complete and
            // evict their whole footprint.
            if self.ring.is_occupied(FinishRing::bucket(self.iterations - 1)) {
                self.complete_finished(out);
            }
        }
    }

    /// Completes every sequence whose finish iteration is the one that just ran, in the
    /// reference walk's order: ascending position, except that when `swap_remove` pulls
    /// a finisher in from the tail, it lands on the freed position and the walk meets it
    /// next. Bucket entries with a later finish (an output longer than the ring) stay.
    fn complete_finished(&mut self, out: &mut Vec<BatchCompletion>) {
        let finished = self.iterations - 1;
        let mut finishing = std::mem::take(&mut self.finishing);
        finishing.clear();
        let mut slot = self.ring.heads[FinishRing::bucket(finished)];
        while slot != NIL {
            let entry = self.slots[slot as usize];
            if entry.finish == finished {
                finishing.push(entry.pos);
            }
            slot = entry.next;
        }
        finishing.sort_unstable();
        let (mut next, mut end) = (0, finishing.len());
        while next < end {
            let index = finishing[next] as usize;
            let last = self.running.len() - 1;
            if index != last && finishing[end - 1] as usize == last {
                end -= 1;
            } else {
                next += 1;
            }
            self.complete(index, out);
        }
        self.finishing = finishing;
    }

    /// Reference for [`Self::advance_to`], for tests and benches, not for serving: every
    /// iteration visits every running sequence, stamps its first token, and
    /// `swap_remove`s it once it has generated its whole output. Admission, preemption
    /// and iteration time are the same code as the serving path's.
    pub fn advance_to_reference(&mut self, deadline_ms: u64, out: &mut Vec<BatchCompletion>) {
        while self.now_ms < deadline_ms {
            if self.begin_iteration(deadline_ms).is_none() {
                continue;
            }
            let now_ms = self.now_ms;
            let mut index = 0;
            while index < self.running.len() {
                let seq = &mut self.running[index];
                if seq.first_token_ms.is_none() {
                    seq.first_token_ms = Some(now_ms);
                }
                if self.iterations - seq.admit_iter >= seq.output_tokens as u64 {
                    self.complete(index, out);
                } else {
                    index += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(replicas: usize) -> BatchScheduler {
        BatchScheduler::new(InstanceConfig::default_70b(), &GpuHardware::a100(), replicas)
    }

    #[test]
    fn ceil_to_u64_matches_the_ceil_cast() {
        let mut samples = vec![
            0.0,
            -0.0,
            0.5,
            1.0,
            -0.3,
            -7.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            u64::MAX as f64,
            (1u64 << 53) as f64,
            (1u64 << 63) as f64,
        ];
        for whole in [1.0, 2.0, 17.0, 999.0, 4_503_599_627_370_495.0, 9.0e15, 1.0e19] {
            samples.extend([whole, f64::next_up(whole), f64::next_down(whole), whole + 0.5]);
        }
        let mut x = 1.0e-3;
        while x < 1.0e21 {
            samples.extend([x, x * 1.000_001, x * 0.999_999]);
            x *= 1.37;
        }
        for sample in samples {
            assert_eq!(ceil_to_u64(sample), sample.ceil() as u64, "{sample:e}");
        }
    }

    #[test]
    fn capacity_is_pinned_and_scales_with_replicas() {
        let per_replica = 1_373_291;
        let capacity = kv_capacity_tokens(&InstanceConfig::default_70b(), &GpuHardware::a100());
        assert_eq!(capacity, per_replica);
        assert_eq!(scheduler(1).kv_capacity(), per_replica);
        assert_eq!(scheduler(3).kv_capacity(), 3 * per_replica);
    }

    #[test]
    fn throughput_approaches_profile_goodput() {
        // A saturated replica's served output rate stays within reach of the analytic
        // goodput the configurator plans with.
        let mut s = scheduler(1);
        let goodput = s.perf().goodput_tokens_per_s(s.config());
        for i in 0..600 {
            s.offer(i, 64, 128, 0);
        }
        let mut out = Vec::new();
        s.advance_to(30_000, &mut out);
        let served: usize = out.iter().map(|done| done.output_tokens).sum();
        let throughput = served as f64 / 30.0;
        assert!(
            throughput > 0.3 * goodput,
            "scheduler throughput {throughput} too far below analytic goodput {goodput}"
        );
    }

    #[test]
    fn batching_amortizes_work() {
        // Serving 16 identical requests together takes far less than 16x one request.
        let lone_latency = {
            let mut s = scheduler(1);
            s.offer(0, 256, 64, 0);
            let mut out = Vec::new();
            s.advance_to(60_000, &mut out);
            assert_eq!(out.len(), 1);
            out[0].latency_ms()
        };
        let mut s = scheduler(1);
        for i in 0..16 {
            s.offer(i, 256, 64, 0);
        }
        let mut out = Vec::new();
        s.advance_to(120_000, &mut out);
        assert_eq!(out.len(), 16);
        let slowest = out.iter().map(BatchCompletion::latency_ms).max().unwrap();
        assert!(
            slowest < 8 * lone_latency,
            "batch of 16 took {slowest} ms against {lone_latency} ms for one request"
        );
    }

    #[test]
    fn smaller_model_finishes_faster() {
        let latency = |config: InstanceConfig| {
            let mut s = BatchScheduler::new(config, &GpuHardware::a100(), 1);
            s.offer(0, 512, 128, 0);
            let mut out = Vec::new();
            s.advance_to(60_000, &mut out);
            assert_eq!(out.len(), 1);
            out[0].latency_ms()
        };
        assert!(latency(InstanceConfig::small_fallback()) < latency(InstanceConfig::default_70b()));
    }

    #[test]
    fn idle_scheduler_jumps_to_the_deadline() {
        let mut s = scheduler(1);
        let mut out = Vec::new();
        s.advance_to(10_000, &mut out);
        assert!(out.is_empty());
        assert_eq!(s.now_ms(), 10_000);
        assert_eq!(s.kv_in_use(), 0);
    }

    #[test]
    fn single_request_completes_with_sane_timings() {
        let mut s = scheduler(1);
        s.offer(7, 512, 64, 1_000);
        let mut out = Vec::new();
        s.advance_to(60_000, &mut out);
        assert_eq!(out.len(), 1);
        let done = out[0];
        assert_eq!(done.tag, 7);
        assert!(done.first_token_ms > done.arrival_ms);
        assert!(done.finish_ms > done.first_token_ms);
        assert!(done.ttft_ms() > 0);
        assert!(done.mean_tbt_ms() > 0.0);
        assert_eq!(done.latency_ms(), done.finish_ms - 1_000);
        // Everything evicted on completion.
        assert_eq!(s.kv_in_use(), 0);
        assert_eq!(s.kv_committed(), 0);
        assert_eq!(s.completed_total(), 1);
    }

    #[test]
    fn occupancy_grows_incrementally_and_never_exceeds_capacity() {
        // A fast configuration with prompts sized so the KV budget (not the batch-size
        // cap) is the binding admission constraint.
        let mut s =
            BatchScheduler::new(InstanceConfig::small_fallback(), &GpuHardware::a100(), 1);
        let prompt = s.kv_capacity() / 12;
        let output = 200;
        let footprint = prompt + output;
        let count = ((3 * s.kv_capacity()) / footprint).max(30) as u64;
        for i in 0..count {
            s.offer(i, prompt, output, 0);
        }
        let mut out = Vec::new();
        let mut prev_in_use = 0;
        let mut saw_growth_between_observations = false;
        let mut peak_committed = 0;
        let mut window = 0u64;
        while s.completed_total() < count {
            window += 1;
            assert!(window < 50_000, "scheduler failed to drain the backlog");
            s.advance_to(window * 500, &mut out);
            assert!(s.kv_in_use() <= s.kv_capacity(), "occupancy exceeded capacity");
            assert!(s.kv_committed() <= s.kv_capacity(), "commitment exceeded capacity");
            if s.kv_in_use() > prev_in_use && prev_in_use > 0 {
                saw_growth_between_observations = true;
            }
            prev_in_use = s.kv_in_use();
            peak_committed = peak_committed.max(s.kv_committed());
        }
        assert_eq!(out.len() as u64, count);
        assert!(saw_growth_between_observations, "decode growth never observed");
        // The KV constraint actually bound admission at some point.
        assert!(peak_committed > s.kv_capacity() / 2);
        assert_eq!(s.kv_in_use(), 0);
        assert_eq!(s.kv_committed(), 0);
    }

    #[test]
    fn draining_everything_frees_the_cache() {
        let mut s = scheduler(2);
        for i in 0..40 {
            s.offer(i, 256, 32, i * 50);
        }
        let mut out = Vec::new();
        s.advance_to(600_000, &mut out);
        assert_eq!(out.len(), 40);
        assert_eq!(s.kv_in_use(), 0);
        assert_eq!(s.kv_committed(), 0);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.running_len(), 0);
    }

    #[test]
    fn same_offers_produce_identical_schedules() {
        let run = || {
            let mut s = scheduler(2);
            for i in 0..64 {
                s.offer(i, 300 + (i as usize * 37) % 900, 40 + (i as usize * 13) % 120, i * 111);
            }
            let mut out = Vec::new();
            for window in 1..=20u64 {
                s.advance_to(window * 5_000, &mut out);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_replicas_serve_a_burst_faster() {
        let burst = |replicas| {
            let mut s = scheduler(replicas);
            for i in 0..128 {
                s.offer(i, 512, 128, 0);
            }
            let mut out = Vec::new();
            s.advance_to(3_600_000, &mut out);
            assert_eq!(out.len(), 128);
            out.iter().map(|c| c.finish_ms).max().unwrap()
        };
        assert!(burst(4) < burst(1));
    }

    #[test]
    fn queueing_delay_shows_up_in_ttft() {
        let mut s = scheduler(1);
        // Saturate, then measure a late arrival's TTFT.
        for i in 0..400 {
            s.offer(i, 2_000, 200, 0);
        }
        let mut out = Vec::new();
        s.advance_to(600_000, &mut out);
        let first = out.iter().find(|c| c.tag == 0).expect("first request completes");
        let ttfts: Vec<u64> = out.iter().map(|c| c.ttft_ms()).collect();
        let worst = *ttfts.iter().max().unwrap();
        assert!(worst > 4 * first.ttft_ms(), "queueing should inflate tail TTFT");
    }

    #[test]
    fn pressure_reflects_backlog() {
        let mut s = scheduler(1);
        assert_eq!(s.pressure(), 0.0);
        for i in 0..10_000 {
            s.offer(i, 4_000, 400, 0);
        }
        assert!(s.pressure() > 1.0);
        assert!(s.pressure() <= 4.0);
    }

    #[test]
    fn downsize_under_load_preempts_to_fit_and_still_finishes_everything() {
        let mut s = scheduler(4);
        for i in 0..64 {
            s.offer(i, 4_000, 100, 0);
        }
        let mut out = Vec::new();
        s.advance_to(2_000, &mut out);
        assert!(s.running_len() > 0);
        s.set_replicas(1);
        // Satellite fix: the shrink may no longer strand `kv_committed` above the new
        // capacity — preemption restores the invariant immediately.
        assert!(
            s.kv_committed() <= s.kv_capacity(),
            "downsize left committed {} above capacity {}",
            s.kv_committed(),
            s.kv_capacity()
        );
        assert!(s.kv_in_use() <= s.kv_committed());
        let faults = s.faults();
        assert_eq!(faults.preemptions, faults.retries + faults.timeouts);
        assert_eq!(faults.wasted_prefill_tokens, faults.preemptions * 4_000);
        s.advance_to(3_600_000, &mut out);
        // A single shrink preempts each victim at most once, well inside the retry
        // budget: nothing times out and every request still completes.
        assert_eq!(s.faults().timeouts, 0);
        assert_eq!(out.len(), 64, "all sequences still complete after the downsize");
        assert_eq!(s.kv_in_use(), 0);
        assert_eq!(s.kv_committed(), 0);
    }

    #[test]
    fn preemption_is_lifo_and_preserves_original_arrival() {
        // Force a shrink that strands committed KV above the downsized capacity.
        let mut s = scheduler(4);
        let capacity_one = s.kv_capacity() / 4;
        let prompt = capacity_one / 3;
        let output = 50;
        for i in 0..8 {
            s.offer(i, prompt, output, 0);
        }
        let mut out = Vec::new();
        // One iteration admits the whole burst (8 footprints fit 4 replicas).
        s.advance_to(1, &mut out);
        let running_before = s.running_len();
        assert!(running_before >= 4, "expected a loaded batch, got {running_before}");
        s.set_replicas(1);
        let faults = s.faults();
        assert!(faults.preemptions > 0, "the shrink must preempt");
        assert!(faults.evicted_tokens >= faults.preemptions * prompt as u64);
        assert_eq!(
            s.running_len() + s.queue_len() + out.len(),
            8 - faults.timeouts as usize,
            "no request vanishes"
        );
        s.advance_to(10_000_000, &mut out);
        assert_eq!(out.len() as u64 + s.faults().timeouts, 8);
        for done in &out {
            // Requeue never resets `arrival_ms`: every request arrived at 0, so a
            // reset to the (much later) preemption time would show up here, and TTFT
            // keeps measuring from the original arrival.
            assert_eq!(done.arrival_ms, 0);
            assert!(done.first_token_ms >= done.arrival_ms);
        }
        // LIFO: the earliest-admitted survivors were never evicted, so the requests
        // admitted first complete with the fewest attempts.
        assert_eq!(s.kv_in_use(), 0);
        assert_eq!(s.kv_committed(), 0);
    }

    #[test]
    fn preemption_counts_exactly_the_tokens_generated_so_far() {
        // Two sequences admitted in the same iteration have generated the same number of
        // tokens; a shrink to one replica strands the commitment and evicts the newer.
        let mut s = scheduler(2);
        let prompt = s.kv_capacity() / 4 - 100;
        s.offer(0, prompt, 500, 0);
        s.offer(1, prompt, 500, 0);
        let mut out = Vec::new();
        // The long prefill dominates the first iteration; step past a few decodes.
        while s.kv_in_use() < 2 * prompt + 8 {
            s.advance_to(s.now_ms() + 1, &mut out);
        }
        assert_eq!(s.running_len(), 2);
        let generated = (s.kv_in_use() - 2 * prompt) / 2;
        assert!(generated > 1 && generated < 500, "mid-decode, got {generated}");
        s.set_replicas(1);
        let faults = s.faults();
        assert_eq!(faults.preemptions, 1);
        assert_eq!(faults.wasted_decode_tokens, generated as u64);
        assert_eq!(faults.evicted_tokens, (prompt + generated) as u64);
        assert_eq!(s.kv_in_use(), prompt + generated);
        assert_eq!(s.kv_committed(), prompt + 500);
    }

    #[test]
    fn exhausted_retry_budget_times_out_instead_of_looping() {
        let mut s = scheduler(2);
        s.set_fault_policy(0, 1, 100);
        let prompt = s.kv_capacity() / 3;
        for i in 0..2 {
            s.offer(i, prompt, 400, 0);
        }
        let mut out = Vec::new();
        s.advance_to(500, &mut out);
        assert_eq!(s.running_len(), 2);
        // Two shrinks in a row preempt the newer sequence twice; the second eviction
        // exceeds max_retries = 1 and drops it as a timeout.
        s.set_replicas(1);
        assert_eq!(s.faults().preemptions, 1);
        assert_eq!(s.faults().retries, 1);
        s.advance_to(s.now_ms() + 200, &mut out);
        s.set_replicas(2);
        s.advance_to(s.now_ms() + 2_000, &mut out);
        assert!(s.running_len() >= 1);
        s.set_replicas(1);
        let faults = s.faults();
        if faults.preemptions >= 2 {
            assert_eq!(faults.timeouts, 1, "second eviction exhausts the budget");
        }
        s.advance_to(10_000_000, &mut out);
        assert_eq!(
            out.len() as u64 + s.faults().timeouts,
            2,
            "every request either completes or is counted"
        );
    }

    #[test]
    fn deadline_shedding_counts_late_requests_instead_of_serving_them() {
        let mut s = scheduler(1);
        s.set_fault_policy(5_000, 3, 256);
        // Saturate the batch slots so later arrivals age out in the queue.
        for i in 0..300 {
            s.offer(i, 2_000, 300, 0);
        }
        let mut out = Vec::new();
        s.advance_to(3_600_000, &mut out);
        let faults = s.faults();
        assert!(faults.shed > 0, "the overload must shed late requests");
        assert_eq!(
            out.len() as u64 + faults.shed + faults.timeouts,
            300,
            "served + shed + timed out covers every offer"
        );
        assert!(!out.is_empty(), "early arrivals beat the deadline");
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.kv_in_use(), 0);
    }

    #[test]
    fn degradation_tightens_admission_under_pressure_and_relaxes_after() {
        let mut s = scheduler(1);
        // Disabled shedding: pressure never degrades (the legacy behaviour).
        for i in 0..10_000 {
            s.offer(i, 4_000, 400, 0);
        }
        s.note_pressure_window();
        assert_eq!(s.degrade_level(), 0);
        // Enabled: sustained pressure ratchets the level up to the floor, then a
        // clear queue lets it recover one notch per window.
        s.set_fault_policy(3_600_000, 3, 256);
        for _ in 0..6 {
            s.note_pressure_window();
        }
        assert_eq!(s.degrade_level(), 4, "level clamps at the 80 % floor");
        let mut drained = Vec::new();
        let mut window = 0u64;
        while s.queue_len() > 0 || s.running_len() > 0 {
            window += 1;
            assert!(window < 100_000, "drain stalled");
            s.advance_to(window * 60_000, &mut drained);
        }
        s.note_pressure_window();
        assert_eq!(s.degrade_level(), 3, "pressure cleared, one notch back");
    }

    #[test]
    fn fault_free_runs_leave_every_fault_counter_at_zero() {
        let mut s = scheduler(2);
        for i in 0..40 {
            s.offer(i, 256, 32, i * 50);
        }
        let mut out = Vec::new();
        s.advance_to(600_000, &mut out);
        assert_eq!(out.len(), 40);
        assert_eq!(s.faults(), SchedulerFaults::default());
    }

    #[test]
    fn past_deadlines_are_no_ops() {
        let mut s = scheduler(1);
        let mut out = Vec::new();
        s.advance_to(1_000, &mut out);
        s.advance_to(500, &mut out);
        assert_eq!(s.now_ms(), 1_000);
    }
}
