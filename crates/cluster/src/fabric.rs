//! The request fabric: a fleet-wide, event-timestamped inference-request stream.
//!
//! The simulator's legacy serving path is *quantum-based*: each step synthesizes a demand
//! rate per endpoint and routes aggregate quanta (see
//! [`crate::simulator::ClusterSimulator`]). That reproduces the paper's thermal/power
//! results, but it cannot answer per-request questions — time-to-first-token and
//! time-between-tokens distributions, SLO attainment *curves*, KV-cache pressure. The
//! fabric adds that missing request level as an opt-in overlay
//! ([`crate::experiment::ExperimentConfig::request_fabric`]):
//!
//! 1. **Generation** ([`FabricGenerator`]) — per endpoint, a Poisson request count per
//!    step (diurnal rate × scenario demand shaping × `rate_scale`), each request stamped
//!    with an integer-*millisecond* event time uniform within the step and a log-normal
//!    prompt/output shape ([`RequestShape`], truncated by [`RequestShape::clamp`]). Draws
//!    come from RNG streams derived under the `"request-fabric"` label, so enabling the
//!    fabric never perturbs the legacy per-step draws — fabric-off runs stay
//!    byte-identical.
//! 2. **Ordering** ([`ArrivalBuffer`]) — requests are delivered in `(time, push-order)`
//!    order, the same order a binary heap with a FIFO tie-break would pop them in. The
//!    buffer is a flat `Vec` drained by a cursor: a push appends and notes whether it
//!    broke time order, and a drain sorts the undrained tail only if one did (once per
//!    generated step, or once for a whole replayed trace). There is one buffer, the
//!    fleet's: its drain hands requests to the sites in time order, and a site passes
//!    each straight to its endpoint's scheduler queue, which is already in order. The
//!    sort is a stable LSD radix sort on `time − min`, one byte per pass (two passes for
//!    a one-minute step's millisecond offsets); stability alone keeps push order among
//!    equal times, so no push rank is stored. Spans of 2²⁴ ms or more (arbitrary trace
//!    timestamps) fall back to a stable comparison sort. Storage, radix scratch
//!    included, is reused across steps, so a steady-state step allocates nothing.
//! 3. **Serving** ([`RequestFabric`]) — per endpoint, an aggregate continuous-batching
//!    scheduler ([`llm_sim::batch::BatchScheduler`]) whose replica count tracks the
//!    endpoint's placed instances and whose admission is bounded by KV-cache occupancy
//!    (prompt pinned at admission, +1 token per sequence per decode iteration, eviction
//!    on completion). Each completion is recorded into
//!    [`crate::metrics::RequestMetrics`] as the scheduler completes it: TTFT/TBT
//!    histograms and SLO-multiplier attainment curves against the endpoint's *unloaded*
//!    analytic latencies (the paper's SLO sits at the 5× point of that curve).
//!
//! Every run is a fleet ([`crate::fleet::FleetSimulator`]; a single-site run is a pinned
//! one-site fleet). The fleet generates or replays the one stream, routes it per request
//! across sites ([`tapas::geo::GeoPlacement::choose_request`]) before the cells step, then
//! delivers each request into its site's scheduler queue: a cell never generates its own
//! fabric traffic.
//!
//! A request is held in one place per stage: the fleet's arrival buffer, its scheduler's
//! queue, its batch slot. [`RequestFabric::deliver`] offers a request to its scheduler at
//! once, so the requests delivered before a [`RequestFabric::serve_step`] must all be due
//! inside the window that step serves, in time order — the fleet's drain of one step's
//! arrivals is. Offering them before `serve_step` applies the step's replica counts is
//! exact: a downsize's preemption puts its victims at the queue front, offers go to the
//! back, and nothing reads the queues in between.

use crate::experiment::RequestFabricConfig;
use crate::metrics::{RequestMetrics, SloThresholds};
use crate::scenario::ResolvedTimeline;
use llm_sim::batch::{BatchScheduler, SchedulerFaults, BACKOFF_BASE_MS, MAX_RETRIES};
use llm_sim::hardware::GpuHardware;
use llm_sim::perf::PerfModel;
use llm_sim::request::RequestShape;
use simkit::profile::{StepPhase, StepProfile};
use simkit::queue::EventQueue;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use workload::diurnal::DiurnalPattern;
use workload::endpoints::EndpointCatalog;
use workload::trace::{TraceError, TraceRecord};

/// Milliseconds per simulated minute (the fabric's event clock is integer ms; the
/// simulator's step clock is integer minutes).
pub const MS_PER_MINUTE: u64 = 60_000;

/// The headline SLO multiplier (the paper's SLO is 5× the unloaded latency): the headline
/// attainment and, with deadline shedding on, the admission deadline on the unloaded TTFT.
const SLO_MULTIPLIER: f64 = 5.0;

/// One inference request travelling through the fabric. The arrival timestamp travels
/// beside it (the arrival buffer's sort key), not inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricRequest {
    /// Fleet-unique request id (generation order, or trace line for replays).
    pub id: u64,
    /// Target endpoint ordinal.
    pub endpoint: u32,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output length in tokens.
    pub output_tokens: u32,
}

/// One buffered arrival, the request flattened beside its timestamp (32 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct Arrival {
    time_ms: u64,
    id: u64,
    endpoint: u32,
    prompt_tokens: u32,
    output_tokens: u32,
}

/// Radix passes of one byte each cover time spans below `2^(8 × RADIX_PASSES)` ms;
/// wider spans take the comparison sort.
const RADIX_PASSES: usize = 3;

/// A time-ordered arrival buffer: the fabric's replacement for an event heap on the
/// serving path. Pushes append; [`ArrivalBuffer::drain_before`] stably sorts the
/// undrained tail by time only if some push arrived out of time order, visits the due
/// prefix and advances a cursor. The undrained tail is always in push order among equal
/// times, so the drain order is exactly a FIFO-tie-break heap's. The storage is reused
/// once every buffered arrival has been drained.
#[derive(Debug, Clone, Default)]
pub struct ArrivalBuffer {
    arrivals: Vec<Arrival>,
    /// Arrivals before this index have been drained.
    cursor: usize,
    /// Set when a push was earlier than its predecessor: the tail needs a sort.
    out_of_order: bool,
    /// The radix sort's second buffer (only its length is ever grown).
    scratch: Vec<Arrival>,
}

impl ArrivalBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arrivals buffered but not yet drained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len() - self.cursor
    }

    /// Returns `true` if nothing is waiting to be drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffers `request` at `time_ms`. Among equal timestamps, earlier pushes drain first.
    pub fn push(&mut self, time_ms: u64, request: FabricRequest) {
        // The last slot is always undrained: a fully drained buffer is emptied.
        if self
            .arrivals
            .last()
            .is_some_and(|last| time_ms < last.time_ms)
        {
            self.out_of_order = true;
        }
        self.arrivals.push(Arrival {
            time_ms,
            id: request.id,
            endpoint: request.endpoint,
            prompt_tokens: request.prompt_tokens,
            output_tokens: request.output_tokens,
        });
    }

    /// Buffers a whole request trace (record index = request id) and sorts it once.
    ///
    /// # Errors
    /// Returns [`TraceError::UnknownEndpoint`] for the first record naming an endpoint
    /// `>= endpoints`, before anything is buffered.
    pub fn load_trace(
        &mut self,
        records: &[TraceRecord],
        endpoints: usize,
    ) -> Result<(), TraceError> {
        if let Some(bad) = records.iter().find(|r| r.endpoint >= endpoints as u64) {
            return Err(TraceError::UnknownEndpoint {
                endpoint: bad.endpoint,
            });
        }
        self.arrivals.reserve(records.len());
        for (line, record) in records.iter().enumerate() {
            self.push(
                record.timestamp_ms,
                FabricRequest {
                    id: line as u64,
                    endpoint: record.endpoint as u32,
                    prompt_tokens: record.prompt_tokens,
                    output_tokens: record.output_tokens,
                },
            );
        }
        self.sort_pending();
        Ok(())
    }

    /// Stably sorts the undrained tail by time if a push broke time order: an LSD radix
    /// sort on `time − min`, one byte per pass and only as many passes as the span
    /// needs, or a stable comparison sort for spans of `2^24` ms and more.
    fn sort_pending(&mut self) {
        if !std::mem::take(&mut self.out_of_order) {
            return;
        }
        let pending = &mut self.arrivals[self.cursor..];
        let (min, max) = pending.iter().fold((u64::MAX, 0), |(min, max), a| {
            (min.min(a.time_ms), max.max(a.time_ms))
        });
        let span = max - min;
        let passes = (1..=RADIX_PASSES).find(|&passes| span >> (8 * passes) == 0);
        let Some(passes) = passes else {
            pending.sort_by_key(|a| a.time_ms);
            return;
        };
        let mut counts = [[0usize; 256]; RADIX_PASSES];
        for a in pending.iter() {
            let key = a.time_ms - min;
            for (pass, count) in counts.iter_mut().enumerate().take(passes) {
                count[(key >> (8 * pass)) as usize & 0xff] += 1;
            }
        }
        if self.scratch.len() < pending.len() {
            self.scratch.resize(pending.len(), Arrival::default());
        }
        let scratch = &mut self.scratch[..pending.len()];
        for (pass, count) in counts.iter_mut().enumerate().take(passes) {
            // Counts become each digit's first output index.
            let mut next = 0;
            for slot in count.iter_mut() {
                let n = *slot;
                *slot = next;
                next += n;
            }
            let (from, to): (&[Arrival], &mut [Arrival]) = if pass % 2 == 0 {
                (pending, scratch)
            } else {
                (scratch, pending)
            };
            for a in from {
                let digit = ((a.time_ms - min) >> (8 * pass)) as usize & 0xff;
                to[count[digit]] = *a;
                count[digit] += 1;
            }
        }
        if passes % 2 == 1 {
            pending.copy_from_slice(scratch);
        }
    }

    /// Visits every buffered arrival with `time < end_ms`, earliest first and in push
    /// order among equal times, and removes them from the buffer.
    pub fn drain_before(&mut self, end_ms: u64, mut visit: impl FnMut(u64, FabricRequest)) {
        self.sort_pending();
        let pending = &self.arrivals[self.cursor..];
        let due = pending.partition_point(|a| a.time_ms < end_ms);
        for a in &pending[..due] {
            visit(
                a.time_ms,
                FabricRequest {
                    id: a.id,
                    endpoint: a.endpoint,
                    prompt_tokens: a.prompt_tokens,
                    output_tokens: a.output_tokens,
                },
            );
        }
        self.cursor += due;
        if self.cursor == self.arrivals.len() {
            self.arrivals.clear();
            self.cursor = 0;
        }
    }
}

/// Per-endpoint generation state.
#[derive(Debug, Clone)]
struct GeneratorEndpoint {
    /// Peak aggregate request rate (requests/minute) at the top of the diurnal cycle.
    peak_requests_per_minute: f64,
    /// The endpoint's diurnal load pattern (identical construction to the simulator's,
    /// from an independent clone of the derived pattern stream).
    pattern: DiurnalPattern,
    /// Dedicated per-endpoint draw stream (child of the `"request-fabric"` stream).
    rng: SimRng,
}

/// Generates the fabric's event-timestamped request stream, one Poisson batch per
/// endpoint per step, each request offset uniformly within the step in milliseconds.
#[derive(Debug, Clone)]
pub struct FabricGenerator {
    config: RequestFabricConfig,
    shape: RequestShape,
    endpoints: Vec<GeneratorEndpoint>,
    next_id: u64,
}

impl FabricGenerator {
    /// Builds a generator for a catalog. All draws derive from `seed` under the
    /// `"request-fabric"` label (one child stream per endpoint), so the legacy
    /// simulation streams never observe the fabric's consumption.
    #[must_use]
    pub fn new(seed: u64, catalog: &EndpointCatalog, config: RequestFabricConfig) -> Self {
        // The diurnal patterns replicate the simulator's construction exactly (same
        // derivation label, same draw order) so the fabric's demand curve is in phase
        // with the quantum-based path driving the physics.
        let mut pattern_rng = SimRng::seed_from(seed).derive("endpoint-patterns");
        let fabric_root = SimRng::seed_from(seed).derive("request-fabric");
        let endpoints = catalog
            .endpoints()
            .iter()
            .map(|endpoint| GeneratorEndpoint {
                peak_requests_per_minute: endpoint.peak_requests_per_minute,
                pattern: DiurnalPattern::interactive(seed ^ endpoint.id.0)
                    .with_peak_hour(pattern_rng.uniform(10.0, 20.0)),
                rng: fabric_root.derive(&format!("endpoint-{}", endpoint.id.0)),
            })
            .collect();
        Self {
            config,
            shape: RequestShape::default(),
            endpoints,
            next_id: 0,
        }
    }

    /// Requests generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Pushes the step's requests into `queue`; see [`FabricGenerator::generate_with`].
    /// The simulator does not call it (the fleet buffers through `generate_with`); it
    /// stays for the benchmark's fabric replay, which still calls it.
    pub fn generate_step(
        &mut self,
        now: SimTime,
        step: SimDuration,
        timeline: &ResolvedTimeline,
        queue: &mut EventQueue<FabricRequest>,
    ) {
        self.generate_with(now, step, timeline, |time_ms, request| {
            queue.push(time_ms, request)
        });
    }

    /// Hands the step's requests (arrivals in `[now, now + step)`, millisecond
    /// timestamps) to `sink` in generation order: endpoint by endpoint, each endpoint's
    /// arrivals in draw order, so timestamps are not sorted. The scenario timeline's
    /// demand shaping multiplies the diurnal rate exactly as it does on the legacy
    /// serving path.
    pub fn generate_with(
        &mut self,
        now: SimTime,
        step: SimDuration,
        timeline: &ResolvedTimeline,
        mut sink: impl FnMut(u64, FabricRequest),
    ) {
        let step_minutes = step.as_minutes();
        let step_ms = step_minutes * MS_PER_MINUTE;
        let start_ms = now.as_minutes() * MS_PER_MINUTE;
        let prompt_mu = self.shape.median_prompt_tokens.ln();
        let output_mu = self.shape.median_output_tokens.ln();
        for (ordinal, endpoint) in self.endpoints.iter_mut().enumerate() {
            let id = workload::endpoints::EndpointId(ordinal as u64);
            let rate_per_minute = endpoint.peak_requests_per_minute
                * endpoint.pattern.load_at(now)
                * timeline.demand_scale_at(now, id)
                * self.config.rate_scale;
            let mean = rate_per_minute * step_minutes as f64;
            if mean <= 0.0 {
                continue;
            }
            let count = endpoint.rng.poisson(mean);
            for _ in 0..count {
                let offset_ms = endpoint.rng.uniform_usize(0, step_ms as usize) as u64;
                let prompt = endpoint
                    .rng
                    .log_normal(prompt_mu, self.shape.prompt_sigma)
                    .round()
                    .max(1.0) as usize;
                let output = endpoint
                    .rng
                    .log_normal(output_mu, self.shape.output_sigma)
                    .round()
                    .max(1.0) as usize;
                let (prompt, output) = self.shape.clamp(prompt, output);
                sink(
                    start_ms + offset_ms,
                    FabricRequest {
                        id: self.next_id,
                        endpoint: ordinal as u32,
                        prompt_tokens: prompt as u32,
                        output_tokens: output as u32,
                    },
                );
                self.next_id += 1;
            }
        }
    }
}

/// One site's serving side of the request fabric: one batch scheduler per endpoint and
/// the per-request metrics block.
#[derive(Debug, Clone)]
pub struct RequestFabric {
    /// Per endpoint; [`RequestFabric::deliver`] queues into them directly.
    schedulers: Vec<BatchScheduler>,
    /// Per endpoint, the SLO thresholds built from its unloaded analytic `(TTFT, TBT)`
    /// targets — the `1×` point of the attainment curves — and the headline multiplier.
    thresholds: Vec<SloThresholds>,
    /// Last step's KV/backlog pressure per endpoint, blended into the endpoint pool's
    /// demand pressure by the simulator.
    pressures: Vec<f64>,
    metrics: RequestMetrics,
    /// Scratch: each scheduler's fault counters at the start of the current step, to
    /// convert lifetime counters into this-window deltas for the pressure signal.
    fault_marks: Vec<SchedulerFaults>,
    /// Wall-clock time per serving phase (filled only after
    /// [`RequestFabric::enable_phase_profile`]; never part of the metrics).
    profile: StepProfile,
}

impl RequestFabric {
    /// Builds the serving fabric for a site; its stream is delivered by the fleet loop.
    ///
    /// `seed` is unused and `generate` must be `false`: both remain only for the
    /// benchmark's fabric replay, which still calls this signature, and go once that
    /// replay is retired.
    ///
    /// # Panics
    /// Panics if `generate` is `true` (a site fabric has no generator of its own).
    #[must_use]
    pub fn new(
        _seed: u64,
        catalog: &EndpointCatalog,
        config: RequestFabricConfig,
        generate: bool,
    ) -> Self {
        assert!(
            !generate,
            "a site fabric has no generator: the fleet delivers its stream"
        );
        let gpu = GpuHardware::a100();
        let perf = PerfModel::new(gpu);
        let targets: Vec<(f64, f64)> = catalog
            .endpoints()
            .iter()
            .map(|endpoint| {
                (
                    perf.ttft_unloaded_s(&endpoint.default_config),
                    perf.tbt_unloaded_s(&endpoint.default_config),
                )
            })
            .collect();
        let schedulers: Vec<BatchScheduler> = catalog
            .endpoints()
            .iter()
            .zip(&targets)
            .map(|(endpoint, &(ttft_target_s, _))| {
                let mut scheduler = BatchScheduler::new(endpoint.default_config, &gpu, 1);
                // Deadline shedding is opt-in: the per-endpoint admission deadline is
                // the headline SLO on the unloaded TTFT — a request that cannot start
                // inside it has already blown its TTFT SLO, so serving it only burns
                // KV budget the on-time queue needs.
                let shed_deadline_ms = if config.deadline_shedding {
                    ((SLO_MULTIPLIER * ttft_target_s * 1000.0).ceil() as u64).max(1)
                } else {
                    0
                };
                scheduler.set_fault_policy(shed_deadline_ms, MAX_RETRIES, BACKOFF_BASE_MS);
                scheduler
            })
            .collect();
        Self {
            pressures: vec![0.0; schedulers.len()],
            schedulers,
            thresholds: targets
                .iter()
                .map(|&(ttft_s, tbt_s)| SloThresholds::new(ttft_s, tbt_s, SLO_MULTIPLIER))
                .collect(),
            metrics: RequestMetrics::new(),
            fault_marks: Vec::new(),
            profile: StepProfile::default(),
        }
    }

    /// Starts timing the fabric's phases (offer, advance, record).
    pub(crate) fn enable_phase_profile(&mut self) {
        self.profile.enable();
    }

    /// Wall-clock time per phase since profiling was enabled.
    pub(crate) fn phase_profile(&self) -> &StepProfile {
        &self.profile
    }

    /// Offers one fleet-routed request to its endpoint's scheduler (a request for an
    /// endpoint the site does not know is dropped uncounted). Requests must be delivered
    /// in timestamp order, and each must be due before the end of the window the next
    /// [`Self::serve_step`] serves (see the module docs).
    pub fn deliver(&mut self, time_ms: u64, request: FabricRequest) {
        if let Some(scheduler) = self.schedulers.get_mut(request.endpoint as usize) {
            self.metrics.lifecycle.arrived += 1;
            scheduler.offer(
                request.id,
                request.prompt_tokens as usize,
                request.output_tokens as usize,
                time_ms,
            );
        }
    }

    /// Serves the step `[now, now + step)`: rescales every scheduler to its endpoint's
    /// replicas, advances it to the step end, recording each completion against the
    /// endpoint's unloaded targets as it completes, refreshes the per-endpoint pressure
    /// signals, and folds the step's completions into the attainment curves.
    /// `replicas[e]` is endpoint `e`'s currently placed instance count (zero keeps the
    /// scheduler at one virtual replica so traffic to an unplaced endpoint queues instead
    /// of vanishing). The step's arrivals were delivered beforehand ([`Self::deliver`]).
    pub fn serve_step(&mut self, now: SimTime, step: SimDuration, replicas: &[u32]) {
        let end_ms = (now.as_minutes() + step.as_minutes()) * MS_PER_MINUTE;
        let mut mark = self.profile.mark();
        self.fault_marks.clear();
        for (ordinal, scheduler) in self.schedulers.iter_mut().enumerate() {
            debug_assert!(
                scheduler
                    .latest_queued_arrival_ms()
                    .is_none_or(|arrival| arrival < end_ms),
                "a request was delivered for a later window than the one served"
            );
            let count = replicas.get(ordinal).copied().unwrap_or(0);
            // Mark fault counters before the resize: a shrink below the KV commitment
            // or the surviving decode slots preempts immediately, and those preemptions
            // belong to this window's distress signal.
            self.fault_marks.push(scheduler.faults());
            scheduler.set_replicas(count.max(1) as usize);
        }
        mark = self.profile.lap(StepPhase::Offer, mark);
        for ordinal in 0..self.schedulers.len() {
            let (thresholds, metrics) = (&self.thresholds[ordinal], &mut self.metrics);
            let mut completed = 0u64;
            self.schedulers[ordinal].advance_to(end_ms, |done| {
                completed += 1;
                metrics.record(
                    thresholds,
                    done.ttft_ms() as f64,
                    done.mean_tbt_ms(),
                    done.output_tokens as u64,
                );
            });
            mark = self.profile.lap(StepPhase::Advance, mark);
            self.schedulers[ordinal].note_pressure_window();
            // KV/backlog pressure alone under-reports saturation once deadline shedding
            // is active: sheds keep the queue short, so occupancy looks healthy while
            // requests are being sacrificed. Fold this window's lifecycle distress
            // (sheds + preemptions, as a fraction of the window's outcomes) into the
            // signal so saturation stays visible — past 1.0, fleet request routing
            // diverts new arrivals away from the site. Failure-free windows have zero
            // distress, leaving the legacy signal untouched.
            let before = self.fault_marks[ordinal];
            let faults = self.schedulers[ordinal].faults();
            let lost = (faults.shed - before.shed) + (faults.preemptions - before.preemptions);
            let mut pressure = self.schedulers[ordinal].pressure();
            if lost > 0 {
                let outcomes = lost + completed;
                let distress = lost as f64 / outcomes as f64;
                pressure = pressure.max(1.0 + distress.min(0.5));
            }
            self.pressures[ordinal] = pressure;
            mark = self.profile.lap(StepPhase::Record, mark);
        }
        self.metrics.fold_curves();
        self.profile.lap(StepPhase::Record, mark);
    }

    /// Endpoint `e`'s KV/backlog pressure after the last served step (`0.0` for unknown
    /// ordinals).
    #[must_use]
    pub fn pressure(&self, endpoint: usize) -> f64 {
        self.pressures.get(endpoint).copied().unwrap_or(0.0)
    }

    /// The metrics recorded so far (current after every [`Self::serve_step`]).
    #[must_use]
    pub fn metrics(&self) -> &RequestMetrics {
        &self.metrics
    }

    /// Takes the metrics block out of the fabric (end-of-run report assembly),
    /// folding every scheduler's fault counters into the lifecycle block first.
    /// Requests still queued or mid-decode at the horizon have no latency sample
    /// but are counted in `lifecycle.in_flight_at_horizon`, so the conservation
    /// identity `arrived == completed + timeouts + shed + in_flight_at_horizon`
    /// holds exactly.
    #[must_use]
    pub fn take_metrics(&mut self) -> RequestMetrics {
        for scheduler in &self.schedulers {
            let faults = scheduler.faults();
            let lifecycle = &mut self.metrics.lifecycle;
            lifecycle.preemptions += faults.preemptions;
            lifecycle.evicted_tokens += faults.evicted_tokens;
            lifecycle.wasted_prefill_tokens += faults.wasted_prefill_tokens;
            lifecycle.wasted_decode_tokens += faults.wasted_decode_tokens;
            lifecycle.retries += faults.retries;
            lifecycle.timeouts += faults.timeouts;
            lifecycle.shed += faults.shed;
            lifecycle.in_flight_at_horizon +=
                (scheduler.queue_len() + scheduler.running_len()) as u64;
        }
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;

    fn catalog() -> EndpointCatalog {
        ExperimentConfig::small_smoke_test().endpoint_catalog()
    }

    fn timeline() -> ResolvedTimeline {
        ExperimentConfig::small_smoke_test().resolved_timeline()
    }

    #[test]
    fn generator_is_deterministic_and_stays_inside_the_step_window() {
        let run = || {
            let mut generator =
                FabricGenerator::new(42, &catalog(), RequestFabricConfig::default());
            let mut queue = EventQueue::new();
            let timeline = timeline();
            for minute in [0u64, 5, 10] {
                generator.generate_step(
                    SimTime::from_minutes(minute),
                    SimDuration::from_minutes(5),
                    &timeline,
                    &mut queue,
                );
            }
            let mut events = Vec::new();
            queue.drain_until(u64::MAX, |t, r| events.push((t, r)));
            events
        };
        let events = run();
        assert!(!events.is_empty(), "the smoke catalog generates traffic");
        assert!(
            events.windows(2).all(|p| p[0].0 <= p[1].0),
            "drained in time order"
        );
        assert!(events.iter().all(|(t, _)| *t < 15 * MS_PER_MINUTE));
        let shape = RequestShape::default();
        assert!(events.iter().all(|(_, r)| {
            let total = r.prompt_tokens as usize + r.output_tokens as usize;
            r.prompt_tokens >= 1 && r.output_tokens >= 1 && total <= shape.max_total_tokens
        }));
        let prompts: Vec<f64> = events
            .iter()
            .map(|(_, r)| f64::from(r.prompt_tokens))
            .collect();
        let median = simkit::stats::percentile(&prompts, 50.0).unwrap();
        assert!(
            (median - shape.median_prompt_tokens).abs() < 0.15 * shape.median_prompt_tokens,
            "median prompt {median} over {} requests",
            prompts.len()
        );
        // Log-normal shapes are heavy-tailed: the p99 prompt sits well above the median.
        assert!(simkit::stats::percentile(&prompts, 99.0).unwrap() > 2.0 * median);
        // Ids are the queue's FIFO tie-break witness: same-run regeneration is identical.
        assert_eq!(events, run());
    }

    #[test]
    fn arrival_buffer_reuses_its_storage_across_steps() {
        let mut buffer = ArrivalBuffer::new();
        let request = FabricRequest {
            id: 0,
            endpoint: 0,
            prompt_tokens: 1,
            output_tokens: 1,
        };
        let step = |buffer: &mut ArrivalBuffer| {
            for time_ms in (0..500u64).rev() {
                buffer.push(time_ms, request);
            }
            let mut drained = 0;
            buffer.drain_before(500, |_, _| drained += 1);
            assert_eq!(drained, 500);
        };
        step(&mut buffer);
        let high_water = buffer.arrivals.capacity();
        for _ in 0..5 {
            step(&mut buffer);
            assert!(buffer.is_empty());
            assert_eq!(
                buffer.arrivals.capacity(),
                high_water,
                "a drained buffer is reused"
            );
        }
    }

    #[test]
    fn rate_scale_scales_the_generated_volume() {
        let volume = |scale: f64| {
            let mut generator = FabricGenerator::new(
                42,
                &catalog(),
                RequestFabricConfig {
                    rate_scale: scale,
                    ..RequestFabricConfig::default()
                },
            );
            let mut queue = EventQueue::new();
            let timeline = timeline();
            for minute in (0..120).step_by(5) {
                generator.generate_step(
                    SimTime::from_minutes(minute),
                    SimDuration::from_minutes(5),
                    &timeline,
                    &mut queue,
                );
            }
            generator.generated()
        };
        let base = volume(1.0);
        let scaled = volume(3.0);
        assert!(base > 0);
        assert!(
            scaled as f64 > base as f64 * 2.0,
            "3x rate scale must roughly triple volume: {base} -> {scaled}"
        );
    }

    /// The generator as it drew before the ziggurat: [`FabricGenerator::generate_with`]'s
    /// body with each token length's normal from Box–Muller ([`SimRng::normal`]), kept as
    /// the distribution reference.
    fn generate_box_muller(
        generator: &mut FabricGenerator,
        now: SimTime,
        step: SimDuration,
        timeline: &ResolvedTimeline,
        mut sink: impl FnMut(u64, FabricRequest),
    ) {
        let step_minutes = step.as_minutes();
        let step_ms = step_minutes * MS_PER_MINUTE;
        let start_ms = now.as_minutes() * MS_PER_MINUTE;
        let prompt_mu = generator.shape.median_prompt_tokens.ln();
        let output_mu = generator.shape.median_output_tokens.ln();
        for (ordinal, endpoint) in generator.endpoints.iter_mut().enumerate() {
            let id = workload::endpoints::EndpointId(ordinal as u64);
            let rate_per_minute = endpoint.peak_requests_per_minute
                * endpoint.pattern.load_at(now)
                * timeline.demand_scale_at(now, id)
                * generator.config.rate_scale;
            let mean = rate_per_minute * step_minutes as f64;
            if mean <= 0.0 {
                continue;
            }
            let count = endpoint.rng.poisson(mean);
            for _ in 0..count {
                let offset_ms = endpoint.rng.uniform_usize(0, step_ms as usize) as u64;
                let prompt = endpoint
                    .rng
                    .normal(prompt_mu, generator.shape.prompt_sigma)
                    .exp()
                    .round()
                    .max(1.0) as usize;
                let output = endpoint
                    .rng
                    .normal(output_mu, generator.shape.output_sigma)
                    .exp()
                    .round()
                    .max(1.0) as usize;
                let (prompt, output) = generator.shape.clamp(prompt, output);
                sink(
                    start_ms + offset_ms,
                    FabricRequest {
                        id: generator.next_id,
                        endpoint: ordinal as u32,
                        prompt_tokens: prompt as u32,
                        output_tokens: output as u32,
                    },
                );
                generator.next_id += 1;
            }
        }
    }

    /// What one generator produced over many steps.
    #[derive(Default)]
    struct StreamSample {
        /// Requests per step.
        counts: Vec<f64>,
        prompts: Vec<u32>,
        outputs: Vec<u32>,
        /// Requests `RequestShape::clamp` truncated: a clamped request sums to exactly
        /// the maximum, an unclamped one all but never does.
        truncated: usize,
    }

    impl StreamSample {
        fn push(&mut self, request: &FabricRequest) {
            self.prompts.push(request.prompt_tokens);
            self.outputs.push(request.output_tokens);
            let total = (request.prompt_tokens + request.output_tokens) as usize;
            if total == RequestShape::default().max_total_tokens {
                self.truncated += 1;
            }
        }

        fn moments(&self) -> (f64, f64) {
            let n = self.counts.len() as f64;
            let mean = self.counts.iter().sum::<f64>() / n;
            let variance = self.counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (mean, variance)
        }
    }

    fn quantile(values: &mut [u32], p: f64) -> f64 {
        values.sort_unstable();
        f64::from(values[(p * values.len() as f64) as usize])
    }

    /// The ziggurat generator against the Box–Muller one over 50 seeds of
    /// `real_cluster_hour` (an hour of one-minute steps at a tenth of the calibrated
    /// rate, ~6·10⁵ requests each): the per-step request count's mean and variance, the
    /// p10 / p50 / p90 / p99 prompt and output lengths, and the truncated share agree
    /// within a few standard errors of their difference.
    #[test]
    fn ziggurat_generator_matches_the_box_muller_generator_in_distribution() {
        let (mut ziggurat, mut box_muller) = (StreamSample::default(), StreamSample::default());
        let step = SimDuration::from_minutes(1);
        for seed in 0..50 {
            let mut base = ExperimentConfig::real_cluster_hour(tapas::policy::Policy::Tapas);
            base.seed = seed;
            let fabric = RequestFabricConfig {
                rate_scale: 0.1,
                ..RequestFabricConfig::default()
            };
            let timeline = base.resolved_timeline();
            let mut generator = FabricGenerator::new(seed, &base.endpoint_catalog(), fabric);
            let mut reference = generator.clone();
            for minute in 0..60 {
                let now = SimTime::from_minutes(minute);
                let before = ziggurat.prompts.len();
                generator.generate_with(now, step, &timeline, |_, request| ziggurat.push(&request));
                ziggurat
                    .counts
                    .push((ziggurat.prompts.len() - before) as f64);
                let before = box_muller.prompts.len();
                generate_box_muller(&mut reference, now, step, &timeline, |_, request| {
                    box_muller.push(&request);
                });
                box_muller
                    .counts
                    .push((box_muller.prompts.len() - before) as f64);
            }
        }
        let close = |what: &str, got: f64, want: f64, tolerance: f64| {
            assert!(
                (got / want - 1.0).abs() < tolerance,
                "{what}: {got} vs {want}"
            );
        };
        let ((mean, variance), (want_mean, want_variance)) =
            (ziggurat.moments(), box_muller.moments());
        close("count mean", mean, want_mean, 0.01);
        close("count variance", variance, want_variance, 0.05);
        for (p, tolerance) in [(0.1, 0.015), (0.5, 0.015), (0.9, 0.015), (0.99, 0.03)] {
            let (a, b) = (&mut ziggurat.prompts, &mut box_muller.prompts);
            close(
                &format!("prompt p{p}"),
                quantile(a, p),
                quantile(b, p),
                tolerance,
            );
            let (a, b) = (&mut ziggurat.outputs, &mut box_muller.outputs);
            close(
                &format!("output p{p}"),
                quantile(a, p),
                quantile(b, p),
                tolerance,
            );
        }
        let share = |sample: &StreamSample| sample.truncated as f64 / sample.prompts.len() as f64;
        close("truncated share", share(&ziggurat), share(&box_muller), 0.2);
    }

    #[test]
    fn fabric_serves_generated_traffic_and_records_metrics() {
        let catalog = catalog();
        let timeline = timeline();
        let mut generator = FabricGenerator::new(42, &catalog, RequestFabricConfig::default());
        let mut fabric = RequestFabric::new(42, &catalog, RequestFabricConfig::default(), false);
        let replicas = vec![2u32; catalog.len()];
        // The generator emits endpoint by endpoint, not in time order: the buffer sorts
        // each step's arrivals before they are delivered, as the fleet's does.
        let mut arrivals = ArrivalBuffer::new();
        for minute in (0..120).step_by(5) {
            let now = SimTime::from_minutes(minute);
            let step = SimDuration::from_minutes(5);
            generator.generate_with(now, step, &timeline, |t, r| arrivals.push(t, r));
            let end_ms = (minute + 5) * MS_PER_MINUTE;
            arrivals.drain_before(end_ms, |t, r| fabric.deliver(t, r));
            fabric.serve_step(now, step, &replicas);
        }
        let metrics = fabric.metrics();
        assert!(
            metrics.completed > 0,
            "two hours of traffic must complete requests"
        );
        assert!(metrics.ttft.total() == metrics.completed);
        assert!(metrics.attainment_at(5.0) > 0.0);
        assert!((0..catalog.len()).any(|e| fabric.pressure(e) > 0.0));
    }

    #[test]
    #[should_panic(expected = "a site fabric has no generator")]
    fn a_self_generating_site_fabric_is_rejected() {
        let _ = RequestFabric::new(42, &catalog(), RequestFabricConfig::default(), true);
    }

    #[test]
    fn trace_replay_validates_endpoints_before_enqueueing() {
        let catalog = catalog();
        let mut buffer = ArrivalBuffer::new();
        let bad = vec![TraceRecord {
            timestamp_ms: 0,
            endpoint: catalog.len() as u64 + 5,
            prompt_tokens: 128,
            output_tokens: 16,
        }];
        assert_eq!(
            buffer.load_trace(&bad, catalog.len()),
            Err(TraceError::UnknownEndpoint {
                endpoint: catalog.len() as u64 + 5
            })
        );
        assert!(buffer.is_empty());
        let good = vec![
            TraceRecord {
                timestamp_ms: 0,
                endpoint: 0,
                prompt_tokens: 128,
                output_tokens: 16,
            },
            TraceRecord {
                timestamp_ms: 900,
                endpoint: 1,
                prompt_tokens: 64,
                output_tokens: 8,
            },
        ];
        buffer
            .load_trace(&good, catalog.len())
            .expect("in-catalog endpoints load");
        let mut fabric = RequestFabric::new(42, &catalog, RequestFabricConfig::default(), false);
        buffer.drain_before(MS_PER_MINUTE, |t, r| fabric.deliver(t, r));
        fabric.serve_step(SimTime::ZERO, SimDuration::from_minutes(5), &[1, 1]);
        assert_eq!(fabric.metrics().completed, 2);
    }
}
