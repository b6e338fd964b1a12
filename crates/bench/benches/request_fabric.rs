//! Criterion benchmarks for the request fabric: windows of steady-state fabric-enabled
//! fleet steps at one and sixteen sites (generation + per-request geo routing +
//! KV-bounded batch serving riding on the full simulation step), and the
//! continuous-batching scheduler in isolation (offer + drain of a fixed request batch —
//! the per-request hot path — and a deep batch drained by the event-cost path and by its
//! per-sequence reference, and a saturated minute of serving), plus the stream's
//! generation cost: one minute of an 80-server site's requests and the draws each request
//! is made of.

use cluster_sim::experiment::{ExperimentConfig, FleetConfig, RequestFabricConfig};
use cluster_sim::fabric::FabricGenerator;
use cluster_sim::fleet::FleetSimulator;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use llm_sim::batch::BatchScheduler;
use llm_sim::config::InstanceConfig;
use llm_sim::hardware::GpuHardware;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use tapas::policy::Policy;

fn fabric_base(rate_scale: f64) -> ExperimentConfig {
    let mut base = ExperimentConfig::real_cluster_hour(Policy::Tapas);
    base.duration = SimTime::from_hours(12);
    base.with_request_fabric(RequestFabricConfig {
        rate_scale,
        ..RequestFabricConfig::default()
    })
}

/// Consecutive one-minute steps per timed iteration of the `fabric_step_*` benches.
const WINDOW_STEPS: u64 = 10;

/// A fabric fleet primed past its placement wave (steps at minutes 0 and 1), at the
/// benchmark's `fabric80_day` rate per site (`rate_scale` 1.0; the evaluation fleet scales
/// the stream by its site count), where most scheduler iterations are full, not quiet.
fn primed(sites: usize) -> FleetSimulator {
    let config = if sites == 1 {
        FleetConfig::single_site(fabric_base(1.0))
    } else {
        FleetConfig::evaluation(fabric_base(1.0), sites)
    };
    let mut sim = FleetSimulator::new(config);
    sim.step(SimTime::ZERO);
    sim.step(SimTime::from_minutes(1));
    sim
}

/// Steps a fresh clone of `primed` through minutes 2..2 + [`WINDOW_STEPS`], so every
/// step's batch schedulers advance and serve what was offered (re-stepping one fixed
/// minute would only generate, route and queue).
fn step_window(mut sim: FleetSimulator) -> FleetSimulator {
    for minute in 2..2 + WINDOW_STEPS {
        sim.step(SimTime::from_minutes(minute));
    }
    sim
}

fn bench_request_fabric(c: &mut Criterion) {
    // One 80-server site with the fabric on: each step covers stream generation,
    // admission into the per-endpoint batch schedulers and the serving iterations, on top
    // of the legacy step.
    let single = primed(1);
    c.bench_function("fabric_step_1_site", |b| {
        b.iter_batched(|| single.clone(), step_window, BatchSize::LargeInput)
    });

    // Sixteen sites: adds fleet-wide generation and per-request geo routing across the
    // signal set, with each site serving its routed share.
    let fleet = primed(16);
    c.bench_function("fabric_step_16_sites", |b| {
        b.iter_batched(|| fleet.clone(), step_window, BatchSize::LargeInput)
    });

    // Generation alone: one midday minute of the fabric80_day stream (80 servers,
    // `rate_scale` 1.0, ~5020 requests), regenerated each iteration so every iteration
    // draws the same Poisson mean. The sink folds every field, so no draw is dead code.
    let mut base = ExperimentConfig::real_cluster_hour(Policy::Tapas);
    base.duration = SimTime::from_hours(24);
    let mut generator = FabricGenerator::new(
        base.seed,
        &base.endpoint_catalog(),
        RequestFabricConfig::default(),
    );
    let timeline = base.resolved_timeline();
    let (noon, minute) = (SimTime::from_hours(12), SimDuration::from_minutes(1));
    c.bench_function("fabric_generate_1_site_minute", |b| {
        b.iter(|| {
            let mut fold = 0u64;
            generator.generate_with(noon, minute, &timeline, |time_ms, request| {
                let tokens =
                    u64::from(request.prompt_tokens) << 32 | u64::from(request.output_tokens);
                fold = fold.rotate_left(5) ^ time_ms ^ tokens;
            });
            black_box(fold)
        })
    });

    // The draws a request is made of: a raw word (its offset's uniform integer) and a
    // log-normal (its prompt and output lengths).
    let mut rng = SimRng::seed_from(7).derive("request-fabric");
    c.bench_function("simrng_next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    let (mu, sigma) = (512f64.ln(), 0.9);
    c.bench_function("simrng_log_normal", |b| {
        b.iter(|| black_box(rng.log_normal(black_box(mu), black_box(sigma))))
    });

    // The scheduler alone: offer 512 requests and drain them to completion — the
    // KV-admission and batching hot path with no simulation step around it.
    let gpu = GpuHardware::a100();
    let config = InstanceConfig::default_70b();
    let mut completions = Vec::new();
    c.bench_function("batch_scheduler_512_requests", |b| {
        b.iter(|| {
            let mut scheduler = BatchScheduler::new(config, &gpu, 4);
            for i in 0..512u64 {
                scheduler.offer(i, 512, 128, i * 40);
            }
            completions.clear();
            scheduler.advance_to(u64::MAX / 2, |done| completions.push(done));
            black_box(completions.len())
        })
    });

    // A deep batch: 2048 long-output requests keep all 4 × 64 decode slots full for
    // thousands of iterations, the regime where a per-sequence walk per iteration
    // dominated. The `_reference` twin drains the same offers through that walk.
    let deep = || {
        let mut scheduler = BatchScheduler::new(config, &gpu, 4);
        for i in 0..2048u64 {
            scheduler.offer(i, 512, 512, i * 10);
        }
        scheduler
    };
    c.bench_function("batch_scheduler_deep_batch", |b| {
        b.iter_batched(
            deep,
            |mut scheduler| {
                completions.clear();
                scheduler.advance_to(u64::MAX / 2, |done| completions.push(done));
                black_box(completions.len())
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("batch_scheduler_deep_batch_reference", |b| {
        b.iter_batched(
            deep,
            |mut scheduler| {
                completions.clear();
                scheduler.advance_to_reference(u64::MAX / 2, &mut completions);
                black_box(completions.len())
            },
            BatchSize::LargeInput,
        )
    });
}

/// Requests offered to the saturated scheduler: two minutes of arrivals, every 40 ms.
const SATURATED_OFFERS: u64 = 3_000;

fn bench_saturated_minute(c: &mut Criterion) {
    // One endpoint's scheduler (4 replicas, 256 decode slots) under a backlog: arrivals
    // with uniform prompt lengths and long uniform outputs (512–2559 tokens) come faster
    // than they complete, primed one minute in so every slot is taken, then one minute of
    // serving. A completion frees a slot about every six iterations, so most iterations
    // admit nothing: the full iterations and quiet runs the iteration clock times.
    let gpu = GpuHardware::a100();
    let mut rng = SimRng::seed_from(7);
    let mut primed = BatchScheduler::new(InstanceConfig::default_70b(), &gpu, 4);
    for i in 0..SATURATED_OFFERS {
        primed.offer(
            i,
            64 + rng.uniform_usize(0, 1024),
            512 + rng.uniform_usize(0, 2048),
            i * 40,
        );
    }
    let mut completions = Vec::new();
    primed.advance_to(60_000, |done| completions.push(done));
    assert!(
        primed.queue_len() > 0,
        "the backlog must outlast the primed minute"
    );
    c.bench_function("batch_scheduler_saturated_minute", |b| {
        b.iter_batched(
            || primed.clone(),
            |mut scheduler| {
                completions.clear();
                scheduler.advance_to(120_000, |done| completions.push(done));
                black_box(completions.len())
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_request_fabric, bench_saturated_minute
}
criterion_main!(benches);
