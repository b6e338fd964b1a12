//! Serving-engine checks on [`BatchScheduler`].
//!
//! The TAPAS controllers rely on the vLLM-style engine behaviours §4.5 serves with: an idle
//! engine does no work, an unloaded request meets the 5× SLO, overload queues requests and
//! breaks the SLO, and the KV budget staggers admission. These tests check them on the
//! crate's serving model, driven in fixed windows the way the request fabric drives it:
//! requests arrive at the scheduler's clock and each window runs a positive duration
//! from there.

use crate::batch::{BatchCompletion, BatchScheduler};
use crate::config::InstanceConfig;
use crate::hardware::GpuHardware;

fn engine_with(config: InstanceConfig) -> BatchScheduler {
    BatchScheduler::new(config, &GpuHardware::a100(), 1)
}

fn engine() -> BatchScheduler {
    engine_with(InstanceConfig::default_70b())
}

/// Offers a request arriving at the scheduler's current clock.
fn submit(s: &mut BatchScheduler, tag: u64, prompt: usize, output: usize) {
    let now_ms = s.now_ms();
    s.offer(tag, prompt, output, now_ms);
}

/// Runs one window of `duration_s` seconds from the scheduler's clock and returns the
/// requests it completed.
fn run_for(s: &mut BatchScheduler, duration_s: f64) -> Vec<BatchCompletion> {
    assert!(duration_s > 0.0, "duration must be positive");
    let mut out = Vec::new();
    s.advance_to(s.now_ms() + (duration_s * 1e3).round() as u64, |done| {
        out.push(done)
    });
    out
}

/// Whether a completion met the scheduler's unloaded SLO targets.
fn met_slo(s: &BatchScheduler, done: &BatchCompletion) -> bool {
    let slo = s.perf().slo_targets(s.config());
    done.ttft_ms() as f64 <= 1e3 * slo.ttft_s && done.mean_tbt_ms() <= 1e3 * slo.tbt_s
}

mod tests {
    use super::*;

    #[test]
    fn idle_engine_reports_zero_utilization() {
        let mut e = engine();
        let completed = run_for(&mut e, 10.0);
        assert!(completed.is_empty());
        // No iteration ran: an iteration would overshoot the window end, and the clock
        // jumps straight to it.
        assert_eq!(e.now_ms(), 10_000);
        assert_eq!(e.completed_total(), 0);
        assert_eq!(e.running_len(), 0);
        assert_eq!(e.kv_in_use(), 0);
        assert_eq!(e.pressure(), 0.0);
    }

    #[test]
    fn single_request_completes_with_unloaded_latency() {
        let mut e = engine();
        submit(&mut e, 1, 512, 64);
        let completed = run_for(&mut e, 30.0);
        assert_eq!(completed.len(), 1);
        let done = completed[0];
        assert_eq!(done.tag, 1);
        // An unloaded request should comfortably meet the 5× SLO.
        assert!(met_slo(&e, &done));
        assert!(done.ttft_ms() > 0);
        assert!(done.latency_ms() > done.ttft_ms());
        assert_eq!(done.output_tokens, 64);
        assert_eq!(e.queue_len(), 0);
        assert_eq!(e.running_len(), 0);
    }

    #[test]
    fn overload_leaves_requests_queued_and_violates_slo() {
        let mut e = engine();
        // Far more work than the engine can serve in the window.
        for i in 0..512 {
            submit(&mut e, i, 1024, 256);
        }
        let completed = run_for(&mut e, 20.0);
        assert!(e.queue_len() + e.running_len() > 0);
        // Busy to the end: the last iteration straddles the window end.
        assert!(e.running_len() > 0);
        assert!(e.now_ms() >= 20_000);
        // Late-admitted requests blow through the TTFT SLO.
        if !completed.is_empty() {
            assert!(completed.iter().any(|done| !met_slo(&e, done)));
        }
    }

    #[test]
    fn kv_capacity_limits_admission() {
        let e = engine();
        // 70B FP16 on 8×80 GB leaves ~500 GB for KV -> capacity far above a single request.
        assert!(e.kv_capacity() > 10_000);
        let mut small = engine_with({
            let mut c = InstanceConfig::default_70b();
            c.max_batch_size = 64;
            c
        });
        // Submit more concurrent tokens than fit; the engine must stagger admission rather
        // than panic.
        for i in 0..200 {
            submit(&mut small, i, 7000, 100);
        }
        run_for(&mut small, 5.0);
        assert!(small.running_len() <= small.config().max_batch_size);
        assert!(small.kv_committed() <= small.kv_capacity());
        assert!(small.queue_len() > 0, "admission must stagger the burst");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        let mut e = engine();
        let _ = run_for(&mut e, 0.0);
    }
}
