//! A fixed reference kernel for host-speed normalisation.
//!
//! On a small shared host the simulator's speed swings by up to 2× within seconds: a
//! neighbour on the same physical core competes for its caches and branch predictors.
//! A tight arithmetic loop or a memory-latency probe does not see those swings, but a
//! kernel with the simulator's own profile does: an event heap, an ordered map, arrays
//! of small structs and a sort over an L2-sized working set. Timing this kernel right
//! next to each simulator run and dividing gives `run_ref`, the run's cost in reference
//! units, which keeps the gain of a faster simulator but not the host's mood.
//!
//! The kernel is part of the benchmark, not of the program: a change that claims a gain
//! may not edit it, so its cost stays a fixed yardstick across commits.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy)]
struct Entity {
    load: f64,
    temp: f64,
    id: u32,
    kind: u8,
}

/// Runs the kernel once and returns a checksum of its result (deterministic).
#[must_use]
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut entities: Vec<Entity> = (0..40_000u32)
        .map(|id| Entity {
            load: 0.5,
            temp: 40.0,
            id,
            kind: (id % 3) as u8,
        })
        .collect();
    let mut tally: BTreeMap<u64, u32> = BTreeMap::new();
    let mut events: BinaryHeap<Reverse<(u64, u64)>> = (0..150_000u64)
        .map(|i| Reverse((next() % 1_000_000, i)))
        .collect();
    while let Some(Reverse((time, i))) = events.pop() {
        let entity = &mut entities[((time ^ i) % 40_000) as usize];
        match entity.kind {
            0 => entity.load = (entity.load + 0.01).min(1.0),
            1 => entity.temp += entity.load * 0.1,
            _ => entity.temp -= 0.05,
        }
        if entity.temp > 60.0 {
            entity.kind = 2;
        }
        *tally.entry(time % 20_000).or_insert(0) += entity.id;
        if i % 4 == 0 && time < 900_000 {
            events.push(Reverse((time + next() % 100_000, i + 1)));
        }
    }
    entities.sort_by(|a, b| a.temp.total_cmp(&b.temp).then(a.id.cmp(&b.id)));
    let temps: f64 = entities.iter().map(|e| e.temp).sum();
    temps.to_bits() ^ u64::from(entities[0].id) ^ tally.values().map(|&v| u64::from(v)).sum::<u64>()
}

/// Wall time of one kernel run, in seconds.
#[must_use]
pub fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
