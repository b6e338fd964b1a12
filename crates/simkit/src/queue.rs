//! Dense, allocation-light event queue for event-timestamped simulation streams.
//!
//! The step loop works on fixed quanta, but the request fabric schedules *events*:
//! millions of per-request arrivals per simulated day, each carrying an integer entity
//! ordinal instead of a string label. [`EventQueue`] is the ordering substrate: a
//! Vec-backed binary min-heap keyed by `(time, sequence)` where the sequence number is a
//! monotonically increasing insertion counter. Ties on `time` therefore pop in insertion
//! (FIFO) order, which makes the drain order a pure function of the push order — the
//! determinism rule every digest contract relies on.
//!
//! Timestamps are plain `u64`s in whatever unit the caller picks. The simulation clock
//! ([`crate::time::SimTime`]) has minute resolution; the request fabric keys its queue in
//! *milliseconds* so sub-minute arrival interleavings stay exact without touching the
//! clock type.
//!
//! The heap never shrinks and stores payloads inline, so a steady-state
//! push/pop cycle performs zero allocations once the high-water mark is reached.
//!
//! # Examples
//! ```
//! use simkit::queue::EventQueue;
//! let mut queue = EventQueue::new();
//! queue.push(20, "b");
//! queue.push(10, "a");
//! queue.push(20, "c"); // same time as "b", pushed later → pops later
//! assert_eq!(queue.pop(), Some((10, "a")));
//! assert_eq!(queue.pop(), Some((20, "b")));
//! assert_eq!(queue.pop(), Some((20, "c")));
//! assert_eq!(queue.pop(), None);
//! ```

/// One pending event: an integer timestamp plus an inline payload.
#[derive(Debug, Clone)]
struct Slot<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> Slot<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic binary min-heap of timestamped events.
///
/// Pop order is ascending `(time, insertion sequence)`: earliest time first, and FIFO
/// among events that share a timestamp.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: Vec<Slot<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events, keeping the allocation. The insertion counter is *not*
    /// reset, so FIFO tie-breaking stays globally consistent across reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.first().map(|slot| slot.time)
    }

    /// Schedules a payload at `time`.
    pub fn push(&mut self, time: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Slot { time, seq, payload });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let slot = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((slot.time, slot.payload))
    }

    /// Pops every event with `time <= deadline`, in deterministic order, into `visit`.
    pub fn drain_until(&mut self, deadline: u64, mut visit: impl FnMut(u64, T)) {
        while self.peek_time().is_some_and(|t| t <= deadline) {
            let (time, payload) = self.pop().expect("peeked event");
            visit(time, payload);
        }
    }

    fn sift_up(&mut self, mut index: usize) {
        while index > 0 {
            let parent = (index - 1) / 2;
            if self.heap[index].key() < self.heap[parent].key() {
                self.heap.swap(index, parent);
                index = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut index: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * index + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < len && self.heap[right].key() < self.heap[left].key() {
                smallest = right;
            }
            if self.heap[smallest].key() < self.heap[index].key() {
                self.heap.swap(index, smallest);
                index = smallest;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            queue.push(t, t * 10);
        }
        let mut drained = Vec::new();
        while let Some((t, p)) = queue.pop() {
            drained.push((t, p));
        }
        assert_eq!(drained, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut queue = EventQueue::new();
        for i in 0..100u64 {
            queue.push(42, i);
        }
        for i in 0..100u64 {
            assert_eq!(queue.pop(), Some((42, i)));
        }
    }

    #[test]
    fn drain_until_respects_the_deadline() {
        let mut queue = EventQueue::new();
        for &t in &[2u64, 4, 6, 8] {
            queue.push(t, t);
        }
        let mut seen = Vec::new();
        queue.drain_until(5, |t, p| seen.push((t, p)));
        assert_eq!(seen, vec![(2, 2), (4, 4)]);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.peek_time(), Some(6));
    }

    #[test]
    fn clear_keeps_the_sequence_counter() {
        let mut queue = EventQueue::new();
        queue.push(1, "early");
        queue.clear();
        assert!(queue.is_empty());
        queue.push(7, "a");
        queue.push(7, "b");
        assert_eq!(queue.pop(), Some((7, "a")));
        assert_eq!(queue.pop(), Some((7, "b")));
    }

    #[test]
    fn matches_a_stable_sorted_reference_model() {
        let mut rng = SimRng::seed_from(2024);
        for _ in 0..50 {
            let count = rng.uniform_usize(1, 300);
            let mut queue = EventQueue::with_capacity(count);
            // Times drawn from a narrow range so ties are common.
            let mut reference: Vec<(u64, usize)> = Vec::with_capacity(count);
            for ordinal in 0..count {
                let time = rng.uniform_usize(0, 20) as u64;
                queue.push(time, ordinal);
                reference.push((time, ordinal));
            }
            // Stable sort by time preserves insertion order among ties — the contract.
            reference.sort_by_key(|&(time, _)| time);
            let mut drained = Vec::with_capacity(count);
            while let Some(item) = queue.pop() {
                drained.push(item);
            }
            assert_eq!(drained, reference);
        }
    }

    /// Reference model: a stable sort by timestamp preserves push order among equal
    /// timestamps — exactly the `(time, seq)` contract the binary heap must honour.
    #[test]
    fn matches_a_stable_sorted_reference_under_random_workloads() {
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
            assert_eq!(
                drained, reference,
                "round {round} diverged from the reference"
            );
        }
    }

    #[test]
    fn drain_until_is_inclusive_and_leaves_the_rest() {
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

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut queue = EventQueue::new();
        queue.push(10, 0);
        queue.push(2, 1);
        assert_eq!(queue.pop(), Some((2, 1)));
        queue.push(4, 2);
        queue.push(10, 3);
        assert_eq!(queue.pop(), Some((4, 2)));
        assert_eq!(queue.pop(), Some((10, 0)));
        assert_eq!(queue.pop(), Some((10, 3)));
        assert!(queue.pop().is_none());
    }
}
