//! The simulator's event queue: a time-ordered priority queue with a
//! monotone tiebreak counter so simultaneous events fire in insertion
//! order — making every run deterministic for a given seed.
//!
//! The heap orders 24-byte `(time, tiebreak, slot)` keys; the events
//! themselves (a packet in transit is ~90 bytes) sit still in a slab and
//! are moved once in and once out, not on every sift. Slots are recycled
//! through a free list, so the slab never holds more slots than the
//! queue's peak depth.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Deterministic discrete-event queue.
pub struct EventQueue<E> {
    /// Min-heap of `(time, tiebreak, slot)`. The tiebreak is unique, so
    /// the slot never decides the order.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Pending events, indexed by the heap keys' slots.
    slots: Vec<Option<E>>,
    /// Empty slots, reused before the slab grows.
    free: Vec<usize>,
    counter: u64,
    now: u64,
    popped: u64,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            counter: 0,
            now: 0,
            popped: 0,
            peak_len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (the fire time of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is
    /// clamped to `now` (events cannot time-travel).
    pub fn schedule(&mut self, at: u64, event: E) {
        let time = at.max(self.now);
        self.counter += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((time, self.counter, slot)));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pop the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        debug_assert!(time >= self.now, "event queue went backwards");
        let event = self.slots[slot]
            .take()
            .expect("heap key names an empty slot");
        self.free.push(slot);
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Total events popped so far (the simulator's unit of work).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of the pending-event heap.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, "later");
        q.pop();
        q.schedule(50, "stale"); // clamped to 100
        assert_eq!(q.pop(), Some((100, "stale")));
    }

    #[test]
    fn counters_track_pops_and_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!((q.popped(), q.peak_len()), (0, 0));
        q.schedule(10, ());
        q.schedule(20, ());
        q.schedule(30, ());
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.popped(), 2);
        // Peak is a high-water mark; draining does not lower it.
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(30, 3);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn recycled_slots_keep_insertion_order() {
        let mut q = EventQueue::new();
        // Churn the slab so the free list hands slots back out of order.
        for round in 0..10u64 {
            for i in 0..7 {
                q.schedule(round * 10 + (7 - i), 0);
            }
            for _ in 0..5 {
                q.pop();
            }
        }
        while q.pop().is_some() {}
        let t = q.now() + 1;
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn slab_never_outgrows_the_peak_depth() {
        let mut q = EventQueue::new();
        for step in 0..1_000u64 {
            // A sawtooth: bursts of schedules, then partial drains.
            for k in 0..(step % 13) {
                q.schedule(step + k * 3, step);
            }
            for _ in 0..(step % 7) {
                q.pop();
            }
            assert!(q.slots.len() <= q.peak_len(), "step {step}");
            assert_eq!(q.slots.len(), q.len() + q.free.len());
        }
    }
}
