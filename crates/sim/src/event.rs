//! A deterministic discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub(crate) type SimTime = u64;

/// A time-ordered event queue with FIFO tie-breaking (events scheduled at
/// the same instant pop in scheduling order), making simulations
/// deterministic regardless of payload type.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            seq: 0,
            now: 0,
        }
    }

    /// The time of the most recently popped event (0 before any pop).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past (before `now`) is allowed but the event pops
    /// immediately with its recorded time; simulations that never schedule
    /// backwards observe monotone `now`.
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        let idx = self.payloads.len();
        self.payloads.push(Some(event));
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, idx)) = self.heap.pop()?;
        self.now = self.now.max(at);
        let payload = self.payloads[idx].take().expect("event popped once");
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 0);
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(30, 'c');
        q.schedule(10, 'a');
        q.schedule(20, 'b');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 'a'), (20, 'b'), (30, 'c')]);
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(5, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.schedule(5, ());
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn interleaved_scheduling_while_popping() {
        // Cascading events: each pop schedules a follow-up until time 50.
        let mut q = EventQueue::new();
        q.schedule(10, 1u64);
        let mut history = Vec::new();
        while let Some((t, gen)) = q.pop() {
            history.push((t, gen));
            if t + 10 <= 50 {
                q.schedule(t + 10, gen + 1);
            }
        }
        assert_eq!(history.len(), 5);
        assert_eq!(history.last(), Some(&(50, 5)));
    }
}
