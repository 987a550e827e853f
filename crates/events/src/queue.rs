//! Time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::InputEvent;

/// A time-ordered queue of input events.
///
/// Events pop in timestamp order; ties pop in insertion order, so a
/// synthesized `Timeout` pushed with the same timestamp as a following
/// `MouseMove` is delivered first when it was pushed first.
///
/// # Examples
///
/// ```
/// use grandma_events::{EventKind, EventQueue, InputEvent};
///
/// let mut q = EventQueue::new();
/// q.push(InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 20.0));
/// q.push(InputEvent::new(EventKind::MouseMove, 0.0, 0.0, 10.0));
/// assert_eq!(q.pop().unwrap().t, 10.0);
/// assert_eq!(q.pop().unwrap().t, 20.0);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

#[derive(Debug)]
struct Entry {
    event: InputEvent,
    seq: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then the
        // lowest sequence number) pops first. `total_cmp` gives a total
        // order over *all* f64 values — NaN and infinities included — so a
        // corrupted timestamp can never violate the heap's Ord invariants
        // or panic. Under total_cmp, -inf < finite < +inf < NaN, so NaN
        // timestamps simply pop last.
        other
            .event
            .t
            .total_cmp(&self.event.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an event.
    pub fn push(&mut self, event: InputEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { event, seq });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<InputEvent> {
        self.heap.pop().map(|e| e.event)
    }

    /// Returns the earliest event without removing it.
    pub fn peek(&self) -> Option<&InputEvent> {
        self.heap.peek().map(|e| &e.event)
    }

    /// Returns the number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains all events in time order.
    pub fn drain_ordered(&mut self) -> Vec<InputEvent> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn mv(t: f64) -> InputEvent {
        InputEvent::new(EventKind::MouseMove, 0.0, 0.0, t)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30.0, 10.0, 20.0] {
            q.push(mv(t));
        }
        let ts: Vec<f64> = q.drain_ordered().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn equal_timestamps_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let timeout = InputEvent::new(EventKind::Timeout, 1.0, 1.0, 50.0);
        let move_ev = InputEvent::new(EventKind::MouseMove, 2.0, 2.0, 50.0);
        q.push(timeout);
        q.push(move_ev);
        assert_eq!(q.pop().unwrap().kind, EventKind::Timeout);
        assert_eq!(q.pop().unwrap().kind, EventKind::MouseMove);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(mv(5.0));
        assert_eq!(q.peek().unwrap().t, 5.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn non_finite_timestamps_do_not_panic_and_order_totally() {
        // Regression: Entry::cmp used partial_cmp().expect(), so a NaN
        // timestamp could panic or (worse) corrupt the BinaryHeap's
        // ordering invariants. total_cmp gives NaN a defined place: last.
        let mut q = EventQueue::new();
        for &t in &[
            f64::NAN,
            20.0,
            f64::INFINITY,
            10.0,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            q.push(mv(t));
        }
        let ts: Vec<f64> = q.drain_ordered().iter().map(|e| e.t).collect();
        assert_eq!(ts.len(), 6);
        assert_eq!(ts[0], f64::NEG_INFINITY);
        assert_eq!(ts[1], 10.0);
        assert_eq!(ts[2], 20.0);
        assert_eq!(ts[3], f64::INFINITY);
        assert!(ts[4].is_nan() && ts[5].is_nan());
    }

    #[test]
    fn nan_timestamps_preserve_insertion_order_among_themselves() {
        let mut q = EventQueue::new();
        let a = InputEvent::new(EventKind::Timeout, 1.0, 0.0, f64::NAN);
        let b = InputEvent::new(EventKind::MouseMove, 2.0, 0.0, f64::NAN);
        q.push(a);
        q.push(b);
        assert_eq!(q.pop().map(|e| e.kind), Some(EventKind::Timeout));
        assert_eq!(q.pop().map(|e| e.kind), Some(EventKind::MouseMove));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.peek().is_none());
    }
}
