//! Buffer pooling for the serve fast path.
//!
//! A batched event frame crosses three threads: the connection reader
//! fills a `Vec<(u32, InputEvent)>` from the borrowed
//! [`crate::wire::EventBatchView`], the shard worker drains it through
//! the session pipeline, and the buffer then needs to get back to *some*
//! reader for the next batch. [`BatchPool`] closes that loop: a small
//! mutex-guarded free list of cleared buffers shared by every reader and
//! shard worker on a router, so the steady state recycles a handful of
//! allocations instead of making one per frame.
//!
//! The pool is deliberately tiny and boring: an uncontended `Mutex` around
//! a `Vec` costs a few tens of nanoseconds per take/put — noise next to
//! the syscall and channel hops it sits between — and a bounded free list
//! means a burst can grow the working set but an idle service gives the
//! memory back. Hit/miss counters are exposed so the benchmark can report
//! steady-state allocation behavior (`pool.hit_ratio`) instead of
//! asserting it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use grandma_events::InputEvent;

use crate::wire::{ClientFrame, ClientFrameView};

/// How many idle buffers the pool keeps before dropping returns on the
/// floor. Sized for a few connections' worth of in-flight batches.
const MAX_IDLE: usize = 64;

/// Initial capacity of a fresh pool buffer — one full wire batch.
const FRESH_CAPACITY: usize = crate::wire::MAX_BATCH_EVENTS;

/// A shared free list of `(seq, event)` batch buffers. One pool is owned
/// by the [`crate::SessionRouter`] and shared (via `Arc`) across every
/// transport reader and shard worker attached to it.
#[derive(Debug, Default)]
pub struct BatchPool {
    idle: Mutex<Vec<Vec<(u32, InputEvent)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BatchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer, reusing an idle one when available.
    pub fn take(&self) -> Vec<(u32, InputEvent)> {
        // lint:try-bounded start — the critical section is one Vec::pop;
        // every holder of this mutex does O(1) work, so contention cannot
        // stall a reactor path beyond a pointer swap.
        let recycled = match self.idle.lock() {
            Ok(mut idle) => idle.pop(),
            Err(poisoned) => poisoned.into_inner().pop(),
        };
        // lint:try-bounded end
        match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(FRESH_CAPACITY)
            }
        }
    }

    /// Returns a buffer to the pool (cleared here, so callers cannot leak
    /// stale events into the next batch). Buffers beyond the idle cap are
    /// simply dropped.
    pub fn put(&self, mut buf: Vec<(u32, InputEvent)>) {
        buf.clear();
        // lint:try-bounded start — bounded-length check plus one Vec::push
        // under the lock; same O(1) discipline as `take`.
        let mut idle = match self.idle.lock() {
            Ok(idle) => idle,
            Err(poisoned) => poisoned.into_inner(),
        };
        if idle.len() < MAX_IDLE {
            idle.push(buf);
        }
        // lint:try-bounded end
    }

    /// Owns a zero-copy decoded client frame: a batch's records land in
    /// a pooled buffer, which then crosses the shard queue inside the
    /// [`crate::ShardMsg`] instead of a fresh allocation.
    pub(crate) fn own_frame(&self, view: ClientFrameView<'_>) -> ClientFrame {
        match view {
            ClientFrameView::EventBatch(batch) => {
                let mut events = self.take();
                events.extend(batch.iter());
                ClientFrame::EventBatch {
                    session: batch.session(),
                    events,
                }
            }
            view => view.into_frame(),
        }
    }

    /// Takes a buffer recycled from the pool (`hits`) vs freshly
    /// allocated (`misses`). Steady state should be all hits.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Buffers currently idle in the pool.
    pub fn idle_len(&self) -> usize {
        match self.idle.lock() {
            Ok(idle) => idle.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_events::EventKind;

    #[test]
    fn buffers_are_recycled_and_cleared() {
        let pool = BatchPool::new();
        let mut buf = pool.take();
        buf.push((1, InputEvent::new(EventKind::MouseMove, 1.0, 2.0, 3.0)));
        let ptr = buf.as_ptr();
        pool.put(buf);
        let again = pool.take();
        assert!(again.is_empty(), "recycled buffers must come back empty");
        assert_eq!(again.as_ptr(), ptr, "same allocation must be reused");
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn idle_list_is_bounded() {
        let pool = BatchPool::new();
        for _ in 0..(MAX_IDLE + 10) {
            pool.put(Vec::new());
        }
        assert_eq!(pool.idle_len(), MAX_IDLE);
    }

    #[test]
    fn take_from_empty_pool_allocates_capacity() {
        let pool = BatchPool::new();
        let buf = pool.take();
        assert!(buf.capacity() >= FRESH_CAPACITY);
        assert_eq!(pool.stats(), (0, 1));
    }
}
