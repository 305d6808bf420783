//! Bounded MPMC request queue with admission control.
//!
//! A `Mutex<VecDeque>` + `Condvar` pair: producers never block (a full queue
//! sheds the push — admission control happens at the door, not by buffering
//! without bound), consumers block until an item or shutdown, then drain the
//! rest of their batch without blocking. The lock is held only for O(1)
//! push/pop, so contention stays proportional to request rate, not to
//! serving time.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Outcome of a blocking pop.
#[derive(Debug)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is closed and fully drained — the consumer should exit.
    Drained,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` buffered items.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::with_capacity(capacity.min(1024)), closed: false }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of buffered items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained. Used by workers to fetch the head of a new batch.
    pub fn pop_blocking(&self) -> Pop<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Pop::Item(item);
            }
            if inner.closed {
                return Pop::Drained;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking admission: pushes as many of `items` as free capacity
    /// allows under one lock acquisition (the producer-side mirror of
    /// [`BoundedQueue::drain_into`]); producers never block.
    /// Returns `(admitted, closed)`: the number of items actually enqueued
    /// (a prefix of `items`, FIFO order preserved) and whether the queue was
    /// closed (in which case nothing is enqueued). Items beyond capacity are
    /// dropped here — callers surface those as sheds.
    pub fn try_push_many(&self, mut items: Vec<T>) -> (usize, bool) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return (0, true);
        }
        let space = self.capacity - inner.items.len();
        let take = space.min(items.len());
        inner.items.extend(items.drain(..take));
        drop(inner);
        match take {
            0 => {}
            1 => self.not_empty.notify_one(),
            _ => self.not_empty.notify_all(),
        }
        (take, false)
    }

    /// Moves up to `max` already-buffered items into `out` under a single
    /// lock acquisition, without blocking. Returns how many were taken.
    ///
    /// This is the batching fast path: once a worker holds the head of a
    /// batch, topping up item-by-item would pay one lock round-trip per
    /// request — exactly the per-request overhead batching exists to
    /// amortize. One bulk grab keeps lock traffic per *batch*, not per
    /// request, which matters most when several workers contend.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let take = inner.items.len().min(max);
        out.extend(inner.items.drain(..take));
        take
    }

    /// Closes the queue: future pushes are refused (`closed` is reported);
    /// already-buffered items remain poppable (graceful drain). Wakes every
    /// blocked consumer.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// True once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Number of currently buffered items.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).items.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push_many(vec![1, 2]), (2, false));
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop_blocking(), Pop::Item(1)));
        assert!(matches!(q.pop_blocking(), Pop::Item(2)));
    }

    #[test]
    fn full_queue_sheds_until_a_pop_frees_a_slot() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push_many(vec!["a", "b"]), (2, false));
        assert_eq!(q.try_push_many(vec!["c"]), (0, false));
        // Popping frees a slot.
        assert!(matches!(q.pop_blocking(), Pop::Item("a")));
        assert_eq!(q.try_push_many(vec!["c"]), (1, false));
    }

    #[test]
    fn closed_queue_refuses_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push_many(vec![1]), (1, false));
        q.close();
        assert_eq!(q.try_push_many(vec![2]), (0, true));
        assert!(matches!(q.pop_blocking(), Pop::Item(1)));
        assert!(matches!(q.pop_blocking(), Pop::Drained));
    }

    #[test]
    fn try_push_many_admits_a_prefix_and_sheds_the_rest() {
        let q = BoundedQueue::new(3);
        assert_eq!(q.try_push_many(vec![0]), (1, false));
        let (admitted, closed) = q.try_push_many(vec![1, 2, 3, 4]);
        assert_eq!((admitted, closed), (2, false));
        for want in 0..3 {
            assert!(matches!(q.pop_blocking(), Pop::Item(v) if v == want));
        }
        assert!(q.is_empty());
        q.close();
        assert_eq!(q.try_push_many(vec![9]), (0, true));
    }

    #[test]
    fn drain_into_takes_at_most_max_in_fifo_order() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.try_push_many((0..5).collect()), (5, false));
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.drain_into(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.drain_into(&mut out, 10), 0);
        assert_eq!(q.drain_into(&mut out, 0), 0);
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || match q2.pop_blocking() {
            Pop::Item(v) => v,
            other => panic!("expected item, got {other:?}"),
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_push_many(vec![42u32]), (1, false));
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || matches!(q2.pop_blocking(), Pop::Drained));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
