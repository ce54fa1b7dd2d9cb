//! Bounded MPMC request queue with admission control.
//!
//! A `Mutex<VecDeque>` + `Condvar` pair: producers never block (a full queue
//! sheds the push — admission control happens at the door, not by buffering
//! without bound), consumers block until an item or shutdown, then take
//! whatever else is already buffered in one non-blocking grab. Nothing here
//! waits on a clock. The lock is held only for O(1) push/pop and one bulk
//! drain, so contention stays proportional to request rate, not to serving
//! time.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back to the caller.
    Full(T),
    /// The queue is closed (runtime draining); the item is handed back.
    Closed(T),
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

    /// Non-blocking push: a full or closed queue refuses the item and hands
    /// it back, so the caller can surface a typed shed error.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (`Some`) or the queue is closed
    /// *and* drained (`None` — the consumer should exit). Used by workers to
    /// fetch the head of a new batch.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pushes as many of `items` as free capacity allows under one lock
    /// acquisition (the producer-side mirror of [`BoundedQueue::drain_into`]).
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
    /// This is how a batch fills: once a worker holds the head of a batch,
    /// everything that piled up while it was busy comes along in one grab.
    /// Topping up item-by-item would pay one lock round-trip per request —
    /// exactly the per-request overhead batching exists to amortize. One bulk
    /// grab keeps lock traffic per *batch*, not per request, which matters
    /// most when several workers contend.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let take = inner.items.len().min(max);
        out.extend(inner.items.drain(..take));
        take
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`];
    /// already-buffered items remain poppable (graceful drain). Wakes every
    /// blocked consumer.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
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
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
    }

    #[test]
    fn full_queue_sheds_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        match q.try_push("c") {
            Err(PushError::Full(item)) => assert_eq!(item, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Popping frees a slot.
        assert_eq!(q.pop_blocking(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn closed_queue_refuses_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn try_push_many_admits_a_prefix_and_sheds_the_rest() {
        let q = BoundedQueue::new(3);
        q.try_push(0).unwrap();
        let (admitted, closed) = q.try_push_many(vec![1, 2, 3, 4]);
        assert_eq!((admitted, closed), (2, false));
        for want in 0..3 {
            assert_eq!(q.pop_blocking(), Some(want));
        }
        assert!(q.is_empty());
        q.close();
        assert_eq!(q.try_push_many(vec![9]), (0, true));
    }

    #[test]
    fn drain_into_takes_at_most_max_in_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
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
        let h = std::thread::spawn(move || q2.pop_blocking());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u32).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_blocking().is_none());
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
