//! Lock-free queues. Nothing in the runtime uses them: its matcher is a
//! locked `Mailbox` (see [`crate::mailbox`]). The module is kept only
//! because the benchmark's `rt.spsc_ns` / `rt.mpsc_ns` probes time it;
//! it goes together with those probes.
//!
//! Two shapes:
//!
//! * [`SpscRing`] — a bounded single-producer/single-consumer ring.
//! * [`MpscQueue`] — an unbounded multi-producer queue (Vyukov's
//!   intrusive MPSC design).
//!
//! A build with `RUSTFLAGS="--cfg loom"` swaps in the loom shim's
//! model-checked atomics for both: every load/store/swap/CAS becomes a
//! schedule point and the queue protocols are exercised under randomized
//! interleavings (`tests/loom.rs`). This is the only module of the crate
//! that build changes.
//!
//! Consumer-side exclusivity is a *caller* contract, so the consumer-side
//! and producer-side methods are `unsafe fn`s with documented contracts
//! rather than silently unsound safe APIs. This is the one module of the
//! crate allowed `unsafe` code.

use std::cell::UnsafeCell;
use std::ptr;

#[cfg(loom)]
use loom::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// A bounded single-producer/single-consumer ring buffer.
///
/// Indices only ever increase (they are taken modulo the capacity when
/// addressing slots), so `tail - head` is the current occupancy and the
/// full/empty tests never suffer wrap ambiguity.
pub struct SpscRing<T> {
    mask: usize,
    /// Consumer cursor: next slot to pop.
    head: AtomicUsize,
    /// Producer cursor: next slot to fill.
    tail: AtomicUsize,
    slots: Box<[UnsafeCell<Option<T>>]>,
}

// Safety: the cells are only touched under the SPSC contract documented on
// `try_push`/`pop`; the head/tail atomics order the handoff of each slot.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding up to `capacity` items (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> SpscRing<T> {
        let cap = capacity.max(2).next_power_of_two();
        SpscRing {
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..cap).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Push `v`, or hand it back if the ring is full.
    ///
    /// # Safety
    ///
    /// At most one thread may be in `try_push` at a time (the single
    /// producer); concurrent pushes race on the same slot.
    pub unsafe fn try_push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::SeqCst);
        let head = self.head.load(Ordering::SeqCst);
        if tail.wrapping_sub(head) > self.mask {
            return Err(v);
        }
        // Safety: slot `tail` is outside [head, tail) so the consumer will
        // not touch it until the tail store below publishes it.
        unsafe { *self.slots[tail & self.mask].get() = Some(v) };
        self.tail.store(tail.wrapping_add(1), Ordering::SeqCst);
        Ok(())
    }

    /// Pop the oldest item, if any.
    ///
    /// # Safety
    ///
    /// At most one thread may be in `pop` at a time (the single consumer).
    /// Distinct threads may consume at different times if an external
    /// happens-before edge (e.g. a baton CAS) orders their accesses.
    pub unsafe fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        if head == tail {
            return None;
        }
        // Safety: slot `head` was published by the producer's tail store,
        // which the SeqCst load above synchronizes with.
        let v = unsafe { (*self.slots[head & self.mask].get()).take() };
        self.head.store(head.wrapping_add(1), Ordering::SeqCst);
        v
    }

    /// True when the ring currently holds nothing. Safe from any thread —
    /// it only reads the cursors (the answer may be stale by the time the
    /// caller acts on it, like any concurrent emptiness test).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst) == self.tail.load(Ordering::SeqCst)
    }

    /// Number of items currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::SeqCst)
            .wrapping_sub(self.head.load(Ordering::SeqCst))
    }
}

/// Result of an [`MpscQueue::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<T> {
    /// The oldest item.
    Item(T),
    /// The queue is empty.
    Empty,
    /// A producer is mid-push (it has swapped the tail but not yet linked
    /// its node). The item will be visible shortly; callers should treat
    /// this as "pending work exists" and retry after backing off.
    Inconsistent,
}

struct MpscNode<T> {
    next: AtomicPtr<MpscNode<T>>,
    value: Option<T>,
}

/// Vyukov's intrusive multi-producer/single-consumer queue.
///
/// Producers are wait-free: one `swap` on the tail plus one `store` to
/// link. The consumer walks `head.next`; the one subtle state is the
/// window between a producer's swap and its link, surfaced to callers as
/// [`Popped::Inconsistent`].
pub struct MpscQueue<T> {
    /// Consumer end: a stub node whose `next` is the oldest real node.
    head: AtomicPtr<MpscNode<T>>,
    /// Producer end: the most recently pushed node.
    tail: AtomicPtr<MpscNode<T>>,
}

// Safety: producers only touch `tail` (atomics) and their own fresh node;
// the consumer contract on `pop` serializes everything else.
unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> MpscQueue<T> {
    /// An empty queue (allocates the stub node).
    pub fn new() -> MpscQueue<T> {
        let stub = Box::into_raw(Box::new(MpscNode {
            next: AtomicPtr::new(ptr::null_mut()),
            value: None,
        }));
        MpscQueue {
            head: AtomicPtr::new(stub),
            tail: AtomicPtr::new(stub),
        }
    }

    /// Push `v`. Safe from any number of threads concurrently.
    pub fn push(&self, v: T) {
        let n = Box::into_raw(Box::new(MpscNode {
            next: AtomicPtr::new(ptr::null_mut()),
            value: Some(v),
        }));
        let prev = self.tail.swap(n, Ordering::SeqCst);
        // Safety: `prev` is either the stub or a node a producer published
        // earlier; nodes are only freed by the consumer *after* their
        // successor is linked, so `prev` is alive until this store lands.
        unsafe { (*prev).next.store(n, Ordering::SeqCst) };
    }

    /// Pop the oldest item.
    ///
    /// # Safety
    ///
    /// At most one thread may be in `pop` at a time (the single consumer).
    /// Distinct threads may consume at different times if an external
    /// happens-before edge (e.g. a baton CAS) orders their accesses.
    pub unsafe fn pop(&self) -> Popped<T> {
        let head = self.head.load(Ordering::SeqCst);
        // Safety: `head` is the stub or a consumed node; only the consumer
        // (us) frees nodes, and not before replacing `head`.
        let next = unsafe { (*head).next.load(Ordering::SeqCst) };
        if next.is_null() {
            return if self.tail.load(Ordering::SeqCst) == head {
                Popped::Empty
            } else {
                Popped::Inconsistent
            };
        }
        // Safety: `next` is a fully linked node; after we advance `head`
        // past it, it becomes the new stub (its value taken below).
        let value = unsafe { (*next).value.take() };
        self.head.store(next, Ordering::SeqCst);
        // Safety: the old stub is no longer reachable from head or any
        // producer (producers only hold the tail).
        drop(unsafe { Box::from_raw(head) });
        match value {
            Some(v) => Popped::Item(v),
            // Unreachable by construction (non-stub nodes carry a value),
            // but kept total rather than panicking in a queue primitive.
            None => Popped::Empty,
        }
    }

    /// True when items have been pushed (or are mid-push) and not yet
    /// consumed. Safe from any thread; racy like any emptiness test.
    pub fn has_pending(&self) -> bool {
        self.head.load(Ordering::SeqCst) != self.tail.load(Ordering::SeqCst)
    }
}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        MpscQueue::new()
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        let mut p = self.head.load(Ordering::SeqCst);
        while !p.is_null() {
            // Safety: at drop time no other thread holds the queue; every
            // node from head onward (stub included) is owned by us.
            let next = unsafe { (*p).next.load(Ordering::SeqCst) };
            drop(unsafe { Box::from_raw(p) });
            p = next;
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn spsc_ring_is_fifo_and_bounded() {
        let ring: SpscRing<u32> = SpscRing::new(4);
        assert_eq!(ring.capacity(), 4);
        // Safety: single-threaded test — trivially SPSC.
        unsafe {
            for i in 0..4 {
                assert!(ring.try_push(i).is_ok());
            }
            assert_eq!(ring.try_push(99), Err(99));
            assert_eq!(ring.len(), 4);
            for i in 0..4 {
                assert_eq!(ring.pop(), Some(i));
            }
            assert_eq!(ring.pop(), None);
            assert!(ring.is_empty());
        }
    }

    #[test]
    fn spsc_ring_wraps_across_many_generations() {
        let ring: SpscRing<usize> = SpscRing::new(2);
        // Safety: single-threaded test.
        unsafe {
            for i in 0..1000 {
                assert!(ring.try_push(i).is_ok());
                assert_eq!(ring.pop(), Some(i));
            }
        }
    }

    #[test]
    fn mpsc_queue_keeps_order_and_frees_unconsumed() {
        let q: MpscQueue<String> = MpscQueue::new();
        for i in 0..10 {
            q.push(format!("m{i}"));
        }
        // Safety: single-threaded test — trivially single-consumer.
        unsafe {
            for i in 0..5 {
                assert_eq!(q.pop(), Popped::Item(format!("m{i}")));
            }
        }
        assert!(q.has_pending());
        // Remaining 5 nodes are freed by Drop (run under Miri/ASan in the
        // pure-crate jobs if this module ever moves there).
    }

    #[test]
    fn mpsc_empty_reports_empty() {
        let q: MpscQueue<u8> = MpscQueue::new();
        assert!(!q.has_pending());
        // Safety: single-threaded test.
        unsafe {
            assert_eq!(q.pop(), Popped::Empty);
        }
    }
}
