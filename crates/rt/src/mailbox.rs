//! The envelope-matching mailbox: MPI point-to-point matching as a pure
//! state machine.
//!
//! Extracted from the runtime's shared state so the *matching discipline*
//! — FIFO per `(context, source, destination, tag)` envelope, no
//! wildcards, non-overtaking — is a data structure that can be
//! model-checked in isolation: [`Mailbox`] holds the sequential tables,
//! [`LockFreeMailbox`] puts the lock-free router (per-rank rings, an
//! injector and a drain baton) in front of them, and the loom harness
//! (`tests/loom.rs`, built with `RUSTFLAGS="--cfg loom"`) drives the
//! router the production runtime posts through (`RtShared::post`) from
//! concurrent model threads under randomized schedules.
//!
//! The mailbox is generic over what a parked send (`S`) and a parked
//! receive (`R`) carry, so the model harness can instantiate it with
//! plain integers while the runtime stores payload handles and requests.

use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};

use crate::queue::{MpscQueue, Popped, SpscRing};
use crate::sync::{AtomicBool, AtomicUsize, Ordering};

/// Envelope key used for matching sends with receives — the front end's
/// [`Envelope`](ovcomm_simmpi::transport::Envelope), the same type the
/// simulator's matcher keys on.
pub use ovcomm_simmpi::transport::Envelope as RtKey;

/// Unique id of a mailbox slot (send side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub u64);

/// Outcome of posting a send.
#[must_use]
pub enum SendPost<S, R> {
    /// Matched the oldest posted receive on this envelope; the slot is
    /// handed back along with the matched receive entry.
    Matched {
        /// The send slot passed in (never entered the mailbox).
        send: S,
        /// The receive entry that had been waiting.
        recv: R,
    },
    /// No receive was waiting: the slot is parked under this id.
    Parked(SlotId),
}

/// Outcome of posting a receive.
#[must_use]
pub enum RecvPost<S, R> {
    /// Matched the oldest parked send on this envelope; the receive entry
    /// is handed back along with the matched send slot.
    Matched {
        /// The send slot that had been parked.
        send: S,
        /// The receive entry passed in (never entered the mailbox).
        recv: R,
    },
    /// No send was parked: the receive entry is queued.
    Parked,
}

/// FIFO matching tables for unmatched sends and receives.
///
/// Invariant: for any envelope key, at most one of the two queues is
/// non-empty — a post always drains the opposite queue's head before
/// parking. This is exactly MPI's non-overtaking guarantee, and the loom
/// harness asserts it holds under every explored schedule.
pub struct Mailbox<S, R> {
    /// FIFO of unmatched send slot ids per envelope.
    send_q: HashMap<RtKey, VecDeque<SlotId>>,
    /// FIFO of unmatched receives per envelope.
    recv_q: HashMap<RtKey, VecDeque<R>>,
    /// All live send slots.
    slots: HashMap<SlotId, S>,
    next_slot_id: u64,
}

impl<S, R> Default for Mailbox<S, R> {
    fn default() -> Self {
        Mailbox {
            send_q: HashMap::new(),
            recv_q: HashMap::new(),
            slots: HashMap::new(),
            next_slot_id: 0,
        }
    }
}

impl<S, R> Mailbox<S, R> {
    /// An empty mailbox.
    pub fn new() -> Mailbox<S, R> {
        Mailbox::default()
    }

    /// Post a send: match the oldest waiting receive on `key`, or park
    /// `slot` in FIFO order.
    pub fn post_send(&mut self, key: RtKey, slot: S) -> SendPost<S, R> {
        if let Some(recv) = self.recv_q.get_mut(&key).and_then(|q| q.pop_front()) {
            return SendPost::Matched { send: slot, recv };
        }
        let id = SlotId(self.next_slot_id);
        self.next_slot_id += 1;
        self.slots.insert(id, slot);
        self.send_q.entry(key).or_default().push_back(id);
        SendPost::Parked(id)
    }

    /// Post a receive: match the oldest parked send on `key`, or queue
    /// `entry` in FIFO order.
    pub fn post_recv(&mut self, key: RtKey, entry: R) -> RecvPost<S, R> {
        if let Some(send) = self
            .send_q
            .get_mut(&key)
            .and_then(|q| q.pop_front())
            .and_then(|id| self.slots.remove(&id))
        {
            return RecvPost::Matched { send, recv: entry };
        }
        self.recv_q.entry(key).or_default().push_back(entry);
        RecvPost::Parked
    }

    /// Unmatched sends currently parked (the sampler's
    /// `rt.sampler.mailbox_slots` gauge).
    pub fn unmatched_sends(&self) -> usize {
        self.slots.len()
    }

    /// Unmatched receives currently queued (the sampler's
    /// `rt.sampler.posted_recvs` gauge).
    pub fn posted_recvs(&self) -> usize {
        self.recv_q.values().map(|q| q.len()).sum()
    }

    /// True when nothing is parked on either side — every posted operation
    /// has matched.
    pub fn is_drained(&self) -> bool {
        self.slots.is_empty() && self.posted_recvs() == 0
    }
}

/// One posted operation in flight between a posting thread and the
/// matcher.
pub enum PostedOp<S, R> {
    /// A send and its parked payload slot.
    Send {
        /// Envelope.
        key: RtKey,
        /// The send-side slot (payload handle + request on the runtime).
        slot: S,
    },
    /// A posted receive.
    Recv {
        /// Envelope.
        key: RtKey,
        /// The receive-side entry (request + post time on the runtime).
        entry: R,
    },
}

/// A matched send/receive pair handed back by the lock-free router, for
/// the caller to complete outside the matcher's critical section.
pub struct MatchPair<S, R> {
    /// The envelope both sides agreed on.
    pub key: RtKey,
    /// The send slot.
    pub send: S,
    /// The receive entry.
    pub recv: R,
}

/// Yield inside retry loops. Under loom this must be the model's yield so
/// the scheduler treats it as a preemption point; on real threads it is a
/// plain `sched_yield`, which matters on machines with fewer cores than
/// runnable threads (the peer we are waiting on needs the CPU).
fn backoff() {
    #[cfg(loom)]
    loom::thread::yield_now();
    #[cfg(not(loom))]
    std::thread::yield_now();
}

/// Lock-free front end over the sequential [`Mailbox`] state machine.
///
/// Posting threads never block on a lock. Each *rank thread* owns one
/// bounded [`SpscRing`] (indexed by its world rank); progress-pool
/// workers — dynamic, short-lived identities — share one [`MpscQueue`]
/// injector. Whichever poster finds the **drain baton** (`draining`)
/// free becomes the matcher: it drains every queue through the sequential
/// tables and hands matched pairs back to the caller. A poster that finds
/// the baton taken simply leaves — the holder is obligated to re-check
/// the queues *after* releasing the baton, so no enqueued operation is
/// ever stranded:
///
/// * the poster enqueues (queue non-emptiness becomes visible), *then*
///   tries the baton CAS;
/// * if the CAS fails, the current holder's release store precedes the
///   `true` this CAS read — so the holder's post-release re-check either
///   sees the enqueued op (and re-drains) or another poster took the
///   baton in between, to which the same obligation passes inductively.
///
/// FIFO per envelope is preserved because each envelope's posts originate
/// from exactly one posting thread (ring order) or one logical op stream,
/// and the matcher applies each queue in order.
pub struct LockFreeMailbox<S, R> {
    /// `rings[r]` is produced only by rank thread `r`.
    rings: Vec<SpscRing<PostedOp<S, R>>>,
    /// Injector for non-rank posting threads (progress workers).
    inbox: MpscQueue<PostedOp<S, R>>,
    /// The drain baton: true while some thread is matching.
    draining: AtomicBool,
    /// Sequential matching tables; touched only while holding the baton.
    tables: UnsafeCell<Mailbox<S, R>>,
    /// Gauge mirrors maintained by the matcher, so the sampler reads the
    /// queue depths without touching the baton.
    unmatched_sends: AtomicUsize,
    posted_recvs: AtomicUsize,
}

// Safety: `tables` is only accessed while holding the `draining` baton
// (acquired/released with SeqCst RMWs, which order those accesses); the
// rings and inbox carry their own contracts.
unsafe impl<S: Send, R: Send> Send for LockFreeMailbox<S, R> {}
unsafe impl<S: Send, R: Send> Sync for LockFreeMailbox<S, R> {}

impl<S, R> LockFreeMailbox<S, R> {
    /// A router with one ring per rank thread, each `ring_capacity` deep.
    pub fn new(nranks: usize, ring_capacity: usize) -> LockFreeMailbox<S, R> {
        LockFreeMailbox {
            rings: (0..nranks).map(|_| SpscRing::new(ring_capacity)).collect(),
            inbox: MpscQueue::new(),
            draining: AtomicBool::new(false),
            tables: UnsafeCell::new(Mailbox::new()),
            unmatched_sends: AtomicUsize::new(0),
            posted_recvs: AtomicUsize::new(0),
        }
    }

    /// Post an operation and opportunistically match. Matched pairs are
    /// appended to `out` — possibly pairs posted by *other* threads whose
    /// drain we picked up; the caller completes them all identically.
    ///
    /// `producer`: `Some(r)` when the calling thread is rank thread `r`
    /// (uses its ring); `None` for any other thread (uses the injector).
    ///
    /// # Safety
    ///
    /// For `producer = Some(r)`: only rank thread `r` may ever pass `r`,
    /// upholding the ring's single-producer contract.
    pub unsafe fn post(
        &self,
        producer: Option<usize>,
        op: PostedOp<S, R>,
        out: &mut Vec<MatchPair<S, R>>,
    ) {
        match producer {
            Some(r) => {
                let mut op = op;
                // Safety: caller guarantees we are the only producer of
                // ring `r`.
                while let Err(back) = unsafe { self.rings[r].try_push(op) } {
                    op = back;
                    // Ring full: drain (or let the current matcher run)
                    // until a slot frees up.
                    self.poke(out);
                    backoff();
                }
            }
            None => self.inbox.push(op),
        }
        self.poke(out);
    }

    /// Try to become the matcher and drain every queue; no-op if another
    /// thread holds the baton (it will pick our work up — see the type
    /// docs for the no-strand argument).
    pub fn poke(&self, out: &mut Vec<MatchPair<S, R>>) {
        loop {
            if self
                .draining
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return;
            }
            self.drain_holding_baton(out);
            self.draining.store(false, Ordering::SeqCst);
            // The release obligation: anything enqueued while we held the
            // baton (whose poster's CAS failed against us) must not be
            // stranded. If the queues are quiet we are done; otherwise
            // loop and try to re-take the baton.
            if !self.has_pending() {
                return;
            }
            // Pending work can also mean a producer parked mid-push
            // (MPSC inconsistency window); yield so it can finish on
            // machines with fewer cores than threads.
            backoff();
        }
    }

    /// Drain rings then inbox through the sequential tables. Must hold
    /// the baton.
    fn drain_holding_baton(&self, out: &mut Vec<MatchPair<S, R>>) {
        // Safety: the `draining` baton makes us the unique consumer of
        // every queue and the unique accessor of `tables` right now.
        let tables = unsafe { &mut *self.tables.get() };
        for ring in &self.rings {
            // Safety: baton held — unique consumer.
            while let Some(op) = unsafe { ring.pop() } {
                Self::apply(tables, op, out);
            }
        }
        // On `Empty` — or a producer's mid-push window (`Inconsistent`) —
        // stop rather than spin while holding the baton; the post-release
        // re-check picks up anything that lands.
        // Safety: baton held — unique consumer.
        while let Popped::Item(op) = unsafe { self.inbox.pop() } {
            Self::apply(tables, op, out);
        }
        self.unmatched_sends
            .store(tables.unmatched_sends(), Ordering::SeqCst);
        self.posted_recvs
            .store(tables.posted_recvs(), Ordering::SeqCst);
    }

    fn apply(tables: &mut Mailbox<S, R>, op: PostedOp<S, R>, out: &mut Vec<MatchPair<S, R>>) {
        match op {
            PostedOp::Send { key, slot } => match tables.post_send(key, slot) {
                SendPost::Matched { send, recv } => out.push(MatchPair { key, send, recv }),
                SendPost::Parked(_) => {}
            },
            PostedOp::Recv { key, entry } => match tables.post_recv(key, entry) {
                RecvPost::Matched { send, recv } => out.push(MatchPair { key, send, recv }),
                RecvPost::Parked => {}
            },
        }
    }

    /// Any operation enqueued (or mid-push) and not yet drained?
    fn has_pending(&self) -> bool {
        self.inbox.has_pending() || self.rings.iter().any(|r| !r.is_empty())
    }

    /// Unmatched parked sends (sampler gauge; matcher-maintained mirror).
    pub fn unmatched_sends(&self) -> usize {
        self.unmatched_sends.load(Ordering::SeqCst)
    }

    /// Unmatched posted receives (sampler gauge; matcher-maintained
    /// mirror).
    pub fn posted_recvs(&self) -> usize {
        self.posted_recvs.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> RtKey {
        RtKey {
            ctx: 0,
            src: 0,
            dst: 1,
            tag,
        }
    }

    #[test]
    fn send_then_recv_matches_in_fifo_order() {
        let mut mb: Mailbox<u32, u32> = Mailbox::new();
        assert!(matches!(mb.post_send(key(7), 10), SendPost::Parked(_)));
        assert!(matches!(mb.post_send(key(7), 11), SendPost::Parked(_)));
        assert_eq!(mb.unmatched_sends(), 2);
        match mb.post_recv(key(7), 0) {
            RecvPost::Matched { send, .. } => assert_eq!(send, 10),
            RecvPost::Parked => panic!("first recv must match the oldest send"),
        }
        match mb.post_recv(key(7), 1) {
            RecvPost::Matched { send, .. } => assert_eq!(send, 11),
            RecvPost::Parked => panic!("second recv must match the newer send"),
        }
        assert!(mb.is_drained());
    }

    #[test]
    fn recv_then_send_matches_in_fifo_order() {
        let mut mb: Mailbox<u32, u32> = Mailbox::new();
        assert!(matches!(mb.post_recv(key(3), 20), RecvPost::Parked));
        assert!(matches!(mb.post_recv(key(3), 21), RecvPost::Parked));
        assert_eq!(mb.posted_recvs(), 2);
        match mb.post_send(key(3), 0) {
            SendPost::Matched { recv, .. } => assert_eq!(recv, 20),
            SendPost::Parked(_) => panic!("send must match the oldest recv"),
        }
        match mb.post_send(key(3), 1) {
            SendPost::Matched { recv, .. } => assert_eq!(recv, 21),
            SendPost::Parked(_) => panic!("send must match the newer recv"),
        }
        assert!(mb.is_drained());
    }

    #[test]
    fn distinct_envelopes_never_cross_match() {
        let mut mb: Mailbox<u32, u32> = Mailbox::new();
        assert!(matches!(mb.post_send(key(1), 1), SendPost::Parked(_)));
        // Different tag: must park, not steal the tag-1 slot.
        assert!(matches!(mb.post_recv(key(2), 2), RecvPost::Parked));
        // Different src: also disjoint.
        let other_src = RtKey {
            ctx: 0,
            src: 5,
            dst: 1,
            tag: 1,
        };
        assert!(matches!(mb.post_recv(other_src, 3), RecvPost::Parked));
        assert_eq!(mb.unmatched_sends(), 1);
        assert_eq!(mb.posted_recvs(), 2);
    }

    #[test]
    fn lockfree_router_matches_across_ring_and_inbox() {
        let lf: LockFreeMailbox<u32, u32> = LockFreeMailbox::new(2, 4);
        let mut out = Vec::new();
        // Rank thread 0 posts two sends through its ring...
        // Safety: this test thread is the only producer of every ring.
        unsafe {
            lf.post(
                Some(0),
                PostedOp::Send {
                    key: key(7),
                    slot: 10,
                },
                &mut out,
            );
            lf.post(
                Some(0),
                PostedOp::Send {
                    key: key(7),
                    slot: 11,
                },
                &mut out,
            );
        }
        assert!(out.is_empty());
        assert_eq!(lf.unmatched_sends(), 2);
        // ...and a progress worker posts the receives via the injector.
        unsafe {
            lf.post(
                None,
                PostedOp::Recv {
                    key: key(7),
                    entry: 0,
                },
                &mut out,
            );
            lf.post(
                None,
                PostedOp::Recv {
                    key: key(7),
                    entry: 1,
                },
                &mut out,
            );
        }
        let sends: Vec<u32> = out.iter().map(|m| m.send).collect();
        assert_eq!(sends, vec![10, 11], "FIFO must hold across queue kinds");
        assert_eq!(lf.unmatched_sends(), 0);
        assert_eq!(lf.posted_recvs(), 0);
    }

    #[test]
    fn lockfree_router_drains_a_full_ring_instead_of_dropping() {
        let lf: LockFreeMailbox<u32, u32> = LockFreeMailbox::new(1, 2);
        let mut out = Vec::new();
        // Capacity rounds to 2; push four sends — the ring must recycle
        // via self-drain, never lose an op.
        // Safety: single-threaded test.
        unsafe {
            for i in 0..4 {
                lf.post(
                    Some(0),
                    PostedOp::Send {
                        key: key(1),
                        slot: i,
                    },
                    &mut out,
                );
            }
            for i in 0..4 {
                lf.post(
                    None,
                    PostedOp::Recv {
                        key: key(1),
                        entry: i,
                    },
                    &mut out,
                );
            }
        }
        let sends: Vec<u32> = out.iter().map(|m| m.send).collect();
        assert_eq!(sends, vec![0, 1, 2, 3]);
    }
}
