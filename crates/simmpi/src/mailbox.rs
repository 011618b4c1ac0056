//! The envelope-matching mailbox: MPI point-to-point matching as a pure
//! state machine, the one matcher of both backends.
//!
//! The *matching discipline* — FIFO per `(context, source, destination,
//! tag)` [`Envelope`], no wildcards, non-overtaking — is a data structure
//! here, so it can be model-checked in isolation. Only who drives it
//! differs per backend: the simulator posts into it from engine callbacks
//! under its state lock (`p2p`), and `ovcomm-rt` posts into it from its
//! rank threads under a mutex of its own, whose loom harness
//! drives it from concurrent model threads under randomized schedules.
//!
//! The mailbox is generic over what a parked send (`S`) and a parked
//! receive (`R`) carry, so the model harness can instantiate it with
//! plain integers while the backends store payloads and requests.
//!
//! Exposed (hidden) for `ovcomm-rt`, which re-exports it as
//! `ovcomm_rt::mailbox`.

use std::collections::VecDeque;

use rustc_hash::FxHashMap;

use crate::transport::Envelope;

/// Sequence number of a parked send, in post order across all envelopes.
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
    /// No receive was waiting: the slot is parked; this is its sequence
    /// number.
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
///
/// An envelope's entry leaves its table when a pop empties its queue, so
/// the tables hold only parked work. Collective wire tags carry a sequence
/// number and most envelopes carry one message, so entries kept once
/// empty would grow by one per message for the whole run. The gauges read
/// two running counts instead of walking the tables.
pub struct Mailbox<S, R> {
    /// FIFO of unmatched sends per envelope.
    send_q: FxHashMap<Envelope, VecDeque<S>>,
    /// FIFO of unmatched receives per envelope.
    recv_q: FxHashMap<Envelope, VecDeque<R>>,
    /// Sends parked across all envelopes.
    parked_sends: usize,
    /// Receives parked across all envelopes.
    parked_recvs: usize,
    next_slot_id: u64,
}

impl<S, R> Default for Mailbox<S, R> {
    fn default() -> Self {
        Mailbox {
            send_q: FxHashMap::default(),
            recv_q: FxHashMap::default(),
            parked_sends: 0,
            parked_recvs: 0,
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
    pub fn post_send(&mut self, key: Envelope, slot: S) -> SendPost<S, R> {
        if let Some(recv) = pop_front(&mut self.recv_q, &key) {
            self.parked_recvs -= 1;
            return SendPost::Matched { send: slot, recv };
        }
        let id = SlotId(self.next_slot_id);
        self.next_slot_id += 1;
        self.send_q.entry(key).or_default().push_back(slot);
        self.parked_sends += 1;
        SendPost::Parked(id)
    }

    /// Post a receive: match the oldest parked send on `key`, or queue
    /// `entry` in FIFO order.
    pub fn post_recv(&mut self, key: Envelope, entry: R) -> RecvPost<S, R> {
        if let Some(send) = pop_front(&mut self.send_q, &key) {
            self.parked_sends -= 1;
            return RecvPost::Matched { send, recv: entry };
        }
        self.recv_q.entry(key).or_default().push_back(entry);
        self.parked_recvs += 1;
        RecvPost::Parked
    }

    /// Unmatched sends currently parked (the sampler's
    /// `rt.sampler.mailbox_slots` gauge).
    pub fn unmatched_sends(&self) -> usize {
        self.parked_sends
    }

    /// Unmatched receives currently queued (the sampler's
    /// `rt.sampler.posted_recvs` gauge).
    pub fn posted_recvs(&self) -> usize {
        self.parked_recvs
    }

    /// True when nothing is parked on either side — every posted operation
    /// has matched.
    pub fn is_drained(&self) -> bool {
        self.parked_sends == 0 && self.parked_recvs == 0
    }

    /// Envelopes with an entry in either table.
    #[cfg(test)]
    fn envelopes(&self) -> usize {
        self.send_q.len() + self.recv_q.len()
    }
}

/// Pop the head of `key`'s queue, removing the entry once it is empty.
// Not `entry`: its miss path reserves room for an insert that never comes.
fn pop_front<T>(table: &mut FxHashMap<Envelope, VecDeque<T>>, key: &Envelope) -> Option<T> {
    let q = table.get_mut(key)?;
    let head = q.pop_front();
    if q.is_empty() {
        table.remove(key);
    }
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> Envelope {
        Envelope {
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
        let other_src = Envelope {
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
    fn counts_track_posts_and_matches_across_envelopes() {
        // After every post the counts must equal a walk of every queue.
        let check = |mb: &Mailbox<u64, u64>| {
            let sends: usize = mb.send_q.values().map(VecDeque::len).sum();
            let recvs: usize = mb.recv_q.values().map(VecDeque::len).sum();
            assert_eq!((mb.unmatched_sends(), mb.posted_recvs()), (sends, recvs));
            assert_eq!(mb.is_drained(), sends + recvs == 0);
            // Only envelopes with parked work keep an entry.
            let parked = mb.send_q.values().chain(mb.recv_q.values());
            assert!(parked.clone().all(|q| !q.is_empty()));
            assert_eq!(mb.envelopes(), parked.count());
        };
        let post = |mb: &mut Mailbox<u64, u64>, tag: u64, send: bool| {
            let matched = if send {
                matches!(mb.post_send(key(tag), tag), SendPost::Matched { .. })
            } else {
                matches!(mb.post_recv(key(tag), tag), RecvPost::Matched { .. })
            };
            check(mb);
            matched
        };
        let mut mb: Mailbox<u64, u64> = Mailbox::new();
        // 40 envelopes, sends first on even tags and receives first on odd
        // ones; each of the 14 multiples of 3 (7 even) leaves one parked.
        for round in 1..=3 {
            for tag in 0..40u64 {
                for _ in 0..2 + usize::from(tag % 3 == 0) {
                    assert!(!post(&mut mb, tag, tag % 2 == 0));
                }
                for _ in 0..2 {
                    assert!(post(&mut mb, tag, tag % 2 == 1));
                }
                // Drained envelopes leave no entry behind.
                let touched = if round == 1 { tag + 1 } else { 40 };
                assert_eq!(mb.envelopes(), (0..touched).filter(|t| t % 3 == 0).count());
            }
            assert_eq!(
                (mb.unmatched_sends(), mb.posted_recvs()),
                (7 * round, 7 * round)
            );
        }
        for tag in (0..40u64).filter(|t| t % 3 == 0) {
            for _ in 0..3 {
                assert!(post(&mut mb, tag, tag % 2 == 1));
            }
        }
        assert!(mb.is_drained());
        assert_eq!(mb.envelopes(), 0);
    }
}
