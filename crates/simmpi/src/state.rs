//! Shared MPI library state: message matching ([`MpiState`],
//! simulator-only), and the communicator-context and split
//! registries ([`CommRegistry`], shared by both backends through
//! `CommEnv`).
//!
//! All `MpiState` mutations happen under the single state lock, from engine
//! callbacks (message injection, arrival, pairing). Matching follows MPI's
//! non-overtaking rule per `(context, source, destination, tag)` key:
//! entries are FIFO queues, so two messages on the same envelope can never
//! pass each other.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ovcomm_simnet::SimTime;

use crate::payload::Payload;
use crate::request::Request;
use crate::transport::Envelope;

/// Unique id for an in-flight message (send side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MsgId(pub u64);

/// Send-side protocol state of a message slot.
pub(crate) enum SlotState {
    /// Eager message whose data flow is still in the network.
    EagerInFlight,
    /// Eager message fully arrived in the receiver's internal buffer.
    EagerArrived,
    /// Rendezvous send posted and waiting for the matching receive.
    Rendezvous,
}

/// One posted send awaiting (or bound to) a matching receive.
pub(crate) struct SendSlot {
    pub state: SlotState,
    pub payload: Payload,
    /// Sender's request — already complete for eager sends (buffered),
    /// completed at transfer end for rendezvous.
    pub sender_req: Request<()>,
    /// Receive request bound to this slot by the matcher, when the data has
    /// not yet arrived (eager) or not yet been transferred (rendezvous).
    pub bound_recv: Option<Request<Payload>>,
}

/// The global (per-Universe) MPI state.
#[derive(Default)]
pub(crate) struct MpiState {
    /// FIFO of unmatched send slots per envelope.
    pub send_q: HashMap<Envelope, VecDeque<MsgId>>,
    /// FIFO of unmatched receives per envelope.
    pub recv_q: HashMap<Envelope, VecDeque<Request<Payload>>>,
    /// All live send slots.
    pub slots: HashMap<MsgId, SendSlot>,
    pub next_msg_id: u64,
}

/// The communicator registry of one run: context allocation and the
/// in-progress `split` rendezvous. One instance per run, on either
/// backend, so every rank agrees on context ids.
pub(crate) struct CommRegistry {
    /// Communicator context allocation: (parent ctx, per-rank dup/split
    /// sequence) → child ctx. All ranks of a communicator call dup/split in
    /// the same order, so the key is rank-independent.
    ctx_registry: HashMap<(u32, u64), u32>,
    next_ctx: u32,
    /// In-progress `split` rendezvous, keyed by (parent ctx, split seq).
    pub splits: HashMap<(u32, u64), SplitGather>,
}

/// Accumulates `split` participants until the whole communicator has called.
#[derive(Default)]
pub(crate) struct SplitGather {
    /// (comm rank, color, key) triples deposited so far.
    pub entries: Vec<(usize, i64, u64)>,
    /// Latest deposit clock — the completion time of the split.
    pub latest: SimTime,
    /// One request per depositor, completed with the shared result by the
    /// last one.
    pub waiters: Vec<Request<Arc<SplitResult>>>,
}

/// Outcome of a completed split, shared by all participants.
pub(crate) struct SplitResult {
    /// For each color (in ascending order): assigned child ctx id and the
    /// parent-comm ranks that belong to it, ordered by (key, parent rank).
    pub groups: Vec<(i64, u32, Vec<usize>)>,
    /// Time at which the split completed (the latest deposit clock).
    pub at: SimTime,
}

impl MpiState {
    pub fn alloc_msg_id(&mut self) -> MsgId {
        let id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;
        id
    }
}

impl CommRegistry {
    /// An empty registry whose first allocated context is `first_ctx`.
    pub fn new(first_ctx: u32) -> CommRegistry {
        CommRegistry {
            ctx_registry: HashMap::new(),
            next_ctx: first_ctx,
            splits: HashMap::new(),
        }
    }

    /// Allocate (or look up) a child context for `(parent, seq)`.
    pub fn child_ctx(&mut self, parent: u32, seq: u64) -> u32 {
        if let Some(&c) = self.ctx_registry.get(&(parent, seq)) {
            return c;
        }
        let c = self.next_ctx;
        self.next_ctx += 1;
        self.ctx_registry.insert((parent, seq), c);
        c
    }
}

impl SplitResult {
    /// Compute groups from deposited entries: group by color (ascending,
    /// dropping negative colors = "undefined"), order members by (key,
    /// parent rank), and assign each group a fresh ctx.
    pub fn compute(
        entries: &[(usize, i64, u64)],
        at: SimTime,
        mut alloc_ctx: impl FnMut() -> u32,
    ) -> SplitResult {
        let mut by_color: Vec<(i64, Vec<(u64, usize)>)> = Vec::new();
        let mut colors: Vec<i64> = entries
            .iter()
            .map(|&(_, c, _)| c)
            .filter(|&c| c >= 0)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        for color in colors {
            let mut members: Vec<(u64, usize)> = entries
                .iter()
                .filter(|&&(_, c, _)| c == color)
                .map(|&(r, _, k)| (k, r))
                .collect();
            members.sort_unstable();
            by_color.push((color, members));
        }
        SplitResult {
            groups: by_color
                .into_iter()
                .map(|(color, members)| {
                    (
                        color,
                        alloc_ctx(),
                        members.into_iter().map(|(_, r)| r).collect(),
                    )
                })
                .collect(),
            at,
        }
    }

    /// Find the group containing parent-comm rank `r`, if any.
    pub fn group_of(&self, r: usize) -> Option<(u32, &[usize])> {
        self.groups
            .iter()
            .find(|(_, _, members)| members.contains(&r))
            .map(|(_, ctx, members)| (*ctx, members.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        // ranks 0..6, colors 1/0 alternating, keys descending to test
        // key-based ordering within a group.
        let entries = vec![
            (0usize, 1i64, 5u64),
            (1, 0, 4),
            (2, 1, 3),
            (3, 0, 2),
            (4, 1, 1),
            (5, -1, 0), // undefined color: excluded
        ];
        let mut next = 100;
        let res = SplitResult::compute(&entries, SimTime(9), || {
            next += 1;
            next
        });
        assert_eq!(res.groups.len(), 2);
        // color 0 first
        assert_eq!(res.groups[0].0, 0);
        assert_eq!(res.groups[0].2, vec![3, 1]); // key 2 before key 4
        assert_eq!(res.groups[1].0, 1);
        assert_eq!(res.groups[1].2, vec![4, 2, 0]);
        assert!(res.group_of(5).is_none());
        let (ctx, members) = res.group_of(2).unwrap();
        assert_eq!(ctx, res.groups[1].1);
        assert_eq!(members, &[4, 2, 0]);
    }

    #[test]
    fn ctx_registry_is_idempotent() {
        let mut st = CommRegistry::new(1);
        let a = st.child_ctx(0, 3);
        let b = st.child_ctx(0, 3);
        let c = st.child_ctx(0, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
