//! Shared MPI library state: message matching ([`MpiState`],
//! simulator-only), and the communicator-context and split
//! registries ([`CommRegistry`], shared by both backends through
//! `CommEnv`).
//!
//! All `MpiState` mutations happen under the single state lock, from engine
//! callbacks (message injection, arrival, pairing). Matching is the shared
//! [`Mailbox`] — the runtime locks the same one — so two
//! messages on one `(context, source, destination, tag)` envelope can
//! never pass each other. What is left here is the simulator's own half:
//! an eager message's data travels in its flow, and whichever of the
//! landed data and the matched receive comes second delivers it.

use std::sync::Arc;

use ovcomm_simnet::SimTime;
use ovcomm_verify::ReqId;
use rustc_hash::FxHashMap;

use crate::mailbox::Mailbox;
use crate::payload::Payload;
use crate::request::Request;

/// What the mailbox parks for an unmatched send.
pub(crate) enum SimSend {
    /// An eager message: its data is already in flight (or landed), keyed
    /// by `id` in [`MpiState::eager`]; its request completed at post time,
    /// so only the sender's verify id is kept, for the match record.
    Eager { id: u64, sender: Option<ReqId> },
    /// A rendezvous send: no byte moves until a receive matches it.
    Rendezvous {
        payload: Payload,
        sender_req: Request<()>,
    },
}

/// The half of an eager message that came first; the second delivers it.
pub(crate) enum EagerHalf {
    /// The data landed before any receive matched the send.
    Data(Payload),
    /// A receive matched the send before its data landed.
    Recv(Request<Payload>),
}

/// The global (per-Universe) MPI state.
#[derive(Default)]
pub(crate) struct MpiState {
    /// Unmatched sends and receives, FIFO per envelope.
    pub mailbox: Mailbox<SimSend, Request<Payload>>,
    /// Eager messages with exactly one of their two halves here.
    pub eager: FxHashMap<u64, EagerHalf>,
    pub next_eager: u64,
}

/// The communicator registry of one run: context allocation and the
/// in-progress `split` rendezvous. One instance per run, on either
/// backend, so every rank agrees on context ids.
pub(crate) struct CommRegistry {
    /// Communicator context allocation: (parent ctx, per-rank dup/split
    /// sequence) → child ctx. All ranks of a communicator call dup/split in
    /// the same order, so the key is rank-independent.
    ctx_registry: FxHashMap<(u32, u64), u32>,
    next_ctx: u32,
    /// In-progress `split` rendezvous, keyed by (parent ctx, split seq).
    pub splits: FxHashMap<(u32, u64), SplitGather>,
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

impl CommRegistry {
    /// An empty registry whose first allocated context is `first_ctx`.
    pub fn new(first_ctx: u32) -> CommRegistry {
        CommRegistry {
            ctx_registry: FxHashMap::default(),
            next_ctx: first_ctx,
            splits: FxHashMap::default(),
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
