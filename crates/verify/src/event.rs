//! The verification event model.
//!
//! The simulator (ovcomm-simmpi) records one [`Event`] per interesting
//! action — communicator creation, collective calls, point-to-point posts,
//! matches, waits, tests, request drops — with the shared
//! [`crate::Verifier`], which folds it at once into the live state its
//! analyses read; no log is kept. Recording is wall-clock bookkeeping
//! only, so it never perturbs virtual time.
//!
//! Event identities:
//!
//! * `agent` is the engine actor id of the recording execution context
//!   (rank threads use their world rank; nonblocking-collective progress
//!   actors use high-bit-tagged ids).
//! * `rank` is always the world rank the agent acts for.
//! * `ctx` is the communicator context id (the matching namespace).
//! * `req` identifies a tracked request; ids are minted by
//!   [`crate::Verifier::next_req_id`] and are unique within a run.

use std::sync::Arc;

/// Unique id of a tracked request within one run.
pub type ReqId = u64;

/// Engine actor id (world rank for rank agents, high-bit-tagged for
/// operation agents).
pub type AgentId = u32;

/// A call site captured via `#[track_caller]`.
pub type Site = &'static std::panic::Location<'static>;

/// Tag bit marking internal (collective-implementation) messages.
pub const INTERNAL_TAG_BIT: u64 = 1 << 63;

/// Collective operation kinds, including the communicator-management calls
/// that MPI requires every member to issue in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollKind {
    /// Broadcast.
    Bcast,
    /// Reduction to a root.
    Reduce,
    /// All-reduce.
    Allreduce,
    /// Barrier.
    Barrier,
    /// Scatter from a root.
    Scatter,
    /// Gather to a root.
    Gather,
    /// All-gather.
    Allgather,
    /// Communicator duplication (local bookkeeping in the simulator, but
    /// order-sensitive like `MPI_Comm_dup`).
    Dup,
    /// Communicator split (synchronizing, like `MPI_Comm_split`).
    Split,
}

impl CollKind {
    /// MPI-style display name; `blocking == false` selects the `I`-form.
    pub fn name(self, blocking: bool) -> &'static str {
        match (self, blocking) {
            (CollKind::Bcast, true) => "MPI_Bcast",
            (CollKind::Bcast, false) => "MPI_Ibcast",
            (CollKind::Reduce, true) => "MPI_Reduce",
            (CollKind::Reduce, false) => "MPI_Ireduce",
            (CollKind::Allreduce, true) => "MPI_Allreduce",
            (CollKind::Allreduce, false) => "MPI_Iallreduce",
            (CollKind::Barrier, true) => "MPI_Barrier",
            (CollKind::Barrier, false) => "MPI_Ibarrier",
            (CollKind::Scatter, _) => "MPI_Scatter",
            (CollKind::Gather, _) => "MPI_Gather",
            (CollKind::Allgather, _) => "MPI_Allgather",
            (CollKind::Dup, _) => "MPI_Comm_dup",
            (CollKind::Split, _) => "MPI_Comm_split",
        }
    }
}

/// One-sided (RMA) operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RmaKind {
    /// Origin writes into the target's window segment.
    Put,
    /// Origin reads from the target's window segment.
    Get,
    /// Origin element-wise adds into the target's window segment.
    Accumulate,
}

impl RmaKind {
    /// MPI-style display name (the request-returning `R`-forms, which is
    /// what the `Win` API models).
    pub fn name(self) -> &'static str {
        match self {
            RmaKind::Put => "MPI_Rput",
            RmaKind::Get => "MPI_Rget",
            RmaKind::Accumulate => "MPI_Raccumulate",
        }
    }
}

/// One entry of the verification log.
#[derive(Debug, Clone)]
pub enum Event {
    /// A communicator context came into existence on some rank. Emitted by
    /// every member; the analyzer deduplicates.
    CommDecl {
        /// Context id.
        ctx: u32,
        /// Member world ranks in communicator order.
        members: Arc<Vec<u32>>,
    },
    /// A collective call was issued (blocking or nonblocking, including
    /// `dup`/`split`). Recorded on the calling rank thread at post time, so
    /// per-(rank, ctx) event order is program order.
    Coll {
        /// World rank.
        rank: u32,
        /// Communicator context the collective runs on (the parent for
        /// `dup`/`split`).
        ctx: u32,
        /// Which collective.
        kind: CollKind,
        /// Communicator-relative root, where applicable.
        root: Option<u32>,
        /// Payload length in bytes (0 for barrier/dup/split).
        len: usize,
        /// Blocking form?
        blocking: bool,
        /// Tracked request of the nonblocking form.
        req: Option<ReqId>,
        /// User call site.
        site: Option<Site>,
    },
    /// A send was posted.
    SendPost {
        /// Posting agent (rank thread or collective progress actor).
        agent: AgentId,
        /// World rank of the sender.
        rank: u32,
        /// Context id.
        ctx: u32,
        /// Destination world rank.
        dst: u32,
        /// Full matching tag (bit 63 marks internal collective traffic).
        tag: u64,
        /// Message size.
        bytes: usize,
        /// Collective-internal message?
        internal: bool,
        /// Tracked request.
        req: ReqId,
        /// Call site.
        site: Option<Site>,
    },
    /// A receive was posted.
    RecvPost {
        /// Posting agent.
        agent: AgentId,
        /// World rank of the receiver.
        rank: u32,
        /// Context id.
        ctx: u32,
        /// Source world rank.
        src: u32,
        /// Full matching tag.
        tag: u64,
        /// Collective-internal message?
        internal: bool,
        /// Tracked request.
        req: ReqId,
        /// Call site.
        site: Option<Site>,
    },
    /// The matching layer paired a send with a receive. Always recorded
    /// before either request completes.
    Match {
        /// The send request.
        send: ReqId,
        /// The receive request.
        recv: ReqId,
    },
    /// An agent finished an `MPI_Wait` on a request.
    WaitDone {
        /// Waiting agent.
        agent: AgentId,
        /// The request.
        req: ReqId,
    },
    /// An `MPI_Test` observed a request complete (unsuccessful polls are
    /// not recorded).
    TestObserved {
        /// Testing agent.
        agent: AgentId,
        /// The request.
        req: ReqId,
    },
    /// The last handle to a tracked request was dropped.
    ReqDropped {
        /// The request.
        req: ReqId,
        /// Had it completed by then?
        completed: bool,
    },
    /// A one-sided window came into existence on some rank (`win_create`
    /// is collective). Emitted by every member.
    WinDecl {
        /// World rank.
        rank: u32,
        /// Window id, shared by every member's events for this window.
        win: u64,
        /// User call site of `win_create`.
        site: Option<Site>,
    },
    /// A rank completed an active-target `fence` on a window — the only
    /// synchronization point of the fence epoch model.
    WinFence {
        /// World rank.
        rank: u32,
        /// Window id.
        win: u64,
        /// User call site.
        site: Option<Site>,
    },
    /// A rank acquired a passive-target lock on `target`'s segment.
    WinLock {
        /// World rank of the origin.
        rank: u32,
        /// Window id.
        win: u64,
        /// Target world-ish (window) rank being locked.
        target: u32,
        /// User call site.
        site: Option<Site>,
    },
    /// A rank released a passive-target lock on `target`'s segment.
    WinUnlock {
        /// World rank of the origin.
        rank: u32,
        /// Window id.
        win: u64,
        /// Target window rank being unlocked.
        target: u32,
        /// User call site.
        site: Option<Site>,
    },
    /// A one-sided operation was posted by an origin rank. The target
    /// posts nothing — that is the point of the paradigm.
    RmaOp {
        /// Origin world rank.
        rank: u32,
        /// Window id.
        win: u64,
        /// Which one-sided operation.
        kind: RmaKind,
        /// Target window rank.
        target: u32,
        /// Byte offset into the target segment.
        offset: usize,
        /// Length in bytes.
        len: usize,
        /// Tracked request of data-returning forms (`get`); `None` for
        /// `put`/`accumulate`, which complete at the closing fence/unlock.
        req: Option<ReqId>,
        /// User call site.
        site: Option<Site>,
    },
    /// A rank freed its window handle (collective; closes the window).
    WinFree {
        /// World rank.
        rank: u32,
        /// Window id.
        win: u64,
        /// User call site.
        site: Option<Site>,
    },
    /// A rank's window handle was dropped. `freed == false` means the
    /// window leaked — dropped without `free` (the `Win` analogue of
    /// [`Event::ReqDropped`]).
    WinDropped {
        /// World rank whose handle dropped.
        rank: u32,
        /// Window id.
        win: u64,
        /// Was `free` called first?
        freed: bool,
    },
}
