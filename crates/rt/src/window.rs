//! One-sided (RMA) windows on the wall-clock runtime.
//!
//! The epoch/consistency contract is identical to the simulator's
//! (`ovcomm_simmpi::rma`, documented on `ovcomm_core::Window`): puts and
//! accumulates are *staged* at post time and applied only at the epoch
//! close (fence or unlock) in deterministic `(origin rank, post order)`
//! order, and gets read the committed (epoch-stable) segment state — so
//! kernel results are bit-identical across backends even for
//! non-associative `f64` accumulation. What differs is the transport:
//! segments live in process memory behind one mutex, a put *is* a memcpy
//! into the staging area, and an epoch close costs the apply loop plus
//! two barriers of real wall time.
//!
//! The cross-rank state machine — staging, apply ordering, and the FIFO
//! passive-target lock — is factored into [`WinCore`], generic over the
//! lock-grant handle and synchronized exclusively through [`crate::sync`]
//! primitives. Built with `RUSTFLAGS="--cfg loom"`, the loom suite
//! (`tests/loom.rs`) drives this exact type from concurrent model threads
//! and schedule-checks lock/unlock handoff and concurrent-accumulate
//! determinism. The [`RtWin`] wrapper around it (requests, verify events,
//! metrics, barriers) is production-only plumbing and is not on the
//! loom-checked path, so its private counters use plain `std` atomics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ovcomm_simmpi::payload::Payload;
use ovcomm_simmpi::rma::{apply_op, Seg};
use ovcomm_simmpi::transport::Transport;
use ovcomm_simmpi::Request;
use ovcomm_simnet::{EdgeKind, SpanKind};
use ovcomm_verify::{Event as VEvent, RmaKind, Site};

use crate::comm::RtComm;
use crate::shared::RtShared;
use crate::sync::Mutex;

/// One staged put/accumulate awaiting its epoch close — the simulator's
/// definition, shared with [`Seg`] and `apply_op` so both backends stage
/// and apply identically.
pub use ovcomm_simmpi::rma::StagedOp;

/// Virtual passive-target lock of one segment.
struct LockSt<G> {
    /// Window rank currently holding the lock.
    holder: Option<u32>,
    /// FIFO of waiting acquisitions: (window rank, grant handle).
    queue: VecDeque<(u32, G)>,
}

impl<G> Default for LockSt<G> {
    fn default() -> LockSt<G> {
        LockSt {
            holder: None,
            queue: VecDeque::new(),
        }
    }
}

struct WinState<G> {
    segs: Vec<Option<Seg>>,
    staged: Vec<Vec<StagedOp>>,
    locks: Vec<LockSt<G>>,
    /// Handles not yet freed; the last `free` removes the registry entry.
    live: usize,
}

/// The cross-rank state machine of one window: committed segments, the
/// staging area, and the FIFO passive-target locks, all under one
/// [`crate::sync::Mutex`] so the loom suite can schedule-check it.
///
/// Generic over the lock-grant handle `G`: the production runtime queues
/// `Request<()>` handles completed through the shared runtime
/// (watchdog-visible waits); the loom harness queues its own completion
/// cells. Grants are always handed back to the caller and completed
/// *outside* the state mutex — the same lock-then-complete-outside-lock
/// shape as the mailbox.
pub struct WinCore<G> {
    state: Mutex<WinState<G>>,
}

impl<G> WinCore<G> {
    /// A core spanning `p` ranks, with no segments deposited yet.
    pub fn new(p: usize) -> WinCore<G> {
        WinCore {
            state: Mutex::new(WinState {
                segs: (0..p).map(|_| None).collect(),
                staged: (0..p).map(|_| Vec::new()).collect(),
                locks: (0..p).map(|_| LockSt::default()).collect(),
                live: p,
            }),
        }
    }

    /// Deposit `rank`'s exposed segment (its committed initial contents).
    pub fn deposit(&self, rank: usize, local: &Payload) {
        self.state.lock().segs[rank] = Some(Seg::from_payload(local));
    }

    /// Byte length of `rank`'s exposed segment.
    pub fn segment_len(&self, rank: usize) -> usize {
        match &self.state.lock().segs[rank] {
            Some(s) => s.len(),
            None => panic!("window segment {rank} not deposited"),
        }
    }

    /// Snapshot `start..end` of `rank`'s *committed* segment state.
    pub fn snapshot(&self, rank: usize, start: usize, end: usize) -> Payload {
        match &self.state.lock().segs[rank] {
            Some(s) => s.snapshot(start, end),
            None => panic!("window segment {rank} not deposited"),
        }
    }

    /// Stage `op` against `target`'s segment (applied at epoch close).
    /// Bounds are checked now, so an out-of-range put fails at its post
    /// site rather than at a distant fence.
    pub fn stage(&self, target: usize, op: StagedOp) {
        let mut st = self.state.lock();
        let seg_len = match &st.segs[target] {
            Some(s) => s.len(),
            None => panic!("window segment {target} not deposited"),
        };
        let end = op.offset + op.data.len();
        assert!(
            end <= seg_len,
            "RMA op {}..{end} beyond segment {target} length {seg_len}",
            op.offset
        );
        st.staged[target].push(op);
    }

    /// Apply every staged op targeting `target`'s segment, in
    /// `(origin rank, post order)` order; returns total bytes applied.
    /// The fence's apply step: each rank calls it on its own segment
    /// between the two barriers.
    pub fn apply_target(&self, target: usize) -> usize {
        let mut st = self.state.lock();
        let mut ops = std::mem::take(&mut st.staged[target]);
        ops.sort_by_key(|o| (o.origin, o.seq));
        let seg = match &mut st.segs[target] {
            Some(s) => s,
            None => panic!("window segment {target} not deposited"),
        };
        let mut bytes = 0usize;
        for op in &ops {
            bytes += op.data.len();
            apply_op(seg, op);
        }
        bytes
    }

    /// Acquire the passive-target lock on `target` for window rank `me`,
    /// or join the FIFO queue with `grant`. Returns `true` when acquired
    /// immediately (the grant handle is dropped unused); on `false` the
    /// caller must wait on its own copy of the grant, which the holder's
    /// [`WinCore::unlock`] hands back for completion.
    pub fn lock_or_queue(&self, target: usize, me: u32, grant: G) -> bool {
        let mut st = self.state.lock();
        let l = &mut st.locks[target];
        if l.holder.is_none() {
            l.holder = Some(me);
            true
        } else {
            l.queue.push_back((me, grant));
            false
        }
    }

    /// Release the lock on `target` held by window rank `me`, first
    /// applying `me`'s staged ops to the segment (in post order — the
    /// lock serializes origins, so per-origin apply at unlock reproduces
    /// the serial order the lock imposed). Returns the bytes applied and,
    /// if another origin was queued, its `(rank, grant)` — the new holder;
    /// complete the grant *outside* this call. Releasing a lock `me` does
    /// not hold applies the ops but grants nothing (the double-unlock
    /// case, flagged by the verifier).
    pub fn unlock(&self, target: usize, me: u32) -> (usize, Option<(u32, G)>) {
        let mut st = self.state.lock();
        let mut ops: Vec<StagedOp> = Vec::new();
        let staged = &mut st.staged[target];
        let mut i = 0;
        while i < staged.len() {
            if staged[i].origin == me {
                ops.push(staged.remove(i));
            } else {
                i += 1;
            }
        }
        ops.sort_by_key(|o| o.seq);
        let mut bytes = 0usize;
        {
            let seg = match &mut st.segs[target] {
                Some(s) => s,
                None => panic!("window segment {target} not deposited"),
            };
            for op in &ops {
                bytes += op.data.len();
                apply_op(seg, op);
            }
        }
        let l = &mut st.locks[target];
        let grant = if l.holder == Some(me) {
            l.holder = None;
            match l.queue.pop_front() {
                Some((next, g)) => {
                    l.holder = Some(next);
                    Some((next, g))
                }
                None => None,
            }
        } else {
            None
        };
        (bytes, grant)
    }

    /// Window rank currently holding `target`'s lock, if any.
    pub fn holder(&self, target: usize) -> Option<u32> {
        self.state.lock().locks[target].holder
    }

    /// Drop one handle's claim on the core; `true` when this was the last
    /// one (the caller then removes the registry entry).
    pub fn release_handle(&self) -> bool {
        let mut st = self.state.lock();
        st.live -= 1;
        st.live == 0
    }
}

/// The production window core: lock grants are plain requests, completed
/// through the shared runtime so queued lockers park in watchdog-visible
/// waits.
pub(crate) type RtWinCore = WinCore<Request<()>>;

/// Account one origin-driven transfer of `n` bytes in the run's traffic
/// counters (same inter/intra split as the simulator).
fn account_transfer(sh: &RtShared, src: u32, dst: u32, n: usize) {
    use crate::sync::Ordering as SyncOrdering;
    sh.messages.fetch_add(1, SyncOrdering::Relaxed);
    if sh.nodemap.node_of(src as usize) == sh.nodemap.node_of(dst as usize) {
        sh.intra_bytes.fetch_add(n as u64, SyncOrdering::Relaxed);
    } else {
        sh.inter_bytes.fetch_add(n as u64, SyncOrdering::Relaxed);
    }
}

/// A one-sided window handle for one rank of the wall-clock runtime (the
/// analogue of `MPI_Win`).
///
/// Created collectively by [`RtComm::win_create`]. See
/// `ovcomm_core::Window` for the epoch/consistency contract the two
/// backends share. Dropping a handle without [`RtWin::free`] is reported
/// by the verifier as a `win-leak` with the creation site.
pub struct RtWin {
    /// Private dup of the creating communicator (fence barriers).
    comm: RtComm,
    core: Arc<RtWinCore>,
    /// Registry key in `RtState::windows`.
    key: (u32, u64),
    id: u64,
    /// This rank's RMA post counter (orders staged ops of one origin).
    post_seq: AtomicU64,
    freed: AtomicBool,
}

impl RtWin {
    /// Backend half of [`RtComm::win_create`]: register the window's
    /// core, deposit this rank's segment, and synchronize on `comm` (the
    /// window's private dup of the creating communicator).
    pub(crate) fn open(comm: RtComm, key: (u32, u64), id: u64, local: Payload) -> RtWin {
        let core = {
            let mut st = comm.agent().shared.state.lock();
            st.windows
                .entry(key)
                .or_insert_with(|| Arc::new(WinCore::new(comm.size())))
                .clone()
        };
        core.deposit(comm.rank(), &local);
        // Creation is collective: no rank may issue one-sided ops until
        // every segment is deposited.
        comm.barrier();
        RtWin {
            comm,
            core,
            key,
            id,
            post_seq: AtomicU64::new(0),
            freed: AtomicBool::new(false),
        }
    }

    fn shared(&self) -> &Arc<RtShared> {
        &self.comm.agent().shared
    }

    /// Number of ranks spanning the window.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// This rank's index within the window.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Byte length of `rank`'s exposed segment.
    pub fn segment_len(&self, rank: usize) -> usize {
        self.core.segment_len(rank)
    }

    /// One-sided write into `target`'s segment (`MPI_Put`): staged now,
    /// applied when the epoch closes. Returns immediately; the payload is
    /// captured, so the origin buffer is reusable.
    #[track_caller]
    pub fn put(&self, target: usize, offset: usize, data: Payload) {
        self.post(RmaKind::Put, target, offset, data);
    }

    /// One-sided element-wise `f64` sum into `target`'s segment
    /// (`MPI_Accumulate` with `MPI_SUM`); 8-aligned, staged like a put.
    #[track_caller]
    pub fn accumulate(&self, target: usize, offset: usize, data: Payload) {
        self.post(RmaKind::Accumulate, target, offset, data);
    }

    #[track_caller]
    fn post(&self, kind: RmaKind, target: usize, offset: usize, data: Payload) {
        let site: Site = std::panic::Location::caller();
        let sh = self.shared().clone();
        let agent = self.comm.agent();
        let n = data.len();
        let me = self.rank();
        let t0 = sh.now();
        let opname = if kind == RmaKind::Accumulate {
            "accumulate"
        } else {
            "put"
        };
        sh.env.rma_metric(agent.rank, opname, n);
        if let Some(v) = sh.env.verify.as_ref() {
            v.record(VEvent::RmaOp {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                kind,
                target: target as u32,
                offset,
                len: n,
                req: None,
                site: Some(site),
            });
        }
        let seq = self.post_seq.fetch_add(1, Ordering::Relaxed);
        self.core.stage(
            target,
            StagedOp {
                origin: me as u32,
                seq,
                offset,
                acc: kind == RmaKind::Accumulate,
                data,
            },
        );
        if n > 0 {
            let origin_w = self.comm.world_rank(me) as u32;
            let target_w = self.comm.world_rank(target) as u32;
            account_transfer(&sh, origin_w, target_w, n);
            sh.edge(EdgeKind::SendRecv, origin_w, t0, target_w, sh.now());
        }
        sh.span(agent.id, SpanKind::Post, None, t0, sh.now(), || {
            format!("{} post {n}B -> {target}", kind.name())
        });
    }

    /// One-sided read of `len` bytes from `target`'s segment at `offset`
    /// (`MPI_Rget`): returns a request completing with the data. Reads the
    /// committed (epoch-stable) segment state; on this backend the
    /// transfer is a memcpy, so the request is complete on return.
    #[track_caller]
    pub fn get(&self, target: usize, offset: usize, len: usize) -> Request<Payload> {
        let site: Site = std::panic::Location::caller();
        let sh = self.shared().clone();
        let agent = self.comm.agent();
        let t0 = sh.now();
        sh.env.rma_metric(agent.rank, "get", len);
        let req = sh.new_req::<Payload>(|id| VEvent::RmaOp {
            agent: agent.id,
            rank: agent.rank,
            win: self.id,
            kind: RmaKind::Get,
            target: target as u32,
            offset,
            len,
            req: Some(id),
            site: Some(site),
        });
        let snap = self.core.snapshot(target, offset, offset + len);
        if len > 0 {
            let origin_w = self.comm.world_rank(self.rank()) as u32;
            let target_w = self.comm.world_rank(target) as u32;
            account_transfer(&sh, target_w, origin_w, len);
            sh.edge(EdgeKind::SendRecv, target_w, t0, origin_w, sh.now());
        }
        sh.complete(&req, snap);
        sh.span(agent.id, SpanKind::Post, None, t0, sh.now(), || {
            format!("MPI_Rget post {len}B <- {target}")
        });
        req
    }

    /// Wait a [`RtWin::get`] request, recording a `Wait` span.
    pub fn wait(&self, req: &Request<Payload>) -> Payload {
        self.comm.wait_traced(req, "MPI_Rget")
    }

    /// Active-target epoch boundary (`MPI_Win_fence`): synchronizes all
    /// members, applies the staged operations targeting this rank's
    /// segment in `(origin, post order)` order, and synchronizes again so
    /// no rank enters the next epoch before every segment is committed.
    /// (Transfers are synchronous on this backend, so there is nothing to
    /// drain before the first barrier.)
    #[track_caller]
    pub fn fence(&self) {
        let site: Site = std::panic::Location::caller();
        let sh = self.shared().clone();
        let agent = self.comm.agent();
        let t0 = sh.now();
        sh.env.rma_metric(agent.rank, "fence", 0);
        self.comm.barrier();
        self.core.apply_target(self.rank());
        self.comm.barrier();
        if let Some(v) = sh.env.verify.as_ref() {
            v.record(VEvent::WinFence {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                site: Some(site),
            });
        }
        sh.env
            .metrics
            .blocking_duration(agent.rank, sh.now().saturating_since(t0).as_nanos());
        sh.span(agent.id, SpanKind::BlockingCall, None, t0, sh.now(), || {
            "MPI_Win_fence".to_string()
        });
    }

    /// Acquire the passive-target lock on `target`'s segment (exclusive,
    /// FIFO): contended acquisitions park in a watchdog-visible wait until
    /// the holder's unlock grants the handoff.
    #[track_caller]
    pub fn lock(&self, target: usize) {
        let site: Site = std::panic::Location::caller();
        let sh = self.shared().clone();
        let agent = self.comm.agent();
        let t0 = sh.now();
        sh.env.rma_metric(agent.rank, "lock", 0);
        let me = self.rank() as u32;
        // Internal grant handle: untracked, invisible to leak analysis.
        let grant: Request<()> = Request::new();
        if !self.core.lock_or_queue(target, me, grant.clone()) {
            agent.wait(&grant);
        }
        if let Some(v) = sh.env.verify.as_ref() {
            v.record(VEvent::WinLock {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                target: target as u32,
                site: Some(site),
            });
        }
        sh.span(agent.id, SpanKind::BlockingCall, None, t0, sh.now(), || {
            format!("MPI_Win_lock {target}")
        });
    }

    /// Release the passive-target lock on `target`: applies this origin's
    /// staged ops to the target segment (the lock serializes origins, so
    /// per-origin apply at unlock reproduces the serial order the lock
    /// imposed), then hands the lock to the next queued origin. Unlocking
    /// a segment this rank does not hold is tolerated here and flagged by
    /// the verifier (`rma-double-unlock`).
    #[track_caller]
    pub fn unlock(&self, target: usize) {
        let site: Site = std::panic::Location::caller();
        let sh = self.shared().clone();
        let agent = self.comm.agent();
        let t0 = sh.now();
        sh.env.rma_metric(agent.rank, "unlock", 0);
        let me = self.rank() as u32;
        let (_bytes, grant) = self.core.unlock(target, me);
        // The handoff completes outside the core's mutex, like every
        // completion in this runtime.
        if let Some((_next, g)) = grant {
            sh.complete(&g, ());
        }
        if let Some(v) = sh.env.verify.as_ref() {
            v.record(VEvent::WinUnlock {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                target: target as u32,
                site: Some(site),
            });
        }
        sh.span(agent.id, SpanKind::BlockingCall, None, t0, sh.now(), || {
            format!("MPI_Win_unlock {target}")
        });
    }

    /// Snapshot of this rank's committed local segment.
    pub fn local(&self) -> Payload {
        let me = self.rank();
        self.core.snapshot(me, 0, self.core.segment_len(me))
    }

    /// Collective teardown (`MPI_Win_free`): synchronizes all members and
    /// releases the window. Dropping a handle without calling this is
    /// reported by the verifier as a `win-leak`.
    #[track_caller]
    pub fn free(self) {
        let site: Site = std::panic::Location::caller();
        let sh = self.shared().clone();
        let agent = self.comm.agent();
        sh.env.rma_metric(agent.rank, "win_free", 0);
        if let Some(v) = sh.env.verify.as_ref() {
            v.record(VEvent::WinFree {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                site: Some(site),
            });
        }
        self.comm.barrier();
        self.freed.store(true, Ordering::Relaxed);
        if self.core.release_handle() {
            sh.state.lock().windows.remove(&self.key);
        }
        // `self` drops here, recording `WinDropped { freed: true }`.
    }
}

impl Drop for RtWin {
    fn drop(&mut self) {
        // Drop-time leak check, mirroring the request one: a window
        // dropped without `free` surfaces as a `win-leak` finding carrying
        // the creation site.
        if let Some(v) = self.shared().env.verify.as_ref() {
            v.record(VEvent::WinDropped {
                rank: self.comm.agent().rank,
                win: self.id,
                freed: self.freed.load(Ordering::Relaxed),
            });
        }
    }
}

impl ovcomm_core::Window for RtWin {
    fn size(&self) -> usize {
        RtWin::size(self)
    }
    fn rank(&self) -> usize {
        RtWin::rank(self)
    }
    fn segment_len(&self, rank: usize) -> usize {
        RtWin::segment_len(self, rank)
    }
    fn put(&self, target: usize, offset: usize, data: Payload) {
        RtWin::put(self, target, offset, data)
    }
    fn get(&self, target: usize, offset: usize, len: usize) -> Request<Payload> {
        RtWin::get(self, target, offset, len)
    }
    fn accumulate(&self, target: usize, offset: usize, data: Payload) {
        RtWin::accumulate(self, target, offset, data)
    }
    fn wait(&self, req: &Request<Payload>) -> Payload {
        RtWin::wait(self, req)
    }
    fn fence(&self) {
        RtWin::fence(self)
    }
    fn lock(&self, target: usize) {
        RtWin::lock(self, target)
    }
    fn unlock(&self, target: usize) {
        RtWin::unlock(self, target)
    }
    fn local(&self) -> Payload {
        RtWin::local(self)
    }
    fn free(self) {
        RtWin::free(self)
    }
}
