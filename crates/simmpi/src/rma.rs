//! One-sided (RMA) windows: `MPI_Win`-style put/get/accumulate with
//! active-target fences and passive-target locks — written once, as
//! [`Win<T>`] over the backend's [`Transport`], for the virtual-time
//! simulator ([`SimWin`]) and the wall-clock runtime (`ovcomm_rt::RtWin`).
//!
//! Model (see `docs/rma.md` for the worked timeline):
//!
//! * Transfers are **origin-driven**: the target posts nothing. A put or
//!   accumulate charges the origin its post cost, then hands the bytes to
//!   [`Transport::rma_transfer`] — on the simulator a flow on the
//!   origin→target path, occupying the *target's* NIC without the target's
//!   process participating, which is the defining asymmetry of the
//!   one-sided paradigm and the reason it composes with the paper's
//!   communication-overlap techniques: the epoch close is the only
//!   synchronization point. On the runtime the bytes are already in shared
//!   memory, so the transfer only counts traffic and completes.
//! * Puts and accumulates are **staged**: the payload travels immediately
//!   but is applied to the target segment only when the epoch closes
//!   (fence or unlock), in deterministic `(origin rank, post order)`
//!   order. Gets read the committed (epoch-stable) segment state. This
//!   makes results bit-identical across backends and across runs even
//!   for non-associative `f64` accumulation.
//! * `fence` = wait own outstanding transfers → barrier → apply staged
//!   ops to the own segment → barrier, so fence counts align across ranks.
//! * Passive-target `lock`/`unlock` is a per-segment lock: acquisition
//!   costs a round trip to the target, contended requests queue FIFO and
//!   are granted at the holder's unlock plus the notification latency
//!   ([`Transport::path_latency`]: α on the virtual clock, zero on the
//!   wall).
//!
//! Segments are [`Payload`]s: a get returns a view of the committed bytes,
//! and an apply copies a segment only while a view still shares it.
//!
//! The cross-rank state machine — segments, staging, apply ordering, the
//! FIFO lock — is [`WinCore`]: plain `&mut self` methods, generic over the
//! lock-grant handle, with the mutex owned by whoever holds it. [`Win`]
//! keeps it under `parking_lot`; the loom suite (`crates/rt/tests/loom.rs`)
//! keeps the *same type* under `loom::sync::Mutex` and schedule-checks
//! lock hand-off, apply determinism and snapshot atomicity.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use ovcomm_simnet::{SimDur, SpanKind};
use ovcomm_verify::{Event as VEvent, RmaKind, Site};

use crate::comm::Comm;
use crate::payload::{add_f64s, Payload};
use crate::request::Request;
use crate::transport::Transport;

/// One staged put/accumulate awaiting its epoch close.
///
/// The staging types ([`StagedOp`], [`WinCore`]) are exposed (hidden) for
/// the loom suite in `ovcomm-rt`, which drives the production state
/// machine from concurrent model threads.
#[doc(hidden)]
pub struct StagedOp {
    /// Window rank of the origin.
    pub origin: u32,
    /// The origin's RMA post counter: orders one origin's ops.
    pub seq: u64,
    /// Byte offset into the target segment.
    pub offset: usize,
    /// Accumulate (`f64` sum) instead of overwrite?
    pub acc: bool,
    /// The data (captured at post time).
    pub data: Payload,
}

/// Apply one staged op to a committed segment, copying the segment first
/// if a snapshot still shares it. Free on a phantom segment.
fn apply_op(seg: &mut Payload, op: &StagedOp) {
    let Some(v) = seg.bytes_mut() else {
        return;
    };
    let Payload::Real(b) = &op.data else {
        panic!("phantom RMA data applied to a real window segment")
    };
    let end = op.offset + b.len();
    assert!(
        end <= v.len(),
        "RMA apply {}..{end} beyond segment length {}",
        op.offset,
        v.len()
    );
    let dst = &mut v[op.offset..end];
    if op.acc {
        add_f64s(dst, b);
    } else {
        dst.copy_from_slice(b);
    }
}

/// Passive-target lock of one segment.
struct LockSt<G> {
    /// Window rank currently holding the lock.
    holder: Option<u32>,
    /// FIFO of waiting acquisitions: (window rank, grant handle).
    queue: VecDeque<(u32, G)>,
}

/// The cross-rank state machine of one window: committed segments, the
/// staging area, and the FIFO passive-target locks.
///
/// Generic over the lock-grant handle `G`: [`Win`] queues `Request<()>`
/// handles; the loom harness queues its own completion cells. Methods take
/// `&mut self` — the holder owns the mutex — and grants are handed back to
/// the caller to complete *outside* it.
#[doc(hidden)]
pub struct WinCore<G> {
    segs: Vec<Option<Payload>>,
    staged: Vec<Vec<StagedOp>>,
    locks: Vec<LockSt<G>>,
    /// Handles not yet freed; the last `free` removes the registry entry.
    live: usize,
}

/// Apply `ops` to `seg` in order; returns total bytes applied.
fn apply_ops(seg: &mut Payload, ops: &[StagedOp]) -> usize {
    ops.iter()
        .map(|op| {
            apply_op(seg, op);
            op.data.len()
        })
        .sum()
}

impl<G> WinCore<G> {
    /// A core spanning `p` ranks, with no segments deposited yet.
    pub fn new(p: usize) -> WinCore<G> {
        WinCore {
            segs: (0..p).map(|_| None).collect(),
            staged: (0..p).map(|_| Vec::new()).collect(),
            locks: (0..p)
                .map(|_| LockSt {
                    holder: None,
                    queue: VecDeque::new(),
                })
                .collect(),
            live: p,
        }
    }

    fn seg(&self, rank: usize) -> &Payload {
        match &self.segs[rank] {
            Some(s) => s,
            None => panic!("window segment {rank} not deposited"),
        }
    }

    fn seg_mut(&mut self, rank: usize) -> &mut Payload {
        match &mut self.segs[rank] {
            Some(s) => s,
            None => panic!("window segment {rank} not deposited"),
        }
    }

    /// Deposit `rank`'s exposed segment (its committed initial contents).
    /// Shares `local`'s bytes: the first apply copies them.
    pub fn deposit(&mut self, rank: usize, local: &Payload) {
        self.segs[rank] = Some(local.clone());
    }

    /// Byte length of `rank`'s exposed segment.
    pub fn segment_len(&self, rank: usize) -> usize {
        self.seg(rank).len()
    }

    /// Snapshot `start..end` of `rank`'s *committed* segment state: a
    /// view, which a later apply leaves alone by copying the segment.
    pub fn snapshot(&self, rank: usize, start: usize, end: usize) -> Payload {
        let seg = self.seg(rank);
        assert!(
            start <= end && end <= seg.len(),
            "RMA read {start}..{end} beyond segment length {}",
            seg.len()
        );
        seg.slice(start, end)
    }

    /// Stage `op` against `target`'s segment (applied at epoch close).
    /// Bounds are checked now, so an out-of-range op fails at its post
    /// site rather than at a distant fence.
    pub fn stage(&mut self, target: usize, op: StagedOp) {
        let seg_len = self.segment_len(target);
        let end = op.offset + op.data.len();
        assert!(
            end <= seg_len,
            "{} {}..{end} beyond segment {target} length {seg_len}",
            if op.acc { "accumulate" } else { "put" },
            op.offset
        );
        self.staged[target].push(op);
    }

    /// Apply every staged op targeting `target`'s segment, in
    /// `(origin rank, post order)` order; returns total bytes applied.
    /// The fence's apply step: each rank calls it on its own segment
    /// between the two barriers.
    pub fn apply_target(&mut self, target: usize) -> usize {
        let mut ops = std::mem::take(&mut self.staged[target]);
        ops.sort_by_key(|o| (o.origin, o.seq));
        apply_ops(self.seg_mut(target), &ops)
    }

    /// Acquire the passive-target lock on `target` for window rank `me`,
    /// or join the FIFO queue with `grant`. Returns `true` when acquired
    /// immediately (the grant handle is dropped unused); on `false` the
    /// caller must wait on its own copy of the grant, which the holder's
    /// [`WinCore::unlock`] hands back for completion.
    pub fn lock_or_queue(&mut self, target: usize, me: u32, grant: G) -> bool {
        let l = &mut self.locks[target];
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
    /// complete the grant *outside* the core's mutex. Releasing a lock
    /// `me` does not hold applies the ops but grants nothing (the
    /// double-unlock case, flagged by the verifier).
    pub fn unlock(&mut self, target: usize, me: u32) -> (usize, Option<(u32, G)>) {
        let (mut ops, rest): (Vec<StagedOp>, Vec<StagedOp>) =
            std::mem::take(&mut self.staged[target])
                .into_iter()
                .partition(|o| o.origin == me);
        self.staged[target] = rest;
        ops.sort_by_key(|o| o.seq);
        let bytes = apply_ops(self.seg_mut(target), &ops);
        let l = &mut self.locks[target];
        let grant = if l.holder == Some(me) {
            let next = l.queue.pop_front();
            l.holder = next.as_ref().map(|(rank, _)| *rank);
            next
        } else {
            None
        };
        (bytes, grant)
    }

    /// Window rank currently holding `target`'s lock, if any.
    pub fn holder(&self, target: usize) -> Option<u32> {
        self.locks[target].holder
    }

    /// Drop one handle's claim on the core; `true` when this was the last
    /// one (the caller then removes the registry entry).
    pub fn release_handle(&mut self) -> bool {
        self.live -= 1;
        self.live == 0
    }
}

/// One window's shared state as [`Win`] holds it.
type SharedCore = Arc<Mutex<WinCore<Request<()>>>>;

/// Live one-sided windows of a run, keyed by (creating ctx, per-comm
/// window seq). All members call `win_create` in the same order, so the
/// key is rank-independent; the last `free` removes the entry.
pub(crate) type Windows = FxHashMap<(u32, u64), SharedCore>;

/// A one-sided window handle for one rank (the analogue of `MPI_Win`),
/// over backend transport `T`.
///
/// Created collectively by [`Comm::win_create`]. See
/// `ovcomm_core::backend::Window` for the epoch/consistency contract.
/// Dropping a handle without [`Win::free`] is reported by the verifier as
/// a `win-leak` with the creation site.
pub struct Win<T: Transport> {
    /// Private dup of the creating communicator (fence barriers).
    comm: Comm<T>,
    core: SharedCore,
    /// Registry key in `CommEnv::windows`.
    key: (u32, u64),
    id: u64,
    /// This rank's RMA post counter (orders staged ops of one origin).
    post_seq: AtomicU64,
    /// Internal completion handles of this epoch's outstanding transfers.
    pending: Mutex<Vec<Request<()>>>,
    freed: AtomicBool,
}

/// A window handle for one rank of the simulator.
pub type SimWin = Win<crate::SimTransport>;

impl<T: Transport> Win<T> {
    /// Second half of [`Comm::win_create`]: register the window's shared
    /// state, deposit this rank's segment, and synchronize on `comm` (the
    /// window's private dup of the creating communicator). `id` is the
    /// verifier's window id.
    pub(crate) fn open(comm: Comm<T>, key: (u32, u64), id: u64, local: Payload) -> Win<T> {
        let core = comm
            .agent()
            .env()
            .windows
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(WinCore::new(comm.size()))))
            .clone();
        core.lock().deposit(comm.rank(), &local);
        // Creation is collective: no rank may issue one-sided ops until
        // every segment is deposited.
        comm.barrier();
        Win {
            comm,
            core,
            key,
            id,
            post_seq: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            freed: AtomicBool::new(false),
        }
    }

    /// Number of ranks spanning the window.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// This rank's index within the window.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Panic unless `target` is a member index.
    fn check_target(&self, what: &str, target: usize) {
        let p = self.size();
        assert!(target < p, "{what} target {target} out of range (p={p})");
    }

    /// World rank of window rank `idx`.
    fn world(&self, idx: usize) -> u32 {
        self.comm.world_rank(idx) as u32
    }

    /// Byte length of `rank`'s exposed segment.
    pub fn segment_len(&self, rank: usize) -> usize {
        self.check_target("segment_len", rank);
        self.core.lock().segment_len(rank)
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
        let agent = self.comm.agent();
        let env = agent.env();
        let n = data.len();
        let acc = kind == RmaKind::Accumulate;
        let opname = if acc { "accumulate" } else { "put" };
        self.check_target(opname, target);
        assert!(
            !acc || (offset.is_multiple_of(8) && n.is_multiple_of(8)),
            "accumulate must be f64-aligned (offset {offset}, len {n})"
        );
        let t0 = agent.now();
        // Origin-side post cost: like an eager send, the payload is
        // captured into the runtime's buffer at post time.
        agent.charge(env.profile.small_post + env.profile.copy_time(n));
        env.rma_metric(agent.rank(), opname, n);
        if let Some(v) = env.verify.as_ref() {
            v.record(VEvent::RmaOp {
                rank: agent.rank(),
                win: self.id,
                kind,
                target: target as u32,
                offset,
                len: n,
                req: None,
                site: Some(site),
            });
        }
        self.comm.span_since(SpanKind::Post, None, t0, || {
            format!("{} post {n}B -> {target}", kind.name())
        });
        let seq = self.post_seq.fetch_add(1, Ordering::Relaxed);
        self.core.lock().stage(
            target,
            StagedOp {
                origin: self.rank() as u32,
                seq,
                offset,
                acc,
                data,
            },
        );
        if n > 0 {
            self.transfer(self.rank(), target, n, None);
        }
    }

    /// Move `n` bytes from window rank `src` to `dst` on this origin's
    /// behalf. A transfer still in flight when the transport returns is
    /// waited by the closing fence or unlock through an internal handle
    /// (untracked, so invisible to leak analysis) — never through a get's
    /// user-visible request, which the user's own wait consumes.
    fn transfer(&self, src: usize, dst: usize, n: usize, get: Option<(Request<Payload>, Payload)>) {
        let done: Request<()> = Request::new();
        let agent = self.comm.agent();
        let (src, dst) = (self.world(src), self.world(dst));
        agent.env().count_message(src, dst, n);
        agent.rma_transfer(src, dst, n, get, done.clone());
        if !done.is_complete() {
            self.pending.lock().push(done);
        }
    }

    /// One-sided read of `len` bytes from `target`'s segment at `offset`
    /// (`MPI_Rget`): returns a request completing with the data once the
    /// transfer lands. Reads the committed (epoch-stable) segment state.
    #[track_caller]
    pub fn get(&self, target: usize, offset: usize, len: usize) -> Request<Payload> {
        let site: Site = std::panic::Location::caller();
        let agent = self.comm.agent();
        let env = agent.env();
        self.check_target("get", target);
        let t0 = agent.now();
        agent.charge(env.profile.small_post);
        env.rma_metric(agent.rank(), "get", len);
        let req = env.new_req(|id| VEvent::RmaOp {
            rank: agent.rank(),
            win: self.id,
            kind: RmaKind::Get,
            target: target as u32,
            offset,
            len,
            req: Some(id),
            site: Some(site),
        });
        self.comm.span_since(SpanKind::Post, None, t0, || {
            format!("MPI_Rget post {len}B <- {target}")
        });
        // Snapshot the committed segment at post time: the committed
        // state is stable within an epoch, so any post moment inside the
        // epoch yields identical bytes — this is what makes one-sided
        // reads deterministic.
        let snap = self.core.lock().snapshot(target, offset, offset + len);
        if len == 0 {
            agent.complete(&req, snap, agent.now());
        } else {
            self.transfer(target, self.rank(), len, Some((req.clone(), snap)));
        }
        req
    }

    /// Wait a [`Win::get`] request, recording a `Wait` span.
    pub fn wait(&self, req: &Request<Payload>) -> Payload {
        self.comm.wait_traced(req, "MPI_Rget")
    }

    /// Active-target epoch boundary (`MPI_Win_fence`): waits this rank's
    /// outstanding transfers, synchronizes all members, applies the
    /// staged operations targeting this rank's segment in `(origin, post
    /// order)` order, and synchronizes again so no rank enters the next
    /// epoch before every segment is committed.
    #[track_caller]
    pub fn fence(&self) {
        let site: Site = std::panic::Location::caller();
        let agent = self.comm.agent();
        let env = agent.env();
        let t0 = agent.now();
        env.rma_metric(agent.rank(), "fence", 0);
        self.drain_pending();
        self.comm.barrier();
        let applied = self.core.lock().apply_target(self.rank());
        self.charge_copy(applied);
        self.comm.barrier();
        if let Some(v) = env.verify.as_ref() {
            v.record(VEvent::WinFence {
                rank: agent.rank(),
                win: self.id,
                site: Some(site),
            });
        }
        env.metrics
            .blocking_duration(agent.rank(), agent.now().saturating_since(t0).as_nanos());
        self.comm.span_since(SpanKind::BlockingCall, None, t0, || {
            "MPI_Win_fence".to_string()
        });
    }

    /// Acquire the passive-target lock on `target`'s segment (exclusive,
    /// FIFO): costs a round trip to the target when free; contended
    /// acquisitions queue and are granted at the holder's unlock.
    #[track_caller]
    pub fn lock(&self, target: usize) {
        let site: Site = std::panic::Location::caller();
        let agent = self.comm.agent();
        let env = agent.env();
        self.check_target("lock", target);
        let t0 = agent.now();
        env.rma_metric(agent.rank(), "lock", 0);
        let me = self.rank();
        // Internal grant handle: untracked, invisible to leak analysis.
        let grant: Request<()> = Request::new();
        let free = self
            .core
            .lock()
            .lock_or_queue(target, me as u32, grant.clone());
        if free {
            // One request/grant round trip to the target.
            let alpha = agent.path_latency(self.world(me), self.world(target));
            agent.charge(SimDur(2 * alpha.as_nanos()));
        } else {
            agent.wait(&grant);
        }
        if let Some(v) = env.verify.as_ref() {
            v.record(VEvent::WinLock {
                rank: agent.rank(),
                win: self.id,
                target: target as u32,
                site: Some(site),
            });
        }
        self.comm.span_since(SpanKind::BlockingCall, None, t0, || {
            format!("MPI_Win_lock {target}")
        });
    }

    /// Release the passive-target lock on `target`: waits this origin's
    /// outstanding transfers, applies this origin's staged ops to the
    /// target segment (the lock serializes origins, so per-origin apply
    /// at unlock reproduces the serial order the lock imposed), then
    /// hands the lock to the next queued origin. Unlocking a segment this
    /// rank does not hold is tolerated here and flagged by the verifier
    /// (`rma-double-unlock`).
    #[track_caller]
    pub fn unlock(&self, target: usize) {
        let site: Site = std::panic::Location::caller();
        let agent = self.comm.agent();
        let env = agent.env();
        self.check_target("unlock", target);
        let t0 = agent.now();
        env.rma_metric(agent.rank(), "unlock", 0);
        self.drain_pending();
        let (applied, grant) = self.core.lock().unlock(target, self.rank() as u32);
        self.charge_copy(applied);
        // The hand-off completes outside the core's mutex; the grant
        // notification travels target→next origin.
        if let Some((next, g)) = grant {
            let alpha = agent.path_latency(self.world(target), self.world(next as usize));
            agent.complete(&g, (), agent.now() + alpha);
        }
        if let Some(v) = env.verify.as_ref() {
            v.record(VEvent::WinUnlock {
                rank: agent.rank(),
                win: self.id,
                target: target as u32,
                site: Some(site),
            });
        }
        self.comm.span_since(SpanKind::BlockingCall, None, t0, || {
            format!("MPI_Win_unlock {target}")
        });
    }

    /// Snapshot of this rank's committed local segment.
    pub fn local(&self) -> Payload {
        let me = self.rank();
        let core = self.core.lock();
        core.snapshot(me, 0, core.segment_len(me))
    }

    /// Collective teardown (`MPI_Win_free`): synchronizes all members and
    /// releases the window. Dropping a handle without calling this is
    /// reported by the verifier as a `win-leak`.
    #[track_caller]
    pub fn free(self) {
        let site: Site = std::panic::Location::caller();
        let agent = self.comm.agent();
        let env = agent.env();
        env.rma_metric(agent.rank(), "win_free", 0);
        if let Some(v) = env.verify.as_ref() {
            v.record(VEvent::WinFree {
                rank: agent.rank(),
                win: self.id,
                site: Some(site),
            });
        }
        self.drain_pending();
        self.comm.barrier();
        self.freed.store(true, Ordering::Relaxed);
        if self.core.lock().release_handle() {
            env.windows.lock().remove(&self.key);
        }
        // `self` drops here, recording `WinDropped { freed: true }`.
    }

    /// Wait all internal transfer handles of the current epoch.
    fn drain_pending(&self) {
        let reqs = std::mem::take(&mut *self.pending.lock());
        for r in &reqs {
            self.comm.agent().wait(r);
        }
    }

    /// Charge the target-side copy of `bytes` applied at an epoch close.
    fn charge_copy(&self, bytes: usize) {
        if bytes > 0 {
            let agent = self.comm.agent();
            agent.charge(agent.env().profile.copy_time(bytes));
        }
    }
}

impl<T: Transport> Drop for Win<T> {
    fn drop(&mut self) {
        // Drop-time leak check, mirroring the request one: a window
        // dropped without `free` surfaces as a `win-leak` finding carrying
        // the creation site.
        let agent = self.comm.agent();
        if let Some(v) = agent.env().verify.as_ref() {
            v.record(VEvent::WinDropped {
                rank: agent.rank(),
                win: self.id,
                freed: self.freed.load(Ordering::Relaxed),
            });
        }
    }
}
