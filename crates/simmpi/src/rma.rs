//! One-sided (RMA) windows: `MPI_Win`-style put/get/accumulate with
//! active-target fences and passive-target locks, over the simulated
//! network.
//!
//! Model (see `docs/rma.md` for the worked timeline):
//!
//! * Transfers are **origin-driven**: the target posts nothing. A put or
//!   accumulate charges the origin its post cost, then injects a flow on
//!   the origin→target path — the bytes occupy the *target's* NIC without
//!   the target's process participating, which is the defining asymmetry
//!   of the one-sided paradigm and the reason it composes with the
//!   paper's communication-overlap techniques: the epoch close is the
//!   only synchronization point.
//! * Puts and accumulates are **staged**: the payload travels immediately
//!   but is applied to the target segment only when the epoch closes
//!   (fence or unlock), in deterministic `(origin rank, post order)`
//!   order. Gets read the committed (epoch-stable) segment state. This
//!   makes results bit-identical across backends and across runs even
//!   for non-associative `f64` accumulation.
//! * `fence` = wait own outstanding transfers → barrier → apply staged
//!   ops to the own segment → barrier. Both backends implement this
//!   sequence literally, so fence counts align across ranks.
//! * Passive-target `lock`/`unlock` is a virtual per-segment lock:
//!   acquisition costs a round trip to the target, contended requests
//!   queue FIFO and are granted at the holder's unlock plus the
//!   notification latency.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_simnet::{EdgeKind, SimDur, SpanKind};
use ovcomm_verify::{Event as VEvent, RmaKind, Site};

use crate::agent::{Agent, CLASS_P2P};
use crate::p2p::path_params;
use crate::payload::Payload;
use crate::request::{ReqMeta, Request};
use crate::Comm;

/// Committed bytes of one rank's exposed segment.
///
/// The staging types ([`Seg`], [`StagedOp`], [`apply_op`]) are exposed
/// (hidden) for the `ovcomm-rt` wall-clock backend, whose window core
/// stages and applies through these exact definitions — that is what makes
/// RMA results bit-identical across backends.
#[doc(hidden)]
pub enum Seg {
    /// Real data (mutable; staged ops are applied in place).
    Real(Vec<u8>),
    /// Size-only stand-in for paper-scale runs: applies are free no-ops,
    /// timing is identical to the real-data case.
    Phantom(usize),
}

impl Seg {
    /// The committed initial contents of an exposed segment.
    pub fn from_payload(p: &Payload) -> Seg {
        match p {
            Payload::Real(b) => Seg::Real(b.to_vec()),
            Payload::Phantom(n) => Seg::Phantom(*n),
        }
    }

    /// Byte length of the segment.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        match self {
            Seg::Real(v) => v.len(),
            Seg::Phantom(n) => *n,
        }
    }

    /// Copy of bytes `start..end` of the committed state.
    pub fn snapshot(&self, start: usize, end: usize) -> Payload {
        assert!(
            start <= end && end <= self.len(),
            "RMA read {start}..{end} beyond segment length {}",
            self.len()
        );
        match self {
            Seg::Real(v) => Payload::from_vec(v[start..end].to_vec()),
            Seg::Phantom(_) => Payload::Phantom(end - start),
        }
    }
}

/// One staged put/accumulate awaiting its epoch close.
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

/// Virtual passive-target lock of one segment.
#[derive(Default)]
struct LockState {
    /// Window rank currently holding the lock.
    holder: Option<u32>,
    /// FIFO of waiting acquisitions: (window rank, grant request).
    queue: VecDeque<(u32, Request<()>)>,
}

/// Shared (cross-rank) state of one window, registered in
/// `MpiState::windows` under the (creating ctx, window seq) key.
pub(crate) struct WinData {
    segs: Vec<Option<Seg>>,
    staged: Vec<Vec<StagedOp>>,
    locks: Vec<LockState>,
    /// Handles not yet freed; the last `free` removes the registry entry.
    live: usize,
}

impl WinData {
    pub(crate) fn new(p: usize) -> WinData {
        WinData {
            segs: (0..p).map(|_| None).collect(),
            staged: (0..p).map(|_| Vec::new()).collect(),
            locks: (0..p).map(|_| LockState::default()).collect(),
            live: p,
        }
    }
}

/// Apply one staged op to a committed segment.
// `chunks_exact(8)`/`try_into` on 8-byte slices cannot fail.
#[allow(clippy::unwrap_used)]
#[doc(hidden)]
pub fn apply_op(seg: &mut Seg, op: &StagedOp) {
    let v = match seg {
        Seg::Phantom(_) => return,
        Seg::Real(v) => v,
    };
    let b = match &op.data {
        Payload::Real(b) => b,
        Payload::Phantom(_) => panic!("phantom RMA data applied to a real window segment"),
    };
    let end = op.offset + b.len();
    assert!(
        end <= v.len(),
        "RMA apply {}..{end} beyond segment length {}",
        op.offset,
        v.len()
    );
    if op.acc {
        assert!(
            op.offset.is_multiple_of(8) && b.len().is_multiple_of(8),
            "accumulate must be f64-aligned (offset {}, len {})",
            op.offset,
            b.len()
        );
        for (i, c) in b.chunks_exact(8).enumerate() {
            let at = op.offset + i * 8;
            let cur = f64::from_ne_bytes(v[at..at + 8].try_into().unwrap());
            let add = f64::from_ne_bytes(c.try_into().unwrap());
            v[at..at + 8].copy_from_slice(&(cur + add).to_ne_bytes());
        }
    } else {
        v[op.offset..end].copy_from_slice(b);
    }
}

/// Inject an origin-driven RMA data flow from world rank `src` to world
/// rank `dst`, completing `done` when the last byte lands. Mirrors the
/// eager p2p flow: the transfer starts after the one-way latency and
/// shares the path's NIC/memory resources max–min fairly with every other
/// concurrent transfer — no receiver-side post exists or is charged.
fn launch_rma_flow(agent: &Agent, src: u32, dst: u32, n: usize, done: Request<()>) {
    let uni = agent.uni.clone();
    {
        let mut st = uni.state.lock();
        st.messages += 1;
        if uni.node_of(src) == uni.node_of(dst) {
            st.intra_bytes += n as u64;
        } else {
            st.inter_bytes += n as u64;
        }
    }
    let path = path_params(&uni, src, dst, n);
    let ts = agent.now();
    let start_at = ts + path.alpha;
    let uni2 = uni.clone();
    agent.schedule(
        ts,
        CLASS_P2P,
        Box::new(move |_| {
            let uni3 = uni2.clone();
            uni2.engine.schedule_engine(
                start_at,
                CLASS_P2P,
                Box::new(move |e| {
                    let uni4 = uni3.clone();
                    e.start_flow(
                        path.resources,
                        path.cap,
                        n as f64,
                        Box::new(move |e2| {
                            let ta = e2.now();
                            uni4.edge(EdgeKind::SendRecv, src, ts, dst, ta);
                            uni4.complete(&done, (), ta);
                        }),
                    );
                }),
            );
        }),
    );
}

/// Like [`launch_rma_flow`] but for a get: the flow runs target→origin
/// and completes the user-visible `req` with `data` (plus one unpack
/// copy), alongside the internal `done` handle the epoch close waits on.
fn launch_get_flow(
    agent: &Agent,
    src: u32,
    dst: u32,
    n: usize,
    data: Payload,
    req: Request<Payload>,
    done: Request<()>,
) {
    let uni = agent.uni.clone();
    {
        let mut st = uni.state.lock();
        st.messages += 1;
        if uni.node_of(src) == uni.node_of(dst) {
            st.intra_bytes += n as u64;
        } else {
            st.inter_bytes += n as u64;
        }
    }
    let path = path_params(&uni, src, dst, n);
    let ts = agent.now();
    let start_at = ts + path.alpha;
    let uni2 = uni.clone();
    agent.schedule(
        ts,
        CLASS_P2P,
        Box::new(move |_| {
            let uni3 = uni2.clone();
            uni2.engine.schedule_engine(
                start_at,
                CLASS_P2P,
                Box::new(move |e| {
                    let uni4 = uni3.clone();
                    e.start_flow(
                        path.resources,
                        path.cap,
                        n as f64,
                        Box::new(move |e2| {
                            let ta = e2.now() + uni4.env.profile.copy_time(n);
                            uni4.edge(EdgeKind::SendRecv, src, e2.now(), dst, ta);
                            uni4.complete(&req, data, ta);
                            uni4.complete(&done, (), ta);
                        }),
                    );
                }),
            );
        }),
    );
}

/// A one-sided window handle for one rank (the analogue of `MPI_Win`).
///
/// Created collectively by [`Comm::win_create`]. See
/// `ovcomm_core::backend::Window` for the epoch/consistency contract the
/// two backends share. Dropping a handle without [`SimWin::free`] is
/// reported by the verifier as a `win-leak` with the creation site.
pub struct SimWin {
    /// Private dup of the creating communicator (fence barriers).
    comm: Comm,
    data: Arc<Mutex<WinData>>,
    /// Registry key in the universe's window table.
    key: (u32, u64),
    id: u64,
    /// This rank's RMA post counter (orders staged ops of one origin).
    post_seq: AtomicU64,
    /// Internal completion handles of this epoch's outstanding transfers.
    pending: Mutex<Vec<Request<()>>>,
    freed: AtomicBool,
}

impl SimWin {
    /// Backend half of [`Comm::win_create`]: register the window's shared
    /// state, deposit this rank's segment, and synchronize on `comm` (the
    /// window's private dup of the creating communicator).
    pub(crate) fn open(comm: Comm, key: (u32, u64), id: u64, local: Payload) -> SimWin {
        let data = {
            let mut st = comm.agent.uni.state.lock();
            st.windows
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(WinData::new(comm.size()))))
                .clone()
        };
        data.lock().segs[comm.rank()] = Some(Seg::from_payload(&local));
        // Creation is collective: no rank may issue one-sided ops until
        // every segment is deposited.
        comm.barrier();
        SimWin {
            comm,
            data,
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

    /// Byte length of `rank`'s exposed segment.
    pub fn segment_len(&self, rank: usize) -> usize {
        match &self.data.lock().segs[rank] {
            Some(s) => s.len(),
            None => panic!("window segment {rank} not deposited"),
        }
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
        let agent = &self.comm.agent;
        let uni = agent.uni.clone();
        let n = data.len();
        let me = self.rank();
        let t0 = agent.now();
        // Origin-side post cost: like an eager send, the payload is
        // captured into the runtime's buffer at post time.
        agent.advance(uni.env.profile.small_post + uni.env.profile.copy_time(n));
        let opname = if kind == RmaKind::Accumulate {
            "accumulate"
        } else {
            "put"
        };
        uni.env.rma_metric(agent.rank, opname, n);
        if let Some(v) = uni.env.verify.as_ref() {
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
        agent.trace_span(SpanKind::Post, t0, agent.now(), || {
            format!("{} post {n}B -> {target}", kind.name())
        });
        let seq = self.post_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut wd = self.data.lock();
            let seg_len = match &wd.segs[target] {
                Some(s) => s.len(),
                None => panic!("window segment {target} not deposited"),
            };
            let end = offset + n;
            assert!(
                end <= seg_len,
                "{} {offset}..{end} beyond segment {target} length {seg_len}",
                kind.name()
            );
            wd.staged[target].push(StagedOp {
                origin: me as u32,
                seq,
                offset,
                acc: kind == RmaKind::Accumulate,
                data,
            });
        }
        if n == 0 {
            return;
        }
        let origin_w = self.comm.info.ranks[me];
        let target_w = self.comm.info.ranks[target];
        // Internal handle: untracked, so it is invisible to leak analysis.
        let done: Request<()> = Request::new();
        self.pending.lock().push(done.clone());
        launch_rma_flow(agent, origin_w, target_w, n, done);
    }

    /// One-sided read of `len` bytes from `target`'s segment at `offset`
    /// (`MPI_Rget`): returns a request completing with the data once the
    /// transfer lands. Reads the committed (epoch-stable) segment state.
    #[track_caller]
    pub fn get(&self, target: usize, offset: usize, len: usize) -> Request<Payload> {
        let site: Site = std::panic::Location::caller();
        let agent = &self.comm.agent;
        let uni = agent.uni.clone();
        let t0 = agent.now();
        agent.advance(uni.env.profile.small_post);
        uni.env.rma_metric(agent.rank, "get", len);
        let (req, rid) = match uni.env.verify.as_ref() {
            Some(v) => {
                let id = v.next_req_id();
                (
                    Request::new_tracked(ReqMeta {
                        verifier: v.clone(),
                        id,
                    }),
                    Some(id),
                )
            }
            None => (Request::new(), None),
        };
        if let Some(v) = uni.env.verify.as_ref() {
            v.record(VEvent::RmaOp {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                kind: RmaKind::Get,
                target: target as u32,
                offset,
                len,
                req: rid,
                site: Some(site),
            });
        }
        agent.trace_span(SpanKind::Post, t0, agent.now(), || {
            format!("MPI_Rget post {len}B <- {target}")
        });
        // Snapshot the committed segment at post time: the committed
        // state is stable within an epoch, so any post moment inside the
        // epoch yields identical bytes — this is what makes one-sided
        // reads deterministic.
        let snap = {
            let wd = self.data.lock();
            match &wd.segs[target] {
                Some(s) => s.snapshot(offset, offset + len),
                None => panic!("window segment {target} not deposited"),
            }
        };
        if len == 0 {
            uni.complete(&req, snap, agent.now());
            return req;
        }
        let me = self.rank();
        let origin_w = self.comm.info.ranks[me];
        let target_w = self.comm.info.ranks[target];
        // Shadow handle: the closing fence waits the transfer without
        // consuming the user-visible request.
        let done: Request<()> = Request::new();
        self.pending.lock().push(done.clone());
        launch_get_flow(agent, target_w, origin_w, len, snap, req.clone(), done);
        req
    }

    /// Wait a [`SimWin::get`] request, recording a `Wait` span.
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
        let agent = &self.comm.agent;
        let uni = agent.uni.clone();
        let t0 = agent.now();
        uni.env.rma_metric(agent.rank, "fence", 0);
        self.drain_pending();
        self.comm.barrier();
        let applied = self.apply_own_segment();
        if applied > 0 {
            agent.advance(uni.env.profile.copy_time(applied));
        }
        self.comm.barrier();
        if let Some(v) = uni.env.verify.as_ref() {
            v.record(VEvent::WinFence {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                site: Some(site),
            });
        }
        uni.env
            .metrics
            .blocking_duration(agent.rank, agent.now().saturating_since(t0).as_nanos());
        agent.trace_span(SpanKind::BlockingCall, t0, agent.now(), || {
            "MPI_Win_fence".to_string()
        });
    }

    /// Acquire the passive-target lock on `target`'s segment (exclusive,
    /// FIFO): costs a round trip to the target when free; contended
    /// acquisitions queue and are granted at the holder's unlock.
    #[track_caller]
    pub fn lock(&self, target: usize) {
        let site: Site = std::panic::Location::caller();
        let agent = &self.comm.agent;
        let uni = agent.uni.clone();
        let t0 = agent.now();
        uni.env.rma_metric(agent.rank, "lock", 0);
        let me = self.rank() as u32;
        let origin_w = self.comm.info.ranks[self.rank()];
        let target_w = self.comm.info.ranks[target];
        let alpha = path_params(&uni, origin_w, target_w, 0).alpha;
        let waitreq: Option<Request<()>> = {
            let mut wd = self.data.lock();
            let l = &mut wd.locks[target];
            if l.holder.is_none() {
                l.holder = Some(me);
                None
            } else {
                let r = Request::new();
                l.queue.push_back((me, r.clone()));
                Some(r)
            }
        };
        match waitreq {
            // Free: one request/grant round trip to the target.
            None => agent.advance(SimDur(2 * alpha.as_nanos())),
            Some(r) => {
                agent.wait(&r);
            }
        }
        if let Some(v) = uni.env.verify.as_ref() {
            v.record(VEvent::WinLock {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                target: target as u32,
                site: Some(site),
            });
        }
        agent.trace_span(SpanKind::BlockingCall, t0, agent.now(), || {
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
        let agent = &self.comm.agent;
        let uni = agent.uni.clone();
        let t0 = agent.now();
        uni.env.rma_metric(agent.rank, "unlock", 0);
        self.drain_pending();
        let me = self.rank() as u32;
        let target_w = self.comm.info.ranks[target];
        let grant = {
            let mut wd = self.data.lock();
            // Apply this origin's staged ops on the target segment.
            let mut ops: Vec<StagedOp> = Vec::new();
            let staged = &mut wd.staged[target];
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
                let seg = match &mut wd.segs[target] {
                    Some(s) => s,
                    None => panic!("window segment {target} not deposited"),
                };
                for op in &ops {
                    bytes += op.data.len();
                    apply_op(seg, op);
                }
            }
            if bytes > 0 {
                agent.advance(uni.env.profile.copy_time(bytes));
            }
            let l = &mut wd.locks[target];
            if l.holder == Some(me) {
                l.holder = None;
                match l.queue.pop_front() {
                    Some((next, r)) => {
                        l.holder = Some(next);
                        Some((next, r))
                    }
                    None => None,
                }
            } else {
                None
            }
        };
        if let Some((next, r)) = grant {
            // The grant notification travels target→next origin.
            let next_w = self.comm.info.ranks[next as usize];
            let alpha = path_params(&uni, target_w, next_w, 0).alpha;
            uni.complete(&r, (), agent.now() + alpha);
        }
        if let Some(v) = uni.env.verify.as_ref() {
            v.record(VEvent::WinUnlock {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                target: target as u32,
                site: Some(site),
            });
        }
        agent.trace_span(SpanKind::BlockingCall, t0, agent.now(), || {
            format!("MPI_Win_unlock {target}")
        });
    }

    /// Snapshot of this rank's committed local segment.
    pub fn local(&self) -> Payload {
        let me = self.rank();
        let wd = self.data.lock();
        match &wd.segs[me] {
            Some(s) => s.snapshot(0, s.len()),
            None => panic!("window segment {me} not deposited"),
        }
    }

    /// Collective teardown (`MPI_Win_free`): synchronizes all members and
    /// releases the window. Dropping a handle without calling this is
    /// reported by the verifier as a `win-leak`.
    #[track_caller]
    pub fn free(self) {
        let site: Site = std::panic::Location::caller();
        let agent = &self.comm.agent;
        let uni = agent.uni.clone();
        uni.env.rma_metric(agent.rank, "win_free", 0);
        if let Some(v) = uni.env.verify.as_ref() {
            v.record(VEvent::WinFree {
                agent: agent.id,
                rank: agent.rank,
                win: self.id,
                site: Some(site),
            });
        }
        self.drain_pending();
        self.comm.barrier();
        self.freed.store(true, Ordering::Relaxed);
        let gone = {
            let mut wd = self.data.lock();
            wd.live -= 1;
            wd.live == 0
        };
        if gone {
            uni.state.lock().windows.remove(&self.key);
        }
        // `self` drops here, recording `WinDropped { freed: true }`.
    }

    /// Wait all internal transfer handles of the current epoch.
    fn drain_pending(&self) {
        let reqs = std::mem::take(&mut *self.pending.lock());
        for r in &reqs {
            self.comm.agent.wait(r);
        }
    }

    /// Apply all staged ops targeting this rank's segment in
    /// `(origin, post order)` order; returns total bytes applied.
    fn apply_own_segment(&self) -> usize {
        let me = self.rank();
        let mut wd = self.data.lock();
        let mut ops = std::mem::take(&mut wd.staged[me]);
        ops.sort_by_key(|o| (o.origin, o.seq));
        let seg = match &mut wd.segs[me] {
            Some(s) => s,
            None => panic!("window segment {me} not deposited"),
        };
        let mut bytes = 0usize;
        for op in &ops {
            bytes += op.data.len();
            apply_op(seg, op);
        }
        bytes
    }
}

impl Drop for SimWin {
    fn drop(&mut self) {
        // Drop-time leak check, mirroring the request one: a window
        // dropped without `free` surfaces as a `win-leak` finding carrying
        // the creation site.
        if let Some(v) = self.comm.agent.uni.env.verify.as_ref() {
            v.record(VEvent::WinDropped {
                rank: self.comm.agent.rank,
                win: self.id,
                freed: self.freed.load(Ordering::Relaxed),
            });
        }
    }
}
