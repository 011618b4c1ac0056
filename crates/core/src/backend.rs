//! The backend abstraction: one communication surface, two runtimes.
//!
//! Everything above the message-passing layer — the N_DUP pipelined
//! drivers, the process meshes, SUMMA/SymmSquareCube, purification — is
//! written against three traits instead of concrete simulator types:
//!
//! * [`Communicator`] — the MPI-like per-rank communicator handle:
//!   dup/split, point-to-point, requests with wait/test, and the blocking
//!   and nonblocking collectives;
//! * [`Window`] — the one-sided window a communicator creates;
//! * [`RankHandle`] — the per-rank execution context: identity, clock,
//!   modeled compute, tracing, and the world communicator.
//!
//! Two backends run them:
//!
//! * the **virtual-time simulator** (`ovcomm-simmpi`) — deterministic,
//!   models time analytically: [`ovcomm_simmpi::Comm`] /
//!   [`ovcomm_simmpi::RankCtx`];
//! * the **wall-clock runtime** (`ovcomm-rt`) — ranks are real OS threads
//!   moving real payloads through shared memory: `ovcomm_rt::RtComm` /
//!   `ovcomm_rt::RtRankCtx`.
//!
//! Neither backend implements a trait itself. Both communicator types are
//! one generic front end, `ovcomm_simmpi::comm::Comm<T>`, over the
//! backend's [`Transport`]; the window types are one
//! `ovcomm_simmpi::rma::Win<T>`, the rank contexts one
//! `ovcomm_simmpi::rank::RankCtx<T>`. Each trait therefore has exactly one
//! blanket impl, below, and the trait surface cannot drift between
//! backends. With a single implementor apiece the traits no longer
//! abstract over anything; replacing them by `Comm<T>`/`RankCtx<T>`
//! arguments is mechanical and waits only on `benchmark/`, whose workloads
//! import the three names and bound on `R: RankHandle`.
//!
//! Both backends share the *concrete* [`Payload`] and [`Request`] types
//! (a request is backend-agnostic: a completion flag, a value slot, and
//! waiter cells), so the traits need no associated request machinery and
//! generic code reads exactly like the direct simulator code it replaced.
//! Default type parameters (`NDupComms<C = Comm>`, `Mesh3D<C = Comm>`)
//! keep existing simulator call sites source-compatible.

use ovcomm_simmpi::comm::Comm;
use ovcomm_simmpi::rank::RankCtx;
use ovcomm_simmpi::rma::Win;
use ovcomm_simmpi::transport::Transport;
use ovcomm_simmpi::{Payload, Request};
use ovcomm_simnet::{MachineProfile, NodeMap, SimDur, SimTime, SpanKind};

/// An MPI-like communicator handle, generic over the runtime backend.
///
/// Semantics follow `ovcomm_simmpi::Comm` (its methods document the
/// contract): no wildcard receives, `f64`-sum reductions, owned payloads,
/// and collective calls made by every member in the same order.
pub trait Communicator: Clone + Send + Sync + Sized + 'static {
    // -- identity -----------------------------------------------------

    /// Number of ranks in this communicator.
    fn size(&self) -> usize;
    /// This rank's index within the communicator.
    fn rank(&self) -> usize;
    /// World rank of communicator index `idx`.
    fn world_rank(&self, idx: usize) -> usize;

    // -- communicator management --------------------------------------

    /// Duplicate: a new context over the same group (all members call in
    /// the same order).
    fn dup(&self) -> Self;
    /// `n` duplicates (the N_DUP bundles of the overlap technique).
    fn dup_n(&self, n: usize) -> Vec<Self> {
        (0..n).map(|_| self.dup()).collect()
    }
    /// Split by color/key (like `MPI_Comm_split`); negative colors get
    /// `None`. Synchronizes all members.
    fn split(&self, color: i64, key: u64) -> Option<Self>;

    // -- point-to-point -----------------------------------------------

    /// Nonblocking send to communicator rank `dst`.
    fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()>;
    /// Nonblocking receive from communicator rank `src`.
    fn irecv(&self, src: usize, tag: u32) -> Request<Payload>;
    /// Blocking send.
    fn send(&self, dst: usize, tag: u32, payload: Payload);
    /// Blocking receive.
    fn recv(&self, src: usize, tag: u32) -> Payload;
    /// Blocking concurrent send+receive (`MPI_Sendrecv`).
    fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: Payload) -> Payload;

    // -- requests -----------------------------------------------------

    /// Wait for a request (`MPI_Wait`).
    fn wait<T>(&self, req: &Request<T>) -> T;
    /// Wait, recording a `Wait` trace span with `label`.
    fn wait_traced<T>(&self, req: &Request<T>, label: &str) -> T;
    /// Wait, recording a `Wait` span tagged with a pipeline chunk index.
    fn wait_traced_chunk<T>(&self, req: &Request<T>, label: &str, chunk: u32) -> T;
    /// Nonblocking completion probe (`MPI_Test`).
    fn test<T>(&self, req: &Request<T>) -> bool;
    /// Wait for all requests in order (`MPI_Waitall` for sends).
    fn wait_all(&self, reqs: &[Request<()>]) {
        for r in reqs {
            self.wait(r);
        }
    }
    /// Wait for all requests in order, returning their values.
    fn wait_all_payloads<T>(&self, reqs: &[Request<T>]) -> Vec<T> {
        reqs.iter().map(|r| self.wait(r)).collect()
    }

    // -- blocking collectives -----------------------------------------

    /// Blocking broadcast from `root` (`data` must be `Some` at the root).
    fn bcast(&self, root: usize, data: Option<Payload>, len: usize) -> Payload;
    /// Blocking sum-reduction to `root`; `Some` at the root.
    fn reduce(&self, root: usize, contrib: Payload) -> Option<Payload>;
    /// Blocking sum-allreduce.
    fn allreduce(&self, contrib: Payload) -> Payload;
    /// Blocking barrier.
    fn barrier(&self);
    /// Blocking scatter of `len` bytes from `root`.
    fn scatter(&self, root: usize, data: Option<Payload>, len: usize) -> Payload;
    /// Blocking gather (inverse of scatter); `Some` at the root.
    fn gather(&self, root: usize, chunk: Payload, len: usize) -> Option<Payload>;
    /// Blocking allgather; `len` is the assembled size.
    fn allgather(&self, chunk: Payload, len: usize) -> Payload;

    // -- nonblocking collectives --------------------------------------

    /// Nonblocking broadcast (`MPI_Ibcast`).
    fn ibcast(&self, root: usize, data: Option<Payload>, len: usize) -> Request<Payload>;
    /// Nonblocking reduction (`MPI_Ireduce`); root's request yields `Some`.
    fn ireduce(&self, root: usize, contrib: Payload) -> Request<Option<Payload>>;
    /// Nonblocking allreduce (`MPI_Iallreduce`).
    fn iallreduce(&self, contrib: Payload) -> Request<Payload>;
    /// Nonblocking barrier (`MPI_Ibarrier`).
    fn ibarrier(&self) -> Request<()>;

    // -- one-sided (RMA) ----------------------------------------------

    /// This backend's one-sided window type.
    type Win: Window;
    /// Collective: every member exposes `local` as its window segment and
    /// gets back a [`Window`] handle over all segments (like
    /// `MPI_Win_create`). The window starts outside any epoch — call
    /// [`Window::fence`] to open the first access epoch, or take a
    /// passive-target [`Window::lock`].
    fn win_create(&self, local: Payload) -> Self::Win;
}

/// A one-sided RMA window, generic over the runtime backend: every member
/// of the creating communicator exposes a byte segment; any member reads
/// (`get`), writes (`put`) or sum-accumulates (`accumulate`) any segment
/// without the target posting anything.
///
/// Synchronization is epoch-based and identical on both backends:
///
/// * **Active target:** [`Window::fence`] is collective; it closes the
///   current epoch (all puts/accumulates staged during it are applied to
///   the target segments, in deterministic `(origin rank, post order)`
///   order) and opens the next. Gets read the *committed* segment state,
///   which is stable within an epoch — so results are bit-identical
///   across backends.
/// * **Passive target:** [`Window::lock`]`/`[`Window::unlock`] bracket an
///   epoch against a single target; staged operations apply at unlock,
///   and the lock serializes origins.
///
/// Overlapping conflicting accesses inside one epoch (put/put, put/get,
/// put/accumulate) are flagged by the verifier (`rma-conflict`);
/// accumulate/accumulate commutes and is allowed.
pub trait Window {
    /// Number of ranks spanning the window (the creating communicator's
    /// size).
    fn size(&self) -> usize;
    /// This rank's index within the window.
    fn rank(&self) -> usize;
    /// Byte length of `rank`'s exposed segment.
    fn segment_len(&self, rank: usize) -> usize;
    /// One-sided write of `data` into `target`'s segment at byte `offset`.
    /// Applied when the epoch closes (fence or unlock); the call returns
    /// immediately and the origin buffer is reusable.
    fn put(&self, target: usize, offset: usize, data: Payload);
    /// One-sided read of `len` bytes from `target`'s segment at `offset`.
    /// The request completes with the data once the transfer lands; it
    /// reads the committed (epoch-stable) segment state.
    fn get(&self, target: usize, offset: usize, len: usize) -> Request<Payload>;
    /// One-sided element-wise `f64` sum of `data` into `target`'s segment
    /// at byte `offset` (8-aligned). Applied at epoch close in
    /// deterministic origin order.
    fn accumulate(&self, target: usize, offset: usize, data: Payload);
    /// Wait for a [`Window::get`] request and take its payload.
    fn wait(&self, req: &Request<Payload>) -> Payload;
    /// Active-target epoch boundary (collective, like `MPI_Win_fence`):
    /// completes all outstanding transfers, applies staged operations to
    /// every segment, and opens the next epoch.
    fn fence(&self);
    /// Acquire the passive-target lock on `target`'s segment (exclusive;
    /// blocks until granted).
    fn lock(&self, target: usize);
    /// Release the passive-target lock on `target`, applying this origin's
    /// staged operations to the segment first.
    fn unlock(&self, target: usize);
    /// Snapshot of this rank's committed local segment.
    fn local(&self) -> Payload;
    /// Collective: tear the window down (like `MPI_Win_free`). Dropping a
    /// window without calling this is reported by the verifier as a
    /// `win-leak`.
    fn free(self);
}

/// The per-rank execution context, generic over the runtime backend:
/// identity and topology, the rank's clock (virtual or wall), modeled
/// compute charging, sleep, tracing, and the world communicator.
pub trait RankHandle {
    /// The backend's communicator type.
    type Comm: Communicator;

    /// World rank of this process.
    fn rank(&self) -> usize;
    /// Total number of ranks.
    fn nranks(&self) -> usize;
    /// Node hosting this rank.
    fn node(&self) -> usize;
    /// Number of ranks sharing this rank's node.
    fn ppn(&self) -> usize;
    /// Processes per node to use for compute-rate models (launched PPN, or
    /// the override set by [`RankHandle::set_active_ppn`]).
    fn compute_ppn(&self) -> usize;
    /// Declare how many of this node's processes are actually computing
    /// (0 restores the default).
    fn set_active_ppn(&self, active: usize);
    /// The world communicator (all ranks).
    fn world(&self) -> Self::Comm;
    /// This rank's clock. Virtual time on the simulator; wall-clock
    /// nanoseconds since the run's epoch on the real runtime.
    fn now(&self) -> SimTime;
    /// Charge modeled local computation time (a clock bump on the
    /// simulator; the real runtime skips or emulates it per its compute
    /// mode).
    fn advance(&self, d: SimDur);
    /// Charge `flops` of dense-kernel computation at `rate` flop/s.
    fn compute_flops(&self, flops: f64, rate: f64);
    /// Sleep for `d` (the `usleep` of the sleep/poll mechanism, §III-B).
    fn sleep(&self, d: SimDur);
    /// The machine profile (for compute-rate lookups).
    fn profile(&self) -> &MachineProfile;
    /// The rank→node map.
    fn nodemap(&self) -> &NodeMap;
    /// Record a custom trace span.
    fn trace_span(&self, kind: SpanKind, start: SimTime, end: SimTime, label: String);
    /// Record a custom trace span tagged with a pipeline chunk index.
    fn trace_span_chunk(
        &self,
        kind: SpanKind,
        chunk: u32,
        start: SimTime,
        end: SimTime,
        label: String,
    );
    /// Record a `Phase` span from `start` to now.
    fn phase_span(&self, start: SimTime, label: String);
    /// `"sim"` or `"rt"` — recorded into metrics/bench output so every
    /// result names the backend that produced it.
    fn backend_name(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// The communicator front end, on any backend
// ---------------------------------------------------------------------

impl<T: Transport> Communicator for Comm<T> {
    fn size(&self) -> usize {
        Comm::size(self)
    }
    fn rank(&self) -> usize {
        Comm::rank(self)
    }
    fn world_rank(&self, idx: usize) -> usize {
        Comm::world_rank(self, idx)
    }
    fn dup(&self) -> Self {
        Comm::dup(self)
    }
    fn dup_n(&self, n: usize) -> Vec<Self> {
        Comm::dup_n(self, n)
    }
    fn split(&self, color: i64, key: u64) -> Option<Self> {
        Comm::split(self, color, key)
    }
    fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()> {
        Comm::isend(self, dst, tag, payload)
    }
    fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        Comm::irecv(self, src, tag)
    }
    fn send(&self, dst: usize, tag: u32, payload: Payload) {
        Comm::send(self, dst, tag, payload)
    }
    fn recv(&self, src: usize, tag: u32) -> Payload {
        Comm::recv(self, src, tag)
    }
    fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: Payload) -> Payload {
        Comm::sendrecv(self, dst, src, tag, payload)
    }
    fn wait<V>(&self, req: &Request<V>) -> V {
        Comm::wait(self, req)
    }
    fn wait_traced<V>(&self, req: &Request<V>, label: &str) -> V {
        Comm::wait_traced(self, req, label)
    }
    fn wait_traced_chunk<V>(&self, req: &Request<V>, label: &str, chunk: u32) -> V {
        Comm::wait_traced_chunk(self, req, label, chunk)
    }
    fn test<V>(&self, req: &Request<V>) -> bool {
        Comm::test(self, req)
    }
    fn wait_all(&self, reqs: &[Request<()>]) {
        Comm::wait_all(self, reqs)
    }
    fn wait_all_payloads<V>(&self, reqs: &[Request<V>]) -> Vec<V> {
        Comm::wait_all_payloads(self, reqs)
    }
    fn bcast(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        Comm::bcast(self, root, data, len)
    }
    fn reduce(&self, root: usize, contrib: Payload) -> Option<Payload> {
        Comm::reduce(self, root, contrib)
    }
    fn allreduce(&self, contrib: Payload) -> Payload {
        Comm::allreduce(self, contrib)
    }
    fn barrier(&self) {
        Comm::barrier(self)
    }
    fn scatter(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        Comm::scatter(self, root, data, len)
    }
    fn gather(&self, root: usize, chunk: Payload, len: usize) -> Option<Payload> {
        Comm::gather(self, root, chunk, len)
    }
    fn allgather(&self, chunk: Payload, len: usize) -> Payload {
        Comm::allgather(self, chunk, len)
    }
    fn ibcast(&self, root: usize, data: Option<Payload>, len: usize) -> Request<Payload> {
        Comm::ibcast(self, root, data, len)
    }
    fn ireduce(&self, root: usize, contrib: Payload) -> Request<Option<Payload>> {
        Comm::ireduce(self, root, contrib)
    }
    fn iallreduce(&self, contrib: Payload) -> Request<Payload> {
        Comm::iallreduce(self, contrib)
    }
    fn ibarrier(&self) -> Request<()> {
        Comm::ibarrier(self)
    }
    type Win = Win<T>;
    fn win_create(&self, local: Payload) -> Win<T> {
        Comm::win_create(self, local)
    }
}

impl<T: Transport> Window for Win<T> {
    fn size(&self) -> usize {
        Win::size(self)
    }
    fn rank(&self) -> usize {
        Win::rank(self)
    }
    fn segment_len(&self, rank: usize) -> usize {
        Win::segment_len(self, rank)
    }
    fn put(&self, target: usize, offset: usize, data: Payload) {
        Win::put(self, target, offset, data)
    }
    fn get(&self, target: usize, offset: usize, len: usize) -> Request<Payload> {
        Win::get(self, target, offset, len)
    }
    fn accumulate(&self, target: usize, offset: usize, data: Payload) {
        Win::accumulate(self, target, offset, data)
    }
    fn wait(&self, req: &Request<Payload>) -> Payload {
        Win::wait(self, req)
    }
    fn fence(&self) {
        Win::fence(self)
    }
    fn lock(&self, target: usize) {
        Win::lock(self, target)
    }
    fn unlock(&self, target: usize) {
        Win::unlock(self, target)
    }
    fn local(&self) -> Payload {
        Win::local(self)
    }
    fn free(self) {
        Win::free(self)
    }
}

// ---------------------------------------------------------------------
// The per-rank context, on any backend
// ---------------------------------------------------------------------

impl<T: Transport> RankHandle for RankCtx<T> {
    type Comm = Comm<T>;

    fn rank(&self) -> usize {
        RankCtx::rank(self)
    }
    fn nranks(&self) -> usize {
        RankCtx::nranks(self)
    }
    fn node(&self) -> usize {
        RankCtx::node(self)
    }
    fn ppn(&self) -> usize {
        RankCtx::ppn(self)
    }
    fn compute_ppn(&self) -> usize {
        RankCtx::compute_ppn(self)
    }
    fn set_active_ppn(&self, active: usize) {
        RankCtx::set_active_ppn(self, active)
    }
    fn world(&self) -> Comm<T> {
        RankCtx::world(self)
    }
    fn now(&self) -> SimTime {
        RankCtx::now(self)
    }
    fn advance(&self, d: SimDur) {
        RankCtx::advance(self, d)
    }
    fn compute_flops(&self, flops: f64, rate: f64) {
        RankCtx::compute_flops(self, flops, rate)
    }
    fn sleep(&self, d: SimDur) {
        RankCtx::sleep(self, d)
    }
    fn profile(&self) -> &MachineProfile {
        RankCtx::profile(self)
    }
    fn nodemap(&self) -> &NodeMap {
        RankCtx::nodemap(self)
    }
    fn trace_span(&self, kind: SpanKind, start: SimTime, end: SimTime, label: String) {
        RankCtx::trace_span(self, kind, start, end, label)
    }
    fn trace_span_chunk(
        &self,
        kind: SpanKind,
        chunk: u32,
        start: SimTime,
        end: SimTime,
        label: String,
    ) {
        RankCtx::trace_span_chunk(self, kind, chunk, start, end, label)
    }
    fn phase_span(&self, start: SimTime, label: String) {
        RankCtx::phase_span(self, start, label)
    }
    fn backend_name(&self) -> &'static str {
        RankCtx::backend_name(self)
    }
}
