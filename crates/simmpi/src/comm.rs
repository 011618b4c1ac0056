//! Communicators and the user-facing MPI-like API.
//!
//! A [`Comm`] is a per-rank handle (like `MPI_Comm`): it knows the global
//! context id, the member world ranks, and this rank's index. `dup` creates
//! an independent context over the same group — the building block of the
//! paper's nonblocking-overlap technique, which issues each data chunk on
//! its own duplicated communicator. `split` creates row/column/grid
//! communicators of process meshes.
//!
//! The handle is generic over the backend's [`Transport`]: this one front
//! end — argument checks, tag namespacing, plan lookup, verify events,
//! metrics, trace spans, op-actor ids, the split rendezvous — serves both
//! the virtual-time simulator (`ovcomm_simmpi::Comm`) and the wall-clock
//! runtime (`ovcomm_rt::RtComm`), so kernel results, verify findings and
//! per-rank counters agree across backends by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_simnet::{op_actor_id, EdgeKind, SimTime, SpanKind};
use ovcomm_verify::plan::{self, CollAlgo, CollPlan};
use ovcomm_verify::{CollKind, Event as VEvent, Site};

use crate::collsel::CollSelector;
use crate::metrics::OpKind;
use crate::payload::Payload;
use crate::planexec::{execute_plan, PlanRun};
use crate::request::Request;
use crate::rma::Win;
use crate::state::SplitResult;
use crate::transport::{self, post_recv, post_send, CommEnv, Transport, WORLD_CTX};

/// A collective shape: `(kind, algo, p, n, root)`. Plans depend on nothing
/// else.
type Shape = (CollKind, CollAlgo, usize, usize, usize);

/// Total plan steps [`PlanCache`] holds; a shape that would pass this
/// empties the cache first. A p = 4,096 recursive-doubling allreduce is
/// 196,608 steps.
const PLAN_CACHE_MAX_STEPS: usize = 1 << 22;

/// Compiled per-rank collective schedules, keyed by shape, with whether
/// each shape has been model-checked. Every run of the process — sim or
/// rt — compiles through one ([`plan_cache_stats`] reports on it); tests
/// may build their own.
#[derive(Default)]
pub struct PlanCache {
    shapes: BTreeMap<Shape, CachedPlans>,
    steps: usize,
    hits: u64,
    misses: u64,
    checks: u64,
}

struct CachedPlans {
    plans: Arc<Vec<CollPlan>>,
    checked: bool,
}

/// What a [`PlanCache`] has done so far. For the process-wide cache
/// ([`plan_cache_stats`]) these describe the process, not a run: every
/// count depends on what ran earlier in it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache: no plan built.
    pub hits: u64,
    /// Lookups that built their shape's plans.
    pub misses: u64,
    /// Shapes model-checked (at most once per shape while it is cached).
    pub checks: u64,
    /// Shapes cached now.
    pub shapes: usize,
    /// Plan steps cached now, summed over every rank's plan.
    pub steps: usize,
}

impl PlanCache {
    /// An empty cache.
    pub const fn new() -> PlanCache {
        PlanCache {
            shapes: BTreeMap::new(),
            steps: 0,
            hits: 0,
            misses: 0,
            checks: 0,
        }
    }

    /// Counts so far; see [`PlanCacheStats`].
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            checks: self.checks,
            shapes: self.shapes.len(),
            steps: self.steps,
        }
    }
}

/// The process-wide plan cache every communicator compiles through.
static PLAN_CACHE: Mutex<PlanCache> = Mutex::new(PlanCache::new());

/// Snapshot of the process-wide plan cache. See [`PlanCacheStats`].
pub fn plan_cache_stats() -> PlanCacheStats {
    PLAN_CACHE.lock().stats()
}

/// Model-check one shape's plans at every eager/rendezvous cutpoint;
/// panics with the findings, if any.
fn check_plans(plans: &[CollPlan], (_, algo, p, n, root): Shape) {
    let findings = plan::model_check_single(plans, &plan::McConfig::default()).findings;
    if !findings.is_empty() {
        use std::fmt::Write as _;
        let mut msg = format!("static plan analysis failed for {algo} p={p} n={n} root={root}:");
        for f in findings.iter().take(8) {
            let _ = write!(msg, "\n  {f}");
        }
        if findings.len() > 8 {
            let _ = write!(msg, "\n  ... and {} more finding(s)", findings.len() - 8);
        }
        panic!("{msg}");
    }
}

/// Compile (or fetch from `cache`) the per-rank plans for one collective
/// shape, selecting the algorithm via `sel` and, when `check` is set,
/// model-checking the shape at every eager/rendezvous cutpoint; a finding
/// panics. The check runs at any `p`: it is one deterministic pass per
/// cutpoint and never branches. A shape is built once and checked once
/// while it stays cached; one built unchecked is checked the first time a
/// checking run asks for it. Backend-neutral: both the simulator and
/// the `ovcomm-rt` wall-clock backend compile collectives through this
/// exact path (and through one process-wide cache), so the `CollSelector`
/// and the static-analysis wall behave identically on either.
pub fn compile_plans(
    cache: &Mutex<PlanCache>,
    sel: &CollSelector,
    check: bool,
    p: usize,
    kind: CollKind,
    n: usize,
    root: usize,
) -> Arc<Vec<CollPlan>> {
    let shape = (kind, sel.select(kind, n, p), p, n, root);
    let mut guard = cache.lock();
    let cache = &mut *guard;
    if let Some(cached) = cache.shapes.get_mut(&shape) {
        cache.hits += 1;
        if check && !cached.checked {
            check_plans(&cached.plans, shape);
            cache.checks += 1;
            cached.checked = true;
        }
        return cached.plans.clone();
    }
    cache.misses += 1;
    let mut plans = plan::build_all(kind, shape.1, p, n, root);
    // Cached plans outlive their run: drop the builder's spare capacity.
    for plan in &mut plans {
        plan.steps.shrink_to_fit();
        plan.bufs.shrink_to_fit();
    }
    if check {
        check_plans(&plans, shape);
        cache.checks += 1;
    }
    let steps: usize = plans.iter().map(|plan| plan.steps.len()).sum();
    if cache.steps + steps > PLAN_CACHE_MAX_STEPS {
        cache.shapes.clear();
        cache.steps = 0;
    }
    cache.steps += steps;
    let plans = Arc::new(plans);
    let cached = CachedPlans {
        plans: plans.clone(),
        checked: check,
    };
    cache.shapes.insert(shape, cached);
    plans
}

/// Unwrap a collective result that the plan contract guarantees exists.
fn expect_out(out: Option<Payload>, what: &str) -> Payload {
    match out {
        Some(v) => v,
        None => panic!("{what} plan produced no output"),
    }
}

/// Group/topology info shared by all clones of a communicator handle.
#[derive(Clone)]
pub(crate) struct CommInfo {
    /// Global context id (matching namespace).
    pub ctx: u32,
    /// Member world ranks, in communicator order.
    pub ranks: Arc<Vec<u32>>,
    /// This rank's index within `ranks`.
    pub me: usize,
}

/// A communicator handle for one rank, over backend transport `T`
/// (`ovcomm_simmpi::Comm` on the simulator, `ovcomm_rt::RtComm` on the
/// wall-clock runtime).
#[derive(Clone)]
pub struct Comm<T: Transport> {
    pub(crate) info: CommInfo,
    /// The executing agent — everything backend-specific is behind it.
    pub(crate) agent: T,
    dup_seq: Arc<AtomicU64>,
    split_seq: Arc<AtomicU64>,
    coll_seq: Arc<AtomicU64>,
    /// Per-rank window-creation counter (all members call `win_create` in
    /// the same order, so the values agree across ranks).
    win_seq: Arc<AtomicU64>,
}

impl<T: Transport> Comm<T> {
    /// The world communicator handle of the rank `agent` runs.
    #[doc(hidden)]
    pub fn new_world(agent: T, ranks: Arc<Vec<u32>>, me: usize) -> Comm<T> {
        Comm::new(
            CommInfo {
                ctx: WORLD_CTX,
                ranks,
                me,
            },
            agent,
        )
    }

    fn new(info: CommInfo, agent: T) -> Comm<T> {
        if let Some(v) = agent.env().verify.as_ref() {
            // Every rank records the (identical) declaration; the analyzer
            // keys on the context id, so duplicates are harmless.
            v.record(VEvent::CommDecl {
                ctx: info.ctx,
                members: info.ranks.clone(),
            });
        }
        Comm {
            info,
            agent,
            dup_seq: Arc::new(AtomicU64::new(0)),
            split_seq: Arc::new(AtomicU64::new(0)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            win_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The backend agent this handle executes on.
    #[doc(hidden)]
    pub fn agent(&self) -> &T {
        &self.agent
    }

    fn env(&self) -> &CommEnv {
        self.agent.env()
    }

    /// Record a span from `t0` to now on this agent's track.
    pub(crate) fn span_since(
        &self,
        kind: SpanKind,
        chunk: Option<u32>,
        t0: SimTime,
        label: impl FnOnce() -> String,
    ) {
        let agent = &self.agent;
        agent
            .env()
            .span(agent.id(), kind, chunk, t0, agent.now(), label);
    }

    /// Log a collective call on this communicator into the verifier's
    /// per-agent event stream (no-op when verification is off).
    fn record_coll(
        &self,
        kind: CollKind,
        root: Option<u32>,
        len: usize,
        blocking: bool,
        site: Site,
    ) {
        if let Some(v) = self.env().verify.as_ref() {
            v.record(VEvent::Coll {
                rank: self.agent.rank(),
                ctx: self.info.ctx,
                kind,
                root,
                len,
                blocking,
                req: None,
                site: Some(site),
            });
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.info.ranks.len()
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.info.me
    }

    /// World rank of communicator index `idx`.
    pub fn world_rank(&self, idx: usize) -> usize {
        self.info.ranks[idx] as usize
    }

    fn coll_seq_next(&self) -> u64 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// This communicator's compiled plans for one collective shape.
    fn plans(&self, kind: CollKind, n: usize, root: usize) -> Arc<Vec<CollPlan>> {
        let env = self.env();
        compile_plans(
            &PLAN_CACHE,
            &env.coll_select,
            env.verify.is_some(),
            self.size(),
            kind,
            n,
            root,
        )
    }

    /// Child handle over `ranks` on context `ctx`, run by the same agent.
    fn child(&self, ctx: u32, ranks: Arc<Vec<u32>>, me: usize) -> Comm<T> {
        Comm::new(CommInfo { ctx, ranks, me }, self.agent.clone())
    }

    // ---------------------------------------------------------------
    // Communicator management
    // ---------------------------------------------------------------

    /// Duplicate: a new context over the same group. All ranks must call in
    /// the same order (as in MPI). Used to create the `N_DUP` communicator
    /// copies of the nonblocking-overlap technique.
    #[track_caller]
    pub fn dup(&self) -> Comm<T> {
        self.record_coll(
            CollKind::Dup,
            None,
            0,
            false,
            std::panic::Location::caller(),
        );
        let seq = self.dup_seq.fetch_add(1, Ordering::Relaxed);
        let env = self.env();
        env.metrics.comm_dup(self.agent.rank(), self.info.ctx);
        let ctx = env.comms.lock().child_ctx(self.info.ctx, seq);
        self.child(ctx, self.info.ranks.clone(), self.info.me)
    }

    /// `n` duplicates (convenience for building N_DUP bundles).
    #[track_caller]
    pub fn dup_n(&self, n: usize) -> Vec<Comm<T>> {
        (0..n).map(|_| self.dup()).collect()
    }

    /// Collective window creation (`MPI_Win_create`): every member exposes
    /// `local` as its segment and gets back a handle over all segments.
    /// The window starts **outside** any epoch — the first `fence` opens
    /// the first access epoch, or take a passive-target `lock`.
    #[track_caller]
    pub fn win_create(&self, local: Payload) -> Win<T> {
        let site: Site = std::panic::Location::caller();
        let seq = self.win_seq.fetch_add(1, Ordering::Relaxed);
        let key = (self.info.ctx, seq);
        let id = ((self.info.ctx as u64) << 32) | seq;
        let env = self.env();
        if let Some(v) = env.verify.as_ref() {
            v.record(VEvent::WinDecl {
                rank: self.agent.rank(),
                win: id,
                site: Some(site),
            });
        }
        env.rma_metric(self.agent.rank(), "win_create", local.len());
        // Private duplicate for the window's own barriers, so fence
        // traffic can never match user traffic on the parent comm.
        Win::open(self.dup(), key, id, local)
    }

    /// Split by color/key (like `MPI_Comm_split`). Ranks passing a negative
    /// color get `None`. Synchronizes all members of this communicator:
    /// every rank deposits its (rank, color, key), the last one computes
    /// the grouping and completes everyone's rendezvous request.
    // The `expect`s below assert split-rendezvous bookkeeping shared by all
    // members; `position` must succeed because this rank deposited itself.
    #[allow(clippy::expect_used, clippy::unwrap_used)]
    #[track_caller]
    pub fn split(&self, color: i64, key: u64) -> Option<Comm<T>> {
        self.record_coll(
            CollKind::Split,
            None,
            0,
            true,
            std::panic::Location::caller(),
        );
        let seq = self.split_seq.fetch_add(1, Ordering::Relaxed);
        let env = self.env();
        let gather_key = (self.info.ctx, seq);
        let me = self.rank();
        // Internal rendezvous handle: untracked, invisible to leak analysis.
        let mine: Request<Arc<SplitResult>> = Request::new();

        let complete = {
            let mut reg = env.comms.lock();
            let sg = reg.splits.entry(gather_key).or_default();
            sg.entries.push((me, color, key));
            sg.latest = sg.latest.max(self.agent.now());
            sg.waiters.push(mine.clone());
            if sg.entries.len() == self.size() {
                // Last depositor: compute groups, allocating child contexts
                // through the registry (so every rank agrees), and publish.
                let sg = reg.splits.remove(&gather_key).expect("split entry");
                let parent = self.info.ctx;
                let mut gi = 0u64;
                let res = SplitResult::compute(&sg.entries, sg.latest, || {
                    let ctx = reg.child_ctx(parent, (1 << 32) | (seq << 8) | gi);
                    gi += 1;
                    ctx
                });
                Some((Arc::new(res), sg.waiters))
            } else {
                None
            }
        };
        if let Some((res, waiters)) = complete {
            for w in &waiters {
                self.agent.complete(w, res.clone(), res.at);
            }
        }

        // Wait until the result is available. Register the block with the
        // verifier so a rank missing from the split shows up in a deadlock
        // diagnosis as "blocked in MPI_Comm_split".
        if let Some(v) = env.verify.as_ref() {
            v.wait_begin_split(self.agent.id(), self.info.ctx);
        }
        let result = self.agent.wait(&mine);
        if let Some(v) = env.verify.as_ref() {
            v.wait_end(self.agent.id());
        }

        if color < 0 {
            return None;
        }
        let (ctx, members) = result
            .group_of(me)
            .expect("non-negative color must produce a group");
        let my_index = members.iter().position(|&r| r == me).unwrap();
        let world_ranks: Vec<u32> = members.iter().map(|&r| self.info.ranks[r]).collect();
        Some(self.child(ctx, Arc::new(world_ranks), my_index))
    }

    // ---------------------------------------------------------------
    // Point-to-point
    // ---------------------------------------------------------------

    /// Nonblocking send to communicator rank `dst` with a user tag.
    #[track_caller]
    pub fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()> {
        self.env()
            .metrics
            .op(self.agent.rank(), OpKind::Isend, payload.len());
        post_send(
            &self.agent,
            std::panic::Location::caller(),
            self.info.ctx,
            self.info.ranks[dst],
            tag as u64,
            payload,
        )
    }

    /// Nonblocking receive from communicator rank `src`.
    #[track_caller]
    pub fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        self.env().metrics.op(self.agent.rank(), OpKind::Irecv, 0);
        post_recv(
            &self.agent,
            std::panic::Location::caller(),
            self.info.ctx,
            self.info.ranks[src],
            tag as u64,
        )
    }

    /// Blocking send.
    #[track_caller]
    pub fn send(&self, dst: usize, tag: u32, payload: Payload) {
        let t0 = self.agent.now();
        let n = payload.len();
        self.env().metrics.op(self.agent.rank(), OpKind::Send, n);
        let r = self.isend(dst, tag, payload);
        self.wait(&r);
        self.blocking_done(t0, || format!("MPI_Send {n}B -> {dst}"));
    }

    /// Blocking receive; returns the payload.
    #[track_caller]
    pub fn recv(&self, src: usize, tag: u32) -> Payload {
        let t0 = self.agent.now();
        let r = self.irecv(src, tag);
        let p = self.wait(&r);
        self.env()
            .metrics
            .op(self.agent.rank(), OpKind::Recv, p.len());
        self.blocking_done(t0, || format!("MPI_Recv {}B <- {src}", p.len()));
        p
    }

    /// Record the duration of a blocking call that started at `t0`, and its
    /// `BlockingCall` trace span.
    fn blocking_done(&self, t0: SimTime, label: impl FnOnce() -> String) {
        self.blocking_duration(t0);
        self.span_since(SpanKind::BlockingCall, None, t0, label);
    }

    /// Record the duration of a blocking call that started at `t0`.
    fn blocking_duration(&self, t0: SimTime) {
        let d = self.agent.now().saturating_since(t0);
        self.env()
            .metrics
            .blocking_duration(self.agent.rank(), d.as_nanos());
    }

    /// Blocking concurrent send+receive (`MPI_Sendrecv`).
    #[track_caller]
    pub fn sendrecv(&self, dst: usize, src: usize, tag: u32, payload: Payload) -> Payload {
        let rr = self.irecv(src, tag);
        let sr = self.isend(dst, tag, payload);
        self.wait(&sr);
        self.wait(&rr)
    }

    /// Wait for a request (`MPI_Wait`): blocks, returns the value, and
    /// leaves this rank's clock at or after the completion time.
    pub fn wait<V>(&self, req: &Request<V>) -> V {
        let t0 = self.agent.now();
        let v = transport::wait(&self.agent, req);
        let d = self.agent.now().saturating_since(t0);
        self.env()
            .metrics
            .wait_duration(self.agent.rank(), d.as_nanos());
        v
    }

    /// Wait for a request, recording a `Wait` trace span with `label`.
    pub fn wait_traced<V>(&self, req: &Request<V>, label: &str) -> V {
        self.wait_traced_impl(req, label, None)
    }

    /// Wait for a request, recording a `Wait` trace span tagged with the
    /// pipeline chunk index the request belongs to.
    pub fn wait_traced_chunk<V>(&self, req: &Request<V>, label: &str, chunk: u32) -> V {
        self.wait_traced_impl(req, label, Some(chunk))
    }

    fn wait_traced_impl<V>(&self, req: &Request<V>, label: &str, chunk: Option<u32>) -> V {
        let t0 = self.agent.now();
        let v = self.wait(req);
        self.span_since(SpanKind::Wait, chunk, t0, || label.to_string());
        v
    }

    /// Nonblocking completion probe (`MPI_Test`). It first advances the
    /// rank's posted collectives (on the runtime, where they progress only
    /// inside the rank's calls). True only once the completion time is at
    /// or before this rank's clock: a virtual-time agent cannot observe the
    /// future, and on the wall clock every completion stamp is already in
    /// the past.
    pub fn test<V>(&self, req: &Request<V>) -> bool {
        self.agent.progress();
        self.env().metrics.test_probe(self.agent.rank());
        let done = req.completed_at().is_some_and(|t| t <= self.agent.now());
        if done {
            // Only successful probes are recorded: they prove the rank
            // observed completion (a request retired via `test` is not a
            // leak); a failed poll would only take the verifier lock.
            if let (Some(v), Some(id)) = (self.env().verify.as_ref(), req.verify_id()) {
                v.record(VEvent::TestObserved {
                    agent: self.agent.id(),
                    req: id,
                });
            }
        }
        done
    }

    /// Wait for all requests in order (`MPI_Waitall` for sends).
    pub fn wait_all(&self, reqs: &[Request<()>]) {
        self.wait_all_payloads(reqs);
    }

    /// Wait for all requests in order and return their values
    /// (`MPI_Waitall` for receives and collectives).
    pub fn wait_all_payloads<V>(&self, reqs: &[Request<V>]) -> Vec<V> {
        reqs.iter().map(|r| self.wait(r)).collect()
    }

    // ---------------------------------------------------------------
    // Blocking collectives (run inline on the rank thread)
    // ---------------------------------------------------------------

    /// Panic unless `root` is a member index.
    fn check_root(&self, what: &str, root: usize) {
        let p = self.size();
        assert!(root < p, "{what} root {root} out of range (p={p})");
    }

    /// Range-check `root` and, at the root, check that `data` is present
    /// and `len` bytes long; returns the root's input (`None` elsewhere).
    fn root_input(
        &self,
        what: &str,
        root: usize,
        data: Option<Payload>,
        len: usize,
    ) -> Option<Payload> {
        self.check_root(what, root);
        if self.info.me != root {
            return None;
        }
        match data.as_ref() {
            Some(d) => assert_eq!(d.len(), len, "{what} root data length mismatch"),
            None => panic!("{what} root must supply data"),
        }
        data
    }

    /// Run one blocking collective instance inline on this rank: count it,
    /// compile (or fetch) its plan, execute. Returns the result and the
    /// call's start time.
    fn run_blocking(
        &self,
        op: OpKind,
        kind: CollKind,
        n: usize,
        root: usize,
        input: Option<Payload>,
    ) -> (Option<Payload>, SimTime) {
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        self.env().metrics.op(self.agent.rank(), op, n);
        let plans = self.plans(kind, n, root);
        let out = execute_plan(&self.agent, plans, self.info.clone(), seq, input);
        (out, t0)
    }

    /// Blocking broadcast from `root`. `data` must be `Some` at the root;
    /// `len` is the payload size every rank expects.
    #[track_caller]
    pub fn bcast(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        self.record_coll(
            CollKind::Bcast,
            Some(root as u32),
            len,
            true,
            std::panic::Location::caller(),
        );
        let input = self.root_input("bcast", root, data, len);
        let (out, t0) = self.run_blocking(OpKind::Bcast, CollKind::Bcast, len, root, input);
        self.blocking_done(t0, || format!("MPI_Bcast {len}B root={root}"));
        expect_out(out, "bcast")
    }

    /// Blocking sum-reduction to `root`; returns `Some` at the root.
    #[track_caller]
    pub fn reduce(&self, root: usize, contrib: Payload) -> Option<Payload> {
        let n = contrib.len();
        self.record_coll(
            CollKind::Reduce,
            Some(root as u32),
            n,
            true,
            std::panic::Location::caller(),
        );
        self.check_root("reduce", root);
        let (out, t0) = self.run_blocking(OpKind::Reduce, CollKind::Reduce, n, root, Some(contrib));
        self.blocking_done(t0, || format!("MPI_Reduce {n}B root={root}"));
        out
    }

    /// Blocking sum-allreduce.
    #[track_caller]
    pub fn allreduce(&self, contrib: Payload) -> Payload {
        let n = contrib.len();
        self.record_coll(
            CollKind::Allreduce,
            None,
            n,
            true,
            std::panic::Location::caller(),
        );
        let (out, t0) =
            self.run_blocking(OpKind::Allreduce, CollKind::Allreduce, n, 0, Some(contrib));
        self.blocking_done(t0, || format!("MPI_Allreduce {n}B"));
        expect_out(out, "allreduce")
    }

    /// Blocking barrier.
    #[track_caller]
    pub fn barrier(&self) {
        self.record_coll(
            CollKind::Barrier,
            None,
            0,
            true,
            std::panic::Location::caller(),
        );
        let (_, t0) = self.run_blocking(OpKind::Barrier, CollKind::Barrier, 0, 0, None);
        self.blocking_done(t0, || "MPI_Barrier".to_string());
    }

    /// Blocking scatter of `len` bytes from `root`; returns this rank's
    /// chunk (`chunk_bounds` partitioning in root-relative order).
    #[track_caller]
    pub fn scatter(&self, root: usize, data: Option<Payload>, len: usize) -> Payload {
        self.record_coll(
            CollKind::Scatter,
            Some(root as u32),
            len,
            true,
            std::panic::Location::caller(),
        );
        let input = self.root_input("scatter", root, data, len);
        let (out, t0) = self.run_blocking(OpKind::Scatter, CollKind::Scatter, len, root, input);
        self.blocking_duration(t0);
        expect_out(out, "scatter")
    }

    /// Blocking gather (inverse of scatter); returns `Some` at the root.
    #[track_caller]
    pub fn gather(&self, root: usize, chunk: Payload, len: usize) -> Option<Payload> {
        self.record_coll(
            CollKind::Gather,
            Some(root as u32),
            len,
            true,
            std::panic::Location::caller(),
        );
        self.check_root("gather", root);
        let (out, t0) = self.run_blocking(OpKind::Gather, CollKind::Gather, len, root, Some(chunk));
        self.blocking_duration(t0);
        out
    }

    /// Blocking allgather; `len` is the assembled size.
    #[track_caller]
    pub fn allgather(&self, chunk: Payload, len: usize) -> Payload {
        self.record_coll(
            CollKind::Allgather,
            None,
            len,
            true,
            std::panic::Location::caller(),
        );
        let (out, t0) =
            self.run_blocking(OpKind::Allgather, CollKind::Allgather, len, 0, Some(chunk));
        self.blocking_duration(t0);
        expect_out(out, "allgather")
    }

    // ---------------------------------------------------------------
    // Nonblocking collectives (one resumable plan run each, advanced by
    // the backend)
    // ---------------------------------------------------------------

    /// Nonblocking broadcast (`MPI_Ibcast`). Posting costs `post_base` only:
    /// the paper's Fig. 6 shows Ibcast posts take "very little time" (the
    /// payload is handed to the progress engine zero-copy), in contrast to
    /// `MPI_Ireduce`, whose posts cost a full buffer copy.
    #[track_caller]
    pub fn ibcast(&self, root: usize, data: Option<Payload>, len: usize) -> Request<Payload> {
        let site = std::panic::Location::caller();
        let input = self.root_input("bcast", root, data, len);
        let (req, t0) = self.post(
            OpKind::Ibcast,
            CollKind::Bcast,
            Some(root),
            len,
            false,
            site,
            input,
            |out| expect_out(out, "bcast"),
        );
        self.post_span(t0, || format!("MPI_Ibcast post {len}B root={root}"));
        req
    }

    /// Nonblocking reduction (`MPI_Ireduce`); every rank pays the buffer
    /// copy at post time. Root's request yields `Some(result)`.
    #[track_caller]
    pub fn ireduce(&self, root: usize, contrib: Payload) -> Request<Option<Payload>> {
        let site = std::panic::Location::caller();
        let n = contrib.len();
        self.check_root("reduce", root);
        let (req, t0) = self.post(
            OpKind::Ireduce,
            CollKind::Reduce,
            Some(root),
            n,
            true,
            site,
            Some(contrib),
            |out| out,
        );
        self.post_span(t0, || format!("MPI_Ireduce post {n}B root={root}"));
        req
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`).
    #[track_caller]
    pub fn iallreduce(&self, contrib: Payload) -> Request<Payload> {
        let site = std::panic::Location::caller();
        let n = contrib.len();
        let (req, t0) = self.post(
            OpKind::Iallreduce,
            CollKind::Allreduce,
            None,
            n,
            true,
            site,
            Some(contrib),
            |out| expect_out(out, "allreduce"),
        );
        self.post_span(t0, || format!("MPI_Iallreduce post {n}B"));
        req
    }

    /// Nonblocking barrier (`MPI_Ibarrier`) — the wake-up signal of the
    /// multiple-PPN sleep mechanism.
    #[track_caller]
    pub fn ibarrier(&self) -> Request<()> {
        let site = std::panic::Location::caller();
        self.post(
            OpKind::Ibarrier,
            CollKind::Barrier,
            None,
            0,
            false,
            site,
            None,
            |_| (),
        )
        .0
    }

    /// Record the `Post` trace span of a nonblocking post begun at `t0`.
    fn post_span(&self, t0: SimTime, label: impl FnOnce() -> String) {
        self.span_since(SpanKind::Post, None, t0, label);
    }

    /// Post one nonblocking collective instance: charge the modeled post
    /// cost (`post_base`, plus the buffer copy when `copies`), compile (or
    /// fetch) its plan, hand its resumable run to the backend as a fresh
    /// operation agent (`spawn_op`), and record the op counters and the
    /// post-duration histogram. The returned request completes with
    /// `finish(plan output)` at the time the run ends; also returns the
    /// post's start time.
    // One parameter per fact of the call; bundling them into a struct
    // built at four call sites would only move the list.
    #[allow(clippy::too_many_arguments)]
    fn post<R: Send + 'static>(
        &self,
        op: OpKind,
        kind: CollKind,
        root: Option<usize>,
        n: usize,
        copies: bool,
        site: Site,
        input: Option<Payload>,
        finish: impl FnOnce(Option<Payload>) -> R + Send + 'static,
    ) -> (Request<R>, SimTime) {
        let seq = self.coll_seq_next();
        let t0 = self.agent.now();
        let env = self.env();
        let profile = &env.profile;
        let cost = if copies {
            profile.post_base + profile.copy_time(n)
        } else {
            profile.post_base
        };
        self.agent.charge(cost);
        let plans = self.plans(kind, n, root.unwrap_or(0));

        let rank = self.agent.rank();
        let id = op_actor_id(rank, env.next_op_index(rank));
        let req: Request<R> = env.new_req(|rid| VEvent::Coll {
            rank,
            ctx: self.info.ctx,
            kind,
            root: root.map(|r| r as u32),
            len: n,
            blocking: false,
            req: Some(rid),
            site: Some(site),
        });
        let req2 = req.clone();
        let done = move |agent: &T, out| {
            let v = finish(out);
            let at = agent.now();
            agent.env().edge(EdgeKind::PostWait, id, at, rank, at);
            agent.complete(&req2, v, at);
        };
        let run = PlanRun::new(plans, self.info.clone(), seq, input, Some(Box::new(done)));
        self.agent.spawn_op(id, run);

        env.metrics.op(rank, op, n);
        env.metrics
            .post_duration(rank, self.agent.now().saturating_since(t0).as_nanos());
        (req, t0)
    }
}
