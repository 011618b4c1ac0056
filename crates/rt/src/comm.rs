//! The runtime's side of the communicator front end.
//!
//! [`RtComm`] *is* the simulator's communicator: the one generic front end
//! `ovcomm_simmpi::comm::Comm<T>` — dup/split, point-to-point, wait/test,
//! every blocking and nonblocking collective, plan compilation through
//! `compile_plans` and execution through the shared plan interpreter —
//! instantiated over this crate's [`RtTransport`]; [`RtWin`] is likewise
//! the one window front end `ovcomm_simmpi::rma::Win<T>`. Nothing about
//! the API is reimplemented here; this module supplies only what the
//! wall-clock backend does differently, as the [`Transport`] impl of
//! [`RtAgent`]:
//!
//! | method | why the runtime needs its own |
//! |---|---|
//! | `id` / `rank` / `next_op_index` | the agent's identity lives next to its park cell |
//! | `env` | the shared `CommEnv` is embedded in [`RtShared`] |
//! | `now` | time is the wall: ns since the run's epoch |
//! | `charge_post` | a post or an apply copy costs what it really costs — nothing to model |
//! | `charge_slack` | skipped, or really slept under `ComputeMode::Emulate` |
//! | `charge_reduce` | the executor's `reduce_sum_f64` *is* the work on this thread |
//! | `isend_raw` / `irecv_raw` | envelopes go through the lock-free shared-memory mailbox |
//! | `wait` / `complete` | spin-then-park an OS thread in watchdog-visible slices; wake by condvar |
//! | `span` / `edge` | one mutex-protected trace stamped with wall time |
//! | `spawn_op` | a progress-shard job routed by context, counted live from post time |
//! | `rma_transfer` | the bytes are already in shared memory: count the traffic, complete |
//! | `path_latency` | a lock grant is a condvar wake — no α to charge |
//!
//! [`RtRankCtx`] is the per-rank context (identity, wall clock, world
//! communicator), the analogue of the simulator's `RankCtx`.

use crate::sync::{AtomicU64, Ordering};
use std::cell::Cell;
use std::sync::Arc;

use ovcomm_core::RankHandle;
use ovcomm_simmpi::comm::Comm;
use ovcomm_simmpi::payload::Payload;
use ovcomm_simmpi::rma::Win;
use ovcomm_simmpi::transport::{CommEnv, Transport};
use ovcomm_simmpi::Request;
use ovcomm_simnet::{EdgeKind, MachineProfile, NodeMap, ParkCell, SimDur, SimTime, SpanKind};
use ovcomm_verify::Site;

use crate::mailbox::RtKey;
use crate::shared::RtShared;
use crate::ComputeMode;

/// An execution identity on the runtime: actor id, the world rank it acts
/// for, its park cell, and the shared runtime. The analogue of the
/// simulator's `Agent`, minus the virtual clock (time is the wall).
#[derive(Clone)]
pub struct RtAgent {
    pub(crate) id: u32,
    pub(crate) rank: u32,
    pub(crate) cell: Arc<ParkCell>,
    /// Counter of nonblocking operations posted by this rank (mints op
    /// actor ids). Only rank agents use it.
    pub(crate) op_counter: Arc<AtomicU64>,
    pub(crate) shared: Arc<RtShared>,
}

/// The runtime's side of the [`Transport`] seam.
pub type RtTransport = RtAgent;

/// A communicator handle for one rank of the wall-clock runtime — the
/// generic front end over [`RtTransport`].
pub type RtComm = Comm<RtTransport>;

/// A one-sided window handle for one rank of the wall-clock runtime —
/// the generic window front end over [`RtTransport`].
pub type RtWin = Win<RtTransport>;

impl Transport for RtAgent {
    fn id(&self) -> u32 {
        self.id
    }

    fn rank(&self) -> u32 {
        self.rank
    }

    fn next_op_index(&self) -> u64 {
        self.op_counter.fetch_add(1, Ordering::Relaxed)
    }

    fn env(&self) -> &CommEnv {
        &self.shared.env
    }

    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn charge_post(&self, _d: SimDur) {
        // The cost is whatever the code really costs.
    }

    fn charge_slack(&self, d: SimDur) {
        self.shared.charge(d);
    }

    fn charge_reduce(&self, _n: usize) {
        // Real arithmetic costs real time; nothing to model.
    }

    fn isend_raw(&self, site: Site, ctx: u32, dst: u32, tag: u64, payload: Payload) -> Request<()> {
        let key = RtKey {
            ctx,
            src: self.rank,
            dst,
            tag,
        };
        self.shared
            .isend_raw(self.id, self.rank, site, key, payload)
    }

    fn irecv_raw(&self, site: Site, ctx: u32, src: u32, tag: u64) -> Request<Payload> {
        let key = RtKey {
            ctx,
            src,
            dst: self.rank,
            tag,
        };
        self.shared.irecv_raw(self.id, self.rank, site, key)
    }

    fn wait<V>(&self, req: &Request<V>) -> V {
        self.shared.wait_req(self.id, self.rank, &self.cell, req)
    }

    fn complete<V>(&self, req: &Request<V>, value: V, _at: SimTime) {
        self.shared.complete(req, value);
    }

    fn span(
        &self,
        kind: SpanKind,
        chunk: Option<u32>,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> String,
    ) {
        self.shared.span(self.id, kind, chunk, start, end, label);
    }

    fn edge(
        &self,
        kind: EdgeKind,
        from_actor: u32,
        from_time: SimTime,
        to_actor: u32,
        to_time: SimTime,
    ) {
        self.shared
            .edge(kind, from_actor, from_time, to_actor, to_time);
    }

    /// Run `body` on a progress worker under its own operation agent.
    fn spawn_op(&self, id: u32, ctx: u32, body: impl FnOnce(&RtAgent) + Send + 'static) {
        let sh = self.shared.clone();
        let rank = self.rank;
        // The job counts as a live thread from post time, so the watchdog
        // never mistakes "everyone blocked waiting on a queued job" for a
        // deadlock.
        sh.live.fetch_add(1, Ordering::SeqCst);
        sh.env.metrics.pool_occupancy.inc();
        // Route by communicator: each dup'd communicator's collectives
        // progress on their own shard of the engine.
        let shard = sh.progress.shard_of(ctx);
        let sh2 = sh.clone();
        sh.progress.submit(
            shard,
            Box::new(move || {
                struct Finish(Arc<RtShared>, usize);
                impl Drop for Finish {
                    fn drop(&mut self) {
                        self.0.progress.job_finished(self.1);
                        self.0.env.metrics.pool_occupancy.dec();
                        self.0.live.fetch_sub(1, Ordering::SeqCst);
                        self.0.progress_epoch.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let _guard = Finish(sh2.clone(), shard);
                let agent = RtAgent {
                    id,
                    rank,
                    cell: Arc::new(ParkCell::new()),
                    op_counter: Arc::new(AtomicU64::new(0)),
                    shared: sh2.clone(),
                };
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&agent)));
                if let Err(e) = out {
                    // Deadlock-abort unwinds land here; record others for
                    // the runtime to surface.
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<op worker panic>".to_string());
                    sh2.record_op_panic(rank, msg);
                }
            }),
        );
    }

    fn rma_transfer(
        &self,
        src: u32,
        dst: u32,
        n: usize,
        get: Option<(Request<Payload>, Payload)>,
        done: Request<()>,
    ) {
        let sh = &self.shared;
        sh.count_message(src, dst, n);
        let now = sh.now();
        sh.edge(EdgeKind::SendRecv, src, now, dst, now);
        if let Some((req, data)) = get {
            sh.complete(&req, data);
        }
        sh.complete(&done, ());
    }

    fn path_latency(&self, _src: u32, _dst: u32) -> SimDur {
        SimDur(0)
    }
}

// ---------------------------------------------------------------------
// The per-rank context
// ---------------------------------------------------------------------

/// Handle passed to each rank's closure on the runtime backend: identity,
/// the wall clock, and the world communicator. The analogue of the
/// simulator's `RankCtx`.
pub struct RtRankCtx {
    pub(crate) agent: RtAgent,
    pub(crate) world: RtComm,
    active_ppn: Cell<usize>,
}

impl RtRankCtx {
    pub(crate) fn new(agent: RtAgent, world: RtComm) -> RtRankCtx {
        RtRankCtx {
            agent,
            world,
            active_ppn: Cell::new(0),
        }
    }

    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.agent.rank as usize
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.agent.shared.nodemap.nranks()
    }

    /// Logical node hosting this rank (everything is physically shared
    /// memory; the node map scopes traffic accounting and PPN logic).
    pub fn node(&self) -> usize {
        self.agent.shared.nodemap.node_of(self.rank())
    }

    /// Number of ranks sharing this rank's logical node.
    pub fn ppn(&self) -> usize {
        let me = self.node();
        (0..self.nranks())
            .filter(|&r| self.agent.shared.nodemap.node_of(r) == me)
            .count()
    }

    /// The world communicator (all ranks).
    pub fn world(&self) -> RtComm {
        self.world.clone()
    }

    /// Wall-clock nanoseconds since the run's epoch.
    pub fn now(&self) -> SimTime {
        self.agent.shared.now()
    }
}

impl RankHandle for RtRankCtx {
    type Comm = RtComm;

    fn rank(&self) -> usize {
        RtRankCtx::rank(self)
    }
    fn nranks(&self) -> usize {
        RtRankCtx::nranks(self)
    }
    fn node(&self) -> usize {
        RtRankCtx::node(self)
    }
    fn ppn(&self) -> usize {
        RtRankCtx::ppn(self)
    }
    fn compute_ppn(&self) -> usize {
        let o = self.active_ppn.get();
        if o == 0 {
            self.ppn()
        } else {
            o
        }
    }
    fn set_active_ppn(&self, active: usize) {
        self.active_ppn.set(active);
    }
    fn world(&self) -> RtComm {
        RtRankCtx::world(self)
    }
    fn now(&self) -> SimTime {
        RtRankCtx::now(self)
    }
    fn advance(&self, d: SimDur) {
        self.agent.shared.charge(d);
    }
    fn compute_flops(&self, flops: f64, rate: f64) {
        assert!(rate > 0.0 && flops >= 0.0);
        let sh = &self.agent.shared;
        let t0 = sh.now();
        sh.charge(SimDur::from_secs_f64(flops / rate));
        sh.span(self.agent.id, SpanKind::Compute, None, t0, sh.now(), || {
            format!("compute {flops:.3e} flops")
        });
    }
    fn sleep(&self, d: SimDur) {
        // The sleep/poll mechanism of §III-B must really yield the core,
        // but under `Skip` long modeled naps are capped so poll loops stay
        // responsive in wall time.
        let real = std::time::Duration::from_nanos(d.as_nanos());
        let capped = match self.agent.shared.compute {
            ComputeMode::Skip => real.min(std::time::Duration::from_millis(1)),
            ComputeMode::Emulate => real,
        };
        if !capped.is_zero() {
            std::thread::sleep(capped);
        }
    }
    fn profile(&self) -> &MachineProfile {
        &self.agent.shared.env.profile
    }
    fn nodemap(&self) -> &NodeMap {
        &self.agent.shared.nodemap
    }
    fn trace_span(&self, kind: SpanKind, start: SimTime, end: SimTime, label: String) {
        self.agent
            .shared
            .span(self.agent.id, kind, None, start, end, move || label);
    }
    fn trace_span_chunk(
        &self,
        kind: SpanKind,
        chunk: u32,
        start: SimTime,
        end: SimTime,
        label: String,
    ) {
        self.agent
            .shared
            .span(self.agent.id, kind, Some(chunk), start, end, move || label);
    }
    fn phase_span(&self, start: SimTime, label: String) {
        let sh = &self.agent.shared;
        let end = sh.now();
        sh.span(
            self.agent.id,
            SpanKind::Phase,
            None,
            start,
            end,
            move || label,
        );
    }
    fn backend_name(&self) -> &'static str {
        "rt"
    }
}
