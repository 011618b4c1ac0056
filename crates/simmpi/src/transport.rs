//! The seam between the communicator front end and a backend.
//!
//! [`Comm<T>`](crate::comm::Comm) — dup/split, point-to-point, wait/test,
//! every blocking and nonblocking collective — the one-sided
//! [`Win<T>`](crate::rma::Win) and the per-rank context
//! [`RankCtx<T>`](crate::rank::RankCtx) are each written once, against two
//! things: the [`CommEnv`] both backends embed in their shared state
//! (metrics, verifier, selector, profile, node map, the
//! communicator-context and window registries, the per-rank counters that
//! mint operation-actor ids, and what a run accumulates
//! for its result: the trace, traffic counters, rank end times, captured
//! progress-actor panics), and the [`Transport`] trait, which carries only
//! what the virtual-time simulator and the wall-clock runtime really do
//! differently. A method whose two implementations would have the same
//! body belongs in the front end, not here — which is why the point-to-point
//! post path (`post_send`, `post_recv`: charge, mint the request,
//! complete an eager sender), the verifier's side of `wait` and the trace
//! sink ([`CommEnv::span`], [`CommEnv::edge`]) live in this module and a
//! backend only *injects* the posted envelope into its matcher.

use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_simnet::{
    EdgeKind, MachineProfile, NodeMap, SimDur, SimTime, SpanKind, Trace, TraceEdge, TraceSpan,
};
use ovcomm_verify::{Event, ReqId, Site, Verifier, VerifyMode, INTERNAL_TAG_BIT};

use crate::collsel::CollSelector;
use crate::metrics::SimMetrics;
use crate::payload::Payload;
use crate::planexec::PlanRun;
use crate::rank::RunConfig;
use crate::request::{ReqMeta, Request};
use crate::rma::Windows;
use crate::state::CommRegistry;

/// World communicator context id.
#[doc(hidden)]
pub const WORLD_CTX: u32 = 0;

/// What a send and a receive must agree on to match: FIFO per envelope, no
/// wildcards. The key of the one matcher, [`Mailbox`](crate::mailbox::Mailbox),
/// on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Envelope {
    /// Communicator context id.
    pub ctx: u32,
    /// Source world rank.
    pub src: u32,
    /// Destination world rank.
    pub dst: u32,
    /// Full 64-bit tag (user tags live in the low 32 bits; internal
    /// collective tags set bit 63).
    pub tag: u64,
}

/// The per-run environment of the communicator front end: everything it
/// reads that is *not* backend-specific. Each backend's shared state
/// embeds one (`UniShared::env`, `RtShared::env`) and hands it out through
/// [`Transport::env`].
#[doc(hidden)]
pub struct CommEnv {
    /// Pre-registered `simmpi.*` metric handles (same names on both
    /// backends, so sim-vs-rt reports join per-rank records directly).
    pub metrics: SimMetrics,
    /// Event recorder for communication-correctness verification (`None`
    /// when `VerifyMode::Off`). `Some` also asks plan compilation for the
    /// static plan check.
    pub verify: Option<Arc<Verifier>>,
    /// Collective-algorithm selection policy for this run.
    pub coll_select: CollSelector,
    /// The machine profile (protocol switch, modeled software costs).
    pub profile: MachineProfile,
    /// Rank → node placement. On the runtime everything is physically one
    /// process; the map still scopes PPN logic and the inter/intra split
    /// of the traffic counters.
    pub nodemap: NodeMap,
    /// Communicator-context allocation and in-progress `split` gathers.
    pub(crate) comms: Mutex<CommRegistry>,
    /// Live one-sided windows.
    pub(crate) windows: Mutex<Windows>,
    /// Bytes sent between ranks on different nodes.
    pub(crate) inter_bytes: AtomicU64,
    /// Bytes sent between ranks on the same node.
    pub(crate) intra_bytes: AtomicU64,
    /// Messages sent.
    pub(crate) messages: AtomicU64,
    /// Per rank: nonblocking collectives posted so far (mints
    /// deterministic operation-actor ids).
    op_counts: Vec<AtomicU64>,
    /// Final clock of each rank, recorded as its closure returns.
    pub(crate) rank_end_times: Mutex<Vec<SimTime>>,
    /// `(rank, message)` of every panic that unwound a progress actor.
    pub(crate) op_panics: Mutex<Vec<(u32, String)>>,
    /// Spans and happens-before edges recorded so far; `Some` iff the run
    /// traces.
    pub(crate) trace: Option<Mutex<Trace>>,
    /// Where `finish` writes the trace as Perfetto JSON.
    pub(crate) trace_out: Option<PathBuf>,
}

/// Render a caught panic payload as the message `panic!` was given.
#[doc(hidden)]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

impl CommEnv {
    /// A fresh environment for a run configured by `cfg`.
    pub fn new<B>(cfg: &RunConfig<B>) -> CommEnv {
        let nranks = cfg.nodemap.nranks();
        CommEnv {
            metrics: SimMetrics::new(nranks),
            verify: match cfg.verify {
                VerifyMode::Off => None,
                VerifyMode::Strict => Some(Arc::new(Verifier::new())),
            },
            coll_select: cfg.coll_select.clone(),
            profile: cfg.profile.clone(),
            nodemap: cfg.nodemap.clone(),
            comms: Mutex::new(CommRegistry::new(WORLD_CTX + 1)),
            windows: Mutex::new(Windows::default()),
            inter_bytes: AtomicU64::new(0),
            intra_bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            op_counts: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            rank_end_times: Mutex::new(vec![SimTime::ZERO; nranks]),
            op_panics: Mutex::new(Vec::new()),
            trace: cfg.trace.then(|| Mutex::new(Trace::new())),
            trace_out: cfg.trace_out.clone(),
        }
    }

    /// Record a span on `actor`'s track. Does nothing — `label` is not
    /// called — unless the run traces.
    pub fn span(
        &self,
        actor: u32,
        kind: SpanKind,
        chunk: Option<u32>,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> String,
    ) {
        if let Some(trace) = &self.trace {
            let label = label();
            trace.lock().push(TraceSpan {
                actor,
                kind,
                label,
                chunk,
                start,
                end,
            });
        }
    }

    /// Record a happens-before edge (send→recv from the matching layer,
    /// operation completion → wait from the dispatcher) so obs can rebuild
    /// the run's DAG. Does nothing unless the run traces.
    pub fn edge(
        &self,
        kind: EdgeKind,
        from_actor: u32,
        from_time: SimTime,
        to_actor: u32,
        to_time: SimTime,
    ) {
        if let Some(trace) = &self.trace {
            trace.lock().push_edge(TraceEdge {
                kind,
                from_actor,
                from_time,
                to_actor,
                to_time,
            });
        }
    }

    /// Count one message of `n` bytes from world rank `src` to `dst`,
    /// intra- or inter-node by the node map. Called where a message or a
    /// one-sided transfer is posted.
    pub(crate) fn count_message(&self, src: u32, dst: u32, n: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        let intra = self.nodemap.node_of(src as usize) == self.nodemap.node_of(dst as usize);
        let bytes = if intra {
            &self.intra_bytes
        } else {
            &self.inter_bytes
        };
        bytes.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Index of the next nonblocking collective world rank `rank` posts.
    pub(crate) fn next_op_index(&self, rank: u32) -> u64 {
        self.op_counts[rank as usize].fetch_add(1, Ordering::Relaxed)
    }

    /// A fresh request, tracked when verification is on. `event` builds
    /// the post event for the minted request id.
    pub(crate) fn new_req<V>(&self, event: impl FnOnce(ReqId) -> Event) -> Request<V> {
        match self.verify.as_ref() {
            Some(v) => {
                let id = v.next_req_id();
                v.record(event(id));
                Request::new_tracked(ReqMeta {
                    verifier: v.clone(),
                    id,
                })
            }
            None => Request::new(),
        }
    }

    /// Record a send/recv pairing decided by the matching layer. Always
    /// called before either request completes, so analyses can rely on
    /// log order.
    pub fn record_match(&self, send: Option<ReqId>, recv: Option<ReqId>) {
        if let (Some(v), Some(s), Some(r)) = (self.verify.as_ref(), send, recv) {
            v.record(Event::Match { send: s, recv: r });
        }
    }

    /// Record a panic that unwound a progress actor of `rank`.
    pub fn record_op_panic(&self, rank: u32, payload: &(dyn Any + Send)) {
        self.op_panics.lock().push((rank, panic_message(payload)));
    }

    /// Bump the on-demand `rma.*` counters: one call of `op` moving
    /// `bytes`. Same metric names and labels on both backends, so
    /// sim-vs-rt reports join RMA records directly.
    pub fn rma_metric(&self, rank: u32, op: &str, bytes: usize) {
        let reg = self.metrics.registry();
        let labels = [("op", op.to_string()), ("rank", rank.to_string())];
        reg.counter("rma.calls", &labels).inc();
        if bytes > 0 {
            reg.counter("rma.bytes", &labels).add(bytes as u64);
        }
    }
}

/// Post a nonblocking send of `payload` from `agent`'s rank to world rank
/// `dst` on context `ctx` with the full 64-bit `tag` (user tags live in the
/// low 32 bits; internal collective tags set bit 63): charge the modeled
/// post cost — `small_post`, plus the internal buffer copy of an eager
/// message — mint the request, complete an eager sender at once (buffered:
/// its buffer is reusable immediately), and hand the envelope to the
/// backend's matcher.
pub(crate) fn post_send<T: Transport>(
    agent: &T,
    site: Site,
    ctx: u32,
    dst: u32,
    tag: u64,
    payload: Payload,
) -> Request<()> {
    let env = agent.env();
    let n = payload.len();
    let eager = n < env.profile.eager_limit;
    let mut cost = env.profile.small_post;
    if eager {
        cost += env.profile.copy_time(n);
    }
    agent.charge(cost);
    let req = env.new_req(|id| Event::SendPost {
        agent: agent.id(),
        rank: agent.rank(),
        ctx,
        dst,
        tag,
        bytes: n,
        internal: tag & INTERNAL_TAG_BIT != 0,
        req: id,
        site: Some(site),
    });
    if eager {
        agent.complete(&req, (), agent.now());
    }
    let src = agent.rank();
    env.count_message(src, dst, n);
    agent.inject_send(Envelope { ctx, src, dst, tag }, payload, req.clone(), eager);
    req
}

/// Post a nonblocking receive at `agent`'s rank from world rank `src`:
/// charge `small_post`, mint the request, hand the envelope to the
/// backend's matcher.
pub(crate) fn post_recv<T: Transport>(
    agent: &T,
    site: Site,
    ctx: u32,
    src: u32,
    tag: u64,
) -> Request<Payload> {
    let env = agent.env();
    agent.charge(env.profile.small_post);
    let req = env.new_req(|id| Event::RecvPost {
        agent: agent.id(),
        rank: agent.rank(),
        ctx,
        src,
        tag,
        internal: tag & INTERNAL_TAG_BIT != 0,
        req: id,
        site: Some(site),
    });
    let dst = agent.rank();
    agent.inject_recv(Envelope { ctx, src, dst, tag }, req.clone());
    req
}

/// `MPI_Wait` of a tracked request: the verifier's entry for `agent` stays
/// if a deadlock unwinds the backend's wait, and is the agent's line of the
/// wait-for diagnosis; on success `WaitDone` records the wait.
pub(crate) fn wait<T: Transport, V>(agent: &T, req: &Request<V>) -> V {
    let tracked = agent
        .env()
        .verify
        .as_ref()
        .and_then(|v| Some((v, req.verify_id()?)));
    if let Some((v, id)) = tracked {
        v.wait_begin(agent.id(), id);
    }
    let out = agent.wait(req);
    if let Some((v, id)) = tracked {
        v.wait_end(agent.id());
        v.record(Event::WaitDone {
            agent: agent.id(),
            req: id,
        });
    }
    out
}

/// The caller-driven twin of [`wait`]: take `req`'s value if it has
/// completed, without blocking. The verifier sees what a wait shows it:
/// the first miss (`stopped` is false until then) marks `agent` blocked on
/// `req` for the deadlock diagnosis, and the take clears that and records
/// `WaitDone`.
pub(crate) fn try_wait<T: Transport, V>(agent: &T, req: &Request<V>, stopped: bool) -> Option<V> {
    let out = req.try_take().map(|(v, _)| v);
    if out.is_none() && stopped {
        return None;
    }
    let tracked = agent
        .env()
        .verify
        .as_ref()
        .and_then(|v| Some((v, req.verify_id()?)));
    if let Some((v, id)) = tracked {
        if out.is_none() {
            v.wait_begin(agent.id(), id);
        } else {
            if stopped {
                v.wait_end(agent.id());
            }
            v.record(Event::WaitDone {
                agent: agent.id(),
                req: id,
            });
        }
    }
    out
}

/// What a backend provides to the communicator front end. One value is one
/// *execution identity* (an agent): a rank's own thread/fiber, or the
/// operation agent running one nonblocking collective on a rank's behalf
/// (a fiber of its own on the simulator, the rank's thread on the runtime).
///
/// Every method exists because the two backends genuinely differ in it:
///
/// * identity (`id`, `rank`) — held by each backend's agent; a waiter is
///   registered on a request by id, and each backend wakes the id its own
///   way (the engine's ready queue, or unparking the waiter's thread);
/// * `NAME` — `"sim"` or `"rt"`, stamped on every result;
/// * `now` — a per-agent virtual clock vs. the wall;
/// * `charge` / `charge_reduce` — modeled costs: clock bumps (and a
///   shared γ-reduce CPU resource) on the simulator; nothing on the
///   runtime, where the real cost *is* the code;
/// * `sleep` — a timer event the fiber parks on (so a `test`-poll loop
///   yields to the engine) vs. a real, capped `thread::sleep`;
/// * `inject_send` / `inject_recv` — the posted [`Envelope`] reaches the
///   shared matcher from an engine event at the agent's clock, or under
///   the runtime's mailbox lock;
/// * `wait` / `complete` — park under the event engine and wake at a
///   virtual time, vs. spin-then-park an OS thread under the watchdog;
/// * `spawn_op` / `progress` — a nonblocking collective's [`PlanRun`]
///   runs to its end on a fiber registered with the engine at post time,
///   vs. joins its rank's posted runs, which the rank's thread advances
///   without blocking at post and in every wait, test and sleep
///   (`progress` is that advance, and a no-op on the simulator);
/// * `rma_transfer` / `path_latency` — a one-sided transfer is a modeled
///   flow and a lock hand-off costs α on the simulator; on the runtime the
///   bytes are already in shared memory and a notification is free.
#[doc(hidden)]
pub trait Transport: Clone + Send + Sync + Sized + 'static {
    /// `"sim"` or `"rt"` — recorded into run outputs and bench records so
    /// every result names the backend that produced it.
    const NAME: &'static str;

    /// Actor id of this agent (equals `rank` for rank agents;
    /// high-bit-tagged for operation agents).
    fn id(&self) -> u32;
    /// World rank this agent acts on behalf of.
    fn rank(&self) -> u32;
    /// The run's shared front-end environment.
    fn env(&self) -> &CommEnv;

    /// Current time on this agent's clock (virtual or wall).
    fn now(&self) -> SimTime;
    /// Charge modeled time on the calling agent: the cost of posting a
    /// message, a nonblocking collective or a one-sided operation, an
    /// epoch close's apply copy, a free window lock's round trip, a
    /// collective round's software slack, a kernel's modeled compute.
    fn charge(&self, d: SimDur);
    /// Charge the local reduction of an `n`-byte operand (the plan
    /// executor performs the actual arithmetic).
    fn charge_reduce(&self, n: usize);
    /// Give up the processor for `d` (the `usleep` of the paper's
    /// sleep/poll mechanism, §III-B). Unlike a charge, other agents run
    /// meanwhile.
    fn sleep(&self, d: SimDur);

    /// Hand a send posted by `post_send` to the matching layer. `req` is
    /// already complete iff `eager`; otherwise the backend completes it
    /// when the matching receive has the data.
    fn inject_send(&self, key: Envelope, payload: Payload, req: Request<()>, eager: bool);
    /// Hand a receive posted by `post_recv` to the matching layer, which
    /// completes `req` with the matched payload.
    fn inject_recv(&self, key: Envelope, req: Request<Payload>);

    /// Block until `req` completes and take its value. The verifier's
    /// bookkeeping for a tracked request is `transport::wait`'s. On the
    /// runtime the wait also advances the rank's posted collectives.
    fn wait<V>(&self, req: &Request<V>) -> V;
    /// Complete `req` with `value` and wake its waiters. `at` is the
    /// completion time on the completing agent's clock; the wall-clock
    /// runtime stamps its own.
    fn complete<V>(&self, req: &Request<V>, value: V, at: SimTime);

    /// Take over `run`, a nonblocking collective this rank just posted, to
    /// advance as operation agent `id` of this rank. The simulator runs it
    /// to its end on a fresh fiber whose clock starts at this agent's
    /// current time; the runtime advances it once now, and then from this
    /// rank's waits, tests and sleeps and before the rank's thread exits.
    /// A panic unwinding the run is captured for the run to surface.
    fn spawn_op(&self, id: u32, run: PlanRun<Self>);
    /// Advance this rank's posted collectives as far as they go without
    /// blocking (what `test` calls first). A no-op on the simulator, where
    /// each runs on a fiber of its own.
    fn progress(&self);

    /// Move the `n > 0` bytes of a one-sided operation from world rank
    /// `src` to world rank `dst`, driven by this (origin) agent alone — no
    /// receive exists or is charged. Completes `done` when the last byte
    /// lands; for a get (`src` is the target) also completes the user's
    /// request with the data, one unpack copy after arrival.
    fn rma_transfer(
        &self,
        src: u32,
        dst: u32,
        n: usize,
        get: Option<(Request<Payload>, Payload)>,
        done: Request<()>,
    );
    /// One-way latency of an empty notification from world rank `src` to
    /// `dst` (a passive-target lock request or grant).
    fn path_latency(&self, src: u32, dst: u32) -> SimDur;
}
