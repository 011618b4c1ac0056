//! Agents: the execution identities that post events and block on requests.
//!
//! Every rank fiber owns an agent, and every in-flight nonblocking
//! collective runs on its own *operation agent* (a fiber with a
//! deterministic actor id and its own virtual clock starting at the post
//! time) — this is how MPI-3 nonblocking collectives make asynchronous
//! progress in the simulation. The agent is also the simulator's
//! [`Transport`]: the communicator front end reaches the engine and the
//! flow network only through it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ovcomm_simnet::{Action, EventKey, Fiber, ForcedUnwind, SimDur, SimTime};

use crate::payload::Payload;
use crate::planexec::PlanRun;
use crate::request::Request;
use crate::transport::{CommEnv, Envelope, Transport};
use crate::universe::UniShared;

/// Event class for p2p injection events.
pub(crate) const CLASS_P2P: u8 = 10;
/// Event class for generic timers (sleep, deferred starts).
pub(crate) const CLASS_TIMER: u8 = 20;

/// An execution identity: actor id, world rank it acts for, and its own
/// virtual clock. The engine keeps its wake state under the id. Clones
/// share the clock (used by `Comm` handles and the end-time bookkeeping).
#[derive(Clone)]
pub struct Agent {
    /// Engine actor id (equals `rank` for rank agents; high-bit-tagged for
    /// operation agents).
    pub(crate) id: u32,
    /// World rank this agent acts on behalf of (decides node placement).
    pub(crate) rank: u32,
    clock: Arc<AtomicU64>,
    seq: Arc<AtomicU64>,
    pub(crate) uni: Arc<UniShared>,
}

impl Agent {
    /// The agent of actor `id` acting for world rank `rank`, its clock
    /// starting at `start` (zero for a rank actor, the post time for an
    /// operation actor).
    pub(crate) fn new(id: u32, rank: u32, start: SimTime, uni: Arc<UniShared>) -> Agent {
        Agent {
            id,
            rank,
            clock: Arc::new(AtomicU64::new(start.as_nanos())),
            seq: Arc::new(AtomicU64::new(0)),
            uni,
        }
    }

    /// Current local virtual time.
    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.clock.load(Ordering::Relaxed))
    }

    /// Move the local clock forward by `d`.
    pub(crate) fn advance(&self, d: SimDur) {
        let now = self.now();
        self.clock.store((now + d).as_nanos(), Ordering::Relaxed);
    }

    /// Clamp the local clock up to `t` (no-op if already past it).
    pub(crate) fn advance_to(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.clock.store(t.as_nanos(), Ordering::Relaxed);
        }
    }

    /// Mint a unique event key at time `t` for this agent.
    pub(crate) fn event_key(&self, t: SimTime, class: u8) -> EventKey {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        EventKey {
            time: t,
            class,
            origin: self.id,
            seq,
        }
    }

    /// Schedule `action` at this agent's current clock (or later).
    pub(crate) fn schedule(&self, at: SimTime, class: u8, action: Action) {
        debug_assert!(at >= self.now() || self.now() == at);
        self.uni.engine.schedule(self.event_key(at, class), action);
    }

    /// Perform `bytes` of local reduction compute through this rank's
    /// shared reduction-CPU resource: the time depends on how many other
    /// operations of the same rank are reducing concurrently (max-min
    /// sharing at `gamma_reduce_bw` per stream, `reduce_parallel x` total).
    /// Blocks the calling agent until the work completes.
    pub(crate) fn reduce_compute(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let res = self.uni.cpu[self.rank as usize];
        let cap = self.uni.env.profile.gamma_reduce_bw;
        let (id, at) = (self.id, self.now());
        self.schedule(
            at,
            CLASS_TIMER,
            Box::new(move |e| {
                e.start_flow(
                    vec![res],
                    cap,
                    bytes as f64,
                    Box::new(move |e2| e2.wake(id, e2.now())),
                );
            }),
        );
        let t = self.uni.engine.park();
        self.advance_to(t);
    }
}

impl Transport for Agent {
    const NAME: &'static str = "sim";

    fn id(&self) -> u32 {
        self.id
    }

    fn rank(&self) -> u32 {
        self.rank
    }

    fn env(&self) -> &CommEnv {
        &self.uni.env
    }

    fn now(&self) -> SimTime {
        Agent::now(self)
    }

    fn charge(&self, d: SimDur) {
        self.advance(d);
    }

    /// γ-reduce through the rank's shared reduction-CPU resource, so
    /// concurrent collectives on one rank contend for it.
    fn charge_reduce(&self, n: usize) {
        self.reduce_compute(n);
    }

    /// A timer event wakes the parked fiber `d` from now. Not `advance`:
    /// a `test`-poll loop must yield to the engine between probes.
    fn sleep(&self, d: SimDur) {
        let (id, wake_at) = (self.id, self.now() + d);
        self.schedule(wake_at, CLASS_TIMER, Box::new(move |e| e.wake(id, wake_at)));
        let t = self.uni.engine.park();
        self.advance_to(t);
    }

    /// The send reaches the matching layer as an engine event at this
    /// agent's clock.
    fn inject_send(&self, key: Envelope, payload: Payload, req: Request<()>, eager: bool) {
        let (uni, ts) = (self.uni.clone(), self.now());
        self.schedule(
            ts,
            CLASS_P2P,
            Box::new(move |_| crate::p2p::inject_send(&uni, key, payload, eager, req, ts)),
        );
    }

    fn inject_recv(&self, key: Envelope, req: Request<Payload>) {
        let (uni, tr) = (self.uni.clone(), self.now());
        self.schedule(
            tr,
            CLASS_P2P,
            Box::new(move |_| crate::p2p::inject_recv(&uni, key, req, tr)),
        );
    }

    /// The clock ends at `max(local clock, completion time)`.
    fn wait<V>(&self, req: &Request<V>) -> V {
        loop {
            if let Some((v, t)) = req.try_take() {
                // A wake may still be pending if the completion raced with
                // our check; consume it so the engine's runnable count stays
                // balanced.
                if let Some(tw) = self.uni.engine.consume_pending() {
                    self.advance_to(tw);
                }
                self.advance_to(t);
                return v;
            }
            if req.add_waiter(self.id) {
                let tw = self.uni.engine.park();
                self.advance_to(tw);
            }
        }
    }

    fn complete<V>(&self, req: &Request<V>, value: V, at: SimTime) {
        self.uni.complete(req, value, at);
    }

    /// Run `run` to its end on a fresh progress actor whose clock starts at
    /// this rank's current time.
    fn spawn_op(&self, id: u32, mut run: PlanRun<Agent>) {
        let uni = self.uni.clone();
        let rank = self.rank;
        let start = self.now();
        let uni2 = uni.clone();
        uni.env.metrics.pool_occupancy.inc();
        // The engine releases the op at its post time `start`.
        let job = move || {
            struct Finish {
                uni: Arc<UniShared>,
                id: u32,
            }
            impl Drop for Finish {
                fn drop(&mut self) {
                    self.uni.engine.actor_finished(self.id);
                }
            }
            let _guard = Finish {
                uni: uni2.clone(),
                id,
            };
            struct Occupied(Arc<UniShared>);
            impl Drop for Occupied {
                fn drop(&mut self) {
                    self.0.env.metrics.pool_occupancy.dec();
                }
            }
            let _occupied = Occupied(uni2.clone());
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                uni2.engine.await_release();
                run.advance(&Agent::new(id, rank, start, uni2.clone()), true);
            }));
            if let Err(e) = out {
                // Fiber cancellation keeps unwinding; deadlock unwinds
                // land here; other panics are recorded for the
                // universe to surface.
                if e.downcast_ref::<ForcedUnwind>().is_some() {
                    std::panic::resume_unwind(e);
                }
                uni2.env.record_op_panic(rank, &*e);
            }
        };
        // Register before returning so the engine cannot advance past the
        // post time before the op actor starts.
        let fiber = Fiber::new(uni.fiber_stack, job);
        uni.engine.register_fiber_at(id, fiber, start);
    }

    /// Each posted collective advances on its own fiber.
    fn progress(&self) {}

    fn rma_transfer(
        &self,
        src: u32,
        dst: u32,
        n: usize,
        get: Option<(Request<Payload>, Payload)>,
        done: Request<()>,
    ) {
        crate::p2p::rma_transfer(self, src, dst, n, get, done);
    }

    fn path_latency(&self, src: u32, dst: u32) -> SimDur {
        crate::p2p::path_params(&self.uni, src, dst, 0).alpha
    }
}
