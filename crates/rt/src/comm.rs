//! The runtime's side of the shared front end.
//!
//! [`RtComm`] *is* the simulator's communicator: the one generic front end
//! `ovcomm_simmpi::comm::Comm<T>` — dup/split, point-to-point, wait/test,
//! every blocking and nonblocking collective, plan compilation through
//! `compile_plans` and execution through the shared plan interpreter —
//! instantiated over this crate's [`RtTransport`]. [`RtWin`] is likewise
//! the one window front end `ovcomm_simmpi::rma::Win<T>`, and
//! [`RtRankCtx`] the one per-rank context
//! `ovcomm_simmpi::rank::RankCtx<T>`. Nothing about the API is
//! reimplemented here, and no backend trait is implemented here either
//! (`ovcomm-core` implements each once, for the generic type); this module
//! supplies only what the wall-clock backend does differently, as the
//! [`Transport`] impl of [`RtAgent`]:
//!
//! | method | why the runtime needs its own |
//! |---|---|
//! | `NAME` | `"rt"` |
//! | `id` / `rank` | the agent's identity; a wait is published and woken under its id |
//! | `env` | the shared `CommEnv` is embedded in [`RtShared`] |
//! | `now` | time is the wall: ns since the run's epoch |
//! | `charge` | a post, a copy, a round's slack, modeled compute: the real cost *is* the code — nothing to model |
//! | `charge_reduce` | the executor's `reduce_sum_f64` *is* the work on this thread |
//! | `sleep` | advance the rank's posted collectives, then a real `thread::sleep`, capped at 1 ms so poll loops stay live |
//! | `inject_send` / `inject_recv` | the posted envelope goes through the shared-memory mailbox, under its lock |
//! | `wait` / `complete` | advance the rank's posted collectives, then spin-then-park the rank's OS thread in watchdog-visible slices; wake by unparking it |
//! | `spawn_op` / `progress` | the run joins the rank's posted list and advances once at post; the rank's own thread advances the list without blocking in every wait, test and sleep, and drives it to its end before exiting |
//! | `rma_transfer` | the bytes are already in shared memory: record the edge, complete |
//! | `path_latency` | a lock grant is a thread unpark — no α to charge |

use std::sync::Arc;
use std::time::Duration;

use ovcomm_simmpi::comm::Comm;
use ovcomm_simmpi::payload::Payload;
use ovcomm_simmpi::rank::RankCtx;
use ovcomm_simmpi::rma::Win;
use ovcomm_simmpi::transport::{CommEnv, Envelope, Transport};
use ovcomm_simmpi::{PlanRun, Request};
use ovcomm_simnet::{EdgeKind, SimDur, SimTime};

use crate::shared::{RtShared, Slot};

/// An execution identity on the runtime: actor id, the world rank it acts
/// for, and the shared runtime. The analogue of the simulator's `Agent`,
/// minus the virtual clock (time is the wall). Every agent of a rank —
/// its own and its collectives' operation agents — runs on the rank's OS
/// thread, and only the rank's own agent waits.
#[derive(Clone)]
pub struct RtAgent {
    pub(crate) id: u32,
    pub(crate) rank: u32,
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

/// The handle passed to each rank's closure on the wall-clock runtime —
/// the generic per-rank context over [`RtTransport`].
pub type RtRankCtx = RankCtx<RtTransport>;

impl RtAgent {
    /// The agent of actor `id` (a rank thread's own, `id == rank`, or an
    /// operation actor's) acting for world rank `rank`.
    pub(crate) fn new(id: u32, rank: u32, shared: Arc<RtShared>) -> RtAgent {
        RtAgent { id, rank, shared }
    }
}

impl Transport for RtAgent {
    const NAME: &'static str = "rt";

    fn id(&self) -> u32 {
        self.id
    }

    fn rank(&self) -> u32 {
        self.rank
    }

    fn env(&self) -> &CommEnv {
        &self.shared.env
    }

    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn charge(&self, _d: SimDur) {
        // The cost is whatever the code really costs.
    }

    fn charge_reduce(&self, _n: usize) {
        // Real arithmetic costs real time; nothing to model.
    }

    /// The sleep/poll mechanism of §III-B must really yield the core, but
    /// long modeled naps are capped so poll loops stay responsive in wall
    /// time.
    fn sleep(&self, d: SimDur) {
        self.shared.progress(self.rank);
        let capped = Duration::from_nanos(d.as_nanos()).min(Duration::from_millis(1));
        if !capped.is_zero() {
            std::thread::sleep(capped);
        }
    }

    /// Match against queued receives or park the payload in the mailbox.
    fn inject_send(&self, key: Envelope, payload: Payload, req: Request<()>, eager: bool) {
        let slot = Slot {
            payload,
            sender_req: req,
            eager,
            posted_at: self.shared.now(),
        };
        self.shared.post_send(key, slot);
    }

    /// Match against the mailbox or queue.
    fn inject_recv(&self, key: Envelope, req: Request<Payload>) {
        self.shared.post_recv(key, (req, self.shared.now()));
    }

    fn wait<V>(&self, req: &Request<V>) -> V {
        let arm = |id| req.add_waiter(id);
        let take = || req.try_take().map(|(v, _)| v);
        self.shared
            .wait_until(self.rank, Some((self.id, &arm)), take)
    }

    fn complete<V>(&self, req: &Request<V>, value: V, _at: SimTime) {
        self.shared.complete(req, value);
    }

    /// Add `run` to the rank's posted list and advance the list once, so
    /// the run's first sends go out at post time.
    fn spawn_op(&self, id: u32, run: PlanRun<RtAgent>) {
        self.shared.env.metrics.pool_occupancy.inc();
        self.shared.posted[self.rank as usize]
            .lock()
            .push((id, run));
        self.shared.progress(self.rank);
    }

    fn progress(&self) {
        self.shared.progress(self.rank);
    }

    fn rma_transfer(
        &self,
        src: u32,
        dst: u32,
        _n: usize,
        get: Option<(Request<Payload>, Payload)>,
        done: Request<()>,
    ) {
        let sh = &self.shared;
        let now = sh.now();
        sh.env.edge(EdgeKind::SendRecv, src, now, dst, now);
        if let Some((req, data)) = get {
            sh.complete(&req, data);
        }
        sh.complete(&done, ());
    }

    fn path_latency(&self, _src: u32, _dst: u32) -> SimDur {
        SimDur(0)
    }
}
