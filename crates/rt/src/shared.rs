//! Shared runtime state: the wall clock, the mailbox matching layer, and
//! the blocking-wait protocol.
//!
//! Unlike the simulator — where a virtual-time engine owns the clock and
//! message transport is modeled by network flows — here everything is
//! real: the clock is `Instant::elapsed` since the run's epoch, payloads
//! move by reference through the lock-free mailbox router, and a blocked
//! rank yield-polls, then parks its thread on a condvar until a completion
//! wakes it.
//! The post itself — the request, its verify event, the eager/rendezvous
//! decision — is the shared front end's (`transport::post_send` /
//! `post_recv`), as are the trace and the traffic counters (`CommEnv`);
//! this module picks up at [`RtShared::post`] with an already-minted
//! request. The *protocols* are simmpi's:
//!
//! * **Eager** (`n < eager_limit`): the sender's request completed at post
//!   time (the payload handle is "buffered" in the mailbox); the receive
//!   completes as soon as it matches.
//! * **Rendezvous** (`n ≥ eager_limit`): the sender's request completes
//!   only when the matching receive arrives — so code that deadlocks under
//!   MPI's synchronizing large-message semantics deadlocks here too.
//!
//! Matching follows MPI's non-overtaking rule per `(context, source,
//! destination, tag)` envelope — FIFO queues, no wildcards — in the
//! simulator's own matcher, the `Mailbox` behind the router.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::mailbox::{LockFreeMailbox, MatchPair, PostedOp};
use crate::progress::Pool;
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};

use ovcomm_obs::Histogram;
use ovcomm_simmpi::payload::Payload;
use ovcomm_simmpi::request::Request;
use ovcomm_simmpi::transport::CommEnv;
use ovcomm_simmpi::SimMetrics;
use ovcomm_simnet::{EdgeKind, ParkCell, SimDur, SimTime};

/// How long a parked thread waits before re-checking the abort flag. Also
/// bounds how quickly a deadlock abort propagates to blocked threads.
pub(crate) const PARK_SLICE: Duration = Duration::from_millis(25);

/// Yield-poll budget of a wait before it falls back to parking: fast
/// completions skip the park/unpark round trip entirely. 50 µs.
const SPIN_BUDGET: SimDur = SimDur(50_000);

/// Per-producer ring depth of the lock-free mailbox router. Deep enough
/// that a rank bursting nonblocking posts rarely self-drains; overflow is
/// handled (the poster drains to make room), never dropped.
pub(crate) const RING_CAPACITY: usize = 256;

/// Pre-registered wall-clock-only profiling handles (`rt.*` metrics),
/// feeding the same registry as the backend's `simmpi.*` handles. The
/// blame layer (`ovcomm-obs`) reads these sums to split rt wait time into
/// named causes — spin vs. park vs. rendezvous stall.
pub(crate) struct RtProf {
    /// Per rank: wait time spent spinning (not parked), ns.
    pub wait_spin_ns: Vec<Histogram>,
    /// Per rank: wait time spent parked on the condvar, ns.
    pub wait_park_ns: Vec<Histogram>,
    /// Per rank: time the first-posted side of a rendezvous pair waited
    /// for its partner to post, ns. Attributed to the late-matched rank's
    /// peer (the side that stalled).
    pub rendezvous_stall_ns: Vec<Histogram>,
}

impl RtProf {
    pub fn new(metrics: &SimMetrics, nranks: usize) -> RtProf {
        let reg = metrics.registry();
        let per_rank = |name: &str| -> Vec<Histogram> {
            (0..nranks)
                .map(|r| reg.histogram(name, &[("rank", r.to_string())]))
                .collect()
        };
        RtProf {
            wait_spin_ns: per_rank("rt.wait_spin_ns"),
            wait_park_ns: per_rank("rt.wait_park_ns"),
            rendezvous_stall_ns: per_rank("rt.rendezvous_stall_ns"),
        }
    }
}

/// One posted send parked in the mailbox awaiting its receive.
pub(crate) struct Slot {
    pub payload: Payload,
    /// Sender's request — already complete for eager sends (buffered),
    /// completed at match time for rendezvous.
    pub sender_req: Request<()>,
    /// Eager protocol? (Decides whether matching must also complete the
    /// sender.)
    pub eager: bool,
    /// Wall time the send was posted, for rendezvous-stall accounting.
    pub posted_at: SimTime,
}

/// What a posted receive parks in the mailbox: its request plus the post
/// time, for rendezvous-stall accounting.
pub(crate) type RecvEntry = (Request<Payload>, SimTime);

/// Everything shared between rank threads, progress workers, and the
/// watchdog.
pub(crate) struct RtShared {
    /// Wall-clock epoch; `now()` is nanoseconds since this instant.
    pub epoch: Instant,
    /// What the front end reads and the run's result is built from:
    /// metrics, verifier, plan cache, selector, profile, node map,
    /// registries, trace, traffic counters, rank end times.
    pub env: CommEnv,
    /// The envelope-matching layer: per-rank SPSC rings + an MPSC injector
    /// in front of the sequential tables (see [`crate::mailbox`]).
    pub mailbox: LockFreeMailbox<Slot, RecvEntry>,
    /// The progress engine: the worker pool nonblocking-collective jobs
    /// run on.
    pub progress: Pool,
    pub prof: RtProf,
    /// Threads currently executing user or collective code: rank threads
    /// plus outstanding nonblocking-collective jobs.
    pub live: AtomicUsize,
    /// Of those, how many are parked inside a wait right now.
    pub blocked: AtomicUsize,
    /// Bumped on every request completion; the watchdog declares deadlock
    /// only when this stops moving while everyone is blocked.
    pub progress_epoch: AtomicU64,
    /// Set by the watchdog on deadlock; parked threads panic when they see
    /// it on their next park timeout.
    pub aborted: AtomicBool,
    /// `(agent id, world rank)` of threads currently parked in a wait, for
    /// the deadlock diagnosis.
    pub blocked_agents: Mutex<HashMap<u32, u32>>,
    /// Snapshot of `blocked_agents` taken by the watchdog at abort time.
    pub deadlock_blocked: Mutex<Vec<(u32, u32)>>,
}

impl RtShared {
    /// Nanoseconds since the run's epoch, as the backend's `SimTime`.
    pub fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Complete `req` with `value` at the current wall time and wake every
    /// parked waiter.
    pub fn complete<T>(&self, req: &Request<T>, value: T) {
        let at = self.now();
        for cell in req.complete(value, at) {
            cell.wake_direct(at);
        }
        self.progress_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Block `agent` (parked on `cell`) until `req` completes; returns the
    /// value. This is the runtime's `MPI_Wait`: register as a waiter, park
    /// the OS thread in bounded slices, re-check, and panic out if the
    /// watchdog declared the run deadlocked.
    pub fn wait_req<T>(&self, agent: u32, rank: u32, cell: &Arc<ParkCell>, req: &Request<T>) -> T {
        // Spin-vs-park accounting: total wait time minus time spent parked
        // on the condvar is "spin" (busy checking and bookkeeping). The
        // blame layer uses the two per-rank sums to split rt wait time
        // into named causes.
        let t0 = self.now();
        let spin_until = t0 + SPIN_BUDGET;
        let mut park_ns: u64 = 0;
        let out = loop {
            if let Some((v, _at)) = req.try_take() {
                // Drop any wake raced in after the value was taken; a stale
                // pending would only cause one spurious (harmless) loop in
                // the next wait, but keep the cell clean anyway.
                cell.take_pending_direct();
                break v;
            }
            // Burn a short busy-poll budget before the first park: fast
            // completions then skip the park/unpark round trip entirely.
            // Each failed check releases the CPU — on a box with fewer
            // cores than runnable threads, the completion we are polling
            // for can only happen if the peer gets to run.
            if self.now() < spin_until {
                std::thread::yield_now();
                continue;
            }
            if req.add_waiter(cell) {
                self.blocked.fetch_add(1, Ordering::SeqCst);
                self.blocked_agents.lock().insert(agent, rank);
                let parked_at = self.now();
                let woke = cell.park_timeout_direct(PARK_SLICE);
                park_ns += self.now().saturating_since(parked_at).as_nanos();
                self.blocked_agents.lock().remove(&agent);
                self.blocked.fetch_sub(1, Ordering::SeqCst);
                if woke.is_none() && self.aborted.load(Ordering::SeqCst) {
                    panic!(
                        "rt deadlock: every thread is blocked and no request completed \
                         (mismatched send/recv or collective call order?)"
                    );
                }
            }
        };
        let total_ns = self.now().saturating_since(t0).as_nanos();
        let r = rank as usize;
        if r < self.prof.wait_spin_ns.len() {
            self.prof.wait_spin_ns[r].record(total_ns.saturating_sub(park_ns));
            self.prof.wait_park_ns[r].record(park_ns);
        }
        out
    }

    /// Hand `op`, posted by agent `agent` of world rank `rank`, to the
    /// mailbox router and deliver every match the drain it triggers
    /// surfaces. Runs inline on the caller.
    pub fn post(&self, agent: u32, rank: u32, op: PostedOp<Slot, RecvEntry>) {
        // Rank agents' ids equal their world rank; operation agents' never
        // do. Only a rank thread may produce into its rank's ring.
        let producer = (agent == rank).then_some(rank as usize);
        let mut out = Vec::new();
        // Safety: `producer` is `Some(rank)` only for rank `rank`'s own
        // agent, which only ever runs on its own OS thread — the
        // single-producer contract.
        unsafe { self.mailbox.post(producer, op, &mut out) };
        for m in out {
            self.deliver_match(m);
        }
    }

    /// Complete one matched send/receive pair: verify-log the match,
    /// attribute any rendezvous stall to the rank whose partner was late,
    /// record the happens-before edge, and complete both requests.
    ///
    /// Runs on whichever thread discovered the match — possibly a
    /// different poster acting as matcher. Pairs are independent (distinct
    /// requests),
    /// so delivery order across pairs is free.
    fn deliver_match(&self, m: MatchPair<Slot, RecvEntry>) {
        let MatchPair {
            key,
            send,
            recv: (recv_req, recv_posted_at),
        } = m;
        self.env
            .record_match(send.sender_req.verify_id(), recv_req.verify_id());
        let now = self.now();
        let send_first = send.posted_at <= recv_posted_at;
        if !send.eager {
            // The first-posted side of a rendezvous pair stalls from its
            // post until the partner shows up; blame that side's rank.
            let (stall, blamed) = if send_first {
                (now.saturating_since(send.posted_at).as_nanos(), key.src)
            } else {
                (now.saturating_since(recv_posted_at).as_nanos(), key.dst)
            };
            if let Some(h) = self.prof.rendezvous_stall_ns.get(blamed as usize) {
                h.record(stall);
            }
        }
        let edge_from = if send_first { send.posted_at } else { now };
        self.env
            .edge(EdgeKind::SendRecv, key.src, edge_from, key.dst, now);
        // Rendezvous senders complete at match time (the receiver has
        // arrived); eager senders completed at post.
        if !send.eager {
            self.complete(&send.sender_req, ());
        }
        self.complete(&recv_req, send.payload);
    }
}
