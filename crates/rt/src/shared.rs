//! Shared runtime state: the wall clock, the envelope matcher, and the
//! blocking-wait protocol.
//!
//! Unlike the simulator — where a virtual-time engine owns the clock and
//! message transport is modeled by network flows — here everything is
//! real: the clock is `Instant::elapsed` since the run's epoch, payloads
//! move by reference through the locked mailbox, and a blocked agent
//! yield-polls, then parks its own OS thread until the completer unparks
//! it by agent id.
//! The post itself — the request, its verify event, the eager/rendezvous
//! decision — is the shared front end's (`transport::post_send` /
//! `post_recv`), as are the trace and the traffic counters (`CommEnv`);
//! this module picks up at [`RtShared::post_send`] /
//! [`RtShared::post_recv`] with an already-minted request. The
//! *protocols* are simmpi's:
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
//! simulator's own matcher, one `Mailbox` behind one mutex. A post holds
//! the lock only for the table update; the matched pair is completed after
//! it is released.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::mailbox::{Mailbox, RecvPost, RtKey, SendPost};
use crate::progress::Pool;

use ovcomm_obs::HistogramFamily;
use ovcomm_simmpi::payload::Payload;
use ovcomm_simmpi::request::Request;
use ovcomm_simmpi::transport::CommEnv;
use ovcomm_simmpi::SimMetrics;
use ovcomm_simnet::{EdgeKind, SimDur, SimTime};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

/// How long a parked thread waits before re-checking the abort flag. Also
/// bounds how quickly a deadlock abort propagates to blocked threads.
pub(crate) const PARK_SLICE: Duration = Duration::from_millis(25);

/// Yield-poll budget of a wait before it falls back to parking: fast
/// completions skip the park/unpark round trip entirely. 50 µs.
const SPIN_BUDGET: SimDur = SimDur(50_000);

/// Wall-clock-only profiling families (`rt.*` metrics), one histogram
/// per rank each, registered into the same registry as the backend's
/// `simmpi.*` families. The blame layer (`ovcomm-obs`) reads these sums to
/// split rt wait time into named causes — spin vs. park vs. rendezvous
/// stall.
pub(crate) struct RtProf {
    /// Per rank: wait time spent spinning (not parked), ns.
    pub wait_spin_ns: HistogramFamily,
    /// Per rank: wait time spent with the thread parked, ns.
    pub wait_park_ns: HistogramFamily,
    /// Per rank: time the first-posted side of a rendezvous pair waited
    /// for its partner to post, ns. Attributed to the late-matched rank's
    /// peer (the side that stalled).
    pub rendezvous_stall_ns: HistogramFamily,
}

impl RtProf {
    pub fn new(metrics: &SimMetrics, nranks: usize) -> RtProf {
        let reg = metrics.registry();
        let by_rank = [("rank", (0..nranks).map(|r| r.to_string()).collect())];
        RtProf {
            wait_spin_ns: reg.histogram_family("rt.wait_spin_ns", &by_rank),
            wait_park_ns: reg.histogram_family("rt.wait_park_ns", &by_rank),
            rendezvous_stall_ns: reg.histogram_family("rt.rendezvous_stall_ns", &by_rank),
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
    /// The envelope matcher (see [`crate::mailbox`]), locked for each
    /// post and each sampler tick.
    pub mailbox: Mutex<Mailbox<Slot, RecvEntry>>,
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
    /// Agent id → `(world rank, thread)` of every agent between publishing
    /// itself as a waiter and leaving its park: whom a completion unparks,
    /// and the deadlock diagnosis.
    pub blocked_agents: Mutex<FxHashMap<u32, (u32, Thread)>>,
    /// Snapshot of `blocked_agents` taken by the watchdog at abort time.
    pub deadlock_blocked: Mutex<Vec<(u32, u32)>>,
}

impl RtShared {
    /// Nanoseconds since the run's epoch, as the backend's `SimTime`.
    pub fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Complete `req` with `value` at the current wall time and unpark the
    /// thread of every waiting agent. A request nobody waits on takes no
    /// further lock.
    pub fn complete<T>(&self, req: &Request<T>, value: T) {
        for id in req.complete(value, self.now()) {
            let waiter = self.blocked_agents.lock().get(&id).map(|(_, t)| t.clone());
            if let Some(thread) = waiter {
                thread.unpark();
            }
        }
        self.progress_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Block `agent` until `req` completes; returns the value. This is the
    /// runtime's `MPI_Wait`: publish the thread, register as a waiter,
    /// park in bounded slices, re-check, and panic out if the watchdog
    /// declared the run deadlocked.
    ///
    /// The thread is in `blocked_agents` before `add_waiter` can hand the
    /// id to a completer, so a completer always finds it and no wake is
    /// lost; an unpark that lands after the waiter moved on leaves a token
    /// that costs one extra loop at its next park.
    pub fn wait_req<T>(&self, agent: u32, rank: u32, req: &Request<T>) -> T {
        // Spin-vs-park accounting: total wait time minus time spent parked
        // is "spin" (busy checking and bookkeeping). The blame layer uses
        // the two per-rank sums to split rt wait time into named causes.
        let t0 = self.now();
        let spin_until = t0 + SPIN_BUDGET;
        let mut park_ns: u64 = 0;
        let out = loop {
            if let Some((v, _at)) = req.try_take() {
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
            self.blocked_agents
                .lock()
                .insert(agent, (rank, thread::current()));
            if req.add_waiter(agent) {
                self.blocked.fetch_add(1, Ordering::SeqCst);
                let parked_at = self.now();
                thread::park_timeout(PARK_SLICE);
                park_ns += self.now().saturating_since(parked_at).as_nanos();
                self.blocked.fetch_sub(1, Ordering::SeqCst);
            }
            self.blocked_agents.lock().remove(&agent);
            if self.aborted.load(Ordering::SeqCst) && !req.is_complete() {
                panic!(
                    "rt deadlock: every thread is blocked and no request completed \
                     (mismatched send/recv or collective call order?)"
                );
            }
        };
        let total_ns = self.now().saturating_since(t0).as_nanos();
        let r = rank as usize;
        if r < self.prof.wait_spin_ns.rows() {
            self.prof
                .wait_spin_ns
                .record(r, total_ns.saturating_sub(park_ns));
            self.prof.wait_park_ns.record(r, park_ns);
        }
        out
    }

    /// Post a send's slot on `key`: match the oldest waiting receive or
    /// park the slot, under the mailbox lock. A match is delivered after
    /// the lock is released. Runs inline on the caller.
    pub fn post_send(&self, key: RtKey, slot: Slot) {
        let posted = self.mailbox.lock().post_send(key, slot);
        if let SendPost::Matched { send, recv } = posted {
            self.deliver_match(key, send, recv);
        }
    }

    /// Post a receive on `key`: match the oldest parked send or queue the
    /// entry, under the mailbox lock. A match is delivered after the lock
    /// is released. Runs inline on the caller.
    pub fn post_recv(&self, key: RtKey, entry: RecvEntry) {
        let posted = self.mailbox.lock().post_recv(key, entry);
        if let RecvPost::Matched { send, recv } = posted {
            self.deliver_match(key, send, recv);
        }
    }

    /// Complete one matched send/receive pair: verify-log the match,
    /// attribute any rendezvous stall to the rank whose partner was late,
    /// record the happens-before edge, and complete both requests.
    ///
    /// Runs on the thread whose post made the match, outside the mailbox
    /// lock. Pairs are independent (distinct requests), so delivery order
    /// across pairs is free.
    fn deliver_match(&self, key: RtKey, send: Slot, (recv_req, recv_posted_at): RecvEntry) {
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
            let stalls = &self.prof.rendezvous_stall_ns;
            if (blamed as usize) < stalls.rows() {
                stalls.record(blamed as usize, stall);
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
