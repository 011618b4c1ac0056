//! # ovcomm-rt
//!
//! A real shared-memory runtime backend for the ovcomm stack: every rank
//! is an OS thread, payloads move through in-process shared memory, and
//! time is the wall clock. It executes the **same** `Comm` API surface and
//! the **same** compiled `CollPlan` collective schedules as the
//! virtual-time simulator (`ovcomm-simmpi`) — so any kernel written as
//! `fn f<T: Transport>(rc: &RankCtx<T>, …)` runs bit-identically on either
//! backend, and wall-clock measurements from this crate validate the
//! simulator's modeled timings.
//!
//! What is shared with the simulator (by construction, not by parallel
//! implementation):
//!
//! * the whole communicator front end: [`RtComm`] is
//!   `ovcomm_simmpi::comm::Comm<T>` — dup/split, point-to-point,
//!   wait/test, all 11 collectives, argument checks, tag namespacing,
//!   verify events, metrics, spans — instantiated over this crate's
//!   [`RtTransport`] — and the whole window front end: [`RtWin`] is
//!   `ovcomm_simmpi::rma::Win<T>` over the same transport, state machine
//!   (`WinCore`) and registry. The backend plugs in behind the narrow
//!   `ovcomm_simmpi::transport::Transport` seam (clock, the modeled
//!   charge, sleep, injecting a posted envelope into the mailbox,
//!   wait/complete, posted-collective progress, one-sided transfer and
//!   path latency —
//!   the `comm` module's docs list each method and why the runtime needs
//!   its own); the request mint, the eager/rendezvous decision and the
//!   trace sink are the front end's, not this crate's;
//! * the run configuration: [`RtConfig`] is `ovcomm_simmpi::RunConfig`
//!   over this crate's [`RtOpts`], so node map, profile, verification,
//!   selector and tracing are set by the same builders as on the simulator;
//! * the run harness: [`RtRankCtx`] is `ovcomm_simmpi::rank::RankCtx<T>`,
//!   [`RtOutput`] and [`RtError`] are the simulator's `RunOutput` and
//!   `RunError`, and [`run`] ends in the same `CommEnv::finish` epilogue
//!   (trace write, panic triage, deadlock report, verify report, output) —
//!   this crate's `run` owns only the threads, the watchdog and the sampler;
//! * the [`Request`](ovcomm_simmpi::Request) type and wait/test semantics;
//! * collective compilation — `compile_plans` (selector, and under
//!   `Strict` the model check at any communicator size), through the one
//!   process-wide plan cache that simulated runs use too, and the plan
//!   interpreter, `PlanRun`;
//! * eager/rendezvous point-to-point protocols and FIFO envelope matching
//!   (one `Mailbox`, which this crate holds behind a mutex);
//! * the verification event model (`ovcomm-verify`) — the runtime records
//!   the same per-rank events, so the same analyzer checks both
//!   backends;
//! * metric names and the trace span model, so sim-vs-rt comparisons join
//!   records directly.
//!
//! What necessarily differs: completion times are wall-clock nanoseconds
//! since the run's epoch; deadlock detection is a watchdog (all live
//! threads blocked with no completions for
//! [`RtOpts::deadlock_timeout`]) instead of the simulator's exact
//! quiescence test; and progress is caller-driven: a nonblocking
//! collective advances only on its posting rank's thread, inside that
//! rank's own calls, so `run` starts no thread but the ranks', the
//! watchdog and the sampler.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod comm;
pub mod mailbox;
#[allow(unsafe_code)]
pub mod queue;
mod sampler;
mod shared;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ovcomm_simmpi::transport::{panic_message, CommEnv};
use ovcomm_simmpi::{RunConfig, RunError, RunOutput};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

pub use comm::{RtComm, RtRankCtx, RtTransport, RtWin};
pub use ovcomm_simmpi::rank::RtOpts;

use crate::comm::RtAgent;
use crate::shared::RtShared;

/// Configuration of a runtime run: the shared [`RunConfig`] with the
/// runtime's own settings ([`RtOpts`]: watchdog timeout, sampler period).
pub type RtConfig = RunConfig<RtOpts>;

/// Why a runtime run failed — the same [`RunError`] the simulator returns.
pub type RtError = RunError;

/// Results of a successful runtime run — the same [`RunOutput`] the
/// simulator returns, with wall-clock times (ns since the run's epoch) and
/// `net: None` (network-resource statistics exist only where a flow model
/// does).
pub type RtOutput<T> = RunOutput<T>;

/// Run `f` on every rank as a real OS thread; returns when all ranks
/// finish (or the watchdog declares deadlock).
///
/// ```
/// use ovcomm_rt::{run, RtConfig, RtRankCtx};
/// use ovcomm_simmpi::Payload;
/// use ovcomm_simnet::MachineProfile;
///
/// // Two ranks: rank 0 sends a value, rank 1 doubles it — the same
/// // program text runs under `ovcomm_simmpi::run` with a `SimConfig`.
/// let out = run(
///     RtConfig::natural(2, 1, MachineProfile::test_profile()),
///     |rc: RtRankCtx| {
///         let world = rc.world();
///         if rc.rank() == 0 {
///             world.send(1, 0, Payload::from_f64s(&[21.0]));
///             0.0
///         } else {
///             2.0 * world.recv(0, 0).to_f64s()[0]
///         }
///     },
/// )
/// .unwrap();
/// assert_eq!(out.results[1], 42.0);
/// ```
// The `expect`s here are launch-time (thread spawn) invariants.
#[allow(clippy::expect_used)]
pub fn run<T, F>(cfg: RtConfig, f: F) -> Result<RunOutput<T>, RunError>
where
    T: Send + 'static,
    F: Fn(RtRankCtx) -> T + Send + Sync + 'static,
{
    let nranks = cfg.nodemap.nranks();
    let env = CommEnv::new(&cfg);
    let prof = crate::shared::RtProf::new(&env.metrics, nranks);
    let shared = Arc::new(RtShared {
        epoch: Instant::now(),
        env,
        mailbox: Mutex::new(crate::mailbox::Mailbox::new()),
        posted: (0..nranks).map(|_| Mutex::new(Vec::new())).collect(),
        prof,
        live: AtomicUsize::new(nranks),
        blocked: AtomicUsize::new(0),
        progress_epoch: AtomicU64::new(0),
        aborted: AtomicBool::new(false),
        blocked_agents: Mutex::new(FxHashMap::default()),
        deadlock_blocked: Mutex::new(Vec::new()),
    });

    // The watchdog: declare deadlock only when every live rank thread has
    // been blocked, with the completion counter frozen, continuously for
    // the configured timeout.
    let done = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let shared = shared.clone();
        let done = done.clone();
        let timeout = cfg.backend.deadlock_timeout;
        std::thread::Builder::new()
            .name("rt-watchdog".into())
            .spawn(move || {
                let mut stuck_since: Option<(u64, Instant)> = None;
                while !done.load(Ordering::SeqCst) {
                    // Sample every 20 ms; `run` unparks us once `done` is set.
                    std::thread::park_timeout(Duration::from_millis(20));
                    let live = shared.live.load(Ordering::SeqCst);
                    let blocked = shared.blocked.load(Ordering::SeqCst);
                    let epoch = shared.progress_epoch.load(Ordering::SeqCst);
                    let all_blocked = live > 0 && blocked >= live;
                    match (&stuck_since, all_blocked) {
                        (Some((e, since)), true) if *e == epoch => {
                            if since.elapsed() >= timeout {
                                // Snapshot who is blocked on what before
                                // releasing anyone, then abort: parked
                                // threads panic on their next park slice.
                                let snapshot: Vec<(u32, u32)> = shared
                                    .blocked_agents
                                    .lock()
                                    .iter()
                                    .map(|(&a, &(r, _))| (a, r))
                                    .collect();
                                *shared.deadlock_blocked.lock() = snapshot;
                                shared.aborted.store(true, Ordering::SeqCst);
                                return;
                            }
                        }
                        (_, true) => stuck_since = Some((epoch, Instant::now())),
                        (_, false) => stuck_since = None,
                    }
                }
            })
            .expect("failed to spawn watchdog thread")
    };

    let telemetry = cfg
        .backend
        .sample_interval
        .and_then(|d| sampler::start(shared.clone(), d));

    let f = Arc::new(f);
    let world_ranks: Arc<Vec<u32>> = Arc::new((0..nranks as u32).collect());
    let mut handles = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let shared2 = shared.clone();
        let f2 = f.clone();
        let world_ranks2 = world_ranks.clone();
        let h = std::thread::Builder::new()
            .name(format!("rt-rank-{r}"))
            .stack_size(4 << 20)
            .spawn(move || {
                struct Finish(Arc<RtShared>);
                impl Drop for Finish {
                    fn drop(&mut self) {
                        self.0.live.fetch_sub(1, Ordering::SeqCst);
                        // A rank exiting (or unwinding) is progress as far
                        // as the watchdog is concerned.
                        self.0.progress_epoch.fetch_add(1, Ordering::SeqCst);
                    }
                }
                let _guard = Finish(shared2.clone());
                let agent = RtAgent::new(r as u32, r as u32, shared2.clone());
                let out = RtRankCtx::run(agent, world_ranks2, &*f2);
                shared2.finalize(r as u32);
                out
            })
            .expect("failed to spawn rank thread");
        handles.push(h);
    }

    let mut results = Vec::with_capacity(nranks);
    let mut panics: Vec<(usize, String)> = Vec::new();
    for (r, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(v) => results.push(Some(v)),
            Err(p) => {
                results.push(None);
                panics.push((r, panic_message(&*p)));
            }
        }
    }
    done.store(true, Ordering::SeqCst);
    watchdog.thread().unpark();
    let _ = watchdog.join();
    if let Some(s) = telemetry {
        s.stop();
    }
    let deadlock = shared
        .aborted
        .load(Ordering::SeqCst)
        .then(|| shared.deadlock_blocked.lock().clone());
    shared
        .env
        .finish::<RtAgent, T>(results, panics, deadlock, None)
}
