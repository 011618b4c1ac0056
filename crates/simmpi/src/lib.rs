//! # ovcomm-simmpi
//!
//! An in-process MPI-like message-passing library running over the
//! `ovcomm-simnet` virtual-time network simulator. Every rank is a
//! stackful fiber that blocks inside communication calls — rank code reads
//! exactly like MPI code — while virtual time is accounted by the
//! simulator. One scheduler thread runs tens of thousands of ranks in one
//! process.
//!
//! Implemented surface (what the paper's algorithms need, §III–§IV):
//!
//! * communicators: world, `dup` (the N_DUP bundles of the nonblocking
//!   overlap technique), `split` (row/column/grid communicators of process
//!   meshes);
//! * point-to-point: `send`/`recv`/`isend`/`irecv`/`sendrecv` with eager and
//!   rendezvous protocols;
//! * blocking collectives: `bcast`, `reduce`, `allreduce`, `barrier`,
//!   `scatter`, `gather`, `allgather` — each compiled to a per-rank
//!   [`CollPlan`](plan::CollPlan) schedule (binomial, recursive
//!   doubling/halving, Rabenseifner, ring, …) chosen by a tunable
//!   [`CollSelector`], statically linted, and run
//!   by one shared plan executor;
//! * MPI-3 nonblocking collectives: `ibcast`, `ireduce`, `iallreduce`,
//!   `ibarrier` — each runs on its own progress actor, so posted operations
//!   make *asynchronous* progress and genuinely overlap;
//! * requests with `wait`/`test`, deterministic virtual timing, traffic
//!   statistics and Fig-6-style span tracing.
//!
//! Known deviations from MPI, documented by design: no wildcard
//! receives (`MPI_ANY_SOURCE`/`ANY_TAG`), reductions are `f64` sums
//! (`MPI_SUM` over `MPI_DOUBLE` — the only operator the paper's kernels
//! use), `dup` is bookkeeping-only (no synchronization), and receives
//! return owned payloads instead of writing into caller buffers.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod agent;
mod coll;
mod metrics;
mod p2p;
mod state;

pub mod rma;

pub mod collsel;
pub mod comm;
#[doc(hidden)]
pub mod mailbox;
pub mod payload;
mod planexec;
pub mod rank;
pub mod request;
pub mod transport;
pub mod universe;

pub use collsel::CollSelector;

/// The simulator's side of the [`transport::Transport`] seam: a rank's (or
/// progress actor's) agent, with its virtual clock; the engine keeps its
/// wake state under its id.
pub type SimTransport = agent::Agent;

/// A communicator handle for one rank — the generic front end
/// [`comm::Comm`], over the virtual-time transport unless `T` names
/// another backend's (generic code writes `Comm<T>`).
pub type Comm<T = SimTransport> = comm::Comm<T>;

/// The handle passed to each rank's closure — the generic
/// [`rank::RankCtx`], over the virtual-time transport unless `T` names
/// another backend's (generic code writes `RankCtx<T>`).
pub type RankCtx<T = SimTransport> = rank::RankCtx<T>;

/// Why a simulated run failed.
pub type SimError = RunError;

/// Results of a successful simulated run (`net` is always `Some`).
pub type SimOutput<T> = RunOutput<T>;

// Hidden exports for the `ovcomm-rt` wall-clock backend, which shares the
// simulator's communicator front end, request type, plan compilation
// and metric shapes so both backends present one surface.
#[doc(hidden)]
pub use comm::compile_plans;
pub use comm::{plan_cache_stats, PlanCache, PlanCacheStats};
#[doc(hidden)]
pub use metrics::{OpKind, SimMetrics};
pub use ovcomm_simnet::actor_name;
pub use ovcomm_verify::plan;
pub use ovcomm_verify::plan::CollAlgo;
pub use ovcomm_verify::{CollKind, DeadlockReport, Finding, Severity, VerifyMode, VerifyReport};
pub use payload::Payload;
#[doc(hidden)]
pub use planexec::PlanRun;
pub use rank::{RunConfig, RunError, RunOutput};
pub use request::Request;
pub use rma::SimWin;
pub use transport::Transport;
pub use universe::{run, SimConfig, SimOpts};
