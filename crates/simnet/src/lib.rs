//! # ovcomm-simnet
//!
//! A deterministic, virtual-time, flow-level cluster network simulator — the
//! hardware substrate for reproducing *"Overlapping Communications with Other
//! Communications and its Application to Distributed Dense Matrix
//! Computations"* (Huang & Chow, IPDPS 2019) without a physical cluster.
//!
//! The simulator has four pieces:
//!
//! * [`time`] — `u64`-nanosecond virtual clock types.
//! * [`flow`] — a max–min fair flow network: NICs and memory channels are
//!   capacity resources; transfers are flows with per-stream caps. The fact
//!   that a *single* stream cannot saturate a NIC (the paper's Fig. 3 and the
//!   root motivation for overlapping communications) is modeled by the
//!   message-size-dependent stream cap in [`profile::MachineProfile`].
//! * [`engine`] — a serialized discrete-event engine: actors (MPI ranks) are
//!   stackful coroutines ([`fiber`]); exactly one context runs at a time and
//!   parked actors are released in deterministic `(virtual time, actor id)`
//!   order, making runs bit-deterministic.
//! * [`fiber`] — minimal stackful coroutines (one context switch is a few ns
//!   and a fiber costs one guarded, pooled stack mapping of which only the
//!   touched pages are resident, so tens of thousands of ranks fit in one
//!   process).
//! * [`profile`]/[`topology`] — calibration constants (Stampede2 Skylake
//!   preset fitted to the paper's measured anchors), a fat-tree fabric
//!   with per-link contention, and rank→node maps.
//!
//! Higher layers: `ovcomm-simmpi` implements MPI semantics on these
//! primitives; `ovcomm-kernels` implements the paper's algorithms on that.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod fiber;
pub mod flow;
pub mod profile;
pub mod time;
pub mod topology;
pub mod trace;

pub use engine::{
    Action, Engine, EventKey, NetStats, ParkCell, ResourceEntry, CLASS_FLOW, ENGINE_ORIGIN,
};
pub use fiber::{fiber_yield, in_fiber, Fiber, ForcedUnwind, DEFAULT_STACK_SIZE};
pub use flow::{FlowId, FlowNet, FlowSpec, ResourceId, ResourceKind, ResourceStats};
pub use profile::MachineProfile;
pub use time::{SimDur, SimTime};
pub use topology::{ClusterResources, ClusterSpec, Fabric, GroupPlacement, NodeMap};
pub use trace::{
    actor_name, op_actor_id, rank_of_actor, EdgeKind, SpanKind, Trace, TraceEdge, TraceSpan,
};
