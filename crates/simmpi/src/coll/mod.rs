//! Collective execution: compiled schedules run by one shared executor.
//!
//! Collectives are no longer hand-written blocking functions — each
//! instance is compiled (and cached) as a per-rank [`CollPlan`]
//! (`ovcomm_verify::plan`) by a pure algorithm builder chosen by the
//! run's [`CollSelector`](crate::collsel::CollSelector), statically
//! linted, then interpreted by the backend-neutral
//! [plan executor](crate::planexec). Blocking
//! collectives run the executor inline on the rank thread; nonblocking
//! collectives run it on a progress actor whose clock starts at the post
//! time — this is how the simulation gives MPI-3 nonblocking collectives
//! genuine asynchronous progress, and it is what makes the paper's
//! "nonblocking overlap" technique (N_DUP pipelined collectives on
//! duplicated communicators) actually overlap.
//!
//! Every communication round charges `coll_round_slack` of software
//! overhead and local reductions charge `n / gamma_reduce_bw`; those are
//! the NIC-idle gaps that overlapped collectives fill in the paper. On the
//! wall-clock runtime the same calls go through the shared-memory mailbox,
//! slack costs nothing, and the executor's `reduce_sum_f64` *is* the
//! reduction cost — the [`Transport`] decides.

use ovcomm_simnet::{SimTime, SpanKind};

use crate::comm::CommInfo;
use crate::payload::Payload;
use crate::request::Request;
use crate::transport::{self, post_recv, post_send, Transport};

/// Per-instance context handed to the plan executor — its whole I/O
/// surface: the executing agent plus the communicator and instance
/// identity that scope its tags.
pub(crate) struct CollCtx<'a, T: Transport> {
    pub agent: &'a T,
    pub info: &'a CommInfo,
    /// Per-communicator collective sequence number (identical on all ranks
    /// because collectives are called in the same order).
    pub seq: u64,
}

impl<T: Transport> CollCtx<'_, T> {
    /// Internal tag for communication step `step` of this instance.
    fn tag(&self, step: u32) -> u64 {
        assert!(
            self.seq < (1 << 24),
            "too many collectives on one communicator"
        );
        ovcomm_verify::plan::wire_tag(self.seq, step)
    }

    /// Communicator size (must equal the plan's `p`).
    pub fn p(&self) -> usize {
        self.info.ranks.len()
    }

    /// This rank's index within the communicator (must equal the plan's
    /// `me`).
    pub fn me(&self) -> usize {
        self.info.me
    }

    /// Nonblocking internal send of `payload` to communicator index `dst`
    /// with plan-assigned step tag `tag`.
    pub fn isend(&self, dst: usize, tag: u32, payload: Payload) -> Request<()> {
        post_send(
            self.agent,
            std::panic::Location::caller(),
            self.info.ctx,
            self.info.ranks[dst],
            self.tag(tag),
            payload,
        )
    }

    /// Nonblocking internal receive from communicator index `src` with
    /// plan-assigned step tag `tag`.
    pub fn irecv(&self, src: usize, tag: u32) -> Request<Payload> {
        post_recv(
            self.agent,
            std::panic::Location::caller(),
            self.info.ctx,
            self.info.ranks[src],
            self.tag(tag),
        )
    }

    /// Block until a posted step completes; returns its value.
    pub fn wait<V>(&self, r: &Request<V>) -> V {
        transport::wait(self.agent, r)
    }

    /// Charge one communication round of software slack.
    pub fn slack(&self) {
        self.agent.charge(self.agent.env().profile.coll_round_slack);
    }

    /// Charge the local reduction of an `n`-byte operand (the executor
    /// performs the actual arithmetic via `Payload::reduce_sum_f64`).
    pub fn reduce_charge(&self, n: usize) {
        self.agent.charge_reduce(n);
    }

    /// Current time on the executing agent's clock (virtual or wall).
    pub fn now(&self) -> SimTime {
        self.agent.now()
    }

    /// Record a `CollStep` span from `t0` to now (label built lazily; no-op
    /// when tracing is off).
    pub fn step_span(&self, t0: SimTime, label: impl FnOnce() -> String) {
        let agent = self.agent;
        agent
            .env()
            .span(agent.id(), SpanKind::CollStep, None, t0, agent.now(), label);
    }
}
