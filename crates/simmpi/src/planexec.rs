//! The backend-neutral collective plan executor.
//!
//! A [`PlanRun`] interprets one rank's [`CollPlan`] as a resumable state
//! machine: it posts the plan's sends and receives through the backend's
//! p2p layer, charges per-round slack and reduction compute, materializes
//! buffers (zero-copy slices of the rank's input or received payloads),
//! and takes completions in the order the builder recorded — the
//! blocking-wait order of the hand-written algorithms this replaced. Only
//! `Slack`, `Reduce` charging and message transport cost modeled time.
//!
//! A step waits on its recorded `deps` and nothing else: the plan checker's
//! admission rules out a read of a buffer a dep has not made ready, and
//! `RunState::read`'s assert is the guard for plans run unchecked.
//! [`PlanRun::advance`] meets each dep one of two ways: *blocking*, it
//! waits (blocking collectives, and the simulator's op fibers, which so
//! make the same waits in the same order); or it stops at the first one
//! still incomplete (the wall-clock runtime, inside the rank's own calls),
//! which the verifier sees as it sees a wait. Its whole I/O surface is
//! [`CollCtx`], generic over the backend's [`Transport`].

use std::sync::Arc;

use ovcomm_simnet::SimTime;
use ovcomm_verify::plan::{BufId, CollPlan, StepOp};

use crate::coll::CollCtx;
use crate::comm::CommInfo;
use crate::payload::Payload;
use crate::request::Request;
use crate::transport::Transport;

/// An outstanding nonblocking step posted by the executor.
enum Pending {
    Send(Request<()>),
    Recv(Request<Payload>, BufId),
}

impl Pending {
    fn add_waiter(&self, id: u32) -> bool {
        match self {
            Pending::Send(r) => r.add_waiter(id),
            Pending::Recv(r, _) => r.add_waiter(id),
        }
    }
}

/// What to do with a finished run's output: the nonblocking collective's
/// completion, run by the agent that finished it.
type Finish<T> = Box<dyn FnOnce(&T, Option<Payload>) + Send>;

/// Where a run is: its buffers, its outstanding steps and its position.
struct RunState {
    vals: Vec<Option<Payload>>,
    pending: Vec<Option<Pending>>,
    /// The step to run next. Past the last step, `steps.len() + i` is the
    /// trailing fence's drain of step `i`.
    step: usize,
    /// When the current step started: its `CollStep` span's start.
    t0: Option<SimTime>,
    /// The step whose request the run last stopped at.
    stopped: Option<usize>,
}

impl RunState {
    /// Take step `idx`'s request if it is still outstanding — waiting for
    /// it when `block`, else only if it has completed — and store a
    /// receive's payload into its destination buffer. `None` if the run
    /// stopped at it.
    fn drain<T: Transport>(&mut self, ctx: &CollCtx<'_, T>, idx: usize, block: bool) -> Option<()> {
        let stopped = self.stopped == Some(idx);
        let taken = match &self.pending[idx] {
            None => true,
            Some(Pending::Send(r)) => ctx.take(r, block, stopped).is_some(),
            Some(Pending::Recv(r, into)) => {
                let v = ctx.take(r, block, stopped);
                v.map(|v| self.vals[into.0 as usize] = Some(v)).is_some()
            }
        };
        if !taken {
            self.stopped = Some(idx);
            return None;
        }
        self.pending[idx] = None;
        Some(())
    }

    /// Buffer `b`: an already-produced value, a slice of the rank's input
    /// contribution, or the zero-length literal.
    fn read(&self, plan: &CollPlan, input: Option<&Payload>, b: BufId) -> Payload {
        if let Some(v) = &self.vals[b.0 as usize] {
            return v.clone();
        }
        let buf = &plan.bufs[b.0 as usize];
        if let Some(off) = buf.input_off {
            match input {
                Some(p) => return p.slice(off, off + buf.len),
                None => panic!("plan reads input buffer b{} but rank has no input", b.0),
            }
        }
        assert_eq!(buf.len, 0, "buffer b{} read before being produced", b.0);
        Payload::from_vec(Vec::new())
    }
}

/// One-line label for the `CollStep` trace span of step `i`.
fn step_label(plan: &CollPlan, i: usize) -> String {
    let algo = plan.algo;
    match &plan.steps[i].op {
        StepOp::Slack => format!("{algo} s{i} slack"),
        StepOp::Send { peer, buf, .. } => {
            format!("{algo} s{i} send {}B -> {peer}", plan.buf_len(*buf))
        }
        StepOp::Recv { peer, into, .. } => {
            format!("{algo} s{i} recv {}B <- {peer}", plan.buf_len(*into))
        }
        StepOp::Reduce { into, .. } => {
            format!("{algo} s{i} reduce {}B", plan.buf_len(*into))
        }
        StepOp::Copy { into, .. } => {
            format!("{algo} s{i} copy {}B", plan.buf_len(*into))
        }
    }
}

/// One rank's execution of one collective instance, resumable between
/// dependencies. See the [module docs](self).
#[doc(hidden)]
pub struct PlanRun<T> {
    plans: Arc<Vec<CollPlan>>,
    info: CommInfo,
    seq: u64,
    /// The rank's local contribution (present iff `plan.input` is).
    input: Option<Payload>,
    state: RunState,
    finish: Option<Finish<T>>,
}

impl<T: Transport> PlanRun<T> {
    /// A run of `plans[info.me]`, instance `seq` on communicator `info`,
    /// not yet started. `finish` gets the output once the run ends.
    pub(crate) fn new(
        plans: Arc<Vec<CollPlan>>,
        info: CommInfo,
        seq: u64,
        input: Option<Payload>,
        finish: Option<Finish<T>>,
    ) -> PlanRun<T> {
        let plan = &plans[info.me];
        debug_assert_eq!(plan.p, info.ranks.len());
        debug_assert_eq!(plan.me, info.me);
        if let (Some((_, len)), Some(p)) = (plan.input, input.as_ref()) {
            assert_eq!(
                p.len(),
                len,
                "input payload length does not match the plan's input range"
            );
        }
        let state = RunState {
            vals: vec![None; plan.bufs.len()],
            pending: (0..plan.steps.len()).map(|_| None).collect(),
            step: 0,
            t0: None,
            stopped: None,
        };
        PlanRun {
            plans,
            info,
            seq,
            input,
            state,
            finish,
        }
    }

    /// Run as far as the plan goes on `agent`: to the end when `block`,
    /// else up to the first dependency still incomplete. True once the run
    /// has ended and its finish has run.
    pub fn advance(&mut self, agent: &T, block: bool) -> bool {
        let Some(out) = self.resume(agent, block) else {
            return false;
        };
        if let Some(finish) = self.finish.take() {
            finish(agent, out);
        }
        true
    }

    /// Register agent `id` to be woken when the request this run stopped
    /// at completes. False if there is none left to wait for: advance the
    /// run again instead of parking.
    pub fn add_waiter(&self, id: u32) -> bool {
        let st = &self.state;
        let stopped = st.stopped.and_then(|i| st.pending[i].as_ref());
        stopped.is_some_and(|p| p.add_waiter(id))
    }

    /// The state machine behind [`PlanRun::advance`]: `Some(output)` once
    /// the run has ended, `None` if it stopped at an incomplete dependency.
    fn resume(&mut self, agent: &T, block: bool) -> Option<Option<Payload>> {
        let ctx = CollCtx {
            agent,
            info: &self.info,
            seq: self.seq,
        };
        let plan = &self.plans[self.info.me];
        let input = self.input.as_ref();
        let st = &mut self.state;
        let n = plan.steps.len();
        while st.step < n {
            let i = st.step;
            let step = &plan.steps[i];
            let t0 = *st.t0.get_or_insert_with(|| ctx.now());
            // Complete dependencies in the order the builder recorded them
            // — the blocking-wait order of the original algorithm.
            for d in &step.deps {
                st.drain(&ctx, d.0 as usize, block)?;
            }
            match &step.op {
                StepOp::Slack => ctx.slack(),
                StepOp::Send { peer, buf, tag } => {
                    let payload = st.read(plan, input, *buf);
                    st.pending[i] = Some(Pending::Send(ctx.isend(*peer, *tag, payload)));
                }
                StepOp::Recv { peer, into, tag } => {
                    st.pending[i] = Some(Pending::Recv(ctx.irecv(*peer, *tag), *into));
                }
                StepOp::Reduce { a, b, into } => {
                    let (pa, pb) = (st.read(plan, input, *a), st.read(plan, input, *b));
                    ctx.reduce_charge(pa.len());
                    st.vals[into.0 as usize] = Some(pa.reduce_sum_f64(&pb));
                }
                StepOp::Copy { parts, into } => {
                    let views: Vec<Payload> = parts
                        .iter()
                        .map(|part| {
                            st.read(plan, input, part.buf)
                                .slice(part.off, part.off + part.len)
                        })
                        .collect();
                    st.vals[into.0 as usize] = Some(Payload::concat(&views));
                }
            }
            ctx.step_span(t0, || step_label(plan, i));
            st.t0 = None;
            st.step += 1;
        }

        // Drain everything still outstanding, in post order — the
        // builder's trailing fence.
        while st.step < 2 * n {
            st.drain(&ctx, st.step - n, block)?;
            st.step += 1;
        }

        // Through `read` rather than a direct lookup: single-rank trivial
        // plans set the output to the untouched input buffer.
        Some(plan.output.map(|b| st.read(plan, input, b)))
    }
}

/// Run `plans[info.me]` to the end on the calling agent, blocking on
/// every dependency: a blocking collective. `input` is the rank's local
/// contribution (present iff the plan's input is) and the return value the
/// rank's result (present iff the plan's output is).
pub(crate) fn execute_plan<T: Transport>(
    agent: &T,
    plans: Arc<Vec<CollPlan>>,
    info: CommInfo,
    seq: u64,
    input: Option<Payload>,
) -> Option<Payload> {
    let mut run = PlanRun::new(plans, info, seq, input, None);
    match run.resume(agent, true) {
        Some(out) => out,
        None => unreachable!("a blocking run stops only at its end"),
    }
}
