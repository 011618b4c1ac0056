//! The backend-neutral collective plan executor.
//!
//! Interprets a [`CollPlan`] on behalf of one rank: posts the plan's
//! sends and receives through the backend's p2p layer, charges per-round
//! slack and reduction compute, materializes buffers (zero-copy slices of
//! the rank's input or received payloads), and drains completions in the
//! order the builder recorded — reproducing the blocking-wait behavior of
//! the hand-written algorithms this replaced. Local payload manipulation
//! (slice / concat / reduce arithmetic) costs no modeled time; only
//! `Slack`, `Reduce` charging, and message transport do.
//!
//! The executor's whole I/O surface is [`CollCtx`], generic over the
//! backend's [`Transport`]: the virtual-time simulator runs it on
//! progress-actor clocks over the flow network, the `ovcomm-rt` wall-clock
//! backend on real shared-memory mailboxes. Both run this exact code, so
//! all 13 plan builders, the static linter, and the `CollSelector` behave
//! identically on either backend.

use ovcomm_verify::plan::{BufId, CollPlan, StepOp};

use crate::coll::CollCtx;
use crate::payload::Payload;
use crate::request::Request;
use crate::transport::Transport;

/// An outstanding nonblocking step posted by the executor.
enum Pending {
    Send(Request<()>),
    Recv(Request<Payload>, BufId),
}

/// Wait for step `idx` if it is still outstanding, storing a receive's
/// payload into its destination buffer.
fn drain<T: Transport>(
    ctx: &CollCtx<'_, T>,
    pending: &mut [Option<Pending>],
    vals: &mut [Option<Payload>],
    idx: usize,
) {
    match pending[idx].take() {
        Some(Pending::Send(r)) => ctx.wait(&r),
        Some(Pending::Recv(r, into)) => {
            let v = ctx.wait(&r);
            vals[into.0 as usize] = Some(v);
        }
        None => {}
    }
}

/// Materialize buffer `b`: an already-produced value, a still-pending
/// receive (drained here — only reachable when the builder fenced it for
/// an earlier reader, so no extra wait is introduced), a slice of the
/// rank's input contribution, or the zero-length literal.
fn ensure<T: Transport>(
    ctx: &CollCtx<'_, T>,
    plan: &CollPlan,
    vals: &mut [Option<Payload>],
    pending: &mut [Option<Pending>],
    producer: &[Option<usize>],
    input: Option<&Payload>,
    b: BufId,
) -> Payload {
    if let Some(v) = &vals[b.0 as usize] {
        return v.clone();
    }
    if let Some(idx) = producer[b.0 as usize] {
        drain(ctx, pending, vals, idx);
        if let Some(v) = &vals[b.0 as usize] {
            return v.clone();
        }
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

/// Execute `plan` for this rank on backend `ctx`. `input` is the rank's
/// local contribution (present iff `plan.input` is) and the return value is
/// the rank's result (present iff `plan.output` is).
pub(crate) fn execute_plan<T: Transport>(
    ctx: &CollCtx<'_, T>,
    plan: &CollPlan,
    input: Option<Payload>,
) -> Option<Payload> {
    debug_assert_eq!(plan.p, ctx.p());
    debug_assert_eq!(plan.me, ctx.me());
    if let (Some((_, len)), Some(p)) = (plan.input, input.as_ref()) {
        assert_eq!(
            p.len(),
            len,
            "input payload length does not match the plan's input range"
        );
    }

    let mut vals: Vec<Option<Payload>> = vec![None; plan.bufs.len()];
    let mut pending: Vec<Option<Pending>> = (0..plan.steps.len()).map(|_| None).collect();
    // Which step receives into each buffer, for `ensure`'s fallback drain.
    let mut producer: Vec<Option<usize>> = vec![None; plan.bufs.len()];
    for (i, s) in plan.steps.iter().enumerate() {
        if let StepOp::Recv { into, .. } = &s.op {
            producer[into.0 as usize] = Some(i);
        }
    }

    for (i, step) in plan.steps.iter().enumerate() {
        let t0 = ctx.now();
        // Complete dependencies in the order the builder recorded them —
        // the blocking-wait order of the original algorithm.
        for d in &step.deps {
            drain(ctx, &mut pending, &mut vals, d.0 as usize);
        }
        match &step.op {
            StepOp::Slack => ctx.slack(),
            StepOp::Send { peer, buf, tag } => {
                let payload = ensure(
                    ctx,
                    plan,
                    &mut vals,
                    &mut pending,
                    &producer,
                    input.as_ref(),
                    *buf,
                );
                pending[i] = Some(Pending::Send(ctx.isend(*peer, *tag, payload)));
            }
            StepOp::Recv { peer, into, tag } => {
                pending[i] = Some(Pending::Recv(ctx.irecv(*peer, *tag), *into));
            }
            StepOp::Reduce { a, b, into } => {
                let pa = ensure(
                    ctx,
                    plan,
                    &mut vals,
                    &mut pending,
                    &producer,
                    input.as_ref(),
                    *a,
                );
                let pb = ensure(
                    ctx,
                    plan,
                    &mut vals,
                    &mut pending,
                    &producer,
                    input.as_ref(),
                    *b,
                );
                ctx.reduce_charge(pa.len());
                vals[into.0 as usize] = Some(pa.reduce_sum_f64(&pb));
            }
            StepOp::Copy { parts, into } => {
                let views: Vec<Payload> = parts
                    .iter()
                    .map(|part| {
                        ensure(
                            ctx,
                            plan,
                            &mut vals,
                            &mut pending,
                            &producer,
                            input.as_ref(),
                            part.buf,
                        )
                        .slice(part.off, part.off + part.len)
                    })
                    .collect();
                let out = match <[Payload; 1]>::try_from(views) {
                    Ok([single]) => single, // zero-copy view
                    Err(views) => Payload::concat(&views),
                };
                vals[into.0 as usize] = Some(out);
            }
        }
        ctx.step_span(t0, || step_label(plan, i));
    }

    // Drain everything still outstanding, in post order — the builder's
    // trailing fence.
    for i in 0..plan.steps.len() {
        drain(ctx, &mut pending, &mut vals, i);
    }

    // `ensure` rather than a direct lookup: single-rank trivial plans set
    // the output to the untouched input buffer.
    plan.output.map(|b| {
        ensure(
            ctx,
            plan,
            &mut vals,
            &mut pending,
            &producer,
            input.as_ref(),
            b,
        )
    })
}
