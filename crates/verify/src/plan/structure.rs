//! Static well-formedness of one plan set: what must hold before either
//! interpreter runs it. Ids, ranges and shapes must be valid, so the
//! [symbolic executor](super::exec) may index by them; and every read must
//! be of a buffer already produced and, if received, already waited for by
//! a dep, so both interpreters wait on `deps` alone. The
//! [model checker](super::mc) reports each defect as `mc-bad-structure`.

use super::{BufId, CollPlan, StepOp};

/// A structural defect: the rank whose plan is malformed, and what is
/// wrong with it.
pub(crate) type Defect = (usize, String);

/// Structural validation of one plan (ids, ranges, shapes).
fn check_structure(plans: &[CollPlan]) -> Vec<Defect> {
    let mut out = Vec::new();
    let p = plans.len();
    for (r, plan) in plans.iter().enumerate() {
        if plan.me != r || plan.p != p {
            out.push((
                r,
                format!(
                    "plan claims me={} p={} at index {r} of {p}",
                    plan.me, plan.p
                ),
            ));
            continue;
        }
        if plan.kind != plans[0].kind
            || plan.algo != plans[0].algo
            || plan.n != plans[0].n
            || plan.root != plans[0].root
        {
            out.push((r, "plans disagree on (kind, algo, n, root)".to_string()));
            continue;
        }
        let nb = plan.bufs.len() as u32;
        if let Some((_, ilen)) = plan.input {
            for (i, b) in plan.bufs.iter().enumerate() {
                if let Some(off) = b.input_off {
                    if off + b.len > ilen {
                        out.push((r, format!("buffer b{i} slices input out of range")));
                    }
                }
            }
        } else if plan.bufs.iter().any(|b| b.input_off.is_some()) {
            out.push((
                r,
                "buffer slices an input this rank does not have".to_string(),
            ));
        }
        if let Some(o) = plan.output {
            if o.0 >= nb {
                out.push((r, format!("output buffer b{} out of range", o.0)));
            }
        }
        for (i, step) in plan.steps.iter().enumerate() {
            for d in &step.deps {
                if d.0 as usize >= i {
                    out.push((r, format!("step s{i} depends on later step s{}", d.0)));
                } else if !matches!(
                    plan.steps[d.0 as usize].op,
                    StepOp::Send { .. } | StepOp::Recv { .. }
                ) {
                    out.push((r, format!("step s{i} depends on non-posted step s{}", d.0)));
                }
            }
            let mut bufs: Vec<(BufId, &'static str)> = Vec::new();
            match &step.op {
                StepOp::Slack => {}
                StepOp::Send { peer, buf, .. } => {
                    bufs.push((*buf, "sends"));
                    if *peer >= p || *peer == r {
                        out.push((r, format!("step s{i} sends to invalid peer {peer}")));
                    }
                }
                StepOp::Recv { peer, into, .. } => {
                    bufs.push((*into, "receives into"));
                    if *peer >= p || *peer == r {
                        out.push((r, format!("step s{i} receives from invalid peer {peer}")));
                    }
                }
                StepOp::Reduce { a, b, into } => {
                    bufs.push((*a, "reduces"));
                    bufs.push((*b, "reduces"));
                    bufs.push((*into, "reduces into"));
                    if a.0 < nb && b.0 < nb && plan.buf_len(*a) != plan.buf_len(*b) {
                        out.push((
                            r,
                            format!(
                                "step s{i} reduces buffers of different lengths ({} vs {})",
                                plan.buf_len(*a),
                                plan.buf_len(*b)
                            ),
                        ));
                    }
                }
                StepOp::Copy { parts, into } => {
                    bufs.push((*into, "copies into"));
                    for part in parts {
                        bufs.push((part.buf, "copies"));
                        if part.buf.0 < nb && part.off + part.len > plan.buf_len(part.buf) {
                            out.push((
                                r,
                                format!("step s{i} copies out of range of b{}", part.buf.0),
                            ));
                        }
                    }
                }
            }
            for (b, what) in bufs {
                if b.0 >= nb {
                    out.push((r, format!("step s{i} {what} buffer b{} out of range", b.0)));
                }
            }
        }
    }
    out
}

/// Where one buffer stands as the dataflow walk reaches a step.
#[derive(Clone, Copy)]
enum Avail {
    /// No step has produced it yet.
    Unmade,
    /// Received by step `s`, whose completion no dep has waited for yet.
    Posted(usize),
    /// Readable: a slice of the input, or produced and complete.
    Ready,
}

/// Dataflow of each plan, walked once in step order: every buffer is
/// produced at most once, and a step reads only literals (input slices,
/// zero-length buffers) and buffers earlier steps produced — a received
/// one only once a dep at or before the reading step waits for its
/// `Recv`. Interpreters may then read without waiting on anything but
/// `deps`.
fn check_dataflow(plans: &[CollPlan]) -> Vec<Defect> {
    let mut out = Vec::new();
    for (r, plan) in plans.iter().enumerate() {
        let mut avail: Vec<Avail> = (plan.bufs.iter())
            .map(|b| match b.input_off {
                Some(_) => Avail::Ready,
                None => Avail::Unmade,
            })
            .collect();
        for (i, step) in plan.steps.iter().enumerate() {
            for d in &step.deps {
                if let StepOp::Recv { into, .. } = plan.steps[d.0 as usize].op {
                    avail[into.0 as usize] = Avail::Ready;
                }
            }
            let (reads, made): (Vec<(BufId, &str)>, _) = match &step.op {
                StepOp::Slack => (Vec::new(), None),
                StepOp::Send { buf, .. } => (vec![(*buf, "sends")], None),
                StepOp::Recv { into, .. } => (Vec::new(), Some((*into, Avail::Posted(i)))),
                StepOp::Reduce { a, b, into } => {
                    let reads = vec![(*a, "reduces"), (*b, "reduces")];
                    (reads, Some((*into, Avail::Ready)))
                }
                StepOp::Copy { parts, into } => {
                    let reads = parts.iter().map(|c| (c.buf, "copies")).collect();
                    (reads, Some((*into, Avail::Ready)))
                }
            };
            for (b, what) in reads {
                let late = match avail[b.0 as usize] {
                    Avail::Unmade if plan.buf_len(b) > 0 => "before it is produced".to_string(),
                    Avail::Posted(s) => format!("before a dep waits for its receive s{s}"),
                    Avail::Unmade | Avail::Ready => continue,
                };
                out.push((r, format!("step s{i} {what} buffer b{} {late}", b.0)));
            }
            if let Some((into, now)) = made {
                let slot = &mut avail[into.0 as usize];
                match slot {
                    Avail::Unmade => *slot = now,
                    _ => out.push((r, format!("buffer b{} produced more than once", into.0))),
                }
            }
        }
    }
    out
}

/// Admit one plan set to symbolic execution: non-empty, structurally
/// valid, and its dataflow sound. Returns every defect of the first check
/// that fails (the dataflow walk indexes by ids the structure check
/// validates).
pub(crate) fn admit(plans: &[CollPlan]) -> Result<(), Vec<Defect>> {
    if plans.is_empty() {
        return Err(vec![(0, "empty plan set".to_string())]);
    }
    let mut defects = check_structure(plans);
    if defects.is_empty() {
        defects = check_dataflow(plans);
    }
    if defects.is_empty() {
        Ok(())
    } else {
        Err(defects)
    }
}
