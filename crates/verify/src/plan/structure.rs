//! Static well-formedness of one plan set: what must hold before the
//! [symbolic executor](super::exec) may index into it. The
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

/// Producer step of every buffer (`[rank][buffer]`), validating that each
/// buffer is produced at most once.
fn producers_of(plans: &[CollPlan]) -> Result<Vec<Vec<Option<usize>>>, Vec<Defect>> {
    let mut producer: Vec<Vec<Option<usize>>> =
        plans.iter().map(|pl| vec![None; pl.bufs.len()]).collect();
    let mut findings = Vec::new();
    for (r, plan) in plans.iter().enumerate() {
        for (i, step) in plan.steps.iter().enumerate() {
            let into = match &step.op {
                StepOp::Recv { into, .. }
                | StepOp::Reduce { into, .. }
                | StepOp::Copy { into, .. } => *into,
                StepOp::Slack | StepOp::Send { .. } => continue,
            };
            let slot = &mut producer[r][into.0 as usize];
            if slot.is_some() || plan.bufs[into.0 as usize].input_off.is_some() {
                findings.push((r, format!("buffer b{} produced more than once", into.0)));
            } else {
                *slot = Some(i);
            }
        }
    }
    if findings.is_empty() {
        Ok(producer)
    } else {
        Err(findings)
    }
}

/// Admit one plan set to symbolic execution: non-empty, structurally
/// valid, every buffer produced at most once. Returns the producer table
/// the executor's implicit receive dependencies read, or every defect of
/// the first check that fails (the later checks index by ids the earlier
/// ones validate).
pub(crate) fn admit(plans: &[CollPlan]) -> Result<Vec<Vec<Option<usize>>>, Vec<Defect>> {
    if plans.is_empty() {
        return Err(vec![(0, "empty plan set".to_string())]);
    }
    let structural = check_structure(plans);
    if !structural.is_empty() {
        return Err(structural);
    }
    producers_of(plans)
}
