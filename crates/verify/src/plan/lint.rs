//! Static linter for collective plans — the all-rendezvous reporter over
//! the plan module's one symbolic executor (private `exec`).
//!
//! Given the plans of **all** ranks of one collective instance, the linter
//! checks them for structure, runs the executor once — every send
//! rendezvous, no trace — and renders **every** violation it collects
//! (the [model checker](super::mc) runs the same machine once per
//! protocol cutpoint and composed member, and stops at the first):
//!
//! * structural defects (`plan-bad-structure`): out-of-range buffers,
//!   peers, deps, reads of never-produced buffers, missing/unexpected
//!   outputs;
//! * envelope defects: sends never matched by a receive
//!   (`plan-unmatched-send`), receives never matched by a send
//!   (`plan-unmatched-recv`), matched pairs of different sizes
//!   (`plan-len-mismatch`);
//! * in-plan deadlock (`plan-deadlock`): ranks that can never finish under
//!   conservative rendezvous semantics (every send blocks until its
//!   receive is posted) — a plan clean under this model cannot deadlock in
//!   the simulator, whose eager small-message path only completes sends
//!   *earlier*;
//! * reduction/coverage defects: a rank's output not assembling exactly
//!   the bytes the collective promises, with every byte reduced over
//!   exactly the right contributor set (`plan-chunk-gap`), or a
//!   contribution summed twice (`plan-double-count`).
//!
//! One pass is `O(steps + matches)` at any communicator size.

use super::compose::{InstRef, INTERNAL_BIT};
use super::exec::{Key, Machine, St, Violation};
use super::structure::admit;
use super::CollPlan;

pub use super::finding::PlanFinding;

/// The step tag of a wire envelope of the linter's lone instance, whose
/// sequence number is 0.
fn step_tag(key: Key) -> u32 {
    (key.3 & !INTERNAL_BIT) as u32
}

/// Render one violation of the single instance `plans` (agent = rank).
fn render(plans: &[CollPlan], st: &St, v: Violation) -> PlanFinding {
    match v {
        Violation::ReadUnproduced { at, buf } => PlanFinding::BadStructure {
            rank: at,
            detail: format!("step reads buffer b{} before it is produced", buf.0),
        },
        Violation::LenMismatch { key, send, recv } => PlanFinding::LenMismatch {
            from: key.1,
            to: key.2,
            tag: step_tag(key),
            send_bytes: send.bytes,
            recv_bytes: recv.bytes,
        },
        Violation::ChunkGap { at, what, .. } => PlanFinding::ChunkGap {
            rank: at,
            detail: what,
        },
        Violation::DoubleCount { at, what, .. } => PlanFinding::DoubleCount {
            rank: at,
            detail: what,
        },
        Violation::Stuck { agents } => {
            let r = agents[0];
            let detail = match plans[r].steps.get(st.pcs[r]) {
                Some(step) => format!("rank {r} blocked at step s{} ({:?})", st.pcs[r], step.op),
                None => format!(
                    "rank {r} finished its steps but {} posted operation(s) never complete",
                    st.pending[r]
                ),
            };
            PlanFinding::Deadlock {
                stuck: agents,
                detail,
            }
        }
        Violation::UnmatchedSend { key, post } => PlanFinding::UnmatchedSend {
            from: key.1,
            to: key.2,
            tag: step_tag(key),
            bytes: post.bytes,
        },
        Violation::UnmatchedRecv { key, post } => PlanFinding::UnmatchedRecv {
            at: key.2,
            from: key.1,
            tag: step_tag(key),
            bytes: post.bytes,
        },
        Violation::UnexpectedOutput { at } => PlanFinding::BadStructure {
            rank: at,
            detail: "rank declares an output this collective does not give it".to_string(),
        },
        Violation::MissingOutput { at } => PlanFinding::ChunkGap {
            rank: at,
            detail: "rank is owed a result but the plan produces none".to_string(),
        },
    }
}

/// Statically lint the plans of all ranks of one collective instance.
/// Returns every defect found (empty for a correct plan set).
pub fn lint_plans(plans: &[CollPlan]) -> Vec<PlanFinding> {
    let producers = match admit(plans) {
        Ok(producers) => producers,
        Err(findings) => return findings,
    };
    let inst = InstRef {
        ctx: 0,
        seq: 0,
        plans,
    };
    let mut m = Machine::new(inst, &producers, 0, false);
    let mut st = m.initial();
    m.settle(&mut st);
    let mut at_end = m.terminal(&st);
    // Unmatched posts read best before the deadlock they cause.
    if matches!(at_end.first(), Some(Violation::Stuck { .. })) {
        at_end.rotate_left(1);
    }
    (m.violations.into_iter().chain(at_end))
        .map(|v| render(plans, &st, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::builders::build_all;
    use super::super::{CollAlgo, PlanBuilder, StepOp};
    use super::*;
    use crate::event::CollKind;

    fn codes(f: &[PlanFinding]) -> Vec<&'static str> {
        f.iter().map(PlanFinding::code).collect()
    }

    #[test]
    fn every_builder_is_lint_clean() {
        for &algo in CollAlgo::all() {
            for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12] {
                for n in [0usize, 8, 64, 1000, 4096] {
                    let roots: &[usize] = if p > 1 { &[0, 1, p - 1] } else { &[0] };
                    for &root in roots {
                        let root = if matches!(
                            algo.kind(),
                            CollKind::Allreduce | CollKind::Allgather | CollKind::Barrier
                        ) {
                            0
                        } else {
                            root
                        };
                        let plans = build_all(algo.kind(), algo, p, n, root);
                        let f = lint_plans(&plans);
                        assert!(
                            f.is_empty(),
                            "{algo} p={p} n={n} root={root}: {:?}",
                            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_peer_mutation_is_caught() {
        let mut plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 256, 0);
        // Redirect the root's first send to the wrong child.
        let step = plans[0]
            .steps
            .iter_mut()
            .find(|s| matches!(s.op, StepOp::Send { .. }))
            .unwrap();
        if let StepOp::Send { peer, .. } = &mut step.op {
            *peer = if *peer == 1 { 3 } else { 1 };
        }
        let f = lint_plans(&plans);
        let c = codes(&f);
        assert!(
            c.contains(&"plan-unmatched-send") || c.contains(&"plan-unmatched-recv"),
            "{f:?}"
        );
        assert!(c.contains(&"plan-deadlock"), "{f:?}");
    }

    #[test]
    fn chunk_gap_mutation_is_caught() {
        let mut plans = build_all(CollKind::Gather, CollAlgo::GatherBinomial, 4, 512, 0);
        // Drop one part from the root's final assembly.
        let mut shrink = None;
        let copy = plans[0]
            .steps
            .iter_mut()
            .rev()
            .find(|s| matches!(&s.op, StepOp::Copy { parts, .. } if parts.len() > 1))
            .unwrap();
        if let StepOp::Copy { parts, into } = &mut copy.op {
            let dropped = parts.pop().unwrap();
            shrink = Some((*into, dropped.len));
        }
        let (into, len) = shrink.unwrap();
        plans[0].bufs[into.0 as usize].len -= len;
        // Shrink downstream references to the now-shorter output.
        let f = lint_plans(&plans);
        assert!(codes(&f).contains(&"plan-chunk-gap"), "{f:?}");
    }

    #[test]
    fn double_count_is_caught() {
        // A "2-rank allreduce" where one rank reduces its own contribution
        // with itself instead of the partner's data.
        let mut pb = PlanBuilder::new(
            CollKind::Allreduce,
            CollAlgo::AllreduceRecursiveDoubling,
            1,
            0,
            16,
            0,
            Some((0, 16)),
        );
        let a = pb.input_buf();
        let b = pb.input_buf();
        let s = pb.reduce(a, b);
        pb.set_output(s);
        let f = lint_plans(&[pb.finish()]);
        assert!(codes(&f).contains(&"plan-double-count"), "{f:?}");
    }

    #[test]
    fn send_recv_size_disagreement_is_caught() {
        let mut pb0 = PlanBuilder::new(
            CollKind::Bcast,
            CollAlgo::BcastBinomial,
            2,
            0,
            16,
            0,
            Some((0, 16)),
        );
        let b = pb0.input_buf();
        pb0.send(1, 0, b);
        pb0.set_output(b);
        let mut pb1 = PlanBuilder::new(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 1, 16, 0, None);
        let got = pb1.recv(0, 0, 8); // expects 8B of a 16B message
        let doubled = pb1.concat(&[got, got]);
        pb1.set_output(doubled);
        let f = lint_plans(&[pb0.finish(), pb1.finish()]);
        assert!(codes(&f).contains(&"plan-len-mismatch"), "{f:?}");
    }

    #[test]
    fn circular_blocking_recvs_deadlock() {
        let mk = |me: usize, peer: usize| {
            let mut pb = PlanBuilder::new(
                CollKind::Allreduce,
                CollAlgo::AllreduceRecursiveDoubling,
                2,
                me,
                8,
                0,
                Some((0, 8)),
            );
            let mine = pb.input_buf();
            let theirs = pb.recv(peer, 0, 8); // both recv first: classic deadlock
            pb.send(peer, 0, mine);
            let s = pb.reduce(mine, theirs);
            pb.set_output(s);
            pb.finish()
        };
        let f = lint_plans(&[mk(0, 1), mk(1, 0)]);
        let c = codes(&f);
        assert!(c.contains(&"plan-deadlock"), "{f:?}");
    }

    #[test]
    fn wrong_concat_order_is_a_chunk_gap() {
        let p = 3;
        let mut plans = build_all(CollKind::Allgather, CollAlgo::AllgatherRing, p, 240, 0);
        // Swap the first two parts of rank 0's final concat.
        let copy = plans[0]
            .steps
            .iter_mut()
            .rev()
            .find(|s| matches!(&s.op, StepOp::Copy { parts, .. } if parts.len() == p))
            .unwrap();
        if let StepOp::Copy { parts, .. } = &mut copy.op {
            parts.swap(0, 1);
        }
        let f = lint_plans(&plans);
        assert!(codes(&f).contains(&"plan-chunk-gap"), "{f:?}");
    }
}
