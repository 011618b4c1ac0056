//! Pinned linter output for the planted-bug corpus.
//!
//! Every finding `lint_plans` renders for the six mutations of the
//! linter's unit tests and the eight classes of `mc_mutations.rs`, as
//! literals captured before the linter and the model checker were folded
//! onto one symbolic executor: the shared machine must reproduce the
//! linter's text character for character. The same corpus states the
//! equivalence the fold rests on — a plan set is lint-clean exactly when
//! the model checker is clean at the all-rendezvous cutpoint.

use ovcomm_verify::plan::{
    build_all, lint_plans, model_check_single, CollAlgo, CollPlan, McConfig, PlanBuilder, StepOp,
};
use ovcomm_verify::CollKind;

/// One corpus entry: name, the (mutated) plan set, the linter's findings.
struct Golden(&'static str, fn() -> Vec<CollPlan>, &'static [&'static str]);

/// Two-rank allreduce by full exchange on step tag 7.
fn exchange_plan(me: usize, recv_first: bool, n: usize) -> CollPlan {
    let peer = 1 - me;
    let mut b = PlanBuilder::new(
        CollKind::Allreduce,
        CollAlgo::AllreduceRing,
        2,
        me,
        n,
        0,
        Some((0, n)),
    );
    let inp = b.input_buf();
    let got = if recv_first {
        let got = b.recv(peer, 7, n);
        b.send(peer, 7, inp);
        got
    } else {
        b.send(peer, 7, inp);
        b.recv(peer, 7, n)
    };
    let out = b.reduce(inp, got);
    b.set_output(out);
    b.finish()
}

// --- the six mutations of `lint.rs`'s unit tests ---------------------------

fn wrong_peer_bcast() -> Vec<CollPlan> {
    let mut plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 256, 0);
    let step = plans[0]
        .steps
        .iter_mut()
        .find(|s| matches!(s.op, StepOp::Send { .. }))
        .unwrap();
    if let StepOp::Send { peer, .. } = &mut step.op {
        *peer = if *peer == 1 { 3 } else { 1 };
    }
    plans
}

fn gather_dropped_part() -> Vec<CollPlan> {
    let mut plans = build_all(CollKind::Gather, CollAlgo::GatherBinomial, 4, 512, 0);
    let copy = plans[0]
        .steps
        .iter_mut()
        .rev()
        .find(|s| matches!(&s.op, StepOp::Copy { parts, .. } if parts.len() > 1))
        .unwrap();
    let StepOp::Copy { parts, into } = &mut copy.op else {
        unreachable!()
    };
    let (into, dropped) = (*into, parts.pop().unwrap());
    plans[0].bufs[into.0 as usize].len -= dropped.len;
    plans
}

fn self_reduce() -> Vec<CollPlan> {
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
    vec![pb.finish()]
}

fn half_length_recv() -> Vec<CollPlan> {
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
    let got = pb1.recv(0, 0, 8);
    let doubled = pb1.concat(&[got, got]);
    pb1.set_output(doubled);
    vec![pb0.finish(), pb1.finish()]
}

fn circular_recvs() -> Vec<CollPlan> {
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
        let theirs = pb.recv(peer, 0, 8);
        pb.send(peer, 0, mine);
        let s = pb.reduce(mine, theirs);
        pb.set_output(s);
        pb.finish()
    };
    vec![mk(0, 1), mk(1, 0)]
}

fn allgather_swapped_concat() -> Vec<CollPlan> {
    let p = 3;
    let mut plans = build_all(CollKind::Allgather, CollAlgo::AllgatherRing, p, 240, 0);
    let copy = plans[0]
        .steps
        .iter_mut()
        .rev()
        .find(|s| matches!(&s.op, StepOp::Copy { parts, .. } if parts.len() == p))
        .unwrap();
    if let StepOp::Copy { parts, .. } = &mut copy.op {
        parts.swap(0, 1);
    }
    plans
}

// --- the eight classes of `mc_mutations.rs` --------------------------------

fn barrier_plan(p: usize, me: usize, skip: Option<(usize, usize)>) -> CollPlan {
    let mut b = PlanBuilder::new(
        CollKind::Barrier,
        CollAlgo::BarrierDissemination,
        p,
        me,
        0,
        0,
        None,
    );
    let tok = b.empty();
    let (mut round, mut dist) = (0usize, 1usize);
    while dist < p {
        if skip != Some((me, round)) {
            b.exchange((me + dist) % p, (me + p - dist) % p, round as u32, tok, 0);
        }
        round += 1;
        dist *= 2;
    }
    b.finish()
}

fn two_chunk_bcast(me: usize, swapped: bool, n: usize) -> CollPlan {
    let head = 8usize;
    let input = if me == 0 { Some((0, n)) } else { None };
    let mut b = PlanBuilder::new(CollKind::Bcast, CollAlgo::BcastBinomial, 2, me, n, 0, input);
    if me == 0 {
        let inp = b.input_buf();
        let (lo, hi) = b.split_at(inp, head);
        b.send(1, 1, lo);
        b.send(1, 2, hi);
        b.set_output(inp);
    } else {
        let lo = b.recv(0, 1, head);
        let hi = b.recv(0, 2, n - head);
        let out = if swapped {
            b.concat(&[hi, lo])
        } else {
            b.concat(&[lo, hi])
        };
        b.set_output(out);
    }
    b.finish()
}

fn wrong_root_reduce() -> Vec<CollPlan> {
    let n = 64usize;
    let mk = |me| {
        PlanBuilder::new(
            CollKind::Reduce,
            CollAlgo::ReduceBinomial,
            2,
            me,
            n,
            0,
            Some((0, n)),
        )
    };
    let mut b0 = mk(0);
    let inp0 = b0.input_buf();
    b0.send(1, 3, inp0);
    let mut b1 = mk(1);
    let inp1 = b1.input_buf();
    let got = b1.recv(0, 3, n);
    let out = b1.reduce(inp1, got);
    b1.set_output(out);
    vec![b0.finish(), b1.finish()]
}

fn stray_send() -> Vec<CollPlan> {
    let n = 64;
    let mut b = PlanBuilder::new(
        CollKind::Allreduce,
        CollAlgo::AllreduceRing,
        2,
        0,
        n,
        0,
        Some((0, n)),
    );
    let inp = b.input_buf();
    b.send(1, 7, inp);
    let got = b.recv(1, 7, n);
    let _stray = b.isend(1, 99, inp);
    let out = b.reduce(inp, got);
    b.set_output(out);
    vec![b.finish(), exchange_plan(1, true, n)]
}

fn short_receive() -> Vec<CollPlan> {
    let n = 64usize;
    let mk = |me, input| {
        PlanBuilder::new(
            CollKind::Barrier,
            CollAlgo::BarrierDissemination,
            2,
            me,
            0,
            0,
            input,
        )
    };
    let mut b0 = mk(0, Some((0, n)));
    let inp = b0.input_buf();
    b0.send(1, 7, inp);
    let mut b1 = mk(1, None);
    b1.recv(0, 7, n / 2);
    vec![b0.finish(), b1.finish()]
}

fn swapped_send_recv_order() -> Vec<CollPlan> {
    vec![exchange_plan(0, true, 64), exchange_plan(1, true, 64)]
}

/// Class 2 is a composition defect (two instances on one context); each
/// member alone is the clean builder output.
fn tag_collision_member() -> Vec<CollPlan> {
    build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 256, 0)
}

fn dropped_barrier_round() -> Vec<CollPlan> {
    (0..4).map(|r| barrier_plan(4, r, Some((0, 0)))).collect()
}

fn rendezvous_cycle() -> Vec<CollPlan> {
    vec![exchange_plan(0, false, 64), exchange_plan(1, false, 64)]
}

fn swapped_chunk_reassembly() -> Vec<CollPlan> {
    vec![two_chunk_bcast(0, false, 64), two_chunk_bcast(1, true, 64)]
}

#[rustfmt::skip]
const CORPUS: [Golden; 14] = [
    Golden("lint/wrong-peer-bcast", wrong_peer_bcast, &[
        "error[plan-unmatched-send]: send of 256B from rank 0 to rank 1 (step tag 1) is never received",
        "error[plan-unmatched-recv]: receive of 256B at rank 1 from rank 0 (step tag 0) is never sent",
        "error[plan-unmatched-recv]: receive of 256B at rank 2 from rank 0 (step tag 1) is never sent",
        "error[plan-unmatched-recv]: receive of 256B at rank 3 from rank 2 (step tag 0) is never sent",
        "error[plan-deadlock]: plan deadlocks: ranks [0, 1, 2, 3] never finish; rank 0 blocked at step s2 (Slack)",
    ]),
    Golden("lint/gather-dropped-part", gather_dropped_part, &[
        "error[plan-chunk-gap]: rank 0: output holds 256B but the collective promises 512B",
    ]),
    Golden("lint/self-reduce", self_reduce, &[
        "error[plan-double-count]: rank 0: logical bytes 0..16 reduced over overlapping contributor sets {[0]} and {[0]}",
    ]),
    Golden("lint/half-length-recv", half_length_recv, &[
        "error[plan-len-mismatch]: rank 0 sends 16B but rank 1 expects 8B (step tag 0)",
    ]),
    Golden("lint/circular-recvs", circular_recvs, &[
        "error[plan-unmatched-recv]: receive of 8B at rank 1 from rank 0 (step tag 0) is never sent",
        "error[plan-unmatched-recv]: receive of 8B at rank 0 from rank 1 (step tag 0) is never sent",
        "error[plan-deadlock]: plan deadlocks: ranks [0, 1] never finish; rank 0 blocked at step s1 (Send { peer: 1, buf: BufId(0), tag: 0 })",
    ]),
    Golden("lint/allgather-swapped-concat", allgather_swapped_concat, &[
        "error[plan-chunk-gap]: rank 0: output byte 0 holds logical byte 80 but should hold 0",
        "error[plan-chunk-gap]: rank 0: output byte 80 holds logical byte 0 but should hold 80",
    ]),
    Golden("mc/1-swapped-send-recv-order", swapped_send_recv_order, &[
        "error[plan-unmatched-recv]: receive of 64B at rank 1 from rank 0 (step tag 7) is never sent",
        "error[plan-unmatched-recv]: receive of 64B at rank 0 from rank 1 (step tag 7) is never sent",
        "error[plan-deadlock]: plan deadlocks: ranks [0, 1] never finish; rank 0 blocked at step s1 (Send { peer: 1, buf: BufId(0), tag: 7 })",
    ]),
    Golden("mc/2-tag-collision-member", tag_collision_member, &[]),
    Golden("mc/3-dropped-barrier-round", dropped_barrier_round, &[
        "error[plan-unmatched-send]: send of 0B from rank 3 to rank 0 (step tag 0) is never received",
        "error[plan-unmatched-recv]: receive of 0B at rank 1 from rank 0 (step tag 0) is never sent",
        "error[plan-deadlock]: plan deadlocks: ranks [1, 3] never finish; rank 1 blocked at step s2 (Recv { peer: 3, into: BufId(2), tag: 1 })",
    ]),
    Golden("mc/4-rendezvous-cycle", rendezvous_cycle, &[
        "error[plan-unmatched-send]: send of 64B from rank 0 to rank 1 (step tag 7) is never received",
        "error[plan-unmatched-send]: send of 64B from rank 1 to rank 0 (step tag 7) is never received",
        "error[plan-deadlock]: plan deadlocks: ranks [0, 1] never finish; rank 0 blocked at step s1 (Recv { peer: 1, into: BufId(1), tag: 7 })",
    ]),
    Golden("mc/5-swapped-chunk-reassembly", swapped_chunk_reassembly, &[
        "error[plan-chunk-gap]: rank 1: output byte 0 holds logical byte 8 but should hold 0",
        "error[plan-chunk-gap]: rank 1: output byte 56 holds logical byte 0 but should hold 56",
    ]),
    Golden("mc/6-wrong-root-reduce", wrong_root_reduce, &[
        "error[plan-chunk-gap]: rank 0: rank is owed a result but the plan produces none",
        "error[plan-bad-structure]: rank 1: rank declares an output this collective does not give it",
    ]),
    Golden("mc/7-stray-send", stray_send, &[
        "error[plan-unmatched-send]: send of 64B from rank 0 to rank 1 (step tag 99) is never received",
        "error[plan-deadlock]: plan deadlocks: ranks [0] never finish; rank 0 finished its steps but 1 posted operation(s) never complete",
    ]),
    Golden("mc/8-short-receive", short_receive, &[
        "error[plan-len-mismatch]: rank 0 sends 64B but rank 1 expects 32B (step tag 7)",
    ]),
];

#[test]
fn lint_output_is_pinned_for_the_planted_bug_corpus() {
    let rendezvous_only = McConfig {
        cut_override: Some(vec![0]),
    };
    for Golden(name, plans, want) in CORPUS {
        let plans = plans();
        let got: Vec<String> = lint_plans(&plans).iter().map(|f| f.to_string()).collect();
        assert_eq!(got, want, "{name}");
        assert_eq!(
            got.is_empty(),
            model_check_single(&plans, &rendezvous_only).clean(),
            "{name}: lint and the all-rendezvous model check must agree"
        );
    }
}

/// `docs/static-analysis.md` shows a real counterexample: its "Reading a
/// finding" block is the rendered two-rank circular-receive deadlock.
#[test]
fn documented_counterexample_is_the_rendered_one() {
    let rep = model_check_single(&circular_recvs(), &McConfig::default());
    let rendered = rep.findings[0].to_string();
    assert!(rendered.starts_with("error[mc-deadlock]: 2 agent(s) can never finish; first: "));
    let doc = include_str!("../../../docs/static-analysis.md");
    assert!(
        doc.contains(&format!("```text\n{rendered}\n```")),
        "docs/static-analysis.md must quote:\n{rendered}"
    );
}
