//! Pinned model-check output for the planted-bug corpus.
//!
//! What `model_check_single` reports at every cutpoint for six planted
//! mutations (a wrong peer, a dropped part, a self-reduce, a short
//! receive, circular receives, a swapped concat) and the eight classes of
//! `mc_mutations.rs`: per finding its code, first rendered line, eager
//! cut and counterexample length.

use ovcomm_verify::plan::{
    build_all, model_check_single, CollAlgo, CollPlan, McConfig, PlanBuilder, StepOp,
};
use ovcomm_verify::CollKind;

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

// --- six mutations of builder output and hand-built plans ------------------

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

/// One pinned model-check finding: code, first rendered line, eager cut,
/// length of the counterexample interleaving.
type Pin = (&'static str, &'static str, Option<usize>, usize);

/// One corpus entry: name, the (mutated) plan set, what
/// `model_check_single` reports for it at every cutpoint.
struct McGolden(&'static str, fn() -> Vec<CollPlan>, &'static [Pin]);

/// A finding as a [`Pin`] states it, read off its rendering alone.
fn pin_of(rendered: &str) -> (String, String, Option<usize>, usize) {
    let mut lines = rendered.lines();
    let first = lines.next().unwrap_or_default();
    let code = (first.strip_prefix("error["))
        .and_then(|rest| rest.split_once(']'))
        .map_or("", |(code, _)| code);
    let cut = (first.rsplit_once(" [eager_cut="))
        .and_then(|(_, cut)| cut.strip_suffix(']')?.parse().ok());
    let trace = (lines.next())
        .and_then(|l| {
            let n = l.trim().strip_prefix("counterexample interleaving (")?;
            n.split_once(' ')?.0.parse().ok()
        })
        .unwrap_or(0);
    (code.to_string(), first.to_string(), cut, trace)
}

#[rustfmt::skip]
const MC_CORPUS: [McGolden; 14] = [
    McGolden("lint/wrong-peer-bcast", wrong_peer_bcast, &[
        ("mc-deadlock", "error[mc-deadlock]: 4 agent(s) can never finish; first: instance #0 rank 0 blocked at step s2 (slack) [eager_cut=0]", Some(0), 8),
    ]),
    McGolden("lint/gather-dropped-part", gather_dropped_part, &[
        ("mc-chunk-gap", "error[mc-chunk-gap]: instance #0 rank 0: output holds 256B but the collective promises 512B [eager_cut=0]", Some(0), 18),
    ]),
    McGolden("lint/self-reduce", self_reduce, &[
        ("mc-double-count", "error[mc-double-count]: instance #0 rank 0 step s0: logical bytes 0..16 reduced over overlapping contributor sets {[0]} and {[0]} [eager_cut=0]", Some(0), 1),
    ]),
    McGolden("lint/half-length-recv", half_length_recv, &[
        ("mc-len-mismatch", "error[mc-len-mismatch]: instance #0 rank 0 sends 16B but instance #0 rank 1 expects 8B on wire tag 0x8000000000000000 [eager_cut=0]", Some(0), 3),
    ]),
    McGolden("lint/circular-recvs", circular_recvs, &[
        ("mc-deadlock", "error[mc-deadlock]: 2 agent(s) can never finish; first: instance #0 rank 0 blocked at step s1 (send b0(8B) -> r1 tag 0) [eager_cut=0]", Some(0), 2),
    ]),
    McGolden("lint/allgather-swapped-concat", allgather_swapped_concat, &[
        ("mc-chunk-gap", "error[mc-chunk-gap]: instance #0 rank 0: output byte 0 holds logical byte 80 but should hold 0 [eager_cut=0]", Some(0), 27),
    ]),
    McGolden("mc/1-swapped-send-recv-order", swapped_send_recv_order, &[
        ("mc-deadlock", "error[mc-deadlock]: 2 agent(s) can never finish; first: instance #0 rank 0 blocked at step s1 (send b0(64B) -> r1 tag 7) [eager_cut=0]", Some(0), 2),
    ]),
    McGolden("mc/2-tag-collision-member", tag_collision_member, &[]),
    McGolden("mc/3-dropped-barrier-round", dropped_barrier_round, &[
        ("mc-deadlock", "error[mc-deadlock]: 2 agent(s) can never finish; first: instance #0 rank 1 blocked at step s2 (recv b2(0B) <- r3 tag 1) [eager_cut=0]", Some(0), 14),
    ]),
    McGolden("mc/4-rendezvous-cycle", rendezvous_cycle, &[
        ("mc-deadlock", "error[mc-deadlock]: 2 agent(s) can never finish; first: instance #0 rank 0 blocked at step s1 (recv b1(64B) <- r1 tag 7) [eager_cut=0]", Some(0), 2),
    ]),
    McGolden("mc/5-swapped-chunk-reassembly", swapped_chunk_reassembly, &[
        ("mc-chunk-gap", "error[mc-chunk-gap]: instance #0 rank 1: output byte 0 holds logical byte 8 but should hold 0 [eager_cut=0]", Some(0), 9),
    ]),
    McGolden("mc/6-wrong-root-reduce", wrong_root_reduce, &[
        ("mc-chunk-gap", "error[mc-chunk-gap]: instance #0 rank 0 is owed a result but the plan produces none [eager_cut=0]", Some(0), 4),
    ]),
    McGolden("mc/7-stray-send", stray_send, &[
        ("mc-deadlock", "error[mc-deadlock]: 1 agent(s) can never finish; first: instance #0 rank 0 finished its steps but 1 posted operation(s) never complete [eager_cut=0]", Some(0), 9),
        ("mc-unmatched", "error[mc-unmatched]: instance #0 rank 0 step s2: eager send of 64B is never received [eager_cut=65]", Some(65), 9),
    ]),
    McGolden("mc/8-short-receive", short_receive, &[
        ("mc-len-mismatch", "error[mc-len-mismatch]: instance #0 rank 0 sends 64B but instance #0 rank 1 expects 32B on wire tag 0x8000000000000007 [eager_cut=0]", Some(0), 3),
    ]),
];

/// The corpus through the one static check, read off each finding's
/// rendering so that the pins hold whatever type carries the finding.
#[test]
fn model_check_is_pinned_for_the_planted_bug_corpus() {
    for McGolden(name, plans, want) in MC_CORPUS {
        let rep = model_check_single(&plans(), &McConfig::default());
        let got: Vec<_> = (rep.findings.iter())
            .map(|f| pin_of(&f.to_string()))
            .collect();
        let want: Vec<_> = (want.iter())
            .map(|&(code, line, cut, trace)| (code.to_string(), line.to_string(), cut, trace))
            .collect();
        assert_eq!(got, want, "{name}");
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
