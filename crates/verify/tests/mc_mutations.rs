//! Seeded-mutation suite for the CollPlan model checker.
//!
//! Each test plants one representative schedule bug — the classes the
//! checker exists to catch — and asserts that `model_check` produces a
//! counterexample of the expected kind whose rendered interleaving (or
//! blocked-step diagnosis) names the mutated step. Where meaningful, the
//! unmutated twin is also checked to be clean, so the assertions pin the
//! *mutation* as the cause rather than an artifact of the hand-built plan.

use ovcomm_verify::plan::{
    build_all, model_check, model_check_single, BufId, CollAlgo, CollPlan, McConfig, McReport,
    PlanBuilder, PlanFinding, PlanInstance,
};
use ovcomm_verify::CollKind;

fn mc(plans: &[CollPlan]) -> McReport {
    model_check_single(plans, &McConfig::default())
}

fn codes(rep: &McReport) -> Vec<&'static str> {
    rep.findings.iter().map(|f| f.code).collect()
}

/// The counterexample with `code`, asserting it exists.
fn expect_ce<'a>(rep: &'a McReport, code: &str) -> &'a PlanFinding {
    match rep.findings.iter().find(|ce| ce.code == code) {
        Some(ce) => ce,
        None => panic!("expected a {code} counterexample, got {:?}", codes(rep)),
    }
}

fn trace_mentions(ce: &PlanFinding, needle: &str) -> bool {
    ce.trace.iter().any(|l| l.contains(needle)) || ce.detail.contains(needle)
}

/// Two-rank allreduce by full exchange; `recv_first` selects whether this
/// rank posts its (blocking) receive before or after its (blocking) send.
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

// ---------------------------------------------------------------------------
// 1. Swapped send/recv order
// ---------------------------------------------------------------------------

/// Correct: one side sends first, the other receives first. Mutation:
/// swap rank 0's order so both sides block in a receive before posting
/// their send — an unconditional deadlock at every protocol cutpoint.
#[test]
fn swapped_send_recv_order_deadlocks() {
    let good = [exchange_plan(0, false, 64), exchange_plan(1, true, 64)];
    assert!(mc(&good).clean(), "unmutated exchange must be clean");

    let mutated = [exchange_plan(0, true, 64), exchange_plan(1, true, 64)];
    let rep = mc(&mutated);
    let ce = expect_ce(&rep, "mc-deadlock");
    // The diagnosis names the blocked step: the receive that now comes
    // first and can never be fed.
    assert!(
        trace_mentions(ce, "recv"),
        "counterexample must name the swapped receive:\n{ce}"
    );
    // Deadlocks at *every* cutpoint, not just under rendezvous: findings
    // are deduped by code, and the first cut explored is eager_cut = 0.
    assert_eq!(ce.eager_cut, Some(0));
}

// ---------------------------------------------------------------------------
// 2. Tag collision across dup'd communicators
// ---------------------------------------------------------------------------

/// Correct: `dup_instances` gives each composed plan set a distinct
/// context. Mutation: wire both instances to the same (ctx, seq) — the
/// static namespace check flags the overlap, which is the composition's
/// verdict.
#[test]
fn tag_collision_across_dup_comms() {
    let plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 256, 0);
    let a = PlanInstance::new(11, 0, plans.clone());
    let b = PlanInstance::new(11, 0, plans);
    let rep = model_check(&[a, b], &McConfig::default());
    assert!(
        codes(&rep).contains(&"mc-tag-overlap"),
        "colliding namespaces must be statically flagged, got {:?}",
        codes(&rep)
    );
}

// ---------------------------------------------------------------------------
// 3. Dropped fence: a deleted dissemination-barrier round
// ---------------------------------------------------------------------------

/// Dissemination barrier; `skip` deletes one rank's participation in one
/// round (the dropped-synchronization mutation).
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
    let mut round = 0usize;
    let mut dist = 1usize;
    while dist < p {
        if skip != Some((me, round)) {
            b.exchange((me + dist) % p, (me + p - dist) % p, round as u32, tok, 0);
        }
        round += 1;
        dist *= 2;
    }
    b.finish()
}

#[test]
fn dropped_barrier_round_deadlocks_partners() {
    let good: Vec<CollPlan> = (0..4).map(|r| barrier_plan(4, r, None)).collect();
    assert!(
        mc(&good).clean(),
        "full dissemination barrier must be clean"
    );

    // Rank 0 silently skips round 0: its round-0 partners can never
    // finish their fenced exchanges.
    let mutated: Vec<CollPlan> = (0..4).map(|r| barrier_plan(4, r, Some((0, 0)))).collect();
    let rep = mc(&mutated);
    let ce = expect_ce(&rep, "mc-deadlock");
    assert!(
        trace_mentions(ce, "tag 0"),
        "diagnosis must point at the dropped round's envelope:\n{ce}"
    );
}

// ---------------------------------------------------------------------------
// 4. Rendezvous cycle
// ---------------------------------------------------------------------------

/// Both ranks send first. Safe while the messages are eager (buffered),
/// a cycle once both sends synchronize — the checker must find the
/// deadlock exactly at the rendezvous cutpoint and stay clean at the
/// eager one.
#[test]
fn rendezvous_cycle_is_caught_at_the_protocol_boundary() {
    let n = 64;
    let mutated = [exchange_plan(0, false, n), exchange_plan(1, false, n)];
    let rep = mc(&mutated);
    // Cutpoints: everything-rendezvous (0) and everything-eager (n+1).
    assert_eq!(rep.cutpoints, vec![0, n + 1]);
    let ce = expect_ce(&rep, "mc-deadlock");
    assert_eq!(
        ce.eager_cut,
        Some(0),
        "the cycle must only exist under rendezvous"
    );
    assert!(
        ce.trace
            .iter()
            .any(|l| l.contains("post send") && l.contains("rendezvous")),
        "trace must show the synchronizing send:\n{}",
        ce.trace.join("\n")
    );
    // Exactly one deadlock (deduped across cutpoints), no eager findings.
    assert_eq!(codes(&rep), vec!["mc-deadlock"]);
}

// ---------------------------------------------------------------------------
// 5. Chunk gap: chunks reassembled in the wrong order
// ---------------------------------------------------------------------------

/// Two-chunk broadcast; `swapped` reassembles tail-before-head at the
/// receiver.
fn two_chunk_bcast(me: usize, swapped: bool, n: usize) -> CollPlan {
    let head = 8usize;
    let mut b = PlanBuilder::new(
        CollKind::Bcast,
        CollAlgo::BcastBinomial,
        2,
        me,
        n,
        0,
        if me == 0 { Some((0, n)) } else { None },
    );
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

#[test]
fn swapped_chunk_reassembly_is_a_chunk_gap() {
    let good = [two_chunk_bcast(0, false, 64), two_chunk_bcast(1, false, 64)];
    assert!(mc(&good).clean(), "in-order reassembly must be clean");

    let mutated = [two_chunk_bcast(0, false, 64), two_chunk_bcast(1, true, 64)];
    let rep = mc(&mutated);
    let ce = expect_ce(&rep, "mc-chunk-gap");
    assert!(
        ce.detail.contains("logical byte"),
        "diagnosis must name the misplaced bytes: {}",
        ce.detail
    );
    assert!(
        ce.trace.iter().any(|l| l.contains("copy")),
        "trace must include the mutated reassembly step:\n{}",
        ce.trace.join("\n")
    );
}

// ---------------------------------------------------------------------------
// 6. Wrong root: the result lands on the wrong rank
// ---------------------------------------------------------------------------

#[test]
fn wrong_root_reduce_is_flagged() {
    let n = 64usize;
    // Claimed: reduce to root 0. Actual flow: rank 0 ships its input to
    // rank 1, which keeps the result.
    let mut b0 = PlanBuilder::new(
        CollKind::Reduce,
        CollAlgo::ReduceBinomial,
        2,
        0,
        n,
        0,
        Some((0, n)),
    );
    let inp0 = b0.input_buf();
    b0.send(1, 3, inp0);
    let p0 = b0.finish();

    let mut b1 = PlanBuilder::new(
        CollKind::Reduce,
        CollAlgo::ReduceBinomial,
        2,
        1,
        n,
        0,
        Some((0, n)),
    );
    let inp1 = b1.input_buf();
    let got = b1.recv(0, 3, n);
    let out = b1.reduce(inp1, got);
    b1.set_output(out);
    let p1 = b1.finish();

    let rep = mc(&[p0, p1]);
    let ce = expect_ce(&rep, "mc-chunk-gap");
    assert!(
        ce.detail.contains("owed a result") || ce.detail.contains("does not give it"),
        "diagnosis must blame the misplaced result: {}",
        ce.detail
    );
}

// ---------------------------------------------------------------------------
// 7. Stray send: a message nobody ever receives
// ---------------------------------------------------------------------------

#[test]
fn stray_send_is_unmatched_or_deadlocks() {
    let n = 64;
    // The correct exchange, plus one extra send rank 1 never posts a
    // receive for.
    let peer_ok = exchange_plan(1, true, n);
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
    let mutated = [b.finish(), peer_ok];

    let rep = mc(&mutated);
    let cs = codes(&rep);
    // Under rendezvous the stray send blocks the final drain forever;
    // under eager it completes but its payload rots in the mailbox.
    assert!(
        cs.contains(&"mc-deadlock"),
        "rendezvous cut must deadlock on the stray send, got {cs:?}"
    );
    assert!(
        cs.contains(&"mc-unmatched"),
        "eager cut must report the never-received payload, got {cs:?}"
    );
    let ce = expect_ce(&rep, "mc-unmatched");
    assert!(
        ce.detail.contains("never"),
        "diagnosis must say the send is never received: {}",
        ce.detail
    );
}

// ---------------------------------------------------------------------------
// 8. Length mismatch on a matched envelope
// ---------------------------------------------------------------------------

#[test]
fn short_receive_is_a_len_mismatch() {
    let n = 64usize;
    let mut b0 = PlanBuilder::new(
        CollKind::Barrier,
        CollAlgo::BarrierDissemination,
        2,
        0,
        0,
        0,
        Some((0, n)),
    );
    let inp = b0.input_buf();
    b0.send(1, 7, inp);
    let p0 = b0.finish();

    let mut b1 = PlanBuilder::new(
        CollKind::Barrier,
        CollAlgo::BarrierDissemination,
        2,
        1,
        0,
        0,
        None,
    );
    // Mutation: the receiver posts half the sender's length.
    b1.recv(0, 7, n / 2);
    let p1 = b1.finish();

    let rep = mc(&[p0, p1]);
    let ce = expect_ce(&rep, "mc-len-mismatch");
    assert!(
        trace_mentions(ce, "64") && trace_mentions(ce, "32"),
        "diagnosis must show both lengths:\n{ce}"
    );
    assert!(
        ce.trace.iter().any(|l| l.contains("matched send")),
        "trace must include the bad match:\n{}",
        ce.trace.join("\n")
    );
}

// ---------------------------------------------------------------------------
// 9. Reads before production
// ---------------------------------------------------------------------------

/// Rank 0 of a two-rank bcast that sends a view of its input; `late`
/// pushes the `Copy` producing the view after the `Send` that reads it.
fn late_view_bcast(late: bool) -> Vec<CollPlan> {
    let n = 64;
    let mut b0 = PlanBuilder::new(
        CollKind::Bcast,
        CollAlgo::BcastBinomial,
        2,
        0,
        n,
        0,
        Some((0, n)),
    );
    let inp = b0.input_buf();
    if late {
        // The view is the next buffer the builder hands out.
        b0.send(1, 0, BufId(1));
        assert_eq!(b0.slice(inp, 0, n), BufId(1));
    } else {
        let view = b0.slice(inp, 0, n);
        b0.send(1, 0, view);
    }
    b0.set_output(inp);
    let mut b1 = PlanBuilder::new(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 1, n, 0, None);
    let got = b1.recv(0, 0, n);
    b1.set_output(got);
    vec![b0.finish(), b1.finish()]
}

#[test]
fn a_send_of_a_later_copy_is_bad_structure() {
    assert!(mc(&late_view_bcast(false)).clean(), "unmutated bcast");
    let rep = mc(&late_view_bcast(true));
    let ce = expect_ce(&rep, "mc-bad-structure");
    assert!(
        ce.detail.contains("b1") && ce.detail.contains("before it is produced"),
        "diagnosis must name the unproduced buffer: {}",
        ce.detail
    );
}

/// Rank 0 of a two-rank exchange that posts its receive nonblocking,
/// then sends and reduces; `waited` fences the receive before the reduce.
fn unwaited_recv_exchange(waited: bool) -> Vec<CollPlan> {
    let n = 64;
    let mut b0 = PlanBuilder::new(
        CollKind::Allreduce,
        CollAlgo::AllreduceRing,
        2,
        0,
        n,
        0,
        Some((0, n)),
    );
    let inp = b0.input_buf();
    let (r, got) = b0.irecv(1, 7, n);
    b0.send(1, 7, inp);
    if waited {
        b0.fence_on(r);
    }
    let out = b0.reduce(inp, got);
    b0.set_output(out);
    vec![b0.finish(), exchange_plan(1, false, n)]
}

/// A step waits only on its `deps`: reading a received buffer with no dep
/// on its `Recv` is a malformed plan, not an implicit wait.
#[test]
fn a_received_read_with_no_dep_is_bad_structure() {
    assert!(mc(&unwaited_recv_exchange(true)).clean(), "fenced exchange");
    let rep = mc(&unwaited_recv_exchange(false));
    let ce = expect_ce(&rep, "mc-bad-structure");
    assert!(
        ce.detail.contains("b1") && ce.detail.contains("receive s0"),
        "diagnosis must name the unwaited receive: {}",
        ce.detail
    );
}
