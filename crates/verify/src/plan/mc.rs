//! Model checking of [`CollPlan`] schedules: the one static plan check.
//!
//! The checker drives the symbolic executor (private `exec`) — it owns no
//! step semantics of its own — over every schedule the runtime could
//! produce, across two axes of nondeterminism:
//!
//! * **Transfer protocol** — the eager/rendezvous cutoff is treated as a
//!   symbolic boundary: each plan set is checked at every message-size
//!   *cutpoint* (`{0} ∪ {s+1 | s a distinct send size}`), so a plan that
//!   is safe when sends complete at post time but deadlocks when they
//!   complete at match time is caught, and vice versa;
//! * **Composition** — several [`PlanInstance`]s posted concurrently (the
//!   paper's `N_DUP` overlap), which must be match-isolated: no message of
//!   one instance may ever be consumed by another.
//!
//! ## One pass per member
//!
//! A wire envelope `(ctx, src, dst, wire_tag)` names a send queue (filled
//! only by rank `src`) and a receive queue (filled only by rank `dst`),
//! and matching is strictly FIFO head-to-head. Within one instance every
//! queue therefore has exactly one producer executing in program order:
//! posts to it are confluent, and the machine's deterministic closure
//! (`settle`) reaches the state every interleaving reaches. One pass per
//! cutpoint checks every schedule of the instance, at any p.
//!
//! Instances whose wire namespaces are disjoint share no envelope, and no
//! instance reads another's buffers, so any interleaving of them is an
//! interleaving of each one alone. [`check_compose`](super::check_compose)
//! proves that disjointness statically; a composition's verdict is
//! therefore its `mc-tag-overlap` findings plus each member's own pass at
//! every cutpoint of the composition.
//!
//! Protocol soundness: an eager send completes at post time, a rendezvous
//! send at match time — eager only *enables more* schedules, never fewer,
//! and matching itself is protocol-independent, so checking every cutpoint
//! covers every mixed protocol assignment the runtime can realize.
//!
//! [`lint_plans`] is the same check at the all-rendezvous cutpoint only.
//!
//! ## Findings
//!
//! A member's pass stops at the machine's first violation, reported as a
//! [`PlanFinding`]: the stable code, a one-line diagnosis naming the
//! member's position (`instance #k`), the eager/rendezvous cutoff in
//! force, and the full interleaving (one executed action per line) that
//! exhibits the bug. Codes:
//!
//! * `mc-deadlock` — some interleaving never finishes;
//! * `mc-len-mismatch` — a matched pair disagrees on the byte count;
//! * `mc-chunk-gap` — an output hole/misorder/wrong contributor set, or a
//!   misaligned reduction, on some interleaving;
//! * `mc-double-count` — a contribution reduced twice;
//! * `mc-unmatched` — an eager send no receive ever consumes;
//! * `mc-bad-structure` — a malformed plan set, found at admission before
//!   any pass and reported without a trace: ids out of range, inconsistent
//!   shapes, a buffer produced twice, a read of a buffer no earlier step
//!   produced, or a read of a received buffer before a dep waits for its
//!   `Recv`;
//! * `mc-tag-overlap` — static wire-namespace collision (from
//!   [`check_compose`](super::check_compose), reported without a trace):
//!   the composition's verdict when its instances are not isolated.

use std::collections::BTreeSet;

use super::compose::{borrow_all, compose_findings, InstRef, PlanInstance};
use super::exec::{Machine, St, TraceKind, TraceStep, Violation};
use super::finding::PlanFinding;
use super::structure::admit;
use super::{CollPlan, StepOp};

/// Options for [`model_check`].
#[derive(Debug, Clone, Default)]
pub struct McConfig {
    /// Explicit cutpoints to check instead of the full symbolic sweep of
    /// [`cutpoints`]. `Some(vec![0])` checks only the all-rendezvous
    /// protocol — the deadlock-dominant extreme (an eager cutoff only
    /// completes sends *earlier*, so every deadlock reachable under some
    /// eager cut is reachable under rendezvous, and FIFO matching — hence
    /// every value/coverage property — is cutoff-independent for
    /// collision-free compositions). Used by wide exhaustive sweeps where
    /// the full per-size cutpoint set would multiply cost without adding
    /// single-instance coverage.
    pub cut_override: Option<Vec<usize>>,
}

/// Result of one [`model_check`] run.
#[derive(Debug)]
pub struct McReport {
    /// The static findings, then at most one finding per code (the first
    /// counterexample found) across all cutpoints.
    pub findings: Vec<PlanFinding>,
    /// Total plan actions executed across all passes.
    pub actions: usize,
    /// The protocol cutpoints checked.
    pub cutpoints: Vec<usize>,
}

impl McReport {
    /// No findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The message-size cutpoints at which protocol behavior can change:
/// `0` (every send rendezvous) plus `s + 1` for each distinct send size
/// `s` (making sends of `≤ s` bytes eager). Checking each covers every
/// eager-limit the runtime can be configured with.
pub fn cutpoints(insts: &[PlanInstance]) -> Vec<usize> {
    cutpoints_of(&borrow_all(insts))
}

fn cutpoints_of(insts: &[InstRef<'_>]) -> Vec<usize> {
    let mut sizes: BTreeSet<usize> = BTreeSet::new();
    for plan in insts.iter().flat_map(|inst| inst.plans) {
        for step in &plan.steps {
            if let StepOp::Send { buf, .. } = step.op {
                sizes.insert(plan.buf_len(buf));
            }
        }
    }
    let mut cuts = vec![0usize];
    cuts.extend(sizes.into_iter().map(|s| s + 1));
    cuts
}

fn short_op(plan: &CollPlan, idx: usize) -> String {
    match &plan.steps[idx].op {
        StepOp::Slack => "slack".to_string(),
        StepOp::Send { peer, buf, tag } => format!(
            "send b{}({}B) -> r{peer} tag {tag}",
            buf.0,
            plan.buf_len(*buf)
        ),
        StepOp::Recv { peer, into, tag } => format!(
            "recv b{}({}B) <- r{peer} tag {tag}",
            into.0,
            plan.buf_len(*into)
        ),
        StepOp::Reduce { a, b, into } => {
            format!("reduce b{} + b{} -> b{}", a.0, b.0, into.0)
        }
        StepOp::Copy { parts, into } => {
            format!("copy {} part(s) -> b{}", parts.len(), into.0)
        }
    }
}

/// Render `v`, found by the pass `m` over member `k` in state `st`, as a
/// counterexample.
fn counterexample(m: &Machine<'_>, k: usize, st: &St, v: &Violation) -> PlanFinding {
    let who = |a: usize| format!("instance #{k} rank {a}");
    let (code, detail) = match v {
        Violation::LenMismatch { key, send, recv } => (
            "mc-len-mismatch",
            format!(
                "{} sends {}B but {} expects {}B on wire tag {:#x}",
                who(send.agent),
                send.bytes,
                who(recv.agent),
                recv.bytes,
                key.3
            ),
        ),
        Violation::ChunkGap { at, step, what } => (
            "mc-chunk-gap",
            match step {
                Some(idx) => format!("{} step s{idx}: {what}", who(*at)),
                None => format!("{}: {what}", who(*at)),
            },
        ),
        Violation::DoubleCount { at, step, what } => (
            "mc-double-count",
            format!("{} step s{step}: {what}", who(*at)),
        ),
        Violation::Stuck { agents } => {
            let a = agents[0];
            let what = if st.pcs[a] < m.plan(a).steps.len() {
                format!(
                    "blocked at step s{} ({})",
                    st.pcs[a],
                    short_op(m.plan(a), st.pcs[a])
                )
            } else {
                format!(
                    "finished its steps but {} posted operation(s) never complete",
                    st.pending[a]
                )
            };
            (
                "mc-deadlock",
                format!(
                    "{} agent(s) can never finish; first: {} {what}",
                    agents.len(),
                    who(a)
                ),
            )
        }
        // With nobody stuck, a leftover send is an eager one that no
        // receive ever consumed.
        Violation::UnmatchedSend { post } => (
            "mc-unmatched",
            format!(
                "{} step s{}: eager send of {}B is never received",
                who(post.agent),
                post.step,
                post.bytes
            ),
        ),
        Violation::UnexpectedOutput { at } => (
            "mc-chunk-gap",
            format!(
                "{} declares an output this collective does not give it",
                who(*at)
            ),
        ),
        Violation::MissingOutput { at } => (
            "mc-chunk-gap",
            format!("{} is owed a result but the plan produces none", who(*at)),
        ),
    };
    PlanFinding {
        code,
        detail,
        eager_cut: Some(m.eager_cut),
        trace: render_trace(m, k, &st.trace),
    }
}

fn render_trace(m: &Machine<'_>, k: usize, trace: &[TraceStep]) -> Vec<String> {
    trace
        .iter()
        .enumerate()
        .map(|(n, t)| {
            let desc = short_op(m.plan(t.agent as usize), t.step as usize);
            let body = match t.kind {
                TraceKind::PostSend { eager } => format!(
                    "post {desc} [{}]",
                    if eager { "eager" } else { "rendezvous" }
                ),
                TraceKind::PostRecv => format!("post {desc}"),
                TraceKind::Match { agent, step } => {
                    format!("{desc} matched send i{k} r{agent} s{step}")
                }
                TraceKind::Exec => desc,
            };
            format!("#{n} i{k} r{} s{}: {body}", t.agent, t.step)
        })
        .collect()
}

/// Model-check composed plan instances: static tag-namespace disjointness
/// plus one deterministic pass per member at every protocol cutpoint of
/// the composition. At most one finding per code is reported, each with
/// its counterexample interleaving.
pub fn model_check(insts: &[PlanInstance], cfg: &McConfig) -> McReport {
    check(&borrow_all(insts), cfg)
}

/// Model-check a single instance (one collective on one communicator).
pub fn model_check_single(plans: &[CollPlan], cfg: &McConfig) -> McReport {
    let inst = InstRef {
        ctx: 0,
        seq: 0,
        plans,
    };
    check(&[inst], cfg)
}

/// [`model_check_single`] at the all-rendezvous cutpoint only: the
/// deadlock-dominant protocol (see [`McConfig::cut_override`]).
pub fn lint_plans(plans: &[CollPlan]) -> Vec<PlanFinding> {
    let rendezvous = McConfig {
        cut_override: Some(vec![0]),
    };
    model_check_single(plans, &rendezvous).findings
}

fn check(insts: &[InstRef<'_>], cfg: &McConfig) -> McReport {
    let mut report = McReport {
        findings: compose_findings(insts),
        actions: 0,
        cutpoints: Vec::new(),
    };
    let mut admitted = true;
    for (k, inst) in insts.iter().enumerate() {
        if let Err(defects) = admit(inst.plans) {
            admitted = false;
            report
                .findings
                .extend(defects.into_iter().map(|(rank, detail)| PlanFinding {
                    code: "mc-bad-structure",
                    detail: format!("instance #{k} rank {rank}: {detail}"),
                    eager_cut: None,
                    trace: Vec::new(),
                }));
        }
    }
    if !admitted {
        return report;
    }
    report.cutpoints = match &cfg.cut_override {
        Some(cuts) => cuts.clone(),
        None => cutpoints_of(insts),
    };
    let mut seen: BTreeSet<&'static str> = report.findings.iter().map(|f| f.code).collect();
    for &cut in &report.cutpoints {
        for (k, &inst) in insts.iter().enumerate() {
            let mut m = Machine::new(inst, cut);
            let mut st = m.initial();
            m.settle(&mut st);
            let found = m.violation.take().or_else(|| m.terminal(&st));
            report.actions += m.actions;
            report.findings.extend(
                found
                    .map(|v| counterexample(&m, k, &st, &v))
                    .filter(|f| seen.insert(f.code)),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::super::builders::build_all;
    use super::super::compose::{dup_instances, seq_instances};
    use super::super::{CollAlgo, PlanBuilder};
    use super::*;
    use crate::event::CollKind;

    #[test]
    fn builders_are_mc_clean_small() {
        // One deterministic pass per cutpoint at any p (129 is just past
        // the old Strict cap), at the roots that reshape a rooted tree.
        let cfg = McConfig::default();
        for &algo in CollAlgo::all() {
            for p in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 129] {
                for n in [0usize, 8, 64, 1000, 4096] {
                    let roots = match algo.kind() {
                        CollKind::Allreduce | CollKind::Allgather | CollKind::Barrier => {
                            BTreeSet::from([0])
                        }
                        _ => BTreeSet::from([0, 1 % p, p - 1]),
                    };
                    for root in roots {
                        let plans = build_all(algo.kind(), algo, p, n, root);
                        let rep = model_check_single(&plans, &cfg);
                        assert!(
                            rep.clean(),
                            "{algo} p={p} n={n} root={root}: {:?}",
                            rep.findings
                                .iter()
                                .map(|f| f.to_string())
                                .collect::<Vec<_>>()
                        );
                        assert!(!rep.cutpoints.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn dup_and_seq_compositions_are_isolated() {
        let cfg = McConfig::default();
        let plans = build_all(CollKind::Allreduce, CollAlgo::AllreduceRing, 4, 256, 0);
        for insts in [dup_instances(&plans, 3), seq_instances(&plans, 3)] {
            let rep = model_check(&insts, &cfg);
            assert!(rep.clean(), "{:?}", rep.findings);
        }
    }

    #[test]
    fn composed_actions_are_the_members_actions() {
        let algos = [
            CollAlgo::BcastBinomial,
            CollAlgo::AllreduceRing,
            CollAlgo::GatherLinear,
        ];
        for algo in algos {
            for p in [4usize, 8] {
                let root = if algo.kind() == CollKind::Allreduce {
                    0
                } else {
                    p - 1
                };
                let plans = build_all(algo.kind(), algo, p, 1024, root);
                let single = model_check_single(&plans, &McConfig::default());
                for insts in [dup_instances(&plans, 2), seq_instances(&plans, 2)] {
                    let rep = model_check(&insts, &McConfig::default());
                    assert_eq!(rep.actions, 2 * single.actions, "{algo} p={p}");
                    assert_eq!(rep.cutpoints, single.cutpoints, "{algo} p={p}");
                }
            }
        }
    }

    /// Two-rank allreduce by full exchange on step tag 7, both ranks
    /// sending first: a cycle once the sends synchronize.
    fn rendezvous_cycle_pair() -> Vec<CollPlan> {
        let mk = |me: usize| {
            let mut pb = PlanBuilder::new(
                CollKind::Allreduce,
                CollAlgo::AllreduceRing,
                2,
                me,
                64,
                0,
                Some((0, 64)),
            );
            let inp = pb.input_buf();
            pb.send(1 - me, 7, inp);
            let got = pb.recv(1 - me, 7, 64);
            let out = pb.reduce(inp, got);
            pb.set_output(out);
            pb.finish()
        };
        vec![mk(0), mk(1)]
    }

    #[test]
    fn a_composed_counterexample_names_its_member() {
        let bcast = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 64, 0);
        let insts = [
            PlanInstance::new(0, 0, bcast),
            PlanInstance::new(1, 0, rendezvous_cycle_pair()),
        ];
        let rep = model_check(&insts, &McConfig::default());
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, ["mc-deadlock"]);
        assert_eq!(rep.findings[0].eager_cut, Some(0));
        let rendered = rep.findings[0].to_string();
        assert_eq!(
            rendered.lines().next(),
            Some(
                "error[mc-deadlock]: 2 agent(s) can never finish; first: instance #1 rank 0 \
                 blocked at step s1 (recv b1(64B) <- r1 tag 7) [eager_cut=0]"
            )
        );
    }

    #[test]
    fn colliding_namespaces_overlap() {
        let cfg = McConfig::default();
        let plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 64, 0);
        let insts = vec![
            PlanInstance::new(0, 0, plans.clone()),
            PlanInstance::new(0, 0, plans),
        ];
        let rep = model_check(&insts, &cfg);
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"mc-tag-overlap"), "{codes:?}");
    }

    #[test]
    fn rendezvous_cycle_is_cut_dependent() {
        // Both ranks: blocking send, then blocking recv. Deadlocks under
        // rendezvous (cut 0); safe when the 8B sends are eager (cut 9).
        let mk = |me: usize| {
            let peer = 1 - me;
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
            pb.send(peer, 0, mine);
            let theirs = pb.recv(peer, 0, 8);
            let s = pb.reduce(mine, theirs);
            pb.set_output(s);
            pb.finish()
        };
        let plans = vec![mk(0), mk(1)];
        let rep = model_check_single(&plans, &McConfig::default());
        assert_eq!(rep.cutpoints, vec![0, 9]);
        let dl = (rep.findings.iter())
            .find(|f| f.code == "mc-deadlock")
            .expect("rendezvous deadlock must be found");
        // Caught at the all-rendezvous cutpoint specifically.
        assert_eq!(dl.eager_cut, Some(0));
    }

    #[test]
    fn malformed_ids_are_findings_not_a_panic() {
        // A receive into a buffer the plan does not have: the dataflow
        // walk must not index by ids the structure check rejected.
        let mut plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 64, 0);
        for step in &mut plans[1].steps {
            if let StepOp::Recv { into, .. } = &mut step.op {
                into.0 = 99;
            }
        }
        let rep = model_check_single(&plans, &McConfig::default());
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, ["mc-bad-structure"], "{:?}", rep.findings);
        assert!(rep.cutpoints.is_empty());
    }

    #[test]
    fn eager_unmatched_send_is_found() {
        let mut pb0 = PlanBuilder::new(
            CollKind::Bcast,
            CollAlgo::BcastBinomial,
            2,
            0,
            8,
            0,
            Some((0, 8)),
        );
        let b = pb0.input_buf();
        pb0.isend(1, 0, b);
        pb0.set_output(b);
        let mut pb1 = PlanBuilder::new(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 1, 8, 0, None);
        let got = pb1.recv(0, 1, 8); // wrong tag: never matches
        pb1.set_output(got);
        let rep = model_check_single(&[pb0.finish(), pb1.finish()], &McConfig::default());
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code).collect();
        // Rendezvous: deadlock. Eager: the send completes but is never
        // consumed, and rank 1 still blocks on its recv.
        assert!(codes.contains(&"mc-deadlock"), "{codes:?}");
    }
}
