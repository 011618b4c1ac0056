//! Stateful model checking of [`CollPlan`] schedules.
//!
//! The [linter](super::lint) runs the symbolic executor (private `exec`) once,
//! over one plan set under all-rendezvous semantics. The model checker
//! drives the same machine — it owns no step semantics of its own — over
//! **every** schedule the runtime could produce, across three axes of
//! nondeterminism:
//!
//! * **Receive-match order** — composed instances racing their posts into
//!   the same wire envelope can enqueue in any order;
//! * **Transfer protocol** — the eager/rendezvous cutoff is treated as a
//!   symbolic boundary: each plan set is checked at every message-size
//!   *cutpoint* (`{0} ∪ {s+1 | s a distinct send size}`), so a plan that
//!   is safe when sends complete at post time but deadlocks when they
//!   complete at match time is caught, and vice versa;
//! * **Composition** — several [`PlanInstance`]s posted concurrently (the
//!   paper's `N_DUP` overlap), checked for match-isolation: no message of
//!   one instance may ever be consumed by another.
//!
//! ## Reduction
//!
//! Exhaustive interleaving exploration is made tractable by a
//! partial-order argument specific to this message model. A wire envelope
//! `(ctx, src, dst, wire_tag)` names both a send queue (filled only by
//! rank `src`) and a receive queue (filled only by rank `dst`), and
//! matching is strictly FIFO head-to-head. Within a *single* instance,
//! every queue therefore has exactly one producer executing in program
//! order: posts to it are confluent, and executing them eagerly in the
//! machine's deterministic closure (`settle`) visits the same reachable
//! states as any interleaving. True nondeterminism arises **only** when two or more
//! instances post into the same side of the same envelope — a *contended*
//! envelope, which exists only under tag-namespace collisions. The
//! explorer branches exclusively over contended posts, with sleep sets
//! (two posts commute unless they hit the same side of the same envelope)
//! and visited-state hashing pruning redundant orders. Shipped plan
//! compositions have zero contended envelopes, so the exhaustive CI sweep
//! degenerates to one deterministic pass per cutpoint.
//!
//! Protocol soundness: an eager send completes at post time, a rendezvous
//! send at match time — eager only *enables more* schedules, never fewer,
//! and matching itself is protocol-independent, so checking every cutpoint
//! covers every mixed protocol assignment the runtime can realize.
//!
//! ## Findings
//!
//! Exploration of a cutpoint stops at the machine's first violation,
//! reported as [`PlanFinding::Mc`] carrying an [`McCounterexample`]: the
//! stable code, a one-line diagnosis, the eager/rendezvous cutoff in
//! force, and the full interleaving (one executed action per line) that
//! exhibits the bug. Codes:
//!
//! * `mc-deadlock` — some interleaving never finishes;
//! * `mc-cross-match` — a message of one instance consumed by another;
//! * `mc-len-mismatch` — a matched pair disagrees on the byte count;
//! * `mc-chunk-gap` — an output hole/misorder/wrong contributor set, or a
//!   misaligned reduction, on some interleaving;
//! * `mc-double-count` — a contribution reduced twice;
//! * `mc-unmatched` — an eager send no receive ever consumes;
//! * `mc-bad-structure` — a read of a never-produced buffer mid-schedule;
//! * `mc-tag-overlap` — static wire-namespace collision (from
//!   [`check_compose`](super::check_compose), reported without a trace).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

use super::compose::{borrow_all, compose_findings, InstRef, PlanInstance};
use super::exec::{side_of, Machine, Side, St, TraceKind, TraceStep, Violation};
use super::structure::admit;
use super::{CollPlan, StepOp};

pub use super::finding::{McCounterexample, PlanFinding};

/// Exploration limits for [`model_check`].
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum branch states explored per protocol cutpoint before the
    /// run is declared truncated. Shipped (non-colliding) compositions
    /// explore zero branch states; the budget only bounds deliberately
    /// adversarial inputs.
    pub max_states: usize,
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

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            max_states: 1 << 20,
            cut_override: None,
        }
    }
}

/// Result of one [`model_check`] run.
#[derive(Debug)]
pub struct McReport {
    /// Violations, at most one per finding code (the first counterexample
    /// found), across all cutpoints.
    pub findings: Vec<PlanFinding>,
    /// Branch states explored across all cutpoints (0 = every cutpoint
    /// ran as a single deterministic pass — no contended envelopes).
    pub states: usize,
    /// Total plan actions executed across all explored schedules.
    pub actions: usize,
    /// The protocol cutpoints checked.
    pub cutpoints: Vec<usize>,
    /// True if some cutpoint exhausted [`McConfig::max_states`]; absence
    /// of findings is then not a proof.
    pub truncated: bool,
}

impl McReport {
    /// No findings and the exploration was exhaustive.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && !self.truncated
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

/// The envelope sides two or more instances post into — the only source
/// of match-order nondeterminism, hence the explorer's branch points.
fn contended_sides(insts: &[InstRef<'_>]) -> BTreeSet<Side> {
    let mut first_poster: BTreeMap<Side, usize> = BTreeMap::new();
    let mut contended = BTreeSet::new();
    for (i, inst) in insts.iter().enumerate() {
        for (r, plan) in inst.plans.iter().enumerate() {
            for side in plan.steps.iter().filter_map(|s| side_of(inst, r, &s.op)) {
                if *first_poster.entry(side).or_insert(i) != i {
                    contended.insert(side);
                }
            }
        }
    }
    contended
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

/// One cutpoint's exploration: the machine plus the search around it.
struct Mc<'a> {
    m: Machine<'a>,
    contended: &'a BTreeSet<Side>,
    max_states: usize,
    visited: HashSet<u64>,
    states: usize,
    truncated: bool,
    /// The first violation, with the interleaving that led to it.
    finding: Option<PlanFinding>,
}

impl Mc<'_> {
    fn stopped(&self) -> bool {
        self.finding.is_some() || self.truncated
    }

    /// Render `v`, found in state `st`, as a counterexample.
    fn counterexample(&self, st: &St, v: &Violation) -> PlanFinding {
        let ir = |a: usize| self.m.agents[a];
        let who = |a: usize| format!("instance #{} rank {}", ir(a).0, ir(a).1);
        let (code, detail) = match v {
            Violation::ReadUnproduced { at, buf } => (
                "mc-bad-structure",
                format!("{} reads buffer b{} before it is produced", who(*at), buf.0),
            ),
            Violation::CrossMatch { key, send, recv } => {
                let ((si, sr), (ri, rr)) = (ir(send.agent), ir(recv.agent));
                let (sender, receiver) = (self.m.inst(send.agent), self.m.inst(recv.agent));
                (
                    "mc-cross-match",
                    format!(
                        "message of instance #{si} (ctx {}, seq {}) rank {sr} step s{} consumed \
                         by instance #{ri} (seq {}) rank {rr} step s{} on wire tag {:#x}: \
                         composed instances are not match-isolated",
                        sender.ctx, sender.seq, send.step, receiver.seq, recv.step, key.3,
                    ),
                )
            }
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
                let what = if st.pcs[a] < self.m.plan(a).steps.len() {
                    format!(
                        "blocked at step s{} ({})",
                        st.pcs[a],
                        short_op(self.m.plan(a), st.pcs[a])
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
            Violation::UnmatchedSend { post, .. } => (
                "mc-unmatched",
                format!(
                    "{} step s{}: eager send of {}B is never received",
                    who(post.agent),
                    post.step,
                    post.bytes
                ),
            ),
            Violation::UnmatchedRecv { .. } => {
                unreachable!("a pending receive leaves its agent stuck, which is listed first")
            }
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
        PlanFinding::Mc(McCounterexample {
            code,
            detail,
            eager_cut: Some(self.m.eager_cut),
            trace: self.render_trace(&st.trace),
        })
    }

    fn render_trace(&self, trace: &[TraceStep]) -> Vec<String> {
        trace
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let (i, r) = self.m.agents[t.agent as usize];
                let desc = short_op(self.m.plan(t.agent as usize), t.step as usize);
                let body = match t.kind {
                    TraceKind::PostSend { eager } => format!(
                        "post {desc} [{}]",
                        if eager { "eager" } else { "rendezvous" }
                    ),
                    TraceKind::PostRecv => format!("post {desc}"),
                    TraceKind::Match { agent, step } => {
                        let (pi, pr) = self.m.agents[agent as usize];
                        format!("{desc} matched send i{pi} r{pr} s{step}")
                    }
                    TraceKind::Exec => desc,
                };
                format!("#{k} i{i} r{r} s{}: {body}", t.step)
            })
            .collect()
    }

    /// Runnable contended posts (the branch alternatives) after a settle.
    fn enabled(&self, st: &St) -> Vec<(usize, Side)> {
        (0..self.m.agents.len())
            .filter(|&a| !st.poisoned[a] && st.pcs[a] < self.m.plan(a).steps.len())
            .filter(|&a| self.m.runnable(st, a, st.pcs[a]))
            .filter_map(|a| Some((a, self.m.side(a, st.pcs[a])?)))
            .filter(|(_, side)| self.contended.contains(side))
            .collect()
    }

    fn hash_state(st: &St) -> u64 {
        // Everything but the trace: two interleavings reaching the same
        // state have the same future.
        let St {
            pcs,
            done,
            pending,
            poisoned,
            vals,
            sends,
            recvs,
            trace: _,
        } = st;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (pcs, done, pending, poisoned, vals, sends, recvs).hash(&mut h);
        h.finish()
    }

    /// Sleep-set DFS over contended posts. `sleep` holds agents whose
    /// pending action is covered by a sibling branch; an agent wakes only
    /// when a dependent action (same envelope side) executes.
    fn dfs(&mut self, mut st: St, sleep: Vec<usize>) {
        self.m.settle(&mut st, self.contended);
        if let Some(v) = self.m.violations.first() {
            self.finding = Some(self.counterexample(&st, v));
            return;
        }
        let enabled = self.enabled(&st);
        if enabled.is_empty() {
            // Quiescent: everything finished (check outputs) or some
            // agents can never finish (deadlock).
            if let Some(v) = self.m.terminal(&st).first() {
                self.finding = Some(self.counterexample(&st, v));
            }
            return;
        }
        if !self.visited.insert(Mc::hash_state(&st)) {
            return;
        }
        self.states += 1;
        if self.states > self.max_states {
            self.truncated = true;
            return;
        }
        let mut explored: Vec<(usize, Side)> = Vec::new();
        for (a, side) in enabled {
            if self.stopped() {
                return;
            }
            if sleep.contains(&a) {
                continue;
            }
            // Branch sleep set: everything already covered that commutes
            // with this action (different envelope side).
            let asleep = sleep
                .iter()
                .copied()
                .filter(|&s| self.m.side(s, st.pcs[s]) != Some(side));
            let covered = explored.iter().filter(|(_, es)| *es != side);
            let ns = asleep.chain(covered.map(|&(ea, _)| ea)).collect();
            let mut st2 = st.clone();
            let idx = st2.pcs[a];
            st2.pcs[a] = idx + 1;
            self.m.execute(&mut st2, a, idx);
            self.dfs(st2, ns);
            explored.push((a, side));
        }
    }
}

/// Model-check composed plan instances: static tag-namespace disjointness
/// plus exhaustive exploration of match-order and protocol nondeterminism
/// at every cutpoint. At most one finding per code is reported, each with
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

fn check(insts: &[InstRef<'_>], cfg: &McConfig) -> McReport {
    let mut report = McReport {
        findings: compose_findings(insts),
        states: 0,
        actions: 0,
        cutpoints: Vec::new(),
        truncated: false,
    };
    // Per agent (instances concatenated), per buffer: the producing step.
    let mut producers = Vec::new();
    let mut structural = Vec::new();
    for inst in insts {
        match admit(inst.plans) {
            Ok(p) => producers.extend(p),
            Err(f) => structural.extend(f),
        }
    }
    if !structural.is_empty() {
        report.findings.extend(structural);
        return report;
    }
    report.cutpoints = match &cfg.cut_override {
        Some(cuts) => cuts.clone(),
        None => cutpoints_of(insts),
    };
    let contended = match insts {
        [_] => BTreeSet::new(),
        _ => contended_sides(insts),
    };
    let mut seen: BTreeSet<&'static str> = report.findings.iter().map(|f| f.code()).collect();
    for &cut in &report.cutpoints {
        let mut mc = Mc {
            m: Machine::new(insts, &producers, cut, true),
            contended: &contended,
            max_states: cfg.max_states,
            visited: HashSet::new(),
            states: 0,
            truncated: false,
            finding: None,
        };
        let init = mc.m.initial();
        mc.dfs(init, Vec::new());
        report.states += mc.states;
        report.actions += mc.m.actions;
        report.truncated |= mc.truncated;
        report
            .findings
            .extend(mc.finding.filter(|f| seen.insert(f.code())));
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
        // A zero state budget still passes: one instance never branches,
        // so no shipped shape at any p (129 is just past the old Strict
        // cap) can truncate.
        let cfg = McConfig {
            max_states: 0,
            ..McConfig::default()
        };
        for &algo in CollAlgo::all() {
            for p in [1usize, 2, 3, 4, 5, 8, 129] {
                for n in [0usize, 64, 1000] {
                    let root = p.saturating_sub(1);
                    let root = match algo.kind() {
                        CollKind::Allreduce | CollKind::Allgather | CollKind::Barrier => 0,
                        _ => root,
                    };
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
                    // No contended envelopes: fully deterministic.
                    assert_eq!(rep.states, 0, "{algo} p={p} n={n}");
                    assert!(!rep.cutpoints.is_empty());
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
            assert_eq!(rep.states, 0);
        }
    }

    #[test]
    fn colliding_namespaces_cross_match() {
        let cfg = McConfig::default();
        let plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 64, 0);
        let insts = vec![
            PlanInstance::new(0, 0, plans.clone()),
            PlanInstance::new(0, 0, plans),
        ];
        let rep = model_check(&insts, &cfg);
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code()).collect();
        assert!(codes.contains(&"mc-tag-overlap"), "{codes:?}");
        assert!(codes.contains(&"mc-cross-match"), "{codes:?}");
        // The cross-match counterexample carries a rendered interleaving.
        let ce = rep
            .findings
            .iter()
            .find_map(|f| match f {
                PlanFinding::Mc(ce) if ce.code == "mc-cross-match" => Some(ce),
                _ => None,
            })
            .unwrap();
        assert!(!ce.trace.is_empty());
        assert!(rep.states > 0, "collision must force branching");
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
        let dl = rep
            .findings
            .iter()
            .find_map(|f| match f {
                PlanFinding::Mc(ce) if ce.code == "mc-deadlock" => Some(ce),
                _ => None,
            })
            .expect("rendezvous deadlock must be found");
        // Caught at the all-rendezvous cutpoint specifically.
        assert_eq!(dl.eager_cut, Some(0));
    }

    #[test]
    fn malformed_ids_are_findings_not_a_panic() {
        // A receive into a buffer the plan does not have: the producer
        // table must not be built over ids the structure check rejected.
        let mut plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 64, 0);
        for step in &mut plans[1].steps {
            if let StepOp::Recv { into, .. } = &mut step.op {
                into.0 = 99;
            }
        }
        let rep = model_check_single(&plans, &McConfig::default());
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code()).collect();
        assert_eq!(codes, ["plan-bad-structure"], "{:?}", rep.findings);
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
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code()).collect();
        // Rendezvous: deadlock. Eager: the send completes but is never
        // consumed, and rank 1 still blocks on its recv.
        assert!(codes.contains(&"mc-deadlock"), "{codes:?}");
    }
}
