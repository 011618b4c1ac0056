//! Multi-plan composition: several collective instances in flight at once.
//!
//! The paper's technique posts many nonblocking collectives concurrently —
//! on dup'd communicators (`N_DUP`) or back-to-back on one communicator —
//! and lets their schedules interleave. A [`PlanInstance`] is one such
//! in-flight collective: the per-rank [`CollPlan`]s plus the communicator
//! context and per-communicator sequence number that scope its messages on
//! the wire. Both backends tag every plan message as
//!
//! ```text
//! wire_tag = INTERNAL_BIT | (seq << STEP_TAG_BITS) | step_tag
//! ```
//!
//! so two instances can interfere **only** if their wire-tag namespaces
//! overlap on the same context. [`check_compose`] proves that statically
//! (tag-namespace disjointness). Disjoint instances share no envelope, so
//! [`super::mc::model_check`] checks each member on its own; a collision
//! is reported as `mc-tag-overlap`, the composition's verdict.

use std::collections::{BTreeMap, BTreeSet};

use super::finding::PlanFinding;
use super::{CollPlan, StepOp};

/// Number of low wire-tag bits holding the per-instance step tag.
pub const STEP_TAG_BITS: u32 = 24;
/// High bit marking internal (collective) traffic in both backends' tag
/// namespaces (mirrors `ovcomm_verify::INTERNAL_TAG_BIT`).
pub const INTERNAL_BIT: u64 = 1 << 63;

/// One in-flight collective: the plans of all ranks plus the wire
/// namespace (communicator context, collective sequence number) they run
/// under.
#[derive(Debug, Clone)]
pub struct PlanInstance {
    /// Communicator context id. Dup'd communicators get distinct contexts;
    /// messages never match across contexts.
    pub ctx: u64,
    /// Per-communicator collective sequence number (shifted into the wire
    /// tag so successive collectives on one communicator stay disjoint).
    pub seq: u64,
    /// One plan per communicator rank, indexed by rank.
    pub plans: Vec<CollPlan>,
}

impl PlanInstance {
    /// Wrap `plans` as the instance `(ctx, seq)`.
    pub fn new(ctx: u64, seq: u64, plans: Vec<CollPlan>) -> PlanInstance {
        PlanInstance { ctx, seq, plans }
    }

    /// The wire tag a step tag maps to under this instance's namespace.
    pub fn wire_tag(&self, step_tag: u32) -> u64 {
        self.borrowed().wire_tag(step_tag)
    }

    pub(crate) fn borrowed(&self) -> InstRef<'_> {
        InstRef {
            ctx: self.ctx,
            seq: self.seq,
            plans: &self.plans,
        }
    }
}

/// A [`PlanInstance`] over borrowed plans: what the checks and the
/// symbolic executor read, so that a caller holding only `&[CollPlan]`
/// copies nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstRef<'a> {
    pub(crate) ctx: u64,
    pub(crate) seq: u64,
    pub(crate) plans: &'a [CollPlan],
}

impl InstRef<'_> {
    pub(crate) fn wire_tag(&self, step_tag: u32) -> u64 {
        INTERNAL_BIT | (self.seq << STEP_TAG_BITS) | u64::from(step_tag)
    }
}

/// Borrow every instance of a composition.
pub(crate) fn borrow_all(insts: &[PlanInstance]) -> Vec<InstRef<'_>> {
    insts.iter().map(PlanInstance::borrowed).collect()
}

/// The same plan set posted concurrently on `copies` dup'd communicators
/// (distinct contexts, sequence 0) — the paper's `N_DUP` shape.
pub fn dup_instances(plans: &[CollPlan], copies: usize) -> Vec<PlanInstance> {
    (0..copies)
        .map(|i| PlanInstance::new(i as u64, 0, plans.to_vec()))
        .collect()
}

/// The same plan set posted `copies` times back-to-back on **one**
/// communicator (same context, increasing sequence numbers) — the
/// successive-nonblocking-collectives shape.
pub fn seq_instances(plans: &[CollPlan], copies: usize) -> Vec<PlanInstance> {
    (0..copies)
        .map(|i| PlanInstance::new(0, i as u64, plans.to_vec()))
        .collect()
}

fn overlap(detail: String) -> PlanFinding {
    PlanFinding {
        code: "mc-tag-overlap",
        detail,
        eager_cut: None,
        trace: Vec::new(),
    }
}

/// Statically verify that composed instances cannot interfere on the
/// wire: every step tag fits the 24-bit step-tag field, every sequence
/// number fits its 24-bit field, and no two instances sharing a context
/// use the same `(src, dst, wire_tag)` envelope. Violations are reported
/// as `mc-tag-overlap` findings; an empty result means the instances'
/// message namespaces are provably disjoint.
pub fn check_compose(insts: &[PlanInstance]) -> Vec<PlanFinding> {
    compose_findings(&borrow_all(insts))
}

/// [`check_compose`] over borrowed instances.
pub(crate) fn compose_findings(insts: &[InstRef<'_>]) -> Vec<PlanFinding> {
    /// Wire envelopes one instance posts into: `(src, dst, wire_tag)`.
    type EnvSet = BTreeSet<(usize, usize, u64)>;
    let mut out = Vec::new();
    // ctx -> [(instance index, envelope set)]
    let mut by_ctx: BTreeMap<u64, Vec<(usize, EnvSet)>> = BTreeMap::new();
    for (ii, inst) in insts.iter().enumerate() {
        if inst.seq >> STEP_TAG_BITS != 0 {
            out.push(overlap(format!(
                "instance #{ii}: sequence number {} overflows its 24-bit wire-tag field",
                inst.seq
            )));
            continue;
        }
        let mut envs = BTreeSet::new();
        for (r, plan) in inst.plans.iter().enumerate() {
            for (si, step) in plan.steps.iter().enumerate() {
                let (env, tag) = match step.op {
                    StepOp::Send { peer, tag, .. } => ((r, peer, inst.wire_tag(tag)), tag),
                    StepOp::Recv { peer, tag, .. } => ((peer, r, inst.wire_tag(tag)), tag),
                    _ => continue,
                };
                if u64::from(tag) >> STEP_TAG_BITS != 0 {
                    out.push(overlap(format!(
                        "instance #{ii} rank {r} step s{si}: step tag {tag} overflows the \
                         24-bit step-tag field and corrupts the sequence namespace"
                    )));
                }
                envs.insert(env);
            }
        }
        by_ctx.entry(inst.ctx).or_default().push((ii, envs));
    }
    for (ctx, members) in &by_ctx {
        for (a, (ia, ea)) in members.iter().enumerate() {
            for (ib, eb) in &members[a + 1..] {
                if let Some(&(src, dst, tag)) = ea.intersection(eb).next() {
                    let shared = ea.intersection(eb).count();
                    out.push(overlap(format!(
                        "instances #{ia} (seq {}) and #{ib} (seq {}) on ctx {ctx} share \
                         {shared} wire envelope(s), e.g. rank {src} -> rank {dst} tag \
                         {:#x} (step tag {}): their messages can cross-match",
                        insts[*ia].seq,
                        insts[*ib].seq,
                        tag,
                        tag & ((1 << STEP_TAG_BITS) - 1),
                    )));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::builders::build_all;
    use super::super::CollAlgo;
    use super::*;
    use crate::event::CollKind;

    #[test]
    fn dup_and_seq_instances_are_disjoint() {
        let plans = build_all(CollKind::Allreduce, CollAlgo::AllreduceRing, 4, 256, 0);
        assert!(check_compose(&dup_instances(&plans, 4)).is_empty());
        assert!(check_compose(&seq_instances(&plans, 4)).is_empty());
    }

    #[test]
    fn same_ctx_same_seq_collides() {
        let plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 64, 0);
        let insts = vec![
            PlanInstance::new(0, 7, plans.clone()),
            PlanInstance::new(0, 7, plans),
        ];
        let f = check_compose(&insts);
        assert!(
            f.iter().any(|x| x.code == "mc-tag-overlap"),
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversized_step_tag_is_flagged() {
        let mut plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 2, 64, 0);
        for plan in &mut plans {
            for step in &mut plan.steps {
                match &mut step.op {
                    StepOp::Send { tag, .. } | StepOp::Recv { tag, .. } => *tag = 1 << 24,
                    _ => {}
                }
            }
        }
        let f = check_compose(&[PlanInstance::new(0, 0, plans)]);
        assert!(f.iter().any(|x| x.code == "mc-tag-overlap"), "{f:?}");
    }

    #[test]
    fn wire_tag_matches_runtime_scheme() {
        let inst = PlanInstance::new(3, 5, Vec::new());
        assert_eq!(inst.wire_tag(9), (1 << 63) | (5 << 24) | 9);
    }
}
