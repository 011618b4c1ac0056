//! Property tests for the plan static-analysis stack: composition and the
//! model checker. These run under Miri in CI (the job covers
//! `-p ovcomm-verify`), so case counts drop sharply there — the point
//! under Miri is UB detection on the symbolic executor, not coverage.

use std::collections::BTreeSet;

use proptest::prelude::*;

use ovcomm_verify::plan::{
    build_all, check_compose, cutpoints, dup_instances, model_check, model_check_single,
    seq_instances, CollAlgo, CollPlan, McConfig, PlanInstance, StepOp,
};

fn algo_strategy() -> impl Strategy<Value = CollAlgo> {
    prop::sample::select(CollAlgo::all().to_vec())
}

const CASES: u32 = if cfg!(miri) { 3 } else { 32 };

/// Every `(src, dst, step tag)` envelope a plan set posts into.
fn envelopes(plans: &[CollPlan]) -> BTreeSet<(usize, usize, u32)> {
    let mut out = BTreeSet::new();
    for (r, plan) in plans.iter().enumerate() {
        for step in &plan.steps {
            match step.op {
                StepOp::Send { peer, tag, .. } => out.insert((r, peer, tag)),
                StepOp::Recv { peer, tag, .. } => out.insert((peer, r, tag)),
                _ => continue,
            };
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every shipped builder, on a random shape, is model-check-clean at
    /// every protocol cutpoint.
    #[test]
    fn builders_are_clean_on_random_shapes(
        algo in algo_strategy(),
        p in 1usize..8,
        n in prop::sample::select(vec![0usize, 8, 64, 1000]),
        root_pick in 0usize..64,
    ) {
        // Miri is ~2 orders of magnitude slower: keep shapes tiny there.
        let (p, n) = if cfg!(miri) { (p.min(3), n.min(64)) } else { (p, n) };
        let root = match algo.kind() {
            ovcomm_verify::CollKind::Allreduce
            | ovcomm_verify::CollKind::Allgather
            | ovcomm_verify::CollKind::Barrier => 0,
            _ => root_pick % p,
        };
        let plans = build_all(algo.kind(), algo, p, n, root);
        let rep = model_check_single(&plans, &McConfig::default());
        prop_assert!(rep.clean(), "{algo} p={p} n={n} root={root}: {:?}", rep.findings);
    }

    /// Cutpoints are always sorted, deduplicated, and start at 0 (the
    /// all-rendezvous protocol).
    #[test]
    fn cutpoints_are_canonical(
        algo in algo_strategy(),
        p in 1usize..8,
        n in prop::sample::select(vec![0usize, 8, 64, 1000]),
    ) {
        let plans = build_all(algo.kind(), algo, p, n, 0);
        let inst = PlanInstance::new(0, 0, plans);
        let cuts = cutpoints(&[inst]);
        prop_assert_eq!(cuts.first(), Some(&0usize));
        prop_assert!(cuts.windows(2).all(|w| w[0] < w[1]), "not strictly sorted: {:?}", cuts);
    }

    /// Composition helpers always produce disjoint namespaces: any number
    /// of dup'd or sequenced copies of any builder pass the static
    /// composition check.
    #[test]
    fn dup_and_seq_compositions_never_collide(
        algo in algo_strategy(),
        p in 2usize..6,
        copies in 2usize..5,
    ) {
        let plans = build_all(algo.kind(), algo, p, 64, 0);
        prop_assert!(check_compose(&dup_instances(&plans, copies)).is_empty());
        prop_assert!(check_compose(&seq_instances(&plans, copies)).is_empty());
    }

    /// A composition's verdict is its namespace check plus each member's
    /// own verdict: two builders on distinct contexts, on distinct
    /// sequence numbers, or on one `(ctx, seq)`, where they collide if
    /// they share an envelope.
    #[test]
    fn composition_verdict_is_the_members_verdicts(
        a in algo_strategy(),
        b in algo_strategy(),
        p in 2usize..6,
        placement in 0usize..3,
    ) {
        let p = if cfg!(miri) { p.min(3) } else { p };
        let plans = |algo: CollAlgo| build_all(algo.kind(), algo, p, 64, 0);
        let place = |i: u64| match placement {
            0 => (i, 0),
            1 => (0, i),
            _ => (1, 0),
        };
        let insts: Vec<PlanInstance> = [a, b]
            .into_iter()
            .zip(0u64..)
            .map(|(algo, i)| {
                let (ctx, seq) = place(i);
                PlanInstance::new(ctx, seq, plans(algo))
            })
            .collect();
        let members_clean = insts
            .iter()
            .all(|inst| model_check_single(&inst.plans, &McConfig::default()).clean());
        let rep = model_check(&insts, &McConfig::default());
        prop_assert_eq!(
            rep.clean(),
            check_compose(&insts).is_empty() && members_clean,
            "{} + {} p={} placement {}: {:?}", a, b, p, placement, rep.findings
        );
        let shared = !envelopes(&insts[0].plans).is_disjoint(&envelopes(&insts[1].plans));
        if placement == 2 && shared {
            prop_assert!(
                rep.findings.iter().any(|f| f.code == "mc-tag-overlap"),
                "{} + {} p={}: colliding namespaces must be flagged", a, b, p
            );
        }
    }
}
