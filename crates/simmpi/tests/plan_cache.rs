//! Plan-cache memoization: each collective shape is built once and
//! statically analyzed (lint + model check under `Strict`) once while it
//! stays cached; hits return the same plans without re-running analysis
//! or re-rendering findings. The process-wide cache outlives a run, so a
//! repeated run builds nothing.

use ovcomm_simmpi::{
    compile_plans, plan_cache_stats, run, CollKind, CollSelector, Payload, PlanCache,
    PlanCacheStats, RankCtx, SimConfig, VerifyMode,
};
use ovcomm_simnet::MachineProfile;
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn cache_hit_returns_memoized_plans_and_findings() {
    let cache = Mutex::new(PlanCache::new());
    let sel = CollSelector::default();
    let a = compile_plans(&cache, &sel, true, 4, CollKind::Allreduce, 256, 0);
    let b = compile_plans(&cache, &sel, true, 4, CollKind::Allreduce, 256, 0);
    // Same Arc: the second call is a pure cache hit (no rebuild, no
    // re-analysis).
    assert!(Arc::ptr_eq(&a, &b));
    let steps = a.iter().map(|plan| plan.steps.len()).sum();
    // Strict-mode analysis ran once; a finding would have panicked.
    assert_eq!(
        cache.lock().stats(),
        PlanCacheStats {
            hits: 1,
            misses: 1,
            checks: 1,
            shapes: 1,
            steps,
        }
    );
}

#[test]
fn distinct_shapes_get_distinct_entries() {
    let cache = Mutex::new(PlanCache::new());
    let sel = CollSelector::default();
    for n in [64usize, 256, 4096] {
        let _ = compile_plans(&cache, &sel, true, 5, CollKind::Bcast, n, 2);
    }
    // Shapes may share an algorithm but differ in n: one entry each.
    assert_eq!(cache.lock().stats().shapes, 3);
}

#[test]
fn strict_mode_model_checks_every_kind() {
    let cache = Mutex::new(PlanCache::new());
    let sel = CollSelector::default();
    for kind in [
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Gather,
        CollKind::Scatter,
        CollKind::Allgather,
        CollKind::Barrier,
    ] {
        // Rootless collectives use root 0 by convention.
        let root = match kind {
            CollKind::Bcast | CollKind::Reduce | CollKind::Gather | CollKind::Scatter => 1,
            _ => 0,
        };
        let plans = compile_plans(&cache, &sel, true, 6, kind, 512, root);
        assert_eq!(plans.len(), 6);
    }
    let stats = cache.lock().stats();
    assert_eq!((stats.shapes, stats.checks), (7, 7));
}

#[test]
fn a_shape_compiled_under_off_is_checked_the_first_time_strict_asks() {
    let cache = Mutex::new(PlanCache::new());
    let sel = CollSelector::default();
    let compile = |check| compile_plans(&cache, &sel, check, 12, CollKind::Allreduce, 4096, 0);
    let off = compile(false);
    assert_eq!(cache.lock().stats().checks, 0, "Off checks nothing");
    let strict = compile(true);
    assert!(Arc::ptr_eq(&off, &strict), "Strict reuses the Off build");
    let stats = cache.lock().stats();
    assert_eq!((stats.misses, stats.hits, stats.checks), (1, 1, 1));
    // Checked once: later lookups in either mode check nothing more.
    compile(true);
    compile(false);
    let stats = cache.lock().stats();
    assert_eq!((stats.misses, stats.hits, stats.checks), (1, 3, 1));
}

/// Three collectives at p = 8, each its own shape.
fn collectives(rc: RankCtx) -> f64 {
    let w = rc.world();
    let x = w.allreduce(Payload::from_f64s(&[rc.rank() as f64; 64]));
    let data = (rc.rank() == 3).then(|| Payload::from_f64s(&[1.5; 16]));
    let b = w.bcast(3, data, 16 * 8);
    w.barrier();
    x.to_f64s()[0] + b.to_f64s()[0]
}

#[test]
fn a_second_identical_run_builds_no_plan() {
    // The only test in this binary that touches the process-wide cache.
    let cfg =
        || SimConfig::natural(8, 2, MachineProfile::test_profile()).with_verify(VerifyMode::Strict);
    let t0 = plan_cache_stats();
    let first = run(cfg(), collectives).expect("first run");
    let t1 = plan_cache_stats();
    // Each of the 8 ranks looks each shape up; the first builds it.
    assert_eq!(t1.misses - t0.misses, 3, "{t1:?}");
    assert_eq!(t1.hits - t0.hits, 8 * 3 - 3);
    assert_eq!(t1.checks - t0.checks, 3);
    let second = run(cfg(), collectives).expect("second run");
    let t2 = plan_cache_stats();
    assert_eq!(second.results, first.results);
    assert_eq!(second.metrics, first.metrics);
    assert_eq!((t2.misses, t2.checks), (t1.misses, t1.checks), "{t2:?}");
    assert_eq!(t2.hits - t1.hits, 8 * 3);
    assert_eq!((t2.shapes, t2.steps), (t1.shapes, t1.steps));
}
