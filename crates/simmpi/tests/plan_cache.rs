//! Plan-cache memoization: each collective shape is compiled and
//! statically analyzed (lint + model check under `Strict`) exactly once;
//! cache hits return the same plans without re-running analysis or
//! re-rendering findings.

use ovcomm_simmpi::universe::PlanCache;
use ovcomm_simmpi::{compile_plans, CollKind, CollSelector, VerifyMode};
use std::sync::Arc;

#[test]
fn cache_hit_returns_memoized_plans_and_findings() {
    let cache = parking_lot::Mutex::new(PlanCache::new());
    let sel = CollSelector::default();
    let a = compile_plans(
        &cache,
        &sel,
        VerifyMode::Strict,
        4,
        CollKind::Allreduce,
        256,
        0,
    );
    let b = compile_plans(
        &cache,
        &sel,
        VerifyMode::Strict,
        4,
        CollKind::Allreduce,
        256,
        0,
    );
    // Same Arc: the second call is a pure cache hit (no rebuild, no
    // re-analysis).
    assert!(Arc::ptr_eq(&a, &b));
    let guard = cache.lock();
    assert_eq!(guard.len(), 1);
    // Strict-mode analysis ran once; a finding would have panicked.
    assert!(Arc::ptr_eq(guard.values().next().unwrap(), &a));
}

#[test]
fn distinct_shapes_get_distinct_entries() {
    let cache = parking_lot::Mutex::new(PlanCache::new());
    let sel = CollSelector::default();
    for n in [64usize, 256, 4096] {
        let _ = compile_plans(&cache, &sel, VerifyMode::Strict, 5, CollKind::Bcast, n, 2);
    }
    // Shapes may share an algorithm but differ in n: one entry each.
    assert_eq!(cache.lock().len(), 3);
}

#[test]
fn strict_mode_model_checks_every_kind() {
    let cache = parking_lot::Mutex::new(PlanCache::new());
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
        let plans = compile_plans(&cache, &sel, VerifyMode::Strict, 6, kind, 512, root);
        assert_eq!(plans.len(), 6);
    }
    assert_eq!(cache.lock().len(), 7);
}
