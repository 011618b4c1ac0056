//! Every algorithm runs on every communicator size: building the plans
//! must succeed (no panics) and the result must pass the model checker,
//! admission included.
//!
//! The full p ∈ 1..=256 sweep with model checking is exhaustive but
//! expensive in debug builds, so it is `#[ignore]`d here and run in
//! release by the CI model-check job (`ovcomm-bench mc_supports
//! --fail-on-lint`, which performs exactly this loop). The non-ignored
//! tests keep a dense low-p model-checked core plus build/lint coverage
//! of the entire range in the tier-1 suite.

use ovcomm_verify::plan::{build_all, lint_plans, CollAlgo};
use ovcomm_verify::CollKind;

/// Rootless collectives are built with root 0 by convention.
fn root_for(algo: CollAlgo, p: usize) -> usize {
    match algo.kind() {
        CollKind::Allreduce | CollKind::Allgather | CollKind::Barrier => 0,
        _ => p.saturating_sub(1),
    }
}

/// Build and check one shape at the all-rendezvous cutpoint only
/// (`lint_plans`): dominant for deadlocks, and matching is
/// cutoff-independent (see `McConfig::cut_override`). Keeps the dense
/// sweeps affordable in debug builds.
fn check_one(algo: CollAlgo, p: usize, n: usize) {
    let root = root_for(algo, p);
    let plans = build_all(algo.kind(), algo, p, n, root);
    assert_eq!(plans.len(), p, "{algo} p={p}: wrong plan count");
    let findings = lint_plans(&plans);
    assert!(findings.is_empty(), "{algo} p={p} n={n}: {findings:?}");
}

/// Every p in a dense low range builds and model-checks clean.
#[test]
fn supported_small_p_all_model_check_clean() {
    let top = if cfg!(miri) { 5 } else { 20 };
    for &algo in CollAlgo::all() {
        for p in 1..=top {
            check_one(algo, p, 96);
        }
    }
}

/// The rest of the 1..=256 range builds without panicking; the
/// rendezvous check is sampled at power-of-two boundaries where the
/// recursive builders change shape. Every large p is checked in the
/// release CI sweep (`ovcomm-bench mc_supports`).
#[test]
#[cfg_attr(miri, ignore = "builds 256-rank plans; covered by small-p test")]
fn supported_large_p_build_and_lint_clean() {
    let lint_at = [31usize, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256];
    for &algo in CollAlgo::all() {
        for p in 21..=256usize {
            if lint_at.contains(&p) {
                check_one(algo, p, 96);
            } else {
                let root = root_for(algo, p);
                let plans = build_all(algo.kind(), algo, p, 96, root);
                assert_eq!(plans.len(), p, "{algo} p={p}: wrong plan count");
            }
        }
    }
}

/// The exhaustive twin: every algorithm × every p ∈ 1..=256 builds and
/// passes the model checker. Run with
/// `cargo test -p ovcomm-verify --release -- --ignored every_p_full`.
#[test]
#[ignore = "exhaustive; run in release (CI: ovcomm-bench mc_supports)"]
fn every_p_full_range_model_checks_clean() {
    for &algo in CollAlgo::all() {
        for p in 1..=256usize {
            check_one(algo, p, 1024);
        }
    }
}
