//! Model-checking sweep: every `CollPlan` builder, exhaustively
//! schedule-checked.
//!
//! Where [`crate::sweep`] measures the algorithms, this sweep *verifies*
//! them: each (collective, algorithm, p, n, root) cell compiles the
//! per-rank plans and runs the model checker ([`plan::model_check`]) at
//! every eager/rendezvous cutpoint. One instance's envelope queues each
//! have one producer in program order, so one deterministic pass per
//! cutpoint covers every schedule, and the full grid — all builders ×
//! p ∈ {2..17, 32, 64, 128} — finishes in seconds; it is in the fast
//! regen set, so `ovcomm-bench regen --check` gates its per-cell counts
//! and findings on every PR (the other CI gate is
//! `mc_supports --fail-on-lint`, below).
//!
//! Beyond the per-shape grid the sweep checks:
//!
//! * **Compositions**: dup'd (distinct contexts) and sequenced (distinct
//!   sequence numbers) instance pairs must stay isolated — no tag-space
//!   overlap — and each member must check clean.
//! * **Every p** ([`every_p_sweep`], `ovcomm-bench mc_supports`): for
//!   every algorithm and every p ∈ 1..=256, the builder must produce plans
//!   that admission accepts and the model check passes — no panics, no
//!   findings.

// Benchmark drivers fail loudly by design (see crate::sweep).
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ovcomm_simmpi::plan::{
    self, dup_instances, kind_short, seq_instances, CollAlgo, McConfig, McReport,
};
use serde::Serialize;

/// One model-checked sweep cell.
#[derive(Debug, Clone, Serialize)]
pub struct McSweepRecord {
    /// Collective name (`bcast`, `reduce`, …).
    pub coll: String,
    /// Algorithm short name (`binomial`, `ring`, …).
    pub algo: String,
    /// Composition shape: `single`, `dup2`, or `seq2`.
    pub compose: String,
    /// Communicator size.
    pub p: usize,
    /// Logical payload bytes.
    pub n: usize,
    /// Collective root (0 for rootless collectives).
    pub root: usize,
    /// Protocol cutpoints checked.
    pub cutpoints: usize,
    /// Total scheduler actions executed.
    pub actions: usize,
    /// Rendered findings (must be empty for a healthy build).
    pub findings: Vec<String>,
}

/// Aggregate of one sweep run.
#[derive(Debug, Clone, Serialize)]
pub struct McSweepSummary {
    /// Single-instance cells checked.
    pub cells: usize,
    /// Composed (dup/seq) cells checked.
    pub composed: usize,
    /// (algo, p) pairs covered by the every-p check.
    pub supports_checked: usize,
    /// Total findings across all cells (0 for a healthy build).
    pub findings: usize,
    /// Wall-clock seconds for the whole sweep.
    pub seconds: f64,
}

fn root_for(algo: CollAlgo, p: usize) -> usize {
    match algo.kind() {
        ovcomm_simmpi::CollKind::Allreduce
        | ovcomm_simmpi::CollKind::Allgather
        | ovcomm_simmpi::CollKind::Barrier => 0,
        // Rooted collectives: the last rank is the adversarial choice
        // (exercises every rotation in the chunked builders).
        _ => p.saturating_sub(1),
    }
}

fn record(
    algo: CollAlgo,
    compose: &str,
    p: usize,
    n: usize,
    root: usize,
    rep: &McReport,
) -> McSweepRecord {
    McSweepRecord {
        coll: kind_short(algo.kind()).to_string(),
        algo: algo.short().to_string(),
        compose: compose.to_string(),
        p,
        n,
        root,
        cutpoints: rep.cutpoints.len(),
        actions: rep.actions,
        findings: rep.findings.iter().map(|f| f.to_string()).collect(),
    }
}

/// Run the model-checking sweep over the builder grid plus dup/seq
/// compositions. `full` selects the CI grid (p up to 128, two sizes);
/// otherwise a smoke grid.
pub fn mc_sweep(full: bool) -> (Vec<McSweepRecord>, McSweepSummary) {
    let t0 = std::time::Instant::now();
    let cfg = McConfig::default();
    let ps: Vec<usize> = if full {
        (2..=17).chain([32, 64, 128]).collect()
    } else {
        vec![2, 3, 4, 5, 8]
    };
    let sizes: Vec<usize> = if full { vec![64, 4096] } else { vec![256] };

    let mut records = Vec::new();
    let mut cells = 0usize;
    let mut composed = 0usize;

    for &algo in CollAlgo::all() {
        for &p in &ps {
            let root = root_for(algo, p);
            for &n in &sizes {
                let plans = plan::build_all(algo.kind(), algo, p, n, root);
                let rep = plan::model_check_single(&plans, &cfg);
                records.push(record(algo, "single", p, n, root, &rep));
                cells += 1;
            }
        }
        // Composed instances at a representative shape: dup'd pairs
        // (table II's N_DUP idiom) and back-to-back sequenced calls.
        for &p in &[4usize, 8] {
            let root = root_for(algo, p);
            let plans = plan::build_all(algo.kind(), algo, p, 1024, root);
            let rep = plan::model_check(&dup_instances(&plans, 2), &cfg);
            records.push(record(algo, "dup2", p, 1024, root, &rep));
            let rep = plan::model_check(&seq_instances(&plans, 2), &cfg);
            records.push(record(algo, "seq2", p, 1024, root, &rep));
            composed += 2;
        }
    }

    let summary = McSweepSummary {
        cells,
        composed,
        supports_checked: 0,
        findings: records.iter().map(|r| r.findings.len()).sum(),
        seconds: t0.elapsed().as_secs_f64(),
    };
    (records, summary)
}

/// Exhaustive every-p pass: for every algorithm and every p ∈ 1..=256,
/// building the plans must succeed (no panics) and pass the model
/// checker, admission included. The main grid already
/// does the full protocol-cutpoint sweep at representative p; here the
/// all-rendezvous cutpoint suffices (see [`McConfig::cut_override`]) —
/// it dominates for deadlocks and matching is cutoff-independent — which
/// keeps the 13 × 256 cells affordable on one core. Records are emitted
/// only for unclean cells.
pub fn every_p_sweep() -> (Vec<McSweepRecord>, McSweepSummary) {
    let t0 = std::time::Instant::now();
    let cfg = McConfig {
        cut_override: Some(vec![0]),
    };
    let mut records = Vec::new();
    let mut supports_checked = 0usize;
    for &algo in CollAlgo::all() {
        for p in 1..=256usize {
            let root = root_for(algo, p);
            let plans = plan::build_all(algo.kind(), algo, p, 1024, root);
            let rep = plan::model_check_single(&plans, &cfg);
            if !rep.clean() {
                records.push(record(algo, "single", p, 1024, root, &rep));
            }
            supports_checked += 1;
        }
    }
    let summary = McSweepSummary {
        cells: 0,
        composed: 0,
        supports_checked,
        findings: records.iter().map(|r| r.findings.len()).sum(),
        seconds: t0.elapsed().as_secs_f64(),
    };
    (records, summary)
}
