//! Dump the compiled per-rank schedules of one collective instance —
//! the worked example behind `docs/coll-plans.md`.
//!
//! ```sh
//! cargo run -p ovcomm-verify --example plan_dump
//! ```

use ovcomm_verify::plan::{build_all, model_check_single, CollAlgo, McConfig};
use ovcomm_verify::CollKind;

fn main() {
    let (p, n, root) = (4, 1024, 0);
    let plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, p, n, root);
    for plan in &plans {
        print!("{}", plan.dump());
    }
    let report = model_check_single(&plans, &McConfig::default());
    println!(
        "model-check findings: {} (cutpoints {:?})",
        report.findings.len(),
        report.cutpoints
    );
    for f in &report.findings {
        println!("  {f}");
    }
}
