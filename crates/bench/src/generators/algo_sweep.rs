//! Collective algorithm sweep over the `CollPlan` builders — three
//! subcommands, named for the files they write:
//!
//! * `algo_sweep` forces every algorithm of every collective through the
//!   shared plan executor across a grid of communicator/message sizes,
//!   statically linting each compiled plan shape and running each cell
//!   under Strict dynamic verification. Prints the timing table, fits a
//!   [`CollSelector`](ovcomm_simmpi::CollSelector) from the measurements,
//!   and writes `results/algo_sweep.json`. `--smoke` is the small CI grid
//!   (seconds, not minutes); `--fail-on-lint` exits nonzero if any static
//!   plan-lint finding appears (a Strict-mode dynamic finding aborts the
//!   run regardless).
//! * `mc_sweep` runs the schedule model checker instead: every builder ×
//!   p ∈ {2..17, 32, 64, 128} × sizes × protocol cutpoints, plus dup/seq
//!   compositions (`--smoke`: a small grid); writes
//!   `results/mc_sweep.json` and, with `--fail-on-lint`, exits nonzero on
//!   any finding.
//! * `mc_supports` is the exhaustive every-p pass: every algorithm × p ∈
//!   1..=256 must build, pass admission and model-check clean at the
//!   all-rendezvous cutpoint; writes `results/mc_supports.json`.

use ovcomm_bench::{
    algo_sweep, every_p_sweep, sweep_samples, write_json, McSweepRecord, McSweepSummary, Opts,
    Table,
};
use ovcomm_core::fit_selector;
use ovcomm_simnet::MachineProfile;

fn fmt_size(n: usize) -> String {
    if n == 0 {
        "0".into()
    } else if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n >= 1024 && n.is_multiple_of(1024) {
        format!("{}K", n >> 10)
    } else {
        format!("{n}")
    }
}

fn fmt_threshold(n: usize) -> String {
    if n == usize::MAX {
        "always-short".into()
    } else if n == 0 {
        "always-long".into()
    } else {
        fmt_size(n)
    }
}

fn report_mc(opts: &Opts, out: &str, records: &[McSweepRecord], summary: &McSweepSummary) {
    let mut table = Table::new(&[
        "collective",
        "algorithm",
        "compose",
        "p",
        "size",
        "cutpoints",
        "findings",
    ]);
    for r in records.iter().filter(|r| !r.findings.is_empty()) {
        table.row(vec![
            r.coll.clone(),
            r.algo.clone(),
            r.compose.clone(),
            r.p.to_string(),
            fmt_size(r.n),
            r.cutpoints.to_string(),
            r.findings.len().to_string(),
        ]);
    }
    if summary.findings > 0 {
        table.print();
        eprintln!("\n{out}: {} finding(s):", summary.findings);
        for r in records {
            for f in &r.findings {
                eprintln!(
                    "  [{}.{} {} p={} n={}] {f}",
                    r.coll, r.algo, r.compose, r.p, r.n
                );
            }
        }
    }

    write_json(&opts.out_dir, out, &records);
    println!(
        "model check: {} cells + {} composed + {} every-p shapes, \
         {} finding(s), {:.2}s",
        summary.cells,
        summary.composed,
        summary.supports_checked,
        summary.findings,
        summary.seconds,
    );
    if opts.fail_on_lint && summary.findings > 0 {
        std::process::exit(1);
    }
}

/// `mc_sweep`: the model-check grid.
pub fn mc_sweep(opts: &Opts) {
    let (records, summary) = ovcomm_bench::mc_sweep(!opts.smoke);
    report_mc(opts, "mc_sweep", &records, &summary);
}

/// `mc_supports`: the every-p pass.
pub fn mc_supports(opts: &Opts) {
    let (records, summary) = every_p_sweep();
    report_mc(opts, "mc_supports", &records, &summary);
}

/// `algo_sweep`: the timing sweep.
pub fn main(opts: &Opts) {
    let smoke = opts.smoke;
    let profile = MachineProfile::stampede2_skylake();
    let (ps, sizes): (Vec<usize>, Vec<usize>) = if smoke {
        (vec![4, 5], vec![8 * 1024, 1 << 20])
    } else {
        (
            vec![4, 5, 8, 16],
            vec![1024, 16 * 1024, 256 * 1024, 4 << 20],
        )
    };

    let records = algo_sweep(&profile, &ps, &sizes);

    let mut table = Table::new(&[
        "collective",
        "algorithm",
        "p",
        "size",
        "time (us)",
        "msgs",
        "lint",
    ]);
    for r in &records {
        table.row(vec![
            r.coll.clone(),
            r.algo.clone(),
            r.p.to_string(),
            fmt_size(r.n),
            format!("{:.1}", r.seconds * 1e6),
            r.messages.to_string(),
            r.lint_findings.len().to_string(),
        ]);
    }
    table.print();

    let fitted = fit_selector(&sweep_samples(&records));
    println!("\nfitted selector thresholds (short-algorithm cutoffs):");
    println!("  bcast     <= {}", fmt_threshold(fitted.bcast_large));
    println!("  reduce    <= {}", fmt_threshold(fitted.reduce_large));
    println!("  allreduce <= {}", fmt_threshold(fitted.allreduce_large));
    println!("  gather    <= {}", fmt_threshold(fitted.gather_large));

    write_json(&opts.out_dir, "algo_sweep", &records);

    let lint_total: usize = records.iter().map(|r| r.lint_findings.len()).sum();
    if lint_total > 0 {
        eprintln!("algo_sweep: {lint_total} static plan-lint finding(s):");
        for r in &records {
            for f in &r.lint_findings {
                eprintln!("  [{}.{} p={} n={}] {f}", r.coll, r.algo, r.p, r.n);
            }
        }
        if opts.fail_on_lint {
            std::process::exit(1);
        }
    } else {
        println!("\nstatic plan lint: clean ({} cells)", records.len());
    }
}
