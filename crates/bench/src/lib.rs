//! # ovcomm-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§V). One binary drives it:
//!
//! ```text
//! ovcomm-bench list                       # every generator, its regen set and flags
//! ovcomm-bench <generator> [flags]        # print the table, write results/<name>.json
//! ovcomm-bench regen [--all] <dir>        # fast (or fast + slow) set into <dir>/results/
//! ovcomm-bench regen [--all] --check      # ... and byte-compare against results/
//! ```
//!
//! `ovcomm-bench list` is the artifact table: the generator table in
//! `src/main.rs` is the one place a generator's name, regen-set membership
//! and accepted flags are written down. This library holds what the
//! generators share: the kernel and micro-benchmark runners, the metrics and
//! profile blocks attached to every record, and the canonical-JSON writers.
//!
//! Generators that run kernels accept `--backend {sim,rt}` where `list`
//! says so: `sim` (default) reports modeled virtual time from the flow
//! simulator, `rt` reports measured wall-clock time from the shared-memory
//! runtime. `sim_vs_rt` runs both and writes the divergence report.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chart;
pub mod mcsweep;
pub mod metrics;
pub mod micro;
pub mod opts;
pub mod profile;
pub mod report;
pub mod sweep;
pub mod symm;
pub mod timeline;

pub use chart::{plot_loglog, Series};
pub use mcsweep::{every_p_sweep, mc_sweep, McSweepRecord, McSweepSummary};
// The `_rt` names are what `benchmark/` calls on an `ovcomm_rt::run`
// result; both backends return one output type, so they are the same
// functions.
pub use metrics::{metrics_block, metrics_block as metrics_block_rt, Backend, MetricsBlock};
pub use micro::{
    coll_bandwidth, coll_bandwidth_metrics, p2p_bandwidth, p2p_bandwidth_metrics, CollCase,
    CollKind,
};
pub use opts::Opts;
pub use profile::{profile_block, profile_block as profile_block_rt};
pub use report::{canonical_json, canonicalize_value, fmt_bytes, write_json, Table};
pub use sweep::{
    algo_sweep, call_collective, measure_cell, sweep_samples, SweepRecord, SWEEP_KINDS,
};
pub use symm::{cosma_run, symm_run, MeshSpec, SymmStats};
pub use timeline::{render, Bar};
