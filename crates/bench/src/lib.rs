//! # ovcomm-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§V). Each artifact has a binary
//! (`cargo run -p ovcomm-bench --release --bin <name>`):
//!
//! | artifact | binary |
//! |---|---|
//! | Fig. 3 (p2p bandwidth vs size vs PPN) | `fig3_p2p_bandwidth` |
//! | Fig. 5 (bcast/reduce bandwidth, 3 cases) | `fig5_coll_bandwidth` |
//! | Fig. 6 (post/wait time diagram) | `fig6_time_diagram` |
//! | §V-A (α–β model vs simulator) | `sec5a_alpha_beta` |
//! | Table I (Alg 3/4/5 TFlops) | `table1_algorithms` |
//! | Table II (N_DUP sweep) | `table2_ndup_sweep` |
//! | Table III (PPN sweep) | `table3_ppn_sweep` |
//! | Table IV (volume/bandwidth/time) | `table4_comm_volume` |
//! | Table V (2.5D sweep) | `table5_25d` |
//! | Collective algorithm sweep (CollPlan) | `algo_sweep` |
//! | Sim-vs-rt validation report | `sim_vs_rt` |
//! | One-sided COSMA vs two-sided SUMMA | `rma_sweep` |
//!
//! Binaries that run kernels accept `--backend {sim,rt}` where noted:
//! `sim` (default) reports modeled virtual time from the flow simulator,
//! `rt` reports measured wall-clock time from the shared-memory runtime.
//! `sim_vs_rt` runs both and writes the divergence report
//! (`results/sim_vs_rt.json`).
//!
//! Each binary prints the paper-style table and writes a JSON record under
//! `results/` for EXPERIMENTS.md.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chart;
pub mod mcsweep;
pub mod metrics;
pub mod micro;
pub mod profile;
pub mod report;
pub mod sweep;
pub mod symm;
pub mod timeline;

pub use chart::{plot_loglog, Series};
pub use mcsweep::{mc_sweep, supports_sweep, McSweepRecord, McSweepSummary};
pub use metrics::{
    apply_coll_select, backend_arg, coll_select_arg, metrics_block, metrics_block_rt,
    trace_out_arg, Backend, MetricsBlock,
};
pub use micro::{
    coll_bandwidth, coll_bandwidth_metrics, p2p_bandwidth, p2p_bandwidth_metrics, CollCase,
    CollKind,
};
pub use profile::{profile_block, profile_block_rt};
pub use report::{canonical_json, canonicalize_value, merge_json, merge_rows, write_json, Table};
pub use sweep::{algo_sweep, measure_cell, sweep_samples, SweepRecord, SWEEP_KINDS};
pub use symm::{cosma_run, symm_run, MeshSpec, SymmStats};
pub use timeline::{render, Bar};
