//! The parsed command line of `ovcomm-bench <subcommand> [flags]`.
//!
//! `main` parses the process arguments once into an [`Opts`] and passes it
//! down; nothing else in the crate looks at the process arguments.

use std::path::PathBuf;

use ovcomm_simmpi::{CollSelector, SimConfig};

use crate::metrics::Backend;

/// Everything a generator can be told from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `--smoke`: CI-sized grid; smoke runs gate but write no artifact.
    pub smoke: bool,
    /// `--backend {sim,rt}`; `None` is the subcommand's default (sim for
    /// `figs12_matvec`, both for `rma_sweep` and `sim_vs_rt`).
    pub backend: Option<Backend>,
    /// `--coll-select <spec>` ([`CollSelector::parse`] syntax): the
    /// collective-algorithm selection applied by [`Opts::sim_config`].
    pub coll_select: Option<CollSelector>,
    /// `--trace-out <path>`: Perfetto trace destination (`fig6_time_diagram`).
    pub trace_out: Option<PathBuf>,
    /// `--fail-on-lint`: exit nonzero on any plan-lint or model-check finding.
    pub fail_on_lint: bool,
    /// `--budget <seconds>`: exit nonzero when the wall time exceeds it.
    pub budget: Option<f64>,
    /// Directory the JSON records go to: `results` (relative to the cwd)
    /// for a plain subcommand, `<dir>/results` under `regen`.
    pub out_dir: PathBuf,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            smoke: false,
            backend: None,
            coll_select: None,
            trace_out: None,
            fail_on_lint: false,
            budget: None,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Opts {
    /// Apply `--coll-select` (when given) to a run config — every
    /// simulated run of the shared micro-benchmark and kernel runners goes
    /// through this.
    pub fn sim_config(&self, cfg: SimConfig) -> SimConfig {
        match &self.coll_select {
            Some(sel) => cfg.with_coll_select(sel.clone()),
            None => cfg,
        }
    }
}
