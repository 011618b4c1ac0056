//! The parsed command line of `ovcomm-bench <subcommand> [flags]`.
//!
//! `main` parses the process arguments once into an [`Opts`] and passes it
//! down; nothing else in the crate looks at the process arguments.

use std::path::PathBuf;

use crate::metrics::Backend;

/// Everything a generator can be told from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `--smoke`: CI-sized grid; smoke runs gate but write no artifact.
    pub smoke: bool,
    /// `--backend {sim,rt}`; `None` is the subcommand's default (sim for
    /// `figs12_matvec`, both for `rma_sweep` and `sim_vs_rt`).
    pub backend: Option<Backend>,
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
            trace_out: None,
            fail_on_lint: false,
            budget: None,
            out_dir: PathBuf::from("results"),
        }
    }
}
