//! What the analyzer reports: a severity, a lint code and a message the
//! analysis renders once, where it finds the defect.

use std::fmt;

/// How serious a finding is.
///
/// `Error` findings fail the run under `VerifyMode::Strict`; `Warning`
/// findings are surfaced (stderr under `Warn`, and always in the run
/// output) but never fail a run — they mark patterns that are legal under
/// MPI's non-overtaking rule or benign in the simulator but worth a look.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Definite misuse of the MPI-like API.
    Error,
    /// Suspicious but not provably wrong.
    Warning,
}

/// One verified observation about the run, rendered as
/// `{error|warning}[{code}]: {message}`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Error or warning.
    pub severity: Severity,
    /// Short stable code identifying the lint (the DESIGN.md catalogue).
    pub code: &'static str,
    /// What was found: the ranks, communicator or window, operations and
    /// call site involved.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.message)
    }
}
