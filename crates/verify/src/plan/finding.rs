//! What the plan check emits: [`PlanFinding`].

use std::fmt;

/// One defect found by the static plan check
/// ([`super::mc::model_check`]). All findings are error-severity: a plan
/// exhibiting any of them is wrong for every timing model.
#[derive(Debug, Clone)]
pub struct PlanFinding {
    /// Stable finding code (`mc-*`).
    pub code: &'static str,
    /// One-line diagnosis.
    pub detail: String,
    /// The eager/rendezvous cutoff the schedule was executed under
    /// (sends of fewer bytes complete at post time); `None` for static
    /// findings (malformed plans, namespace collisions), which hold at
    /// every cutoff.
    pub eager_cut: Option<usize>,
    /// The counterexample interleaving, one executed action per line, in
    /// execution order. Empty for static findings.
    pub trace: Vec<String>,
}

impl fmt::Display for PlanFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.code, self.detail)?;
        if let Some(cut) = self.eager_cut {
            write!(f, " [eager_cut={cut}]")?;
        }
        if !self.trace.is_empty() {
            write!(
                f,
                "\n  counterexample interleaving ({} action(s)):",
                self.trace.len()
            )?;
            const SHOW: usize = 48;
            if self.trace.len() <= SHOW {
                for line in &self.trace {
                    write!(f, "\n    {line}")?;
                }
            } else {
                for line in &self.trace[..SHOW / 2] {
                    write!(f, "\n    {line}")?;
                }
                write!(f, "\n    … ({} action(s) elided)", self.trace.len() - SHOW)?;
                for line in &self.trace[self.trace.len() - SHOW / 2..] {
                    write!(f, "\n    {line}")?;
                }
            }
        }
        Ok(())
    }
}
