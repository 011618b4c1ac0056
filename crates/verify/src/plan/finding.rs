//! What both plan reporters emit: [`PlanFinding`], and the
//! [`McCounterexample`] a model-checker finding carries.

use std::fmt;

/// One defect found by the static plan linter. All findings are
/// error-severity: a plan exhibiting any of them is wrong for every
/// timing model.
#[derive(Debug, Clone)]
pub enum PlanFinding {
    /// The plan set is malformed (ids out of range, inconsistent shapes,
    /// missing outputs, reads of never-produced buffers...).
    BadStructure {
        /// Rank whose plan is malformed.
        rank: usize,
        /// What is wrong.
        detail: String,
    },
    /// A send no receive ever matches.
    UnmatchedSend {
        /// Sender.
        from: usize,
        /// Destination.
        to: usize,
        /// Step tag.
        tag: u32,
        /// Payload size.
        bytes: usize,
    },
    /// A receive no send ever matches.
    UnmatchedRecv {
        /// Receiver.
        at: usize,
        /// Expected source.
        from: usize,
        /// Step tag.
        tag: u32,
        /// Expected size.
        bytes: usize,
    },
    /// A matched send/receive pair disagrees on the byte count.
    LenMismatch {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Step tag.
        tag: u32,
        /// Sent bytes.
        send_bytes: usize,
        /// Expected bytes at the receiver.
        recv_bytes: usize,
    },
    /// A rank's result does not assemble exactly the bytes the collective
    /// promises (hole, wrong order, wrong contributor set), or a reduction
    /// combined misaligned ranges.
    ChunkGap {
        /// Rank with the broken result.
        rank: usize,
        /// What is missing or misplaced.
        detail: String,
    },
    /// A contribution was reduced into the same bytes twice.
    DoubleCount {
        /// Rank performing the double-counting reduction.
        rank: usize,
        /// Which contributions overlap.
        detail: String,
    },
    /// Under rendezvous semantics some ranks can never finish.
    Deadlock {
        /// Ranks stuck mid-plan or with forever-pending operations.
        stuck: Vec<usize>,
        /// First blocked step of the lowest stuck rank.
        detail: String,
    },
    /// A violation found by the stateful model checker
    /// ([`super::mc::model_check`]), carrying the full counterexample
    /// interleaving that exhibits it.
    Mc(McCounterexample),
}

impl PlanFinding {
    /// Short stable code identifying the lint (mirrors
    /// [`crate::Finding::code`]).
    pub fn code(&self) -> &'static str {
        match self {
            PlanFinding::BadStructure { .. } => "plan-bad-structure",
            PlanFinding::UnmatchedSend { .. } => "plan-unmatched-send",
            PlanFinding::UnmatchedRecv { .. } => "plan-unmatched-recv",
            PlanFinding::LenMismatch { .. } => "plan-len-mismatch",
            PlanFinding::ChunkGap { .. } => "plan-chunk-gap",
            PlanFinding::DoubleCount { .. } => "plan-double-count",
            PlanFinding::Deadlock { .. } => "plan-deadlock",
            PlanFinding::Mc(ce) => ce.code,
        }
    }
}

impl fmt::Display for PlanFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: ", self.code())?;
        match self {
            PlanFinding::BadStructure { rank, detail } => {
                write!(f, "rank {rank}: {detail}")
            }
            PlanFinding::UnmatchedSend {
                from,
                to,
                tag,
                bytes,
            } => write!(
                f,
                "send of {bytes}B from rank {from} to rank {to} (step tag {tag}) is never received"
            ),
            PlanFinding::UnmatchedRecv {
                at,
                from,
                tag,
                bytes,
            } => write!(
                f,
                "receive of {bytes}B at rank {at} from rank {from} (step tag {tag}) is never sent"
            ),
            PlanFinding::LenMismatch {
                from,
                to,
                tag,
                send_bytes,
                recv_bytes,
            } => write!(
                f,
                "rank {from} sends {send_bytes}B but rank {to} expects {recv_bytes}B (step tag {tag})"
            ),
            PlanFinding::ChunkGap { rank, detail } => write!(f, "rank {rank}: {detail}"),
            PlanFinding::DoubleCount { rank, detail } => write!(f, "rank {rank}: {detail}"),
            PlanFinding::Deadlock { stuck, detail } => {
                write!(f, "plan deadlocks: ranks {stuck:?} never finish; {detail}")
            }
            PlanFinding::Mc(ce) => write!(f, "{ce}"),
        }
    }
}

/// A model-checker violation: stable code, diagnosis, the protocol cutoff
/// in force, and the full interleaving that exhibits it.
#[derive(Debug, Clone)]
pub struct McCounterexample {
    /// Stable finding code (`mc-*`).
    pub code: &'static str,
    /// One-line diagnosis.
    pub detail: String,
    /// The eager/rendezvous cutoff the schedule was explored under
    /// (sends of fewer bytes complete at post time); `None` for static
    /// composition findings, which hold at every cutoff.
    pub eager_cut: Option<usize>,
    /// The counterexample interleaving, one executed action per line, in
    /// execution order. Empty for static findings.
    pub trace: Vec<String>,
}

impl fmt::Display for McCounterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.detail)?;
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
