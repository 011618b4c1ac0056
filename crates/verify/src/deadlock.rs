//! Structured deadlock diagnosis: who is blocked on what, and the wait-for
//! cycle among ranks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::event::{AgentId, Site};

/// What one blocked agent was waiting for.
#[derive(Debug, Clone)]
pub struct PendingOp {
    /// Human-readable operation, e.g. `MPI_Irecv(from rank 1, tag=7) on comm 0`.
    pub op: String,
    /// World ranks whose action would complete this operation.
    pub peers: Vec<u32>,
    /// Post site of the operation.
    pub site: Option<Site>,
}

/// One agent that was parked when the engine declared deadlock.
#[derive(Debug, Clone)]
pub struct BlockedAgent {
    /// Engine actor id: the rank itself for the rank's own actor, any
    /// other id for a nonblocking operation's progress actor.
    pub agent: AgentId,
    /// World rank the agent acts for.
    pub rank: u32,
    /// What it was waiting for, when known.
    pub pending: Option<PendingOp>,
}

/// The full diagnosis attached to `RunError::Deadlock` (either backend).
#[derive(Debug, Clone, Default)]
pub struct DeadlockReport {
    /// Every agent parked at deadlock time, sorted by (rank, agent id).
    pub blocked: Vec<BlockedAgent>,
    /// A wait-for cycle among world ranks, if one was found (each rank
    /// waits on the next; the last waits on the first).
    pub cycle: Vec<u32>,
}

impl DeadlockReport {
    /// Report with no per-operation detail (verification was off).
    pub fn unknown(blocked: &[(AgentId, u32)]) -> DeadlockReport {
        DeadlockReport::new(blocked, |_| None)
    }

    /// Report on the `(actor id, world rank)` agents in `blocked`, each
    /// waiting on `pending(agent)`, with the wait-for cycle they form.
    pub(crate) fn new(
        blocked: &[(AgentId, u32)],
        pending: impl Fn(AgentId) -> Option<PendingOp>,
    ) -> DeadlockReport {
        let mut blocked: Vec<BlockedAgent> = blocked
            .iter()
            .map(|&(agent, rank)| BlockedAgent {
                agent,
                rank,
                pending: pending(agent),
            })
            .collect();
        blocked.sort_by_key(|b| (b.rank, b.agent));
        let mut report = DeadlockReport {
            blocked,
            cycle: Vec::new(),
        };
        report.find_cycle();
        report
    }

    /// Ranks appearing in the blocked set (sorted, deduplicated).
    pub fn blocked_ranks(&self) -> Vec<u32> {
        let s: BTreeSet<u32> = self.blocked.iter().map(|b| b.rank).collect();
        s.into_iter().collect()
    }

    /// Extract a wait-for cycle from the rank-level graph implied by the
    /// blocked agents' pending peers, and store it in `self.cycle`.
    fn find_cycle(&mut self) {
        let blocked_ranks: BTreeSet<u32> = self.blocked.iter().map(|b| b.rank).collect();
        let mut succ: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for b in &self.blocked {
            let entry = succ.entry(b.rank).or_default();
            if let Some(p) = &b.pending {
                for &peer in &p.peers {
                    if peer != b.rank && blocked_ranks.contains(&peer) {
                        entry.insert(peer);
                    }
                }
            }
        }
        // Iterative DFS with coloring; return the first cycle found.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<u32, Color> = succ.keys().map(|&r| (r, Color::White)).collect();
        for &start in succ.keys() {
            if color.get(&start) != Some(&Color::White) {
                continue;
            }
            let mut path: Vec<u32> = Vec::new();
            // (node, next successor index)
            let mut stack: Vec<(u32, Vec<u32>)> = vec![(
                start,
                succ.get(&start)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default(),
            )];
            color.insert(start, Color::Gray);
            path.push(start);
            while let Some((node, todo)) = stack.last_mut() {
                match todo.pop() {
                    Some(next) => match color.get(&next).copied().unwrap_or(Color::Black) {
                        Color::Gray => {
                            // Found a cycle: slice the path from `next`.
                            if let Some(pos) = path.iter().position(|&r| r == next) {
                                self.cycle = path[pos..].to_vec();
                                return;
                            }
                        }
                        Color::White => {
                            color.insert(next, Color::Gray);
                            path.push(next);
                            let succs = succ
                                .get(&next)
                                .map(|s| s.iter().copied().collect())
                                .unwrap_or_default();
                            stack.push((next, succs));
                        }
                        Color::Black => {}
                    },
                    None => {
                        color.insert(*node, Color::Black);
                        path.pop();
                        stack.pop();
                    }
                }
            }
        }
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation deadlocked: {} agent(s) blocked on {} rank(s)",
            self.blocked.len(),
            self.blocked_ranks().len()
        )?;
        if !self.cycle.is_empty() {
            write!(f, "\n  wait-for cycle: ")?;
            for r in &self.cycle {
                write!(f, "rank {r} -> ")?;
            }
            if let Some(first) = self.cycle.first() {
                write!(f, "rank {first}")?;
            }
        }
        for b in &self.blocked {
            let who = if b.agent != b.rank {
                format!("rank {} (progress actor {:#x})", b.rank, b.agent)
            } else {
                format!("rank {}", b.rank)
            };
            match &b.pending {
                Some(p) => {
                    write!(f, "\n  {who}: blocked in {}", p.op)?;
                    if let Some(s) = p.site {
                        write!(f, ", posted at {}:{}", s.file(), s.line())?;
                    }
                }
                None => write!(f, "\n  {who}: blocked (operation unknown)")?,
            }
        }
        Ok(())
    }
}
