//! Multiple-PPN overlap support: per-kernel process activation.
//!
//! §III-B: "we advocate a mechanism where many processes are launched per
//! node and utilizing just the right number of these processes for each
//! stage of the code. At the beginning of the purification kernel,
//! processes that will be inactive call `MPI_Ibarrier`. Then these processes
//! use `MPI_Test` and `usleep` ... every 10 milliseconds. Processes that are
//! active perform the work ... and then call `MPI_Ibarrier` when they are
//! finished, in order to release the inactive processes."

use ovcomm_simmpi::{Comm, RankCtx, Transport};
use ovcomm_simnet::SimDur;

/// Which ranks participate in a kernel stage.
#[derive(Debug, Clone)]
pub enum StagePlan {
    /// The first `n` world ranks are active (uses fewer nodes, all full).
    FirstN(usize),
    /// The first `active_per_node` of every node's `ppn` ranks are active —
    /// the paper's per-kernel PPN selection: same node count, smaller PPN,
    /// surplus processes asleep.
    PerNode {
        /// Active processes per node.
        active_per_node: usize,
        /// Processes launched per node.
        ppn: usize,
    },
}

impl StagePlan {
    /// The first `active_ranks` world ranks are active.
    pub fn first_n(active_ranks: usize) -> StagePlan {
        assert!(active_ranks >= 1);
        StagePlan::FirstN(active_ranks)
    }

    /// `active_per_node` of each node's `ppn` ranks are active (natural
    /// placement: rank r lives on node r / ppn at local index r % ppn).
    pub fn per_node(active_per_node: usize, ppn: usize) -> StagePlan {
        assert!(active_per_node >= 1 && active_per_node <= ppn);
        StagePlan::PerNode {
            active_per_node,
            ppn,
        }
    }

    /// Active processes per node during the stage, if the plan keeps whole
    /// nodes partially awake (`PerNode`); `None` for `FirstN` (fewer nodes,
    /// each still fully packed).
    pub fn active_ppn(&self) -> Option<usize> {
        match *self {
            StagePlan::FirstN(_) => None,
            StagePlan::PerNode {
                active_per_node, ..
            } => Some(active_per_node),
        }
    }

    /// Is `rank` active?
    pub fn is_active(&self, rank: usize) -> bool {
        match *self {
            StagePlan::FirstN(n) => rank < n,
            StagePlan::PerNode {
                active_per_node,
                ppn,
            } => rank % ppn < active_per_node,
        }
    }
}

/// Run a kernel stage with per-stage PPN: active ranks execute `f`;
/// inactive ranks sleep-poll an `MPI_Ibarrier` with the profile's poll
/// period until the active ranks finish. Returns `Some(f's result)` on
/// active ranks, `None` on sleepers, plus the number of polls performed.
pub fn run_stage<T: Transport, V>(
    rc: &RankCtx<T>,
    world: &Comm<T>,
    plan: &StagePlan,
    f: impl FnOnce() -> V,
) -> (Option<V>, usize) {
    let poll: SimDur = rc.profile().sleep_poll;
    if plan.is_active(rc.rank()) {
        let out = f();
        // Release the sleepers.
        let req = world.ibarrier();
        world.wait(&req);
        (Some(out), 0)
    } else {
        let req = world.ibarrier();
        let mut polls = 0usize;
        while !world.test(&req) {
            rc.sleep(poll);
            polls += 1;
        }
        world.wait(&req);
        (None, polls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_plan_actives() {
        let p = StagePlan::first_n(3);
        assert!(p.is_active(0));
        assert!(p.is_active(2));
        assert!(!p.is_active(3));
    }

    #[test]
    fn per_node_plan_spreads_actives() {
        // 4 PPN, 2 active per node: local indices 0,1 active on every node.
        let p = StagePlan::per_node(2, 4);
        assert!(p.is_active(0));
        assert!(p.is_active(1));
        assert!(!p.is_active(2));
        assert!(!p.is_active(3));
        assert!(p.is_active(4));
        assert!(p.is_active(5));
        assert!(!p.is_active(7));
    }
}
