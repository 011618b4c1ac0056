//! Tunable collective-algorithm selection.
//!
//! Replaces the old hardcoded `COLL_LARGE = 32 KiB` constant: a
//! [`CollSelector`] is a per-(collective, message size, communicator size)
//! decision table carried by `SimConfig`, forced per algorithm by the
//! bench sweeps and fittable by the auto-tuner alongside N_DUP. The
//! default reproduces the legacy behavior exactly — 32 KiB short/long
//! thresholds, power-of-two gating for the recursive-halving long
//! algorithms, binomial-only gather.

use ovcomm_verify::plan::CollAlgo;
use ovcomm_verify::CollKind;

/// Message-size threshold between short- and long-message algorithms
/// (the legacy `COLL_LARGE`).
pub const DEFAULT_LARGE: usize = 32 * 1024;

/// Algorithm-selection policy for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollSelector {
    /// Force one algorithm for a collective, bypassing its threshold.
    /// Later entries win, so sweeps can layer a forcing over a base policy.
    pub forced: Vec<(CollKind, CollAlgo)>,
    /// Bcast switches from binomial to scatter+allgather above this size.
    pub bcast_large: usize,
    /// Reduce switches from binomial to Rabenseifner (power-of-two `p`) or
    /// ring above this size.
    pub reduce_large: usize,
    /// Allreduce switches from recursive doubling to reduce-scatter +
    /// allgather (power-of-two `p`) or ring above this size.
    pub allreduce_large: usize,
    /// Gather switches from binomial to linear above this size
    /// (`usize::MAX` by default: the legacy build was binomial-only).
    pub gather_large: usize,
}

impl Default for CollSelector {
    fn default() -> CollSelector {
        CollSelector {
            forced: Vec::new(),
            bcast_large: DEFAULT_LARGE,
            reduce_large: DEFAULT_LARGE,
            allreduce_large: DEFAULT_LARGE,
            gather_large: usize::MAX,
        }
    }
}

impl CollSelector {
    /// Pick the algorithm for a `kind` collective moving `n` logical bytes
    /// on a `p`-rank communicator.
    pub fn select(&self, kind: CollKind, n: usize, p: usize) -> CollAlgo {
        if let Some(&(_, algo)) = self.forced.iter().rev().find(|(k, _)| *k == kind) {
            return algo;
        }
        match kind {
            CollKind::Bcast => {
                if n <= self.bcast_large {
                    CollAlgo::BcastBinomial
                } else {
                    CollAlgo::BcastScatterAllgather
                }
            }
            CollKind::Reduce => {
                if n <= self.reduce_large {
                    CollAlgo::ReduceBinomial
                } else if p.is_power_of_two() {
                    CollAlgo::ReduceRabenseifner
                } else {
                    // Rabenseifner's pre-fold puts an extra half-vector
                    // transfer on the critical path for non-power-of-two
                    // sizes; production MPIs switch to a ring here.
                    CollAlgo::ReduceRing
                }
            }
            CollKind::Allreduce => {
                if n <= self.allreduce_large {
                    CollAlgo::AllreduceRecursiveDoubling
                } else if p.is_power_of_two() {
                    CollAlgo::AllreduceRsag
                } else {
                    CollAlgo::AllreduceRing
                }
            }
            CollKind::Gather => {
                if n <= self.gather_large {
                    CollAlgo::GatherBinomial
                } else {
                    CollAlgo::GatherLinear
                }
            }
            CollKind::Scatter => CollAlgo::ScatterTree,
            CollKind::Allgather => CollAlgo::AllgatherRing,
            CollKind::Barrier => CollAlgo::BarrierDissemination,
            CollKind::Dup | CollKind::Split => {
                panic!("{kind:?} is not an algorithmic collective")
            }
        }
    }

    /// Force `algo` for its collective (appended, so it wins over earlier
    /// forcings of the same collective).
    pub fn force(mut self, algo: CollAlgo) -> CollSelector {
        self.forced.push((algo.kind(), algo));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_legacy_coll_large() {
        let sel = CollSelector::default();
        // 32 KiB inclusive boundary, pow2 gating, binomial-only gather.
        assert_eq!(
            sel.select(CollKind::Allreduce, DEFAULT_LARGE, 8),
            CollAlgo::AllreduceRecursiveDoubling
        );
        assert_eq!(
            sel.select(CollKind::Allreduce, DEFAULT_LARGE + 1, 8),
            CollAlgo::AllreduceRsag
        );
        assert_eq!(
            sel.select(CollKind::Allreduce, DEFAULT_LARGE + 1, 6),
            CollAlgo::AllreduceRing
        );
        assert_eq!(
            sel.select(CollKind::Reduce, DEFAULT_LARGE + 1, 4),
            CollAlgo::ReduceRabenseifner
        );
        assert_eq!(
            sel.select(CollKind::Reduce, DEFAULT_LARGE + 1, 5),
            CollAlgo::ReduceRing
        );
        assert_eq!(
            sel.select(CollKind::Bcast, DEFAULT_LARGE + 1, 5),
            CollAlgo::BcastScatterAllgather
        );
        assert_eq!(
            sel.select(CollKind::Gather, 1 << 30, 5),
            CollAlgo::GatherBinomial
        );
        assert_eq!(sel.select(CollKind::Scatter, 1, 5), CollAlgo::ScatterTree);
        assert_eq!(
            sel.select(CollKind::Allgather, 1, 5),
            CollAlgo::AllgatherRing
        );
        assert_eq!(
            sel.select(CollKind::Barrier, 0, 5),
            CollAlgo::BarrierDissemination
        );
    }

    #[test]
    fn thresholds_and_forcings() {
        let sel = CollSelector {
            allreduce_large: 64 * 1024,
            gather_large: 1024 * 1024,
            ..CollSelector::default()
        }
        .force(CollAlgo::BcastScatterAllgather);
        // A threshold overrides the default.
        assert_eq!(
            sel.select(CollKind::Allreduce, 64 * 1024, 4),
            CollAlgo::AllreduceRecursiveDoubling
        );
        assert_eq!(
            sel.select(CollKind::Bcast, 1, 4),
            CollAlgo::BcastScatterAllgather
        );
        assert_eq!(
            sel.select(CollKind::Gather, 2 << 20, 4),
            CollAlgo::GatherLinear
        );
        // Later forcing wins.
        let sel = CollSelector::default()
            .force(CollAlgo::ReduceRing)
            .force(CollAlgo::ReduceBinomial);
        assert_eq!(
            sel.select(CollKind::Reduce, 1 << 20, 4),
            CollAlgo::ReduceBinomial
        );
    }
}
