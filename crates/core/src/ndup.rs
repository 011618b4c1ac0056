//! N_DUP communicator bundles.
//!
//! The nonblocking-overlap technique needs `N_DUP` independent copies of
//! each communicator so that the pipelined nonblocking collectives of
//! different chunks progress independently (§III-A).

use ovcomm_simmpi::{Comm, SimTransport, Transport};

/// `N_DUP` duplicated communicators over one group. Generic over the
/// runtime backend's transport; defaults to the simulator's.
#[derive(Clone)]
pub struct NDupComms<T: Transport = SimTransport> {
    comms: Vec<Comm<T>>,
}

impl<T: Transport> NDupComms<T> {
    /// Duplicate `base` `n_dup` times. All member ranks must call this in
    /// the same order (it performs collective `dup`s).
    pub fn new(base: &Comm<T>, n_dup: usize) -> NDupComms<T> {
        assert!(n_dup >= 1, "N_DUP must be at least 1");
        NDupComms {
            comms: base.dup_n(n_dup),
        }
    }

    /// Number of duplicates.
    pub fn n_dup(&self) -> usize {
        self.comms.len()
    }

    /// The communicator for chunk `c`.
    pub fn comm(&self, c: usize) -> &Comm<T> {
        &self.comms[c]
    }

    /// Iterate over (chunk index, communicator).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Comm<T>)> {
        self.comms.iter().enumerate()
    }

    /// Group size (all duplicates share it).
    pub fn size(&self) -> usize {
        self.comms[0].size()
    }

    /// This rank's index within the group.
    pub fn rank(&self) -> usize {
        self.comms[0].rank()
    }
}
