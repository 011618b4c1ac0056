//! Compatibility names for code written against the deleted backend traits.
//!
//! Generic code names a backend by its [`Transport`] and takes the front-end
//! types directly: `fn f<T: Transport>(rc: &RankCtx<T>, …)` over
//! [`Comm<T>`] and [`Win<T>`]. What is left here keeps the frozen
//! `benchmark/` package building until ROADMAP item 1 (vi) rebounds it on
//! `RankCtx<T>`; this module is deleted then. It holds the old names as
//! aliases and a sealed [`RankHandle`] with one impl, which only
//! `Mesh3D::new` and the three `symm_square_cube_*` entry points of
//! `ovcomm-kernels` accept.

use ovcomm_simmpi::rma::Win;
use ovcomm_simmpi::{Comm, RankCtx, SimTransport, Transport};
use ovcomm_simnet::SimTime;

/// The communicator front end, under its old trait name.
pub type Communicator<T = SimTransport> = Comm<T>;

/// The one-sided window front end, under its old trait name.
pub type Window<T = SimTransport> = Win<T>;

mod sealed {
    pub trait Sealed {}
    impl<T: super::Transport> Sealed for super::RankCtx<T> {}
}

/// A rank context on some backend: implemented only by [`RankCtx<T>`].
pub trait RankHandle: sealed::Sealed {
    /// The backend's transport.
    type T: Transport;
    /// The context itself.
    fn ctx(&self) -> &RankCtx<Self::T>;
    /// The world communicator.
    fn world(&self) -> Comm<Self::T> {
        self.ctx().world()
    }
    /// This rank's clock.
    fn now(&self) -> SimTime {
        self.ctx().now()
    }
    /// World rank of this process.
    fn rank(&self) -> usize {
        self.ctx().rank()
    }
}

impl<T: Transport> RankHandle for RankCtx<T> {
    type T = T;
    fn ctx(&self) -> &RankCtx<T> {
        self
    }
}
