//! # ovcomm-core
//!
//! The primary contribution of *Huang & Chow, "Overlapping Communications
//! with Other Communications and its Application to Distributed Dense
//! Matrix Computations"* (IPDPS 2019), as a reusable library:
//!
//! * [`ndup`] — N_DUP duplicated-communicator bundles;
//! * [`chunk`] — contiguous, aligned chunk plans (the N_DUP data division);
//! * [`pipeline`] — overlapped/pipelined drivers: self-overlapped broadcast
//!   and reduction, the pipelined reduce→broadcast of Algorithm 2, and
//!   chunked point-to-point;
//! * [`ppn`] — multiple-PPN overlap: per-kernel process activation with the
//!   Ibarrier + test + usleep sleep/poll mechanism of §III-B;
//! * [`tuning`] — the `N_DUP · f_BW(n/N_DUP) ≥ f_BW(n)` condition and the
//!   `n/N_DUP ≥ n_t` threshold rule for choosing N_DUP;
//! * [`collsel`] — fitting a collective-algorithm selector from
//!   algorithm-sweep measurements (the same empirical tuning applied to
//!   the collective algorithm choice itself);
//! * [`model`] — the α–β cost models of §V-A;
//! * [`backend`] — the old trait names, kept for the `benchmark/` package.
//!
//! The communicating modules (`ndup`, `pipeline`, `ppn`) are generic over
//! the backend's `Transport`: they take the front-end types `Comm<T>` and
//! `RankCtx<T>` of `ovcomm-simmpi`, which run on the virtual-time simulator
//! (`T = SimTransport`) and on the `ovcomm-rt` wall-clock runtime
//! (`T = RtTransport`).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod autotune;
pub mod backend;
pub mod chunk;
pub mod collsel;
pub mod model;
pub mod ndup;
pub mod pipeline;
pub mod ppn;
pub mod tuning;

pub use autotune::{AutoTuner, MeasuredCurve};
pub use backend::{Communicator, RankHandle, Window};
pub use chunk::ChunkPlan;
pub use collsel::{fit_selector, AlgoSample};
pub use model::{block_bytes, AlphaBeta};
pub use ndup::NDupComms;
pub use pipeline::{
    overlapped_allreduce, overlapped_bcast, overlapped_isend, overlapped_recv, overlapped_reduce,
    pipelined_reduce_bcast,
};
pub use ppn::{run_stage, StagePlan};
pub use tuning::{best_n_dup_by_condition, n_dup_by_threshold, satisfies_overlap_condition};
