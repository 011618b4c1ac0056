//! # ovcomm-purify
//!
//! Density matrix purification — the application whose bottleneck kernel
//! (SymmSquareCube) the paper optimizes. Implements canonical purification
//! (Palser & Manolopoulos) over the distributed kernels, with the paper's
//! molecular systems replaced by synthetic symmetric matrices of the same
//! dimensions.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod canonical;
pub mod mcweeny;
pub mod staged;
pub mod systems;

pub use canonical::{
    initial_iterate, purify_rank, purify_rank_on, KernelChoice, PurifyConfig, PurifyResult,
};
pub use mcweeny::{mcweeny_initial, mcweeny_rank};
pub use staged::{scf_staged, ScfConfig, ScfResult};
pub use systems::{paper_system, small_system, MolecularSystem, PAPER_SYSTEMS};
