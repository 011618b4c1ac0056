//! # ovcomm-densemat
//!
//! Dense-matrix substrate for the `ovcomm` reproduction: row-major
//! matrices, a blocked DGEMM kernel (the stand-in for MKL), balanced block
//! partitioning over process meshes, real/phantom block storage for
//! paper-scale simulation, and symmetric test matrices with prescribed
//! spectra (synthetic Fock/Hamiltonian matrices for density matrix
//! purification).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blockbuf;
pub mod gemm;
pub mod matrix;
pub mod partition;
pub mod solve;
pub mod spectrum;

pub use blockbuf::{BlockBuf, BlockRef};
pub use gemm::{gemm, gemm_acc, gemm_flops, gemm_naive};
pub use matrix::{MatRef, Matrix};
pub use partition::{BlockGrid, Partition1D};
pub use solve::solve;
pub use spectrum::{exact_density, fock_like_spectrum, gershgorin_bounds, symmetric_with_spectrum};
