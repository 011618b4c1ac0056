//! # ovcomm-kernels
//!
//! The distributed dense-matrix kernels of the paper:
//!
//! * [`matvec`] — parallel matrix–vector multiplication, blocking
//!   (Algorithm 1) and pipelined/overlapped (Algorithm 2);
//! * [`symm3d`] — SymmSquareCube over 3-D multiplication: original
//!   (Algorithm 3), baseline (Algorithm 4), and optimized with nonblocking
//!   overlap (Algorithm 5);
//! * [`symm25d`] — SymmSquareCube over 2.5D multiplication with Cannon's
//!   algorithm (Algorithm 6), with its collectives self-overlapped;
//! * [`cosma`] — COSMA-style communication-optimal multiply over one-sided
//!   RMA windows, prefetching the next operand blocks during the current
//!   local GEMM;
//! * [`mesh`] — 2-D/3-D/2.5D process meshes with the paper's "natural"
//!   rank placement.
//!
//! All kernels run on real data (verified against dense references in the
//! test suite) or phantom data (paper-scale benchmarks) with identical
//! virtual timing.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blockcg;
pub mod convert;
pub mod cosma;
pub mod matvec;
pub mod mesh;
pub mod particles;
pub mod summa;
pub mod symm25d;
pub mod symm3d;

pub use blockcg::{block_cg, BlockCgConfig, BlockCgResult, CgComms};
pub use cosma::{cosma_multiply, symm_square_cube_cosma};
pub use matvec::{matvec_blocking, matvec_pipelined, MatvecInput, VecBuf};
pub use mesh::{Mesh2D, Mesh3D, Mesh3DBundles};
pub use particles::{md_init, md_run, MdConfig, MdState};
pub use summa::{summa_multiply, summa_multiply_pipelined, symm_square_cube_summa, SummaBundles};
pub use symm25d::{symm_square_cube_25d, Mesh25D};
pub use symm3d::{
    symm_square_cube_baseline, symm_square_cube_flops, symm_square_cube_optimized,
    symm_square_cube_original, SymmInput, SymmOutput,
};
