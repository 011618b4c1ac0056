//! Real/phantom block storage: the bridge between local matrices and
//! message payloads.
//!
//! Distributed kernels operate on [`BlockBuf`]s. In `Real` mode a block
//! carries an actual [`Matrix`] — arithmetic happens, results are
//! verifiable. In `Phantom` mode only the dimensions exist: the identical
//! communication schedule runs (payload sizes match byte-for-byte) and all
//! modeled virtual time is charged, but no memory is allocated — this is
//! how the paper-scale benchmarks (64–512 ranks, multi-GB matrices) run on
//! one small machine. The equality of virtual times across modes is tested
//! in the kernels crate.

use crate::gemm::gemm_acc;
use crate::matrix::{MatRef, Matrix};

/// A matrix block that either holds data or just its shape.
#[derive(Debug, Clone)]
pub enum BlockBuf {
    /// A real block.
    Real(Matrix),
    /// Shape-only block (rows, cols).
    Phantom(usize, usize),
}

impl BlockBuf {
    /// A zero block (real or phantom according to `phantom`).
    pub fn zeros(rows: usize, cols: usize, phantom: bool) -> BlockBuf {
        if phantom {
            BlockBuf::Phantom(rows, cols)
        } else {
            BlockBuf::Real(Matrix::zeros(rows, cols))
        }
    }

    /// Dimensions.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            BlockBuf::Real(m) => (m.rows(), m.cols()),
            BlockBuf::Phantom(r, c) => (*r, *c),
        }
    }

    /// Whether this block is phantom.
    pub fn is_phantom(&self) -> bool {
        matches!(self, BlockBuf::Phantom(..))
    }

    /// Byte size as an f64 payload.
    pub fn byte_len(&self) -> usize {
        let (r, c) = self.dims();
        r * c * 8
    }

    /// The real matrix, or a panic for phantoms.
    pub fn unwrap_real(&self) -> &Matrix {
        match self {
            BlockBuf::Real(m) => m,
            BlockBuf::Phantom(..) => panic!("block is phantom; no data available"),
        }
    }

    /// `self += a · b` where shapes agree; phantom blocks only shape-check.
    /// (Virtual compute time is charged by the caller.)
    pub fn gemm_acc<'a, 'b>(&mut self, a: impl Into<BlockRef<'a>>, b: impl Into<BlockRef<'b>>) {
        let (a, b) = (a.into(), b.into());
        let (m, ka) = a.dims();
        let (kb, n) = b.dims();
        assert_eq!(ka, kb, "inner dimensions disagree");
        assert_eq!(self.dims(), (m, n), "output shape disagrees");
        match (self, a, b) {
            (BlockBuf::Real(c), BlockRef::Real(am), BlockRef::Real(bm)) => gemm_acc(c, am, bm),
            (BlockBuf::Phantom(..), _, _) => {}
            _ => panic!("cannot mix real output with phantom inputs"),
        }
    }
}

/// A borrowed block: a [`MatRef`] view of real data, possibly read
/// transposed, or a phantom's shape (rows, cols).
#[derive(Clone, Copy, Debug)]
pub enum BlockRef<'a> {
    /// A view of real data.
    Real(MatRef<'a>),
    /// Shape-only block (rows, cols).
    Phantom(usize, usize),
}

impl<'a> BlockRef<'a> {
    /// Dimensions of the block read.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            BlockRef::Real(m) => (m.rows(), m.cols()),
            BlockRef::Phantom(r, c) => (*r, *c),
        }
    }

    /// The same block read as its transpose (phantom transposes its
    /// shape); nothing is copied.
    pub fn t(self) -> BlockRef<'a> {
        match self {
            BlockRef::Real(m) => BlockRef::Real(m.t()),
            BlockRef::Phantom(r, c) => BlockRef::Phantom(c, r),
        }
    }
}

impl<'a> From<&'a BlockBuf> for BlockRef<'a> {
    fn from(b: &'a BlockBuf) -> BlockRef<'a> {
        match b {
            BlockBuf::Real(m) => BlockRef::Real(m.into()),
            BlockBuf::Phantom(r, c) => BlockRef::Phantom(*r, *c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_acc_matches_matrix_gemm() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(3, 5, |i, j| (2 * i + j) as f64);
        let mut c = BlockBuf::zeros(4, 5, false);
        c.gemm_acc(&BlockBuf::Real(a.clone()), &BlockBuf::Real(b.clone()));
        let want = crate::gemm::gemm(&a, &b);
        assert_eq!(c.unwrap_real().max_abs_diff(&want), 0.0);
        // B given as the transposed view of its stored transpose.
        let bt = b.transpose();
        let mut ct = BlockBuf::zeros(4, 5, false);
        ct.gemm_acc(&BlockBuf::Real(a.clone()), BlockRef::Real((&bt).into()).t());
        assert_eq!(ct.unwrap_real(), &want);
    }

    #[test]
    fn phantom_gemm_shape_checks() {
        let mut c = BlockBuf::zeros(2, 4, true);
        c.gemm_acc(&BlockBuf::Phantom(2, 3), &BlockBuf::Phantom(3, 4));
        assert_eq!(c.dims(), (2, 4));
        c.gemm_acc(&BlockBuf::Phantom(2, 3), BlockRef::Phantom(4, 3).t());
        assert_eq!(c.dims(), (2, 4));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn phantom_gemm_still_validates_shapes() {
        let mut c = BlockBuf::zeros(2, 4, true);
        c.gemm_acc(&BlockBuf::Phantom(2, 3), &BlockBuf::Phantom(5, 4));
    }

    #[test]
    #[should_panic(expected = "phantom; no data")]
    fn unwrap_real_panics_on_phantom() {
        BlockBuf::Phantom(1, 1).unwrap_real();
    }
}
