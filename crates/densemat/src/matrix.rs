//! Dense row-major `f64` matrices with the operations the purification
//! kernels need: blocked GEMM, AXPY-style combinations, norms, traces.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// From a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer does not match dimensions");
        Matrix { rows, cols, data }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transposed copy, one square tile at a time so that both the rows
    /// read and the rows written stay in cache.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        let mut t = Matrix::zeros(cols, rows);
        for i0 in (0..rows).step_by(TILE) {
            let i1 = (i0 + TILE).min(rows);
            for j0 in (0..cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(cols);
                for (j, dst) in (j0..j1).zip(t.data[j0 * rows..].chunks_exact_mut(rows)) {
                    for (i, d) in (i0..i1).zip(&mut dst[i0..i1]) {
                        *d = self.data[i * cols + j];
                    }
                }
            }
        }
        t
    }

    /// Extract the sub-matrix at (`r0`, `c0`) of size `rs` × `cs`.
    pub fn submatrix(&self, r0: usize, c0: usize, rs: usize, cs: usize) -> Matrix {
        assert!(
            r0 + rs <= self.rows && c0 + cs <= self.cols,
            "submatrix out of range"
        );
        let mut out = Matrix::zeros(rs, cs);
        for i in 0..rs {
            let src = (r0 + i) * self.cols + c0;
            out.data[i * cs..(i + 1) * cs].copy_from_slice(&self.data[src..src + cs]);
        }
        out
    }

    /// Write `block` into this matrix at (`r0`, `c0`).
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix out of range"
        );
        for i in 0..block.rows {
            let dst = (r0 + i) * self.cols + c0;
            self.data[dst..dst + block.cols]
                .copy_from_slice(&block.data[i * block.cols..(i + 1) * block.cols]);
        }
    }

    /// `self += alpha * other` (matching shapes).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Shift the diagonal: `self += alpha * I` (square only).
    pub fn shift_diag(&mut self, alpha: f64) {
        assert_eq!(self.rows, self.cols, "shift_diag needs a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += alpha;
        }
    }

    /// Trace (square only).
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace needs a square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max absolute entry difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether the matrix is numerically symmetric to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_trace() {
        let i = Matrix::identity(4);
        assert_eq!(i.trace(), 4.0);
        assert_eq!(i[(2, 2)], 1.0);
        assert_eq!(i[(2, 3)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t[(0, 2)], m[(2, 0)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn blocked_transpose_is_the_elementwise_one() {
        for (rows, cols) in [(1, 1), (7, 13), (33, 65), (256, 256)] {
            let m = Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
            let t = m.transpose();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        t[(j, i)].to_bits(),
                        m[(i, j)].to_bits(),
                        "{rows}x{cols} at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn submatrix_roundtrip() {
        let m = Matrix::from_fn(5, 5, |i, j| (10 * i + j) as f64);
        let s = m.submatrix(1, 2, 2, 3);
        assert_eq!(s[(0, 0)], 12.0);
        assert_eq!(s[(1, 2)], 24.0);
        let mut back = Matrix::zeros(5, 5);
        back.set_submatrix(1, 2, &s);
        assert_eq!(back[(1, 2)], 12.0);
        assert_eq!(back[(0, 0)], 0.0);
    }

    #[test]
    fn axpy_scale_shift() {
        let mut a = Matrix::identity(2);
        let b = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(1, 1)], 5.0);
        a.scale(0.5);
        assert_eq!(a[(1, 1)], 2.5);
        a.shift_diag(1.5);
        assert_eq!(a[(0, 0)], 2.0);
    }

    #[test]
    fn symmetric_check() {
        let s = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert!(!ns.is_symmetric(1e-12));
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn submatrix_bounds_checked() {
        Matrix::zeros(2, 2).submatrix(1, 1, 2, 2);
    }
}
