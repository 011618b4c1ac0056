//! Register-blocked dense matrix multiplication.
//!
//! `C += A·B` — the stand-in for the MKL DGEMM the paper's kernels call on
//! each node. At paper scale the distributed kernels charge modeled time
//! instead of running it; at test scale, and on the real backend, this is
//! where the compute goes.
//!
//! **Kernel.** B is packed, one KC×NR panel at a time (16 KiB,
//! L1-resident), into a heap buffer — not the stack, since simulated ranks
//! run this on fiber stacks; only problems whose panel fits in 512 B pack
//! on the stack and skip the allocation. Rows of A then stream past the
//! panel MR at a time, each MR×NR tile of C held in a local array of
//! accumulators the compiler keeps in registers (8 SSE2 registers for
//! 2×8 on baseline x86-64). A ragged last panel (n not a multiple of NR)
//! runs the same tile code instantiated exactly as wide as the panel, and
//! an odd last row runs it with one row: no edge falls back to a scalar
//! loop, and no padding column is ever computed.
//!
//! **Bit-identity contract.** Every `c[i][j]` starts from its value in C
//! and adds `a[i][k]·b[k][j]` for k ascending over the full K, each
//! product rounded before its add: no `mul_add`, no reassociation. That is
//! the order of [`gemm_naive`], so the two agree bit for bit, and every
//! sim↔rt bit-identity oracle and golden stands on it. A K longer than KC
//! stores the tile after one panel and reloads it for the next, which
//! keeps the order.
//!
//! **No zero skip.** Skipping `a[i][k] == 0.0` would change no bit:
//! adding ±0 to a finite sum leaves it unchanged, and a sum started from
//! +0 never becomes −0 under round-to-nearest, so for finite inputs and a
//! C without −0 entries (every caller accumulates into a C it zeroed) the
//! skip only costs a branch per element. The kernel runs every k, and
//! the naive loop, which never skips, is the exact reference.

use crate::matrix::Matrix;

/// Rows of C one register tile covers.
const MR: usize = 2;
/// Columns of C one register tile covers: the widest packed panel.
const NR: usize = 8;
/// Depth of one packed B panel (KC × NR f64 = 16 KiB).
const KC: usize = 256;
/// Panel length up to which the panel lives on the stack (512 B).
const SMALL: usize = 64;

/// `C += A · B`. Shapes: A is m×k, B is k×n, C is m×n.
pub fn gemm_acc(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "inner dimensions disagree");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape disagrees");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    // Small problems pack into a stack buffer, the rest into the heap.
    let len = k.min(KC) * n.min(NR);
    let (mut small, mut large) = ([0.0; SMALL], Vec::new());
    let panel: &mut [f64] = if len <= SMALL {
        &mut small
    } else {
        large.resize(len, 0.0);
        &mut large
    };
    for j0 in (0..n).step_by(NR) {
        // A ragged last panel runs a tile exactly as wide as it is.
        let sweep = match n - j0 {
            1 => column_panel::<1>,
            2 => column_panel::<2>,
            3 => column_panel::<3>,
            4 => column_panel::<4>,
            5 => column_panel::<5>,
            6 => column_panel::<6>,
            7 => column_panel::<7>,
            _ => column_panel::<NR>,
        };
        sweep(cd, ad, bd, (k, n), j0, panel);
    }
}

/// `C[.., j0..j0+W] += A · B[.., j0..j0+W]` for row-major A (m×k), B (k×n)
/// and C (m×n): one packed KC-deep panel of B at a time, each swept by
/// every row of A, MR rows per tile.
fn column_panel<const W: usize>(
    cd: &mut [f64],
    ad: &[f64],
    bd: &[f64],
    (k, n): (usize, usize),
    j0: usize,
    panel: &mut [f64],
) {
    let cols = j0..j0 + W;
    for k0 in (0..k).step_by(KC) {
        let depth = k0..(k0 + KC).min(k);
        let (panel, _) = panel[..depth.len() * W].as_chunks_mut::<W>();
        for (row, kk) in panel.iter_mut().zip(depth.clone()) {
            row.copy_from_slice(&bd[kk * n + j0..kk * n + j0 + W]);
        }
        let mut c_pairs = cd.chunks_exact_mut(MR * n);
        let mut a_pairs = ad.chunks_exact(MR * k);
        for (c2, a2) in (&mut c_pairs).zip(&mut a_pairs) {
            let (c0, c1) = c2.split_at_mut(n);
            let (a0, a1) = a2.split_at(k);
            tile(
                [&mut c0[cols.clone()], &mut c1[cols.clone()]],
                [&a0[depth.clone()], &a1[depth.clone()]],
                panel,
            );
        }
        let (c_last, a_last) = (c_pairs.into_remainder(), a_pairs.remainder());
        if !c_last.is_empty() {
            tile([&mut c_last[cols.clone()]], [&a_last[depth]], panel);
        }
    }
}

/// One register tile: `c[r] += a[r] · panel` for R ≤ MR rows, where each
/// `c[r]` is W columns of one row of C and each `a[r]` the matching
/// K-range of one row of A.
#[inline(always)]
fn tile<const R: usize, const W: usize>(c: [&mut [f64]; R], a: [&[f64]; R], panel: &[[f64; W]]) {
    let mut acc = [[0.0; W]; R];
    for (acc, c) in acc.iter_mut().zip(&c) {
        acc.copy_from_slice(c);
    }
    // Slicing to the panel's length lets the index checks below fold away.
    let a = a.map(|row| &row[..panel.len()]);
    for kk in 0..panel.len() {
        for (acc, a) in acc.iter_mut().zip(&a) {
            let x = a[kk];
            for (s, bv) in acc.iter_mut().zip(&panel[kk]) {
                *s += x * bv;
            }
        }
    }
    for (c, acc) in c.into_iter().zip(&acc) {
        c.copy_from_slice(acc);
    }
}

/// `A · B` into a fresh matrix.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b);
    c
}

/// Reference triple loop: the bit-exact reference [`gemm_acc`] is tested
/// against.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k);
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[(i, kk)] * b[(kk, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Flops of one `m×k · k×n` multiplication (multiply-add counted as 2).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Deterministic pseudo-random fill (xorshift), no RNG dependency.
        let mut s = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f64 - 1000.0) / 250.0
        })
    }

    /// Full-mantissa entries in [-4, 4) so that any reassociation of a sum
    /// shows in its bits; every 7th entry of the fill is +0.0 and every
    /// 11th is −0.0, and with `zero_row` one whole row is zero.
    fn planted(rows: usize, cols: usize, seed: u64, zero_row: Option<usize>) -> Matrix {
        let mut s = seed | 1;
        let mut idx = 0usize;
        Matrix::from_fn(rows, cols, |i, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            idx += 1;
            if zero_row == Some(i) || idx.is_multiple_of(7) {
                0.0
            } else if idx.is_multiple_of(11) {
                -0.0
            } else {
                (s >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
            }
        })
    }

    fn assert_bitwise_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {idx} is {g:e}, reference {w:e}"
            );
        }
    }

    /// The pin grid: squares around the register tile and the K panel,
    /// ragged rectangles, and block-CG's tall/skinny shapes.
    const PIN_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 2, 2),
        (7, 7, 7),
        (8, 8, 8),
        (9, 9, 9),
        (15, 15, 15),
        (16, 16, 16),
        (17, 17, 17),
        (63, 63, 63),
        (64, 64, 64),
        (65, 65, 65),
        (130, 130, 130),
        (256, 256, 256),
        (33, 90, 21),
        (130, 90, 21),
        (1000, 16, 16),
        (200, 8, 8),
        (16, 1000, 8),
    ];

    /// Miri runs only the small shapes: the kernel has no `unsafe` for it
    /// to check, and the large ones would take it hours.
    fn too_big_for_miri(m: usize, k: usize, n: usize) -> bool {
        cfg!(miri) && m * k * n > 20_000
    }

    #[test]
    fn gemm_is_bitwise_naive_on_the_pin_grid() {
        for (idx, &(m, k, n)) in PIN_SHAPES.iter().enumerate() {
            if too_big_for_miri(m, k, n) {
                continue;
            }
            let seed = 2 * idx as u64 + 1;
            let a = planted(m, k, seed, Some(m / 2));
            let b = planted(k, n, seed + 100, None);
            assert_bitwise_eq(&gemm(&a, &b), &gemm_naive(&a, &b), &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn two_stage_accumulation_is_bitwise_stagewise() {
        // SUMMA and COSMA accumulate one C over stages; each stage adds
        // its own k-ascending products onto what the previous left.
        for &(m, k1, k2, n) in &[(37, 300, 70, 19), (16, 16, 16, 16), (9, 1, 513, 23)] {
            if too_big_for_miri(m, k1 + k2, n) {
                continue;
            }
            let (a1, b1) = (planted(m, k1, 3, Some(0)), planted(k1, n, 5, None));
            let (a2, b2) = (planted(m, k2, 7, None), planted(k2, n, 9, None));
            let mut c = Matrix::zeros(m, n);
            gemm_acc(&mut c, &a1, &b1);
            gemm_acc(&mut c, &a2, &b2);
            let mut want = Matrix::zeros(m, n);
            for (a, b) in [(&a1, &b1), (&a2, &b2)] {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = want[(i, j)];
                        for kk in 0..a.cols() {
                            acc += a[(i, kk)] * b[(kk, j)];
                        }
                        want[(i, j)] = acc;
                    }
                }
            }
            assert_bitwise_eq(&c, &want, &format!("{m}x({k1}+{k2})x{n}"));
        }
    }

    #[test]
    fn empty_dimensions_leave_c_alone() {
        for (m, k, n) in [(3, 0, 4), (0, 5, 3), (4, 5, 0)] {
            let mut c = Matrix::from_fn(m, n, |i, j| (i + j) as f64);
            let before = c.clone();
            gemm_acc(&mut c, &Matrix::zeros(m, k), &Matrix::zeros(k, n));
            assert_bitwise_eq(&c, &before, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_matches_naive_square() {
        for n in [1, 2, 7, 32, 65, 130] {
            let a = pseudo(n, n, 3);
            let b = pseudo(n, n, 17);
            let fast = gemm(&a, &b);
            let slow = gemm_naive(&a, &b);
            assert!(
                fast.max_abs_diff(&slow) < 1e-9,
                "blocked kernel diverges at n={n}"
            );
        }
    }

    #[test]
    fn blocked_matches_naive_rectangular() {
        let a = pseudo(33, 90, 5);
        let b = pseudo(90, 21, 7);
        assert!(gemm(&a, &b).max_abs_diff(&gemm_naive(&a, &b)) < 1e-9);
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = pseudo(16, 16, 11);
        let b = pseudo(16, 16, 13);
        let mut c = gemm(&a, &b);
        gemm_acc(&mut c, &a, &b);
        let mut twice = gemm_naive(&a, &b);
        twice.scale(2.0);
        assert!(c.max_abs_diff(&twice) < 1e-9);
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo(20, 20, 23);
        let i = Matrix::identity(20);
        assert!(gemm(&a, &i).max_abs_diff(&a) < 1e-12);
        assert!(gemm(&i, &a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        gemm(&a, &b);
    }
}
