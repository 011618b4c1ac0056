//! Register-blocked dense matrix multiplication.
//!
//! `C += A·B` — the stand-in for the MKL DGEMM the paper's kernels call on
//! each node. At paper scale the distributed kernels charge modeled time
//! instead of running it; at test scale, and on the real backend, this is
//! where the compute goes.
//!
//! **Kernel.** B is packed, one KC×NR panel at a time (16 KiB at NR = 8,
//! 32 KiB at NR = 16: L1-resident), into a heap buffer — not the stack,
//! since simulated ranks run this on fiber stacks; only problems whose
//! panel fits in 512 B pack on the stack and skip the allocation. Rows of
//! A then stream past the panel MR at a time, each MR×NR tile of C held in
//! a local array of accumulators the compiler keeps in registers. A ragged
//! last panel (n not a multiple of NR) splits into 8-, 4-, 2- and 1-wide
//! panels, one per set bit of its width, and the m mod MR last rows run
//! one-row tiles: no edge falls back to a scalar loop, and no padding
//! column is ever computed.
//!
//! **Paths.** One generic body is compiled three ways:
//!
//! | path | tile MR×NR | accumulators |
//! |---|---|---|
//! | portable | 2×8 | 8 SSE2 registers on baseline x86-64 |
//! | `avx2` | 4×8 | 8 YMM registers |
//! | `avx512f` | 4×16 | 8 ZMM registers |
//!
//! [`gemm_acc`] runs the widest path whose feature
//! `is_x86_feature_detected!` reports (std caches the answer); there is no
//! setting to choose one. The two vector paths are `#[target_feature]`
//! functions, and calling one is this crate's only `unsafe`: it happens
//! only after the CPU reported that path's feature. Under Miri and on
//! targets other than x86-64 the portable body runs.
//!
//! **Bit-identity contract.** Every `c[i][j]` starts from its value in C
//! and adds `a[i][k]·b[k][j]` for k ascending over the full K, each
//! product rounded before its add: no `mul_add`, no reassociation. That is
//! the order of [`gemm_naive`], so the two agree bit for bit, and every
//! sim↔rt bit-identity oracle and golden stands on it. A K longer than KC
//! stores the tile after one panel and reloads it for the next, which
//! keeps the order.
//!
//! **No FMA under `target_feature`.** A path only changes how many columns
//! one instruction covers; each column's sum is the same rounded multiply
//! and rounded add, k ascending, and splitting a ragged panel changes no
//! column's order. `avx512f` implies `fma`, so the fused instructions are
//! there to use, but nothing here asks for one: Rust never contracts a
//! multiply and an add into one fused operation on its own, because that
//! rounds once where the contract rounds twice. So every path is the naive
//! loop bit for bit, and the pins below check it on every path the host
//! has.
//!
//! **No zero skip.** Skipping `a[i][k] == 0.0` would change no bit:
//! adding ±0 to a finite sum leaves it unchanged, and a sum started from
//! +0 never becomes −0 under round-to-nearest, so for finite inputs and a
//! C without −0 entries (every caller accumulates into a C it zeroed) the
//! skip only costs a branch per element. The kernel runs every k, and
//! the naive loop, which never skips, is the exact reference.

use crate::matrix::Matrix;

/// Depth of one packed B panel (KC × NR f64).
const KC: usize = 256;
/// Panel length up to which the panel lives on the stack (512 B).
const SMALL: usize = 64;

/// One compilation of the kernel body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// 2×8 tiles in baseline instructions.
    Portable,
    /// 4×8 tiles under `avx2`.
    Avx2,
    /// 4×16 tiles under `avx512f`.
    Avx512,
}

/// Every path, narrowest first.
const PATHS: [Path; 3] = [Path::Portable, Path::Avx2, Path::Avx512];

impl Path {
    /// Whether this CPU has the path's feature.
    fn runs_here(self) -> bool {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        match self {
            Path::Portable => true,
            Path::Avx2 => is_x86_feature_detected!("avx2"),
            Path::Avx512 => is_x86_feature_detected!("avx512f"),
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            self == Path::Portable
        }
    }

    /// The widest path this CPU runs.
    fn widest() -> Path {
        PATHS
            .into_iter()
            .rfind(|path| path.runs_here())
            .unwrap_or(Path::Portable)
    }
}

/// `C += A · B`. Shapes: A is m×k, B is k×n, C is m×n.
pub fn gemm_acc(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    gemm_acc_on(Path::widest(), c, a, b);
}

/// [`gemm_acc`] on `path`, which this CPU must run.
#[allow(unsafe_code)]
fn gemm_acc_on(path: Path, c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), k, "inner dimensions disagree");
    assert_eq!((c.rows(), c.cols()), (m, n), "output shape disagrees");
    assert!(path.runs_here(), "this CPU lacks the {path:?} feature");
    let (ad, bd, cd) = (a.data(), b.data(), c.data_mut());
    match path {
        // SAFETY: the assert above saw the CPU report this path's feature.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Path::Avx512 => unsafe { kernel_avx512(cd, ad, bd, (k, n)) },
        // SAFETY: as above.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Path::Avx2 => unsafe { kernel_avx2(cd, ad, bd, (k, n)) },
        _ => kernel::<2, 8>(cd, ad, bd, (k, n)),
    }
}

/// The kernel body compiled with AVX-512F: 4×16 tiles.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
fn kernel_avx512(cd: &mut [f64], ad: &[f64], bd: &[f64], kn: (usize, usize)) {
    kernel::<4, 16>(cd, ad, bd, kn);
}

/// The kernel body compiled with AVX2: 4×8 tiles.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn kernel_avx2(cd: &mut [f64], ad: &[f64], bd: &[f64], kn: (usize, usize)) {
    kernel::<4, 8>(cd, ad, bd, kn);
}

/// `C += A · B` for row-major A (m×k), B (k×n) and C (m×n) in MR×NR
/// tiles. Everything below it is `#[inline(always)]`, so each caller
/// compiles the whole body under its own target features.
#[inline(always)]
fn kernel<const MR: usize, const NR: usize>(
    cd: &mut [f64],
    ad: &[f64],
    bd: &[f64],
    (k, n): (usize, usize),
) {
    // The ragged split below covers widths up to 15.
    const { assert!(NR.is_power_of_two() && NR <= 16) };
    // Small problems pack into a stack buffer, the rest into the heap.
    let len = k.min(KC) * n.min(NR);
    let (mut small, mut large) = ([0.0; SMALL], Vec::new());
    let panel: &mut [f64] = if len <= SMALL {
        &mut small
    } else {
        large.resize(len, 0.0);
        &mut large
    };
    let rest = n % NR;
    for j0 in (0..n - rest).step_by(NR) {
        column_panel::<MR, NR>(cd, ad, bd, (k, n), j0, panel);
    }
    // A ragged last panel runs one panel per set bit of its width.
    let mut j0 = n - rest;
    if rest & 8 != 0 {
        column_panel::<MR, 8>(cd, ad, bd, (k, n), j0, panel);
        j0 += 8;
    }
    if rest & 4 != 0 {
        column_panel::<MR, 4>(cd, ad, bd, (k, n), j0, panel);
        j0 += 4;
    }
    if rest & 2 != 0 {
        column_panel::<MR, 2>(cd, ad, bd, (k, n), j0, panel);
        j0 += 2;
    }
    if rest & 1 != 0 {
        column_panel::<MR, 1>(cd, ad, bd, (k, n), j0, panel);
    }
}

/// `C[.., j0..j0+W] += A · B[.., j0..j0+W]`: one packed KC-deep panel of
/// B at a time, each swept by every row of A, MR rows per tile and the
/// last m mod MR rows one at a time.
#[inline(always)]
fn column_panel<const MR: usize, const W: usize>(
    cd: &mut [f64],
    ad: &[f64],
    bd: &[f64],
    (k, n): (usize, usize),
    j0: usize,
    panel: &mut [f64],
) {
    for k0 in (0..k).step_by(KC) {
        let depth = k0..(k0 + KC).min(k);
        let (panel, _) = panel[..depth.len() * W].as_chunks_mut::<W>();
        for (row, kk) in panel.iter_mut().zip(depth.clone()) {
            row.copy_from_slice(&bd[kk * n + j0..kk * n + j0 + W]);
        }
        let mut c_rows = cd.chunks_exact_mut(MR * n);
        let mut a_rows = ad.chunks_exact(MR * k);
        for (c, a) in (&mut c_rows).zip(&mut a_rows) {
            tile::<MR, W>(c, a, (k, n), (j0, k0), panel);
        }
        let c_last = c_rows.into_remainder().chunks_exact_mut(n);
        for (c, a) in c_last.zip(a_rows.remainder().chunks_exact(k)) {
            tile::<1, W>(c, a, (k, n), (j0, k0), panel);
        }
    }
}

/// One register tile: for each of the R rows `c` (R×n, of C) and `a`
/// (R×k, of A) hold, `c[r][j0..j0+W] += a[r][k0..k0+K'] · panel`, where
/// the panel is K'×W.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    c: &mut [f64],
    a: &[f64],
    (k, n): (usize, usize),
    (j0, k0): (usize, usize),
    panel: &[[f64; W]],
) {
    let mut acc = [[0.0; W]; R];
    let mut rows: [&[f64]; R] = [&[]; R];
    for r in 0..R {
        acc[r].copy_from_slice(&c[r * n + j0..][..W]);
        // Slicing to the panel's length lets the index checks below fold
        // away.
        rows[r] = &a[r * k + k0..][..panel.len()];
    }
    for kk in 0..panel.len() {
        for r in 0..R {
            let x = rows[r][kk];
            for j in 0..W {
                acc[r][j] += x * panel[kk][j];
            }
        }
    }
    for r in 0..R {
        c[r * n + j0..][..W].copy_from_slice(&acc[r]);
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
        // The 4-row tiles' leftover rows (m mod 4 = 1, 2, 3), ragged
        // 16-wide panels splitting 8+4+2+1 (n mod 16 = 15) and 8+1 (9),
        // and K past KC with a ragged last block.
        (5, 513, 31),
        (3, 257, 47),
        (259, 300, 17),
        (6, 1, 15),
        (7, 40, 25),
        (10, 520, 41),
    ];

    /// Miri runs only the small shapes: it runs only the portable body,
    /// which has no `unsafe` for it to check, and the large ones would
    /// take it hours.
    fn too_big_for_miri(m: usize, k: usize, n: usize) -> bool {
        cfg!(miri) && m * k * n > 20_000
    }

    /// The kernel paths this CPU supports, narrowest first.
    fn host_paths() -> Vec<Path> {
        PATHS.into_iter().filter(|path| path.runs_here()).collect()
    }

    #[test]
    fn every_reported_feature_has_its_path() {
        let paths = host_paths();
        assert_eq!(paths.first(), Some(&Path::Portable));
        assert_eq!(paths.last(), Some(&Path::widest()));
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
            assert_eq!(paths.contains(&Path::Avx2), avx2, "{paths:?}");
            assert_eq!(paths.contains(&Path::Avx512), avx512, "{paths:?}");
        }
    }

    #[test]
    fn gemm_is_bitwise_naive_on_the_pin_grid() {
        for path in host_paths() {
            for (idx, &(m, k, n)) in PIN_SHAPES.iter().enumerate() {
                if too_big_for_miri(m, k, n) {
                    continue;
                }
                let seed = 2 * idx as u64 + 1;
                let a = planted(m, k, seed, Some(m / 2));
                let b = planted(k, n, seed + 100, None);
                let mut c = Matrix::zeros(m, n);
                gemm_acc_on(path, &mut c, &a, &b);
                assert_bitwise_eq(&c, &gemm_naive(&a, &b), &format!("{path:?} {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn two_stage_accumulation_is_bitwise_stagewise() {
        // SUMMA and COSMA accumulate one C over stages; each stage adds
        // its own k-ascending products onto what the previous left.
        for path in host_paths() {
            for &(m, k1, k2, n) in &[(37, 300, 70, 19), (16, 16, 16, 16), (9, 1, 513, 23)] {
                if too_big_for_miri(m, k1 + k2, n) {
                    continue;
                }
                let (a1, b1) = (planted(m, k1, 3, Some(0)), planted(k1, n, 5, None));
                let (a2, b2) = (planted(m, k2, 7, None), planted(k2, n, 9, None));
                let mut c = Matrix::zeros(m, n);
                gemm_acc_on(path, &mut c, &a1, &b1);
                gemm_acc_on(path, &mut c, &a2, &b2);
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
                let what = format!("{path:?} {m}x({k1}+{k2})x{n}");
                assert_bitwise_eq(&c, &want, &what);
            }
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
