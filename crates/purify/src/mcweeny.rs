//! McWeeny purification — the classic variant the paper's iteration
//! formula quotes directly (§I): `D_{k+1} = 3D_k² − 2D_k³`.
//!
//! Unlike canonical purification, McWeeny's iteration does not conserve the
//! trace: it drives every eigenvalue in (½, 1] to 1 and every eigenvalue in
//! [0, ½) to 0. The initial iterate must therefore already separate
//! occupied from virtual states across ½, which requires the chemical
//! potential μ: `D₀ = (μI − F) / (2λ) + ½I` scaled so the spectrum lies in
//! [0, 1]. Every iteration is one SymmSquareCube call — the same kernel,
//! the same overlap techniques.

use ovcomm_densemat::Matrix;
use ovcomm_simmpi::{RankCtx, Transport};

use crate::canonical::{KernelChoice, PurifyConfig, PurifyResult};

/// Build the McWeeny initial iterate from the Hamiltonian and the chemical
/// potential μ (any value strictly inside the HOMO–LUMO gap): eigenvalues
/// below μ map above ½, eigenvalues above μ map below ½, all within [0, 1].
pub fn mcweeny_initial(h: &Matrix, mu: f64) -> Matrix {
    let (emin, emax) = ovcomm_densemat::gershgorin_bounds(h);
    // λ bounds the half-spectrum width so (μ − λ, μ + λ) covers it.
    let lambda = (emax - mu).max(mu - emin).max(1e-12);
    let n = h.rows();
    let mut d0 = h.clone();
    d0.scale(-0.5 / lambda);
    d0.shift_diag(0.5 * mu / lambda + 0.5);
    debug_assert_eq!(d0.rows(), n);
    d0
}

/// Run McWeeny purification: iterate `D ← 3D² − 2D³` until `tr(D − D²)`
/// falls below tolerance. Same calling convention as
/// [`crate::purify_rank`], plus the chemical potential. Phantom runs
/// execute exactly `max_iter` iterations.
pub fn mcweeny_rank<T: Transport>(
    rc: &RankCtx<T>,
    cfg: &PurifyConfig,
    mu: f64,
    choice: KernelChoice,
) -> PurifyResult {
    crate::canonical::purify_loop(
        rc,
        cfg,
        choice,
        move |h, _cfg| mcweeny_initial(h, mu),
        |dm, d2m, d3m, _sums| {
            // D ← 3D² − 2D³.
            let mut next = Matrix::zeros(dm.rows(), dm.cols());
            next.axpy(3.0, d2m);
            next.axpy(-2.0, d3m);
            let _ = dm;
            Some(next)
        },
    )
}
