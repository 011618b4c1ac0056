//! Block conjugate gradients with overlapped reductions — the paper's
//! stated future work (§VI): *"We also plan to investigate the use of
//! overlapping communications in block iterative linear solvers, where
//! reductions (vector norms and dot products) involving large numbers of
//! nodes are the bottleneck."*
//!
//! The solver runs on the 2-D mesh distribution of [`crate::matvec`]: the
//! SPD operator A lives in p×p blocks, and every n×s multivector is stored
//! as segment `j` replicated down column `P(:, j)`. Each iteration needs
//! one distributed matvec and three s×s Gram reductions; two of those
//! Grams (PᵀAP and RᵀR) are computable at the same moment, so the
//! overlapped variant issues them as concurrent nonblocking
//! allreduce+broadcast pairs on duplicated communicators — communication
//! overlapped with communication, exactly the paper's idea applied to a
//! solver.

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_densemat::{gemm, gemm_flops, solve, BlockBuf, BlockGrid, MatRef, Matrix, Partition1D};
use ovcomm_simmpi::{Payload, RankCtx, Request, SimTransport, Transport};

use ovcomm_core::{pipelined_reduce_bcast, NDupComms};

use crate::convert::{block_into_payload, payload_into_block};
use crate::mesh::Mesh2D;

/// Configuration of a block-CG solve.
#[derive(Debug, Clone, Copy)]
pub struct BlockCgConfig {
    /// System dimension N.
    pub n: usize,
    /// Block width s (number of right-hand sides).
    pub s: usize,
    /// Convergence threshold on ‖R‖_F / ‖B‖_F.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Overlap the simultaneous Gram reductions (the paper's technique) or
    /// run them as sequential blocking collectives (the baseline).
    pub overlap: bool,
}

/// Result on each rank.
pub struct BlockCgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative residual dropped below tolerance.
    pub converged: bool,
    /// Final relative residual.
    pub rel_residual: f64,
    /// This rank's segment X_j of the solution (lj × s).
    pub x_segment: BlockBuf,
}

/// Per-mesh communicators for the solver.
pub struct CgComms<T: Transport = SimTransport> {
    row_ndup: NDupComms<T>,
    col_ndup: NDupComms<T>,
    /// Two independent duplicated bundles for the concurrent Gram pairs.
    gram_row: [NDupComms<T>; 2],
    gram_col: [NDupComms<T>; 2],
}

impl<T: Transport> CgComms<T> {
    /// Build from a mesh (collective over all mesh ranks).
    pub fn new(mesh: &Mesh2D<T>, n_dup: usize) -> CgComms<T> {
        CgComms {
            row_ndup: NDupComms::new(&mesh.row, n_dup),
            col_ndup: NDupComms::new(&mesh.col, n_dup),
            gram_row: [NDupComms::new(&mesh.row, 1), NDupComms::new(&mesh.row, 1)],
            gram_col: [NDupComms::new(&mesh.col, 1), NDupComms::new(&mesh.col, 1)],
        }
    }
}

/// Multivector segment ops (real or phantom), charging modeled time.
fn mv_gemm<T: Transport>(rc: &RankCtx<T>, a: &BlockBuf, b: &BlockBuf, rate: f64) -> BlockBuf {
    let (m, k) = a.dims();
    let (k2, n) = b.dims();
    assert_eq!(k, k2);
    let mut c = BlockBuf::zeros(m, n, a.is_phantom());
    c.gemm_acc(a, b);
    rc.compute_flops(gemm_flops(m, k, n), rate);
    c
}

/// `x + y·scale` elementwise on segments.
fn mv_add_scaled(x: &BlockBuf, y: &BlockBuf, scale: f64) -> BlockBuf {
    match (x, y) {
        (BlockBuf::Real(xm), BlockBuf::Real(ym)) => {
            let mut out = xm.clone();
            out.axpy(scale, ym);
            BlockBuf::Real(out)
        }
        (BlockBuf::Phantom(r, c), BlockBuf::Phantom(..)) => BlockBuf::Phantom(*r, *c),
        _ => panic!("cannot mix real and phantom multivectors"),
    }
}

/// Local Gram contribution `VᵀW` for the segments (s×s payload).
fn local_gram<T: Transport>(rc: &RankCtx<T>, v: &BlockBuf, w: &BlockBuf, rate: f64) -> Payload {
    let (l, s) = v.dims();
    assert_eq!(w.dims(), (l, s));
    rc.compute_flops(gemm_flops(s, l, s), rate);
    match (v, w) {
        (BlockBuf::Real(vm), BlockBuf::Real(wm)) => {
            let g = gemm(MatRef::from(vm).t(), wm);
            Payload::from_f64_vec(g.into_vec())
        }
        (BlockBuf::Phantom(..), BlockBuf::Phantom(..)) => Payload::Phantom(s * s * 8),
        _ => panic!("cannot mix real and phantom multivectors"),
    }
}

/// Distributed matvec `Y = A·V` (multivector form of Algorithm 2's
/// pipelined reduce→broadcast).
#[allow(clippy::too_many_arguments)]
fn apply_a<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    comms: &CgComms<T>,
    a: &BlockBuf,
    v: &BlockBuf,
    rate: f64,
    s: usize,
    part: &Partition1D,
) -> BlockBuf {
    let y_part = mv_gemm(rc, a, v, rate);
    let out = pipelined_reduce_bcast(
        &comms.row_ndup,
        mesh.i,
        &comms.col_ndup,
        mesh.j,
        &block_into_payload(y_part),
        part.len(mesh.j) * s * 8,
    );
    payload_into_block(out, part.len(mesh.j), s)
}

/// Gram matrices `VᵀW`, reduced over row 0 and broadcast down the columns.
/// With `overlap` all chains run concurrently on independent communicators
/// (nonblocking reduce → row broadcast → column broadcast, pipelined);
/// otherwise each Gram runs as sequential blocking collectives. At most
/// two pairs (one per independent communicator set).
fn grams<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    comms: &CgComms<T>,
    pairs: &[(&BlockBuf, &BlockBuf)],
    rate: f64,
    s: usize,
    overlap: bool,
) -> Vec<Payload> {
    assert!(
        pairs.len() <= 2,
        "two independent communicator sets available"
    );
    let on_row0 = mesh.i == 0;
    let bytes = s * s * 8;
    if overlap {
        // Post all reductions on row 0 first — they progress concurrently.
        let red_reqs: Vec<Option<Request<Option<Payload>>>> = pairs
            .iter()
            .enumerate()
            .map(|(idx, (v, w))| {
                on_row0.then(|| {
                    let local = local_gram(rc, v, w, rate);
                    comms.gram_row[idx].comm(0).ireduce(0, local)
                })
            })
            .collect();
        // As each reduction lands on (0,0), pipe it into the row broadcast.
        let mut row_bcasts: Vec<Request<Payload>> = Vec::new();
        if on_row0 {
            for (idx, red_req) in red_reqs.iter().enumerate() {
                let red = comms.gram_row[idx].comm(0).wait(red_req.as_ref().unwrap());
                let data = (mesh.j == 0).then(|| red.expect("rank (0,0) holds the gram"));
                row_bcasts.push(comms.gram_row[idx].comm(0).ibcast(0, data, bytes));
            }
        }
        // Post every column broadcast before waiting on any of them.
        let col_reqs: Vec<Request<Payload>> = (0..pairs.len())
            .map(|idx| {
                let from_row0 = on_row0.then(|| comms.gram_row[idx].comm(0).wait(&row_bcasts[idx]));
                comms.gram_col[idx].comm(0).ibcast(0, from_row0, bytes)
            })
            .collect();
        col_reqs
            .iter()
            .enumerate()
            .map(|(idx, r)| comms.gram_col[idx].comm(0).wait(r))
            .collect()
    } else {
        pairs
            .iter()
            .enumerate()
            .map(|(idx, (v, w))| {
                let g = if on_row0 {
                    let local = local_gram(rc, v, w, rate);
                    let red = comms.gram_row[idx].comm(0).reduce(0, local);
                    let data = (mesh.j == 0).then(|| red.expect("rank (0,0) holds the gram"));
                    Some(comms.gram_row[idx].comm(0).bcast(0, data, bytes))
                } else {
                    None
                };
                comms.gram_col[idx].comm(0).bcast(0, g, bytes)
            })
            .collect()
    }
}

fn payload_to_small(p: &Payload, s: usize) -> Matrix {
    Matrix::from_vec(s, s, p.to_f64s())
}

/// Run block CG on this rank. `a_block` is A(i,j); `b_segment` is B_j
/// (lj × s). Returns the converged X_j.
pub fn block_cg<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    comms: &CgComms<T>,
    cfg: &BlockCgConfig,
    a_block: &BlockBuf,
    b_segment: &BlockBuf,
) -> BlockCgResult {
    let part = Partition1D::new(cfg.n, mesh.p);
    let grid = BlockGrid::new(cfg.n, mesh.p);
    assert_eq!(a_block.dims(), grid.block_dims(mesh.i, mesh.j));
    assert_eq!(b_segment.dims(), (part.len(mesh.j), cfg.s));
    let phantom = a_block.is_phantom();
    let rate = rc
        .profile()
        .process_flops(rc.compute_ppn(), grid.n().div_ceil(grid.p()).max(1))
        * 0.25;

    let mut x = BlockBuf::zeros(part.len(mesh.j), cfg.s, phantom);
    let mut r = b_segment.clone();
    let mut p_dir = r.clone();
    // ‖B‖_F for the relative residual.
    let g_b = grams(rc, mesh, comms, &[(&r, &r)], rate, cfg.s, false);
    let norm_b = if phantom {
        1.0
    } else {
        payload_to_small(&g_b[0], cfg.s).trace().sqrt()
    };

    let mut iterations = 0;
    let mut converged = false;
    let mut rel = f64::NAN;
    while iterations < cfg.max_iter {
        let ap = apply_a(rc, mesh, comms, a_block, &p_dir, rate, cfg.s, &part);
        // PᵀAP and RᵀR are both computable now: the overlapped pair.
        let gs = grams(
            rc,
            mesh,
            comms,
            &[(&p_dir, &ap), (&r, &r)],
            rate,
            cfg.s,
            cfg.overlap,
        );
        let (g_pap, g_rr) = (gs[0].clone(), gs[1].clone());
        iterations += 1;
        if phantom {
            // Fixed-length timing run.
            let alpha_cost = gemm_flops(cfg.s, cfg.s, cfg.s);
            rc.compute_flops(2.0 * alpha_cost, rate);
            x = mv_add_scaled(&x, &p_dir, 1.0);
            r = mv_add_scaled(&r, &ap, -1.0);
            p_dir = r.clone();
            continue;
        }
        let g_pap_m = payload_to_small(&g_pap, cfg.s);
        let g_rr_m = payload_to_small(&g_rr, cfg.s);
        rel = g_rr_m.trace().sqrt() / norm_b;
        if rel < cfg.tol {
            converged = true;
            break;
        }
        let alpha = solve(&g_pap_m, &g_rr_m);
        // X += P·alpha ; R -= AP·alpha
        let p_alpha = mv_gemm(rc, &p_dir, &BlockBuf::Real(alpha.clone()), rate);
        x = mv_add_scaled(&x, &p_alpha, 1.0);
        let ap_alpha = mv_gemm(rc, &ap, &BlockBuf::Real(alpha), rate);
        r = mv_add_scaled(&r, &ap_alpha, -1.0);
        // Third reduction: the new RᵀR for beta.
        let g_rr_new = grams(rc, mesh, comms, &[(&r, &r)], rate, cfg.s, false);
        let g_rr_new_m = payload_to_small(&g_rr_new[0], cfg.s);
        let beta = solve(&g_rr_m, &g_rr_new_m);
        let p_beta = mv_gemm(rc, &p_dir, &BlockBuf::Real(beta), rate);
        p_dir = mv_add_scaled(&r, &p_beta, 1.0);
    }

    BlockCgResult {
        iterations,
        converged,
        rel_residual: if rel.is_nan() { 0.0 } else { rel },
        x_segment: x,
    }
}
