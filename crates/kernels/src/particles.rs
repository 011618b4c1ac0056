//! Force-decomposition molecular dynamics — the paper's other future-work
//! direction (§VI): *"In distributed particle simulations, the forces
//! between a set of particles can be arranged in a matrix that is
//! partitioned using a 2D partitioning. This leads to algorithms that use
//! collective communication along processor rows and columns of a
//! processor mesh."* (Plimpton's force decomposition.)
//!
//! Rank (i, j) of a p×p mesh owns the force block F(i, j) between particle
//! groups i and j. One step:
//!
//! 1. every rank computes its partial forces F(i,j) from the positions of
//!    groups i and j;
//! 2. **row reduction**: Σ_j F(i,j) → the total force on group i, reduced
//!    to the diagonal rank (i, i);
//! 3. the diagonal integrates its group's positions;
//! 4. **column broadcast**: new positions of group j flow down P(:, j)
//!    (the diagonal (j, j) is the root).
//!
//! Steps 2 and 4 are exactly the reduce→broadcast pair of Algorithm 2, so
//! the overlapped variant pipelines them with
//! [`ovcomm_core::pipelined_reduce_bcast`] — communication overlapped with
//! communication in an N-body code.

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{pipelined_reduce_bcast, NDupComms};
use ovcomm_simmpi::{Payload, RankCtx, Transport};

use crate::matvec::VecBuf;
use crate::mesh::Mesh2D;
use ovcomm_densemat::Partition1D;

/// Configuration of a force-decomposition run.
#[derive(Debug, Clone, Copy)]
pub struct MdConfig {
    /// Total particles (one coordinate per particle; a 1-D toy system keeps
    /// the physics trivial while the communication is the real thing).
    pub n_particles: usize,
    /// Integration steps.
    pub steps: usize,
    /// Time step.
    pub dt: f64,
    /// Overlap the reduction with the broadcast (Algorithm 2 style) or run
    /// them as sequential blocking collectives.
    pub overlap: Option<usize>,
    /// Interaction cutoff: average neighbours per particle used to *model*
    /// the force-computation time (real MD is never all-pairs). `None`
    /// charges the full O(n²/p²) block — only sensible at test scale, where
    /// the real arithmetic is also all-pairs.
    pub neighbors: Option<usize>,
}

/// Per-rank state of the mini MD system.
pub struct MdState {
    /// Positions of my column group (replicated down the column).
    pub x: VecBuf,
    /// Velocities (diagonal ranks only; `None` elsewhere).
    pub v: Option<Vec<f64>>,
}

/// Pairwise force between two particles at positions a and b: a softened
/// spring toward separation 1 (toy physics; O(n²) like real all-pairs MD).
fn pair_force(a: f64, b: f64) -> f64 {
    let d = a - b;
    let r = d.abs().max(1e-3);
    // Repulsive below distance 1, attractive above: f = (r - 1)/r * (-d)
    -(r - 1.0) / r * d
}

/// Initialize the distributed system: rank (i, j) gets group j's positions.
pub fn md_init<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    cfg: &MdConfig,
    phantom: bool,
) -> MdState {
    let part = Partition1D::new(cfg.n_particles, mesh.p);
    let (s, l) = part.range(mesh.j);
    if phantom {
        MdState {
            x: VecBuf::Phantom(l),
            v: (mesh.i == mesh.j).then(Vec::new),
        }
    } else {
        let x: Vec<f64> = (s..s + l).map(|t| t as f64 * 1.05).collect();
        let _ = rc;
        MdState {
            x: VecBuf::Real(x),
            v: (mesh.i == mesh.j).then(|| vec![0.0; l]),
        }
    }
}

/// Run `cfg.steps` force-decomposition steps; returns the final state.
pub fn md_run<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    cfg: &MdConfig,
    mut state: MdState,
) -> MdState {
    let part = Partition1D::new(cfg.n_particles, mesh.p);
    let (i, j) = (mesh.i, mesh.j);
    let li = part.len(i);
    let lj = part.len(j);
    // Positions of my row group (group i), needed to compute F(i, j):
    // maintained by a row broadcast from the diagonal at each step; the
    // initial copy comes from the same broadcast with the diagonal's x.
    let bundles = cfg
        .overlap
        .map(|d| (NDupComms::new(&mesh.row, d), NDupComms::new(&mesh.col, d)));

    // Initial row-group positions (diagonal owns group i — note for rank
    // (i, j), the row group index is i, held by (i, i) in this row).
    let mut xi = {
        let data = (i == j).then(|| state.x.to_payload());
        let p = mesh.row.bcast(i, data, li * 8);
        VecBuf::from_payload(&p)
    };

    let rate = rc.profile().process_flops(rc.compute_ppn(), li.max(1)) * 0.1;
    for _step in 0..cfg.steps {
        // 1. Partial forces on group i from group j: O(li·lj) pair work.
        let partial: VecBuf = match (&xi, &state.x) {
            (VecBuf::Real(xa), VecBuf::Real(xb)) => {
                let mut f = vec![0.0; li];
                for (a, fa) in f.iter_mut().enumerate() {
                    for (b, &xbv) in xb.iter().enumerate().take(lj) {
                        // Skip self-interaction on diagonal blocks.
                        if i == j && a == b {
                            continue;
                        }
                        *fa += pair_force(xa[a], xbv);
                    }
                }
                VecBuf::Real(f)
            }
            _ => VecBuf::Phantom(li),
        };
        let pair_cost = cfg.neighbors.map_or(lj, |k| k.min(lj));
        rc.compute_flops(8.0 * li as f64 * pair_cost as f64, rate);

        // 2+4. Reduce partial forces along the row to the diagonal; the
        // diagonal integrates and broadcasts the new positions down the
        // column — pipelined when overlap is on.
        let new_x_payload = match &bundles {
            Some((row_ndup, col_ndup)) => {
                // Overlapped: forces reduce chunk-by-chunk into the
                // diagonal, which must integrate before broadcasting; the
                // integration is folded into the pipeline by reducing
                // *velocity updates*: for the toy integrator
                // x' = x + dt·(v + dt·f) each chunk of f maps to a chunk of
                // x' locally on the diagonal.
                pipelined_reduce_bcast_with_integrate(
                    rc, mesh, row_ndup, col_ndup, &partial, &mut state, cfg.dt, lj,
                )
            }
            None => {
                let reduced = mesh.row.reduce(i, partial.to_payload());
                let data = (i == j).then(|| {
                    integrate(&mut state, &VecBuf::from_payload(&reduced.unwrap()), cfg.dt)
                        .to_payload()
                });
                mesh.col.bcast(j, data, lj * 8)
            }
        };
        state.x = VecBuf::from_payload(&new_x_payload);
        // My row group's new positions for the next step's force block.
        let data = (i == j).then(|| state.x.to_payload());
        let p = mesh.row.bcast(i, data, li * 8);
        xi = VecBuf::from_payload(&p);
    }
    state
}

/// Diagonal-rank integration: v += dt·f; x += dt·v.
fn integrate(state: &mut MdState, force: &VecBuf, dt: f64) -> VecBuf {
    match (&mut state.x, force) {
        (VecBuf::Real(x), VecBuf::Real(f)) => {
            let v = state.v.as_mut().expect("diagonal holds velocities");
            for ((xv, vv), fv) in x.iter_mut().zip(v.iter_mut()).zip(f) {
                *vv += dt * fv;
                *xv += dt * *vv;
            }
            VecBuf::Real(x.clone())
        }
        (VecBuf::Phantom(n), _) => VecBuf::Phantom(*n),
        _ => panic!("mixed real/phantom MD state"),
    }
}

/// The overlapped reduce→integrate→broadcast: the diagonal consumes reduced
/// force chunks as they land and immediately broadcasts the corresponding
/// position chunk. Non-diagonal ranks run the plain pipelined pattern.
#[allow(clippy::too_many_arguments)]
fn pipelined_reduce_bcast_with_integrate<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    row_ndup: &NDupComms<T>,
    col_ndup: &NDupComms<T>,
    partial: &VecBuf,
    state: &mut MdState,
    dt: f64,
    lj: usize,
) -> Payload {
    let (i, j) = (mesh.i, mesh.j);
    if i == j {
        // Integrate the full reduced force, then pipeline the broadcast.
        // (Integration is cheap — O(n/p) — so folding it per-chunk buys
        // little; the transfer overlap is what matters.)
        let reduced = ovcomm_core::overlapped_reduce(row_ndup, i, &partial.to_payload())
            .expect("diagonal is the reduce root");
        let _ = rc;
        let new_x = integrate(state, &VecBuf::from_payload(&reduced), dt);
        ovcomm_core::overlapped_bcast(col_ndup, j, Some(&new_x.to_payload()), lj * 8)
    } else {
        // Contribute force chunks; receive position chunks.
        pipelined_reduce_bcast(row_ndup, i, col_ndup, j, &partial.to_payload(), lj * 8)
    }
}
