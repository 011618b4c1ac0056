//! COSMA-style communication-optimal multiply over one-sided windows.
//!
//! COSMA (Kwasniewski et al., SC'19) derives a communication-optimal
//! schedule in which every processor *fetches* exactly the operand blocks
//! its local multiplications need — a one-sided, origin-driven access
//! pattern — instead of participating in the broadcast trees of SUMMA.
//! This module reproduces that access pattern on the paper's p×p mesh:
//! each rank exposes its A and B blocks in RMA windows and, at step l,
//! one-sidedly **gets** `A(i,l)` and `B(l,j)` from their owners. The
//! target rank does nothing — no receive posts, no broadcast forwarding —
//! so the paper's overlap question becomes purely origin-side: the kernel
//! prefetches step l+1's blocks *before* blocking on step l's, and the
//! in-flight transfers overlap both the waits and the local GEMM.
//!
//! The whole loop is gets-only (C stays local; nothing is ever put or
//! accumulated), so it is conflict-free under the RMA verifier and needs
//! only one access epoch: fence once after window creation, get/compute
//! for p steps, fence once to close. Gets read committed (epoch-stable)
//! segment state on both backends, and the local accumulation order is
//! fixed by the loop, so results are **bit-identical** between the
//! simulator and the wall-clock runtime — the `rma-smoke` CI job pins
//! this.

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// pipeline-priming and mesh bookkeeping guaranteed by the surrounding
// protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_simmpi::{RankCtx, Transport};

use crate::convert::{block_to_payload, payload_view};
use crate::mesh::Mesh2D;
use crate::symm3d::{local_multiply, SymmInput, SymmOutput};

/// Distributed `C = A·B` with one-sided COSMA-style fetching. `a` and `b`
/// are this rank's blocks (the (i,j) blocks of the operands); returns this
/// rank's block of C.
///
/// Creates one window per operand over the mesh's world communicator
/// (collective), runs a single fence-delimited access epoch of p
/// get/compute steps with one step of prefetch lookahead, and frees the
/// windows before returning.
pub fn cosma_multiply<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    grid: &BlockGrid,
    a: &BlockBuf,
    b: &BlockBuf,
    rate: f64,
) -> BlockBuf {
    let p = mesh.p;
    let (i, j) = (mesh.i, mesh.j);
    let (li, lj) = grid.block_dims(i, j);
    assert_eq!(a.dims(), (li, lj), "A block shape");
    assert_eq!(b.dims(), (li, lj), "B block shape");
    let phantom = a.is_phantom();
    let mut c = BlockBuf::zeros(li, lj, phantom);

    // Every rank exposes its blocks; window rank == world-comm rank
    // (= i·p + j on the mesh).
    let win_a = mesh.world.win_create(block_to_payload(a));
    let win_b = mesh.world.win_create(block_to_payload(b));
    // Open the (single) access epoch.
    win_a.fence();
    win_b.fence();

    // Post the one-sided fetches of step l: A(i,l) from the column-l
    // owner of row i, B(l,j) from the row-l owner of column j.
    let post = |l: usize| {
        let ra = win_a.get(i * p + l, 0, grid.block_bytes(i, l));
        let rb = win_b.get(l * p + j, 0, grid.block_bytes(l, j));
        (ra, rb)
    };

    let mut inflight = Some(post(0));
    for l in 0..p {
        let t_step = rc.now();
        let (ra, rb) = inflight.take().expect("pipeline primed");
        // Prefetch step l+1 before blocking on step l: the in-flight
        // gets overlap both the waits and the GEMM below.
        if l + 1 < p {
            inflight = Some(post(l + 1));
        }
        let a_panel = win_a.wait(&ra);
        let (ra2, ca2) = grid.block_dims(i, l);
        let b_panel = win_b.wait(&rb);
        let (rb2, cb2) = grid.block_dims(l, j);
        local_multiply(
            rc,
            &mut c,
            payload_view(&a_panel, ra2, ca2),
            payload_view(&b_panel, rb2, cb2),
            rate,
        );
        rc.phase_span(t_step, format!("cosma step {l}"));
    }

    // Close the epoch and tear down (both collective).
    win_a.fence();
    win_b.fence();
    win_a.free();
    win_b.free();
    c
}

/// SymmSquareCube over the one-sided multiply: D² = D·D then D³ = D·D² on
/// a p×p mesh — the one-sided counterpart of `symm_square_cube_summa`,
/// for like-for-like comparison in the figs12/table5 harnesses.
pub fn symm_square_cube_cosma<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    input: &SymmInput,
) -> SymmOutput {
    let grid = BlockGrid::new(input.n, mesh.p);
    let d = input
        .d_block
        .as_ref()
        .expect("every rank of the 2-D mesh holds a D block");
    assert_eq!(d.dims(), grid.block_dims(mesh.i, mesh.j));
    let block_dim = grid.n().div_ceil(grid.p()).max(1);
    let rate = rc.profile().process_flops(rc.compute_ppn(), block_dim);

    let t_d2 = rc.now();
    let d2 = cosma_multiply(rc, mesh, &grid, d, d, rate);
    rc.phase_span(t_d2, "cosma D2".to_string());
    let t_d3 = rc.now();
    let d3 = cosma_multiply(rc, mesh, &grid, d, &d2, rate);
    rc.phase_span(t_d3, "cosma D3".to_string());
    SymmOutput {
        d2: Some(d2),
        d3: Some(d3),
    }
}
