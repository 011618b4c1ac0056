//! SUMMA — the Scalable Universal Matrix Multiplication Algorithm (van de
//! Geijn & Watts), the most widely used 2-D algorithm and the paper's
//! related-work baseline (§II). Provided both as a standalone distributed
//! multiply and as a 2-D SymmSquareCube variant, with the panel broadcasts
//! optionally self-overlapped using the nonblocking-overlap technique.
//!
//! For an N×N matrix in p×p blocks on a p×p mesh, SUMMA performs p
//! outer-product steps: at step l, column-l owners broadcast their A block
//! along their row, row-l owners broadcast their B block down their
//! column, and every rank accumulates `C(i,j) += A(i,l)·B(l,j)`. The 2-D
//! communication volume is `O(N²/√P)` per rank versus `O(N²/P^(2/3))` for
//! the 3-D algorithm — the bench harness's mesh-ablation binary shows this
//! crossover.

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{overlapped_bcast, NDupComms};
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_simmpi::{RankCtx, SimTransport, Transport};

use crate::convert::{block_to_payload, payload_view};
use crate::mesh::Mesh2D;
use crate::symm3d::{local_multiply, SymmInput, SymmOutput};

/// N_DUP bundles for SUMMA's row and column panel broadcasts.
pub struct SummaBundles<T: Transport = SimTransport> {
    /// Duplicates of the row communicator.
    pub row: NDupComms<T>,
    /// Duplicates of the column communicator.
    pub col: NDupComms<T>,
}

impl<T: Transport> SummaBundles<T> {
    /// Build from a mesh with the given N_DUP.
    pub fn new(mesh: &Mesh2D<T>, n_dup: usize) -> SummaBundles<T> {
        SummaBundles {
            row: NDupComms::new(&mesh.row, n_dup),
            col: NDupComms::new(&mesh.col, n_dup),
        }
    }
}

/// Distributed `C = A·B` with SUMMA. `a` and `b` are this rank's blocks
/// (the (i,j) blocks of the operands); returns this rank's block of C.
/// Panel broadcasts are overlapped with themselves via the bundles.
pub fn summa_multiply<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    grid: &BlockGrid,
    bundles: &SummaBundles<T>,
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

    for l in 0..p {
        let t_step = rc.now();
        // A(i,l) travels along row i from the column-l owner.
        let a_payload = (j == l).then(|| block_to_payload(a));
        let a_panel = overlapped_bcast(&bundles.row, l, a_payload.as_ref(), grid.block_bytes(i, l));
        let (ra, ca) = grid.block_dims(i, l);

        // B(l,j) travels down column j from the row-l owner.
        let b_payload = (i == l).then(|| block_to_payload(b));
        let b_panel = overlapped_bcast(&bundles.col, l, b_payload.as_ref(), grid.block_bytes(l, j));
        let (rb, cb) = grid.block_dims(l, j);

        local_multiply(
            rc,
            &mut c,
            payload_view(&a_panel, ra, ca),
            payload_view(&b_panel, rb, cb),
            rate,
        );
        rc.phase_span(t_step, format!("summa step {l}"));
    }
    c
}

/// Distributed `C = A·B` with *pipelined* SUMMA: step l+1's panel
/// broadcasts are posted before step l's local multiplication, so panel
/// transfers overlap both the compute and each other (double buffering —
/// the classic SUMMA pipelining, expressed with nonblocking collectives).
/// Communication-wise each panel uses a single ibcast per communicator of
/// the bundle round-robin, so successive panels travel on different
/// contexts and genuinely overlap.
pub fn summa_multiply_pipelined<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    grid: &BlockGrid,
    bundles: &SummaBundles<T>,
    a: &BlockBuf,
    b: &BlockBuf,
    rate: f64,
) -> BlockBuf {
    let p = mesh.p;
    let n_dup = bundles.row.n_dup();
    let (i, j) = (mesh.i, mesh.j);
    let (li, lj) = grid.block_dims(i, j);
    assert_eq!(a.dims(), (li, lj), "A block shape");
    assert_eq!(b.dims(), (li, lj), "B block shape");
    let phantom = a.is_phantom();
    let mut c = BlockBuf::zeros(li, lj, phantom);

    // Post the panel broadcasts of step l on communicator l % n_dup.
    let post = |l: usize| {
        let a_payload = (j == l).then(|| block_to_payload(a));
        let ra = bundles
            .row
            .comm(l % n_dup)
            .ibcast(l, a_payload, grid.block_bytes(i, l));
        let b_payload = (i == l).then(|| block_to_payload(b));
        let rb = bundles
            .col
            .comm(l % n_dup)
            .ibcast(l, b_payload, grid.block_bytes(l, j));
        (ra, rb)
    };

    // Prime the pipeline with up to n_dup outstanding panel pairs.
    let depth = n_dup.min(p);
    let mut inflight: std::collections::VecDeque<_> = (0..depth).map(post).collect();
    for l in 0..p {
        let t_step = rc.now();
        let (ra, rb) = inflight.pop_front().expect("pipeline primed");
        let a_panel = bundles.row.comm(l % n_dup).wait(&ra);
        let (rra, cca) = grid.block_dims(i, l);
        let b_panel = bundles.col.comm(l % n_dup).wait(&rb);
        let (rrb, ccb) = grid.block_dims(l, j);
        // Keep the pipeline full while computing.
        if l + depth < p {
            inflight.push_back(post(l + depth));
        }
        local_multiply(
            rc,
            &mut c,
            payload_view(&a_panel, rra, cca),
            payload_view(&b_panel, rrb, ccb),
            rate,
        );
        rc.phase_span(t_step, format!("summa step {l}"));
    }
    c
}

/// SymmSquareCube over SUMMA: two multiplications on a p×p mesh (p² ranks —
/// the 2-D point of the mesh-dimensionality ablation).
pub fn symm_square_cube_summa<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    bundles: &SummaBundles<T>,
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
    let d2 = summa_multiply(rc, mesh, &grid, bundles, d, d, rate);
    rc.phase_span(t_d2, "summa D2".to_string());
    let t_d3 = rc.now();
    let d3 = summa_multiply(rc, mesh, &grid, bundles, d, &d2, rate);
    rc.phase_span(t_d3, "summa D3".to_string());
    SymmOutput {
        d2: Some(d2),
        d3: Some(d3),
    }
}
