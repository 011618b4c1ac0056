//! SymmSquareCube over 2.5D matrix multiplication (Algorithm 6), built on
//! Cannon's algorithm as in Solomonik & Demmel, with the replication
//! factor `c` trading memory for communication.
//!
//! The process grid is q×q×c (P = q²·c ranks, `c | q`); matrix D lives in
//! q×q blocks on plane k = 0. Each plane k computes the `q/c` Cannon steps
//! starting at offset `k·q/c`; partial C blocks are combined across planes
//! with an allreduce (for D², which the next phase reuses as B) and a
//! reduce to plane 0 (for D³).
//!
//! Per §V-E, the collectives of steps 1, 3 and 5 are overlapped *with
//! themselves* using the nonblocking-overlap technique (there is no
//! opportunity to pipeline across different operations as in Algorithm 5).

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{overlapped_allreduce, overlapped_bcast, overlapped_reduce, NDupComms};
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_simmpi::{Comm, Payload, RankCtx, SimTransport, Transport};

use crate::convert::{block_to_payload, payload_to_block};
use crate::symm3d::{local_multiply, SymmInput, SymmOutput};

/// A q×q×c process grid with row/column/grid-fibre communicators.
pub struct Mesh25D<T: Transport = SimTransport> {
    /// Square grid dimension q.
    pub q: usize,
    /// Replication factor c (must divide q).
    pub c: usize,
    /// My coordinates (i, j, k); `rank = k·q² + i·q + j`.
    pub i: usize,
    /// Column coordinate.
    pub j: usize,
    /// Plane coordinate.
    pub k: usize,
    /// Over `P(i, :, k)` (A travels along rows) — my index is `j`.
    pub row: Comm<T>,
    /// Over `P(:, j, k)` (B travels along columns) — my index is `i`.
    pub col: Comm<T>,
    /// Over `P(i, j, :)` — my index is `k`.
    pub grd: Comm<T>,
    /// All ranks.
    pub world: Comm<T>,
}

impl<T: Transport> Mesh25D<T> {
    /// Build from the world communicator; requires `nranks == q²·c` and
    /// `c | q`.
    pub fn new(rc: &RankCtx<T>, q: usize, c: usize) -> Mesh25D<T> {
        Mesh25D::new_on(rc.world(), q, c)
    }

    /// Build over an arbitrary base communicator (e.g. the active subset of
    /// a per-kernel-PPN stage).
    pub fn new_on(world: Comm<T>, q: usize, c: usize) -> Mesh25D<T> {
        assert_eq!(world.size(), q * q * c, "need exactly q^2*c ranks");
        assert!(
            c >= 1 && q.is_multiple_of(c),
            "replication factor must divide q"
        );
        let rank = world.rank();
        let k = rank / (q * q);
        let r = rank % (q * q);
        let (i, j) = (r / q, r % q);
        let row = world
            .split((i + k * q) as i64, j as u64)
            .expect("row split");
        let col = world
            .split((j + k * q) as i64, i as u64)
            .expect("col split");
        let grd = world
            .split((i + j * q) as i64, k as u64)
            .expect("grd split");
        debug_assert_eq!(row.rank(), j);
        debug_assert_eq!(col.rank(), i);
        debug_assert_eq!(grd.rank(), k);
        Mesh25D {
            q,
            c,
            i,
            j,
            k,
            row,
            col,
            grd,
            world,
        }
    }
}

/// Circular shift within `comm`: send my payload `dist` positions forward
/// (negative = backward), receive from the opposite neighbour. Returns the
/// incoming payload. A zero-distance (mod p) shift is the identity.
fn roll<T: Transport>(comm: &Comm<T>, dist: isize, tag: u32, payload: Payload) -> Payload {
    let p = comm.size() as isize;
    let me = comm.rank() as isize;
    let dst = (me + dist).rem_euclid(p) as usize;
    let src = (me - dist).rem_euclid(p) as usize;
    if dst == comm.rank() {
        return payload;
    }
    comm.sendrecv(dst, src, tag, payload)
}

/// One Cannon phase on this plane: `C += Σ_l A(i,l)·B(l,j)` over this
/// plane's band of `q/c` outer-product steps. `a0`/`b0` are the unshifted
/// blocks A(i,j)/B(i,j); alignment and step shifts are circular
/// sendrecv-style exchanges in the row/column communicators.
#[allow(clippy::too_many_arguments)]
fn cannon_phase<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh25D<T>,
    grid: &BlockGrid,
    a0: &BlockBuf,
    b0: &BlockBuf,
    c_out: &mut BlockBuf,
    rate: f64,
    tag_base: u32,
) {
    let (q, i, j, k) = (mesh.q, mesh.i, mesh.j, mesh.k);
    let steps = q / mesh.c;
    let off = k * steps;

    // Alignment: I need A(i, l0) and B(l0, j) with l0 = (i + j + off) mod q.
    // A(i,j) travels to (i, j - i - off); B(i,j) to (i - j - off, j).
    let l0 = (i + j + off) % q;
    let a_shift = -((i + off) as isize);
    let b_shift = -((j + off) as isize);
    let mut la = l0; // logical column of my current A block / row of B.
    let mut a_cur = {
        let incoming = roll(&mesh.row, a_shift, tag_base, block_to_payload(a0));
        payload_to_block(
            &incoming,
            grid.block_dims(i, l0).0,
            grid.block_dims(i, l0).1,
        )
    };
    let mut b_cur = {
        let incoming = roll(&mesh.col, b_shift, tag_base + 1, block_to_payload(b0));
        payload_to_block(
            &incoming,
            grid.block_dims(l0, j).0,
            grid.block_dims(l0, j).1,
        )
    };

    for s in 0..steps {
        local_multiply(rc, c_out, &a_cur, &b_cur, rate);
        if s + 1 < steps {
            // Shift A one left along the row, B one up along the column.
            let ln = (la + 1) % q;
            let a_in = roll(
                &mesh.row,
                -1,
                tag_base + 2 + 2 * s as u32,
                block_to_payload(&a_cur),
            );
            a_cur = payload_to_block(&a_in, grid.block_dims(i, ln).0, grid.block_dims(i, ln).1);
            let b_in = roll(
                &mesh.col,
                -1,
                tag_base + 3 + 2 * s as u32,
                block_to_payload(&b_cur),
            );
            b_cur = payload_to_block(&b_in, grid.block_dims(ln, j).0, grid.block_dims(ln, j).1);
            la = ln;
        }
    }
}

/// **Algorithm 6**: SymmSquareCube over 2.5D multiplication. `grd_ndup`
/// carries the N_DUP duplicated grid-fibre communicators used to overlap
/// the three collectives with themselves (pass `N_DUP = 1` for the
/// non-overlapped variant).
pub fn symm_square_cube_25d<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh25D<T>,
    grd_ndup: &NDupComms<T>,
    input: &SymmInput,
) -> SymmOutput {
    let grid = BlockGrid::new(input.n, mesh.q);
    let (i, j, k) = (mesh.i, mesh.j, mesh.k);
    if k == 0 {
        let d = input
            .d_block
            .as_ref()
            .expect("plane 0 must supply D blocks");
        assert_eq!(d.dims(), grid.block_dims(i, j), "D block has wrong dims");
    } else {
        assert!(input.d_block.is_none());
    }
    let block_dim = grid.n().div_ceil(grid.p()).max(1);
    let rate = rc.profile().process_flops(rc.compute_ppn(), block_dim);
    let (li, lj) = grid.block_dims(i, j);

    // Step 1: broadcast D(i,j) as A and B along the grid fibre (overlapped
    // with itself).
    let t1 = rc.now();
    let d_payload = input.d_block.as_ref().map(block_to_payload);
    let d_recv = overlapped_bcast(grd_ndup, 0, d_payload.as_ref(), grid.block_bytes(i, j));
    let d_block = payload_to_block(&d_recv, li, lj);
    let phantom = d_block.is_phantom();
    rc.phase_span(t1, "25d bcast D".to_string());

    // Step 2: first Cannon phase: C = (band of) D·D.
    let t2 = rc.now();
    let mut c_blk = BlockBuf::zeros(li, lj, phantom);
    cannon_phase(rc, mesh, &grid, &d_block, &d_block, &mut c_blk, rate, 200);
    rc.phase_span(t2, "25d cannon D*D".to_string());

    // Step 3: allreduce across planes → D²(i,j) everywhere (overlapped).
    let t3 = rc.now();
    let d2_payload = overlapped_allreduce(grd_ndup, &block_to_payload(&c_blk));
    let d2_block = payload_to_block(&d2_payload, li, lj);
    rc.phase_span(t3, "25d allreduce D2".to_string());

    // Step 4: second Cannon phase: C = (band of) D·D².
    let t4 = rc.now();
    let mut c3 = BlockBuf::zeros(li, lj, phantom);
    cannon_phase(rc, mesh, &grid, &d_block, &d2_block, &mut c3, rate, 600);
    rc.phase_span(t4, "25d cannon D*D2".to_string());

    // Step 5: reduce across planes to plane 0 → D³(i,j) (overlapped).
    let t5 = rc.now();
    let d3_payload = overlapped_reduce(grd_ndup, 0, &block_to_payload(&c3));
    rc.phase_span(t5, "25d reduce D3".to_string());

    if k == 0 {
        SymmOutput {
            d2: Some(d2_block),
            d3: Some(payload_to_block(
                &d3_payload.expect("plane 0 is the reduce root"),
                li,
                lj,
            )),
        }
    } else {
        SymmOutput { d2: None, d3: None }
    }
}
