//! SymmSquareCube over 3-D matrix multiplication: Algorithms 3 (original),
//! 4 (baseline) and 5 (optimized with nonblocking overlap) of the paper.
//!
//! The kernel computes D² and D³ of a symmetric N×N matrix D distributed in
//! p×p blocks over a p×p×p process mesh, with block (i, j) owned by
//! P(i, j, 0). Results are returned with the same distribution. The
//! symmetry of D is exploited exactly where the paper does (the row
//! broadcast of Bᵀ in line 2 of Algorithms 3/4 and lines 4–7 of
//! Algorithm 5).

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{pipelined_reduce_bcast, ChunkPlan, NDupComms, RankHandle};
use ovcomm_densemat::{gemm_flops, BlockBuf, BlockGrid};
use ovcomm_simmpi::{Comm, Payload, RankCtx, Request, Transport};

use crate::convert::{block_to_payload, payload_to_block};
use crate::mesh::{mesh3d_rank_of, Mesh3D, Mesh3DBundles};

/// User tag for the D² hand-back sends.
const TAG_D2: u32 = 101;
/// User tag for the D³ hand-back sends.
const TAG_D3: u32 = 102;

/// Input to one SymmSquareCube call.
pub struct SymmInput {
    /// Matrix dimension N.
    pub n: usize,
    /// This rank's block D(i, j) — `Some` exactly on plane k = 0.
    pub d_block: Option<BlockBuf>,
}

/// Output: D² and D³ blocks, present exactly on plane k = 0 with the input
/// distribution.
pub struct SymmOutput {
    /// D²(i, j) on P(i, j, 0).
    pub d2: Option<BlockBuf>,
    /// D³(i, j) on P(i, j, 0).
    pub d3: Option<BlockBuf>,
}

/// Flops of one SymmSquareCube call: two N×N×N multiplications.
pub fn symm_square_cube_flops(n: usize) -> f64 {
    2.0 * 2.0 * (n as f64).powi(3)
}

fn check_input<T: Transport>(mesh: &Mesh3D<T>, grid: &BlockGrid, input: &SymmInput) {
    if mesh.k == 0 {
        let d = input
            .d_block
            .as_ref()
            .expect("plane 0 must supply D blocks");
        assert_eq!(
            d.dims(),
            grid.block_dims(mesh.i, mesh.j),
            "D block has wrong dimensions"
        );
    } else {
        assert!(input.d_block.is_none(), "only plane 0 supplies D blocks");
    }
}

/// Local GEMM: real arithmetic when blocks are real, modeled time always.
pub(crate) fn local_multiply<T: Transport>(
    rc: &RankCtx<T>,
    c: &mut BlockBuf,
    a: &BlockBuf,
    b: &BlockBuf,
    rate: f64,
) {
    c.gemm_acc(a, b);
    let (m, kk) = a.dims();
    let (_, n2) = b.dims();
    rc.compute_flops(gemm_flops(m, kk, n2), rate);
}

/// GEMM rate for this run: the node's rate divided among its processes,
/// with the local block dimension's efficiency factor.
fn gemm_rate<T: Transport>(rc: &RankCtx<T>, grid: &BlockGrid) -> f64 {
    let block_dim = grid.n().div_ceil(grid.p()).max(1);
    rc.profile().process_flops(rc.compute_ppn(), block_dim)
}

/// Hand a block from `src_rank` to `dst_rank` on `comm` (blocking), keeping
/// it local when they coincide (a blocking self-send would deadlock in the
/// rendezvous protocol, exactly as in MPI).
fn hand_back<T: Transport>(
    comm: &Comm<T>,
    my_index: usize,
    src: usize,
    dst: usize,
    tag: u32,
    data: Option<Payload>,
) -> Option<Payload> {
    if src == dst {
        return if my_index == src { data } else { None };
    }
    if my_index == src {
        comm.send(dst, tag, data.expect("sender must hold the block"));
        None
    } else if my_index == dst {
        Some(comm.recv(src, tag))
    } else {
        None
    }
}

/// **Algorithm 3** — the original SymmSquareCube from GTFock, including the
/// explicit D² transpose (line 6).
pub fn symm_square_cube_original<R: RankHandle>(
    rc: &R,
    mesh: &Mesh3D<R::T>,
    input: &SymmInput,
) -> SymmOutput {
    let rc = rc.ctx();
    let grid = BlockGrid::new(input.n, mesh.p);
    check_input(mesh, &grid, input);
    let rate = gemm_rate(rc, &grid);
    let (p, i, j, k) = (mesh.p, mesh.i, mesh.j, mesh.k);
    let (li, lj) = grid.block_dims(i, j);
    let lk = grid.block_dims(k, k).0;

    // 1: A(i,j) := D(i,j), broadcast along the grid fibre from plane 0.
    let a_payload = input.d_block.as_ref().map(block_to_payload);
    let a_recv = mesh.grd.bcast(0, a_payload, grid.block_bytes(i, j));
    let a = payload_to_block(&a_recv, li, lj);
    let phantom = a.is_phantom();

    // 2: row broadcast of D(k,j) from P(k,j,k); B(j,k) := D(k,j)ᵀ by
    // symmetry of D.
    let dkj = mesh.row.bcast(
        k,
        (i == k).then(|| block_to_payload(&a)),
        grid.block_bytes(k, j),
    );
    let b = payload_to_block(&dkj, grid.block_dims(k, j).0, lj).transpose();

    // 3: C := A·B.
    let mut c = BlockBuf::zeros(li, lk, phantom);
    local_multiply(rc, &mut c, &a, &b, rate);

    // 4: reduce C(i,:,k) to D²(i,k) on P(i,k,k).
    let d2_red = mesh.col.reduce(k, block_to_payload(&c));

    // 5: P(i,k,k) hands D²(i,k) to P(i,k,0) along the grid fibre.
    let d2_home = if j == k {
        hand_back(&mesh.grd, k, k, 0, TAG_D2, d2_red.clone())
    } else if k == 0 {
        hand_back(&mesh.grd, 0, j, 0, TAG_D2, None)
    } else {
        None
    };

    // 6: transpose D² blocks so that P(k,j,k) has D²(j,k): reduce roots
    // P(a,b,b) send D²(a,b) to P(b,a,b) in the world communicator. No rank
    // is both sender and receiver unless it is a diagonal (k,k,k), which
    // keeps its block locally — so blocking send/recv cannot deadlock.
    let my = mesh.world.rank();
    let mut d2_for_bcast: Option<Payload> = None;
    if j == k {
        // I am P(i,k,k) holding D²(i,k); it belongs at P(k,i,k).
        let dst = mesh3d_rank_of(k, i, k, p);
        if dst == my {
            d2_for_bcast = d2_red.clone();
        } else {
            mesh.world
                .send(dst, TAG_D2, d2_red.clone().expect("root holds D²"));
        }
    }
    if i == k && d2_for_bcast.is_none() {
        // I am P(k,j,k), the row-broadcast root, expecting D²(j,k) from
        // P(j,k,k).
        let src = mesh3d_rank_of(j, k, k, p);
        debug_assert_ne!(src, my, "diagonal handled by the sender branch");
        d2_for_bcast = Some(mesh.world.recv(src, TAG_D2));
    }

    // 7: row broadcast of D²(j,k) from P(k,j,k).
    let b2 = mesh.row.bcast(k, d2_for_bcast, grid.block_bytes(j, k));
    let b2 = payload_to_block(&b2, lj, lk);

    // 8: C := A·B².
    let mut c2 = BlockBuf::zeros(li, lk, phantom);
    local_multiply(rc, &mut c2, &a, &b2, rate);

    // 9: reduce to D³(i,k) on P(i,k,k).
    let d3_red = mesh.col.reduce(k, block_to_payload(&c2));

    // 10: hand D³ back to plane 0.
    let d3_home = if j == k {
        hand_back(&mesh.grd, k, k, 0, TAG_D3, d3_red)
    } else if k == 0 {
        hand_back(&mesh.grd, 0, j, 0, TAG_D3, None)
    } else {
        None
    };

    finish(mesh, &grid, d2_home, d3_home)
}

/// **Algorithm 4** — the baseline: the D² transpose is eliminated by
/// reducing D² to P(i,i,k) instead (new distribution scheme), and the
/// hand-backs move to the end.
pub fn symm_square_cube_baseline<R: RankHandle>(
    rc: &R,
    mesh: &Mesh3D<R::T>,
    input: &SymmInput,
) -> SymmOutput {
    let rc = rc.ctx();
    let grid = BlockGrid::new(input.n, mesh.p);
    check_input(mesh, &grid, input);
    let rate = gemm_rate(rc, &grid);
    let (p, i, j, k) = (mesh.p, mesh.i, mesh.j, mesh.k);
    let (li, lj) = grid.block_dims(i, j);
    let lk = grid.block_dims(k, k).0;

    // 1–3 as in Algorithm 3.
    let a_payload = input.d_block.as_ref().map(block_to_payload);
    let a_recv = mesh.grd.bcast(0, a_payload, grid.block_bytes(i, j));
    let a = payload_to_block(&a_recv, li, lj);
    let phantom = a.is_phantom();
    let dkj = mesh.row.bcast(
        k,
        (i == k).then(|| block_to_payload(&a)),
        grid.block_bytes(k, j),
    );
    let b = payload_to_block(&dkj, grid.block_dims(k, j).0, lj).transpose();
    let mut c = BlockBuf::zeros(li, lk, phantom);
    local_multiply(rc, &mut c, &a, &b, rate);

    // 4: reduce C(i,:,k) to D²(i,k) on P(i,i,k) — root j = i.
    let d2_red = mesh.col.reduce(i, block_to_payload(&c));

    // 5: row broadcast of D²(j,k) straight from P(j,j,k) — no transpose.
    let b2 = mesh.row.bcast(
        j,
        (i == j).then(|| d2_red.clone().unwrap()),
        grid.block_bytes(j, k),
    );
    let b2_block = payload_to_block(&b2, lj, lk);

    // 6: C := A·B².
    let mut c2 = BlockBuf::zeros(li, lk, phantom);
    local_multiply(rc, &mut c2, &a, &b2_block, rate);

    // 7: reduce to D³(i,k) on P(i,k,k).
    let d3_red = mesh.col.reduce(k, block_to_payload(&c2));

    // 8: P(i,i,k) sends D²(i,k) to P(i,k,0) in the world communicator.
    let my = mesh.world.rank();
    let mut d2_home: Option<Payload> = None;
    if i == j {
        let dst = mesh3d_rank_of(i, k, 0, p);
        let payload = d2_red.expect("P(i,i,k) holds D²(i,k)");
        if dst == my {
            d2_home = Some(payload);
        } else {
            mesh.world.send(dst, TAG_D2, payload);
        }
    }
    if k == 0 && d2_home.is_none() {
        // D²(i,j) comes from P(i,i,j); the self case is exactly rank
        // (0,0,0), which the sender branch already kept local.
        let src = mesh3d_rank_of(i, i, j, p);
        debug_assert_ne!(src, my);
        d2_home = Some(mesh.world.recv(src, TAG_D2));
    }

    // 9: P(i,k,k) sends D³(i,k) to P(i,k,0) along the grid fibre.
    let d3_home = if j == k {
        hand_back(&mesh.grd, k, k, 0, TAG_D3, d3_red)
    } else if k == 0 {
        hand_back(&mesh.grd, 0, j, 0, TAG_D3, None)
    } else {
        None
    };

    finish(mesh, &grid, d2_home, d3_home)
}

/// **Algorithm 5** — the optimized SymmSquareCube: every phase of the
/// baseline is pipelined and overlapped with the nonblocking-overlap
/// technique over N_DUP duplicated communicators. With `N_DUP = 1` it
/// performs the same communication schedule as the baseline (through the
/// nonblocking path).
pub fn symm_square_cube_optimized<R: RankHandle>(
    rc: &R,
    mesh: &Mesh3D<R::T>,
    bundles: &Mesh3DBundles<R::T>,
    input: &SymmInput,
) -> SymmOutput {
    let rc = rc.ctx();
    let grid = BlockGrid::new(input.n, mesh.p);
    check_input(mesh, &grid, input);
    let rate = gemm_rate(rc, &grid);
    let n_dup = bundles.row.n_dup();
    let (p, i, j, k) = (mesh.p, mesh.i, mesh.j, mesh.k);
    let (li, lj) = grid.block_dims(i, j);
    let lk = grid.block_dims(k, k).0;

    // ---- Lines 1–8: pipelined grid-bcast → row-bcast of D blocks. ----
    let t_bcast = rc.now();
    let plan_a = ChunkPlan::new(grid.block_bytes(i, j), n_dup);
    let a_payload = input.d_block.as_ref().map(block_to_payload);
    let grd_reqs: Vec<Request<Payload>> = bundles
        .grd
        .iter()
        .map(|(c, comm)| {
            comm.ibcast(
                0,
                a_payload.as_ref().map(|pl| plan_a.slice(pl, c)),
                plan_a.len(c),
            )
        })
        .collect();

    // Row broadcast of D(k,j) from the rank with i == k, pipelined on the
    // grid-bcast completions (lines 4–7).
    let plan_b = ChunkPlan::new(grid.block_bytes(k, j), n_dup);
    let mut a_chunks: Vec<Option<Payload>> = vec![None; n_dup];
    let row_reqs: Vec<Request<Payload>> = (0..n_dup)
        .map(|c| {
            let data = if i == k {
                let chunk = bundles.grd.comm(c).wait_traced_chunk(
                    &grd_reqs[c],
                    "wait Ibcast grd",
                    c as u32,
                );
                a_chunks[c] = Some(chunk.clone());
                Some(chunk)
            } else {
                None
            };
            bundles.row.comm(c).ibcast(k, data, plan_b.len(c))
        })
        .collect();

    // Line 8: wait for everything outstanding; assemble A and Bᵀ.
    for c in 0..n_dup {
        if a_chunks[c].is_none() {
            a_chunks[c] = Some(bundles.grd.comm(c).wait_traced_chunk(
                &grd_reqs[c],
                "wait Ibcast grd",
                c as u32,
            ));
        }
    }
    let a_full = plan_a.concat(&a_chunks.into_iter().map(Option::unwrap).collect::<Vec<_>>());
    let a = payload_to_block(&a_full, li, lj);
    let phantom = a.is_phantom();
    let b_chunks: Vec<Payload> = row_reqs
        .iter()
        .enumerate()
        .map(|(c, r)| {
            bundles
                .row
                .comm(c)
                .wait_traced_chunk(r, "wait Ibcast row", c as u32)
        })
        .collect();
    let b = payload_to_block(&plan_b.concat(&b_chunks), grid.block_dims(k, j).0, lj).transpose();
    rc.phase_span(t_bcast, "symm3d bcast D".to_string());

    // Line 9: C := A·B.
    let mut c_blk = BlockBuf::zeros(li, lk, phantom);
    local_multiply(rc, &mut c_blk, &a, &b, rate);

    // ---- Lines 10–17: pipelined col-ireduce → row-ibcast of D². ----
    let t_d2 = rc.now();
    // Reduce root j = i (D² lands on P(i,i,k)); bcast root i = j.
    let b2_payload = pipelined_reduce_bcast(
        &bundles.col,
        i,
        &bundles.row,
        j,
        &block_to_payload(&c_blk),
        grid.block_bytes(j, k),
    );
    let b2 = payload_to_block(&b2_payload, lj, lk);
    rc.phase_span(t_d2, "symm3d reduce-bcast D2".to_string());
    // P(i,i,k)'s own D²(i,k) is the payload it just pipelined (i == j).
    let d2_mine = (i == j).then(|| b2_payload.clone());

    // Line 18: C := A·B².
    let mut c2 = BlockBuf::zeros(li, lk, phantom);
    local_multiply(rc, &mut c2, &a, &b2, rate);

    // ---- Lines 19–27: col-ireduce of D³ overlapped with both hand-backs.
    let t_d3 = rc.now();
    let plan_c = ChunkPlan::new(grid.block_bytes(i, k), n_dup);
    let c2_payload = block_to_payload(&c2);
    let d3_reqs: Vec<Request<Option<Payload>>> = bundles
        .col
        .iter()
        .map(|(c, comm)| comm.ireduce(k, plan_c.slice(&c2_payload, c)))
        .collect();

    // Line 23: P(i,i,k) posts the chunked sends of D²(i,k) to P(i,k,0) on
    // the duplicated world communicators.
    let my = mesh.world.rank();
    let mut d2_send_reqs: Vec<Request<()>> = Vec::new();
    if let Some(d2) = &d2_mine {
        let dst = mesh3d_rank_of(i, k, 0, p);
        if dst != my {
            let plan = ChunkPlan::new(d2.len(), n_dup);
            for (c, comm) in bundles.world.iter() {
                d2_send_reqs.push(comm.isend(dst, TAG_D2, plan.slice(d2, c)));
            }
        }
    }
    // Receivers of D² (plane 0) post their chunked irecvs. D²(i,j) comes
    // from P(i,i,j); the only self case is rank (0,0,0).
    let d2_src = mesh3d_rank_of(i, i, j, p);
    let d2_self = k == 0 && d2_src == my;
    let mut d2_recv_reqs: Vec<Request<Payload>> = Vec::new();
    if k == 0 && !d2_self {
        for (_, comm) in bundles.world.iter() {
            d2_recv_reqs.push(comm.irecv(d2_src, TAG_D2));
        }
    }

    // Lines 24–25: as D³ chunks reduce on P(i,k,k), send them to P(i,k,0)
    // on the duplicated grid communicators.
    let mut d3_send_reqs: Vec<Request<()>> = Vec::new();
    let mut d3_local: Vec<Option<Payload>> = vec![None; n_dup];
    if j == k {
        for c in 0..n_dup {
            let chunk = bundles
                .col
                .comm(c)
                .wait_traced_chunk(&d3_reqs[c], "wait MPI_Ireduce D3", c as u32)
                .expect("P(i,k,k) is the D³ reduce root");
            if k == 0 {
                // Already home (P(i,0,0) owns block (i,0)).
                d3_local[c] = Some(chunk);
            } else {
                d3_send_reqs.push(bundles.grd.comm(c).isend(0, TAG_D3, chunk));
            }
        }
    }
    // Receivers of D³ on plane 0 (when the reduce root is another plane).
    let mut d3_recv_reqs: Vec<Request<Payload>> = Vec::new();
    if k == 0 && j != 0 {
        for (_, comm) in bundles.grd.iter() {
            d3_recv_reqs.push(comm.irecv(j, TAG_D3));
        }
    }

    // Line 27: wait for all outstanding operations.
    for (c, r) in d3_reqs.iter().enumerate() {
        if j != k {
            let _ = bundles.col.comm(c).wait(r);
        }
    }
    bundles.world.comm(0).wait_all(&d2_send_reqs);
    bundles.grd.comm(0).wait_all(&d3_send_reqs);

    // Assemble the hand-backs on plane 0: all D² chunks, then all D³.
    let plan_home = ChunkPlan::new(grid.block_bytes(i, j), n_dup);
    let d2_home: Option<Payload> = if k == 0 {
        if d2_self {
            d2_mine
        } else {
            let (comms, reqs) = (&bundles.world, &d2_recv_reqs);
            Some(recv_chunks(comms, reqs, &plan_home, "wait Irecv D2"))
        }
    } else {
        None
    };
    let d3_home: Option<Payload> = if k == 0 {
        if j == 0 {
            // j == k == 0: reduced locally above.
            let chunks: Vec<Payload> = d3_local.into_iter().map(Option::unwrap).collect();
            Some(plan_home.concat(&chunks))
        } else {
            let (comms, reqs) = (&bundles.grd, &d3_recv_reqs);
            Some(recv_chunks(comms, reqs, &plan_home, "wait Irecv D3"))
        }
    } else {
        None
    };
    rc.phase_span(t_d3, "symm3d reduce+handback D3".to_string());

    finish(mesh, &grid, d2_home, d3_home)
}

/// Wait each chunked hand-back receive in chunk order on its duplicate of
/// `comms`, tracing it under `label`, check its length against `plan` and
/// reassemble the block.
fn recv_chunks<T: Transport>(
    comms: &NDupComms<T>,
    reqs: &[Request<Payload>],
    plan: &ChunkPlan,
    label: &str,
) -> Payload {
    let chunks: Vec<Payload> = reqs
        .iter()
        .enumerate()
        .map(|(c, r)| {
            let got = comms.comm(c).wait_traced_chunk(r, label, c as u32);
            assert_eq!(got.len(), plan.len(c), "{label}: chunk size mismatch");
            got
        })
        .collect();
    plan.concat(&chunks)
}

/// Convert the homed payloads into output blocks on plane 0.
fn finish<T: Transport>(
    mesh: &Mesh3D<T>,
    grid: &BlockGrid,
    d2_home: Option<Payload>,
    d3_home: Option<Payload>,
) -> SymmOutput {
    if mesh.k == 0 {
        let (li, lj) = grid.block_dims(mesh.i, mesh.j);
        let d2 = d2_home.expect("plane 0 must receive D²");
        let d3 = d3_home.expect("plane 0 must receive D³");
        SymmOutput {
            d2: Some(payload_to_block(&d2, li, lj)),
            d3: Some(payload_to_block(&d3, li, lj)),
        }
    } else {
        debug_assert!(d2_home.is_none() && d3_home.is_none());
        SymmOutput { d2: None, d3: None }
    }
}
