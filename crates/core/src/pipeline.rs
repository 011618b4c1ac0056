//! Pipelined, overlapped communication drivers — the heart of the paper's
//! nonblocking-overlap technique (§III-A, Algorithms 2 and 5).
//!
//! Each driver divides its payload with a [`ChunkPlan`], issues one
//! nonblocking collective per chunk on that chunk's duplicated communicator,
//! and (for the pipelined forms) forwards each chunk to the next operation as
//! soon as it completes, so the data transfer of one chunk overlaps the
//! synchronization/posting/processing phases of the others.

use ovcomm_simmpi::{Payload, Request};

use crate::backend::Communicator;
use crate::chunk::ChunkPlan;
use crate::ndup::NDupComms;

/// Broadcast `len` bytes from `root`, overlapped with itself: N_DUP chunked
/// `ibcast`s posted back-to-back, waited in order. Equivalent to a blocking
/// broadcast when `comms.n_dup() == 1` but still using the nonblocking path.
///
/// ```
/// use ovcomm_core::{overlapped_bcast, NDupComms};
/// use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
/// use ovcomm_simnet::MachineProfile;
///
/// let out = run(
///     SimConfig::natural(4, 1, MachineProfile::test_profile()),
///     |rc: RankCtx| {
///         let comms = NDupComms::new(&rc.world(), 4);
///         let data = (rc.rank() == 0).then(|| Payload::from_f64s(&[1.0, 2.0, 3.0]));
///         overlapped_bcast(&comms, 0, data.as_ref(), 24).to_f64s()
///     },
/// )
/// .unwrap();
/// for r in 0..4 {
///     assert_eq!(out.results[r], vec![1.0, 2.0, 3.0]);
/// }
/// ```
pub fn overlapped_bcast<C: Communicator>(
    comms: &NDupComms<C>,
    root: usize,
    data: Option<&Payload>,
    len: usize,
) -> Payload {
    let plan = ChunkPlan::new(len, comms.n_dup());
    let parts = plan.split_opt(data);
    let reqs: Vec<Request<Payload>> = comms
        .iter()
        .zip(parts)
        .map(|((c, comm), part)| comm.ibcast(root, part, plan.len(c)))
        .collect();
    // All dup comms share the rank agent, so one handle can drain the batch.
    let chunks = comms.comm(0).wait_all_payloads(&reqs);
    plan.concat(&chunks)
}

/// Sum-reduce `contrib` to `root`, overlapped with itself: N_DUP chunked
/// `ireduce`s. Returns the assembled result on the root.
pub fn overlapped_reduce<C: Communicator>(
    comms: &NDupComms<C>,
    root: usize,
    contrib: &Payload,
) -> Option<Payload> {
    let plan = ChunkPlan::new(contrib.len(), comms.n_dup());
    let reqs: Vec<(usize, Request<Option<Payload>>)> = comms
        .iter()
        .map(|(c, comm)| (c, comm.ireduce(root, plan.slice(contrib, c))))
        .collect();
    let mut chunks = Vec::with_capacity(plan.n_dup());
    let mut any = false;
    for (c, r) in &reqs {
        match comms.comm(*c).wait(r) {
            Some(p) => {
                any = true;
                chunks.push(p);
            }
            None => chunks.push(Payload::Phantom(0)),
        }
    }
    if comms.rank() == root {
        debug_assert!(any || plan.is_empty());
        Some(plan.concat(&chunks))
    } else {
        None
    }
}

/// The pipelined **reduce → broadcast** of Algorithm 2 (and lines 10–17 of
/// Algorithm 5): reduce chunks of `contrib` to `reduce_root` on
/// `reduce_comms`; as each chunk lands, the root immediately posts its
/// broadcast from `bcast_root` on `bcast_comms`; everyone returns the fully
/// broadcast payload (`bcast_len` bytes — it may differ from
/// `contrib.len()` on ranks that reduce one mesh block but receive
/// another, as in SymmSquareCube; on the pipelining root the two lengths
/// must agree).
///
/// The reduce group and the bcast group may be different communicators over
/// different axes of a process mesh (column vs. row), which is exactly how
/// the kernels use it. The caller must be a member of both bundles.
// The `expect` asserts a protocol invariant: the reduce root always
// receives the reduced chunk from its own ireduce.
#[allow(clippy::expect_used)]
pub fn pipelined_reduce_bcast<C: Communicator>(
    reduce_comms: &NDupComms<C>,
    reduce_root: usize,
    bcast_comms: &NDupComms<C>,
    bcast_root: usize,
    contrib: &Payload,
    bcast_len: usize,
) -> Payload {
    let n_dup = reduce_comms.n_dup();
    assert_eq!(
        n_dup,
        bcast_comms.n_dup(),
        "reduce and bcast bundles must have the same N_DUP"
    );
    let red_plan = ChunkPlan::new(contrib.len(), n_dup);
    let bc_plan = ChunkPlan::new(bcast_len, n_dup);
    let am_reduce_root = reduce_comms.rank() == reduce_root;
    let am_pipeliner = am_reduce_root && bcast_comms.rank() == bcast_root;
    if am_pipeliner {
        assert_eq!(
            contrib.len(),
            bcast_len,
            "the pipelining root forwards reduced chunks, so lengths must agree"
        );
    }

    // Post all chunked reductions (Algorithm 2, lines 3–5).
    let red_reqs: Vec<Request<Option<Payload>>> = reduce_comms
        .iter()
        .map(|(c, comm)| comm.ireduce(reduce_root, red_plan.slice(contrib, c)))
        .collect();

    // Pipeline: as chunk c's reduction completes on the root, post its
    // broadcast; other ranks post their broadcast receive immediately
    // (Algorithm 2, lines 6–10).
    let bcast_reqs: Vec<Request<Payload>> = (0..n_dup)
        .map(|c| {
            let data = if am_pipeliner {
                let reduced = reduce_comms.comm(c).wait_traced_chunk(
                    &red_reqs[c],
                    "wait MPI_Ireduce",
                    c as u32,
                );
                Some(reduced.expect("reduce root must receive the chunk"))
            } else {
                None
            };
            bcast_comms.comm(c).ibcast(bcast_root, data, bc_plan.len(c))
        })
        .collect();

    // Wait for all outstanding broadcasts (Algorithm 2, line 11).
    let chunks: Vec<Payload> = bcast_reqs
        .iter()
        .enumerate()
        .map(|(c, r)| {
            bcast_comms
                .comm(c)
                .wait_traced_chunk(r, "wait MPI_Ibcast", c as u32)
        })
        .collect();

    // Ranks that are reduce roots but not bcast roots still need their
    // reduced result consumed; all others drain their (already completed)
    // ireduce requests.
    if !am_pipeliner {
        for (c, r) in red_reqs.iter().enumerate() {
            let _ = reduce_comms.comm(c).wait(r);
        }
    }
    bc_plan.concat(&chunks)
}

/// Sum-allreduce overlapped with itself: N_DUP chunked `iallreduce`s (used
/// by the 2.5D SymmSquareCube, Algorithm 6 step 3).
pub fn overlapped_allreduce<C: Communicator>(comms: &NDupComms<C>, contrib: &Payload) -> Payload {
    let plan = ChunkPlan::new(contrib.len(), comms.n_dup());
    let reqs: Vec<Request<Payload>> = comms
        .iter()
        .map(|(c, comm)| comm.iallreduce(plan.slice(contrib, c)))
        .collect();
    let chunks = comms.comm(0).wait_all_payloads(&reqs);
    plan.concat(&chunks)
}

/// Overlapped point-to-point: send `payload` to `dst` as N_DUP chunked
/// `isend`s on the duplicated communicators. Algorithm 5's D² and D³
/// hand-backs (lines 22–26) do not call this: `ovcomm-kernels`' `symm3d`
/// chunks them itself, so that a rank posts all its D² sends and receives
/// and all its D³ receives before its first wait, and sends each D³ chunk
/// as soon as that chunk's `ireduce` completes.
pub fn overlapped_isend<C: Communicator>(
    comms: &NDupComms<C>,
    dst: usize,
    tag: u32,
    payload: &Payload,
) -> Vec<Request<()>> {
    let plan = ChunkPlan::new(payload.len(), comms.n_dup());
    comms
        .iter()
        .map(|(c, comm)| comm.isend(dst, tag, plan.slice(payload, c)))
        .collect()
}

/// Matching chunked receive: post all N_DUP `irecv`s, wait in order,
/// reassemble.
pub fn overlapped_recv<C: Communicator>(
    comms: &NDupComms<C>,
    src: usize,
    tag: u32,
    len: usize,
) -> Payload {
    let plan = ChunkPlan::new(len, comms.n_dup());
    let reqs: Vec<Request<Payload>> = comms.iter().map(|(_, comm)| comm.irecv(src, tag)).collect();
    let chunks = comms.comm(0).wait_all_payloads(&reqs);
    for (c, chunk) in chunks.iter().enumerate() {
        assert_eq!(
            chunk.len(),
            plan.len(c),
            "received chunk {c} has wrong size"
        );
    }
    plan.concat(&chunks)
}
