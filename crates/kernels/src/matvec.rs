//! Parallel matrix–vector multiplication: the paper's motivating example
//! (Algorithms 1 and 2, Figures 1–2).
//!
//! `y = A·x` with A distributed in p×p blocks over a p×p mesh and x in p
//! segments, segment `j` replicated down column `P(:, j)`. Algorithm 1
//! reduces partial products along rows to the diagonal and broadcasts down
//! columns, blocking. Algorithm 2 divides the vector into N_DUP parts and
//! pipelines the reduction chunks straight into broadcasts on duplicated
//! communicators.

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{pipelined_reduce_bcast, NDupComms};
use ovcomm_densemat::{BlockBuf, Partition1D};
use ovcomm_simmpi::{Payload, RankCtx, Transport};

use crate::mesh::Mesh2D;

/// A distributed vector segment: real values or a phantom length (elements).
#[derive(Debug, Clone, PartialEq)]
pub enum VecBuf {
    /// Actual values.
    Real(Vec<f64>),
    /// Element count only.
    Phantom(usize),
}

impl VecBuf {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            VecBuf::Real(v) => v.len(),
            VecBuf::Phantom(n) => *n,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// To a message payload.
    pub fn to_payload(&self) -> Payload {
        match self {
            VecBuf::Real(v) => Payload::from_f64s(v),
            VecBuf::Phantom(n) => Payload::Phantom(n * 8),
        }
    }

    /// From a message payload.
    pub fn from_payload(p: &Payload) -> VecBuf {
        match p {
            Payload::Real(_) => VecBuf::Real(p.to_f64s()),
            Payload::Phantom(n) => VecBuf::Phantom(n / 8),
        }
    }
}

/// Input to one matvec: the local A block and the local x segment.
pub struct MatvecInput {
    /// Global dimension N.
    pub n: usize,
    /// Block A(i, j) for this rank's mesh position.
    pub a: BlockBuf,
    /// Segment x_j (length = column partition of j).
    pub x: VecBuf,
}

/// Local partial product `y_i^{(j)} = A(i,j) · x_j`, with modeled time.
fn local_matvec<T: Transport>(rc: &RankCtx<T>, a: &BlockBuf, x: &VecBuf) -> VecBuf {
    let (rows, cols) = a.dims();
    assert_eq!(x.len(), cols, "x segment does not match A block");
    let flops = 2.0 * rows as f64 * cols as f64;
    // Matvec is memory-bound; charge it at a fraction of the GEMM rate.
    let rate = rc.profile().process_flops(rc.compute_ppn(), rows.max(1)) * 0.25;
    rc.compute_flops(flops, rate);
    match (a, x) {
        (BlockBuf::Real(m), VecBuf::Real(v)) => VecBuf::Real(m.matvec(v)),
        (BlockBuf::Phantom(..), VecBuf::Phantom(_)) => VecBuf::Phantom(rows),
        _ => panic!("cannot mix real and phantom operands"),
    }
}

/// **Algorithm 1**: blocking reduce along rows to the diagonal, blocking
/// broadcast down columns. Returns y_j (distributed as x).
pub fn matvec_blocking<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    input: &MatvecInput,
) -> VecBuf {
    let part = Partition1D::new(input.n, mesh.p);
    let (i, j) = (mesh.i, mesh.j);
    let y_part = local_matvec(rc, &input.a, &input.x);

    // Line 2: P(i,:) reduce y_i to P(i,i) with row_comm (root index i).
    let reduced = mesh.row.reduce(i, y_part.to_payload());

    // Line 3: P(i,i) broadcasts y_i to P(:,i) with col_comm. In my column
    // the root is P(j,j), i.e. col index j, broadcasting y_j.
    let data = (i == j).then(|| reduced.expect("diagonal holds the reduced segment"));
    let y = mesh.col.bcast(j, data, part.len(j) * 8);
    VecBuf::from_payload(&y)
}

/// **Algorithm 2**: the same computation with pipelined and overlapped
/// communications — N_DUP chunked `MPI_Ireduce`s whose completions feed
/// `MPI_Ibcast`s on duplicated communicators.
pub fn matvec_pipelined<T: Transport>(
    rc: &RankCtx<T>,
    mesh: &Mesh2D<T>,
    row_ndup: &NDupComms<T>,
    col_ndup: &NDupComms<T>,
    input: &MatvecInput,
) -> VecBuf {
    let part = Partition1D::new(input.n, mesh.p);
    let (i, j) = (mesh.i, mesh.j);
    let y_part = local_matvec(rc, &input.a, &input.x);
    let y = pipelined_reduce_bcast(
        row_ndup,
        i,
        col_ndup,
        j,
        &y_part.to_payload(),
        part.len(j) * 8,
    );
    VecBuf::from_payload(&y)
}
