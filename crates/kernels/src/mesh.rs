//! Process meshes and their communicators.
//!
//! Rank placement follows the paper (§V-D): "a 'natural' assignment of the
//! MPI ranks to the p×p×p process mesh, i.e., the ranks are assigned row by
//! row in one plane and then plane by plane", with consecutive ranks on a
//! node. Concretely `rank = k·p² + i·p + j` for coordinates (i, j, k).
//!
//! The meshes are generic over the backend's transport; the default type
//! parameter keeps simulator call sites (`Mesh2D`, `Mesh3D`)
//! source-compatible.

// Kernel algorithms are invariant-dense: `expect`/`unwrap` here assert
// root-only payload delivery and mesh/split bookkeeping guaranteed by the
// surrounding collective protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{NDupComms, RankHandle};
use ovcomm_simmpi::{Comm, RankCtx, SimTransport, Transport};

/// A p×p 2-D process mesh with row and column communicators (for the
/// matrix–vector example, Algorithms 1–2).
pub struct Mesh2D<T: Transport = SimTransport> {
    /// Mesh dimension.
    pub p: usize,
    /// My row index i (rank = i·p + j).
    pub i: usize,
    /// My column index j.
    pub j: usize,
    /// Communicator over `P(i, :)` — my index within it is `j`.
    pub row: Comm<T>,
    /// Communicator over `P(:, j)` — my index within it is `i`.
    pub col: Comm<T>,
    /// The world communicator.
    pub world: Comm<T>,
}

impl<T: Transport> Mesh2D<T> {
    /// Build from the world communicator; requires `nranks == p²`.
    pub fn new(rc: &RankCtx<T>, p: usize) -> Mesh2D<T> {
        Mesh2D::new_on(rc.world(), p)
    }

    /// Build over an arbitrary base communicator (e.g. the active subset of
    /// a per-kernel-PPN stage); requires `base.size() == p²`.
    pub fn new_on(world: Comm<T>, p: usize) -> Mesh2D<T> {
        assert_eq!(world.size(), p * p, "need exactly p^2 ranks");
        let rank = world.rank();
        let (i, j) = (rank / p, rank % p);
        let row = world.split(i as i64, j as u64).expect("row split");
        let col = world.split(j as i64, i as u64).expect("col split");
        debug_assert_eq!(row.rank(), j);
        debug_assert_eq!(col.rank(), i);
        Mesh2D {
            p,
            i,
            j,
            row,
            col,
            world,
        }
    }
}

/// A p×p×p 3-D process mesh with the paper's three communicators (§IV):
/// `row_comm` over `P(:, j, k)`, `col_comm` over `P(i, :, k)`, `grd_comm`
/// over `P(i, j, :)`.
pub struct Mesh3D<T: Transport = SimTransport> {
    /// Mesh dimension p (p³ ranks).
    pub p: usize,
    /// My coordinates (i, j, k); `rank = k·p² + i·p + j`.
    pub i: usize,
    /// Second coordinate.
    pub j: usize,
    /// Plane coordinate.
    pub k: usize,
    /// Over `P(:, j, k)`, varying i — my index is `i`.
    pub row: Comm<T>,
    /// Over `P(i, :, k)`, varying j — my index is `j`.
    pub col: Comm<T>,
    /// Over `P(i, j, :)`, varying k — my index is `k`.
    pub grd: Comm<T>,
    /// All p³ ranks.
    pub world: Comm<T>,
}

/// Coordinates of a world rank on a p-mesh (`rank = k·p² + i·p + j`).
pub fn mesh3d_coords_of(rank: usize, p: usize) -> (usize, usize, usize) {
    let k = rank / (p * p);
    let r = rank % (p * p);
    (r / p, r % p, k)
}

/// World rank of 3-D mesh coordinates.
pub fn mesh3d_rank_of(i: usize, j: usize, k: usize, p: usize) -> usize {
    k * p * p + i * p + j
}

impl<T: Transport> Mesh3D<T> {
    /// Build from the world communicator; requires `nranks == p³`.
    /// Takes any [`RankHandle`] so the `benchmark/` package's generic
    /// workloads still build; that is the handle's only use.
    pub fn new<R: RankHandle<T = T>>(rc: &R, p: usize) -> Mesh3D<T> {
        Mesh3D::new_on(rc.ctx().world(), p)
    }

    /// Build over an arbitrary base communicator (e.g. the active subset of
    /// a per-kernel-PPN stage); requires `base.size() == p³`.
    pub fn new_on(world: Comm<T>, p: usize) -> Mesh3D<T> {
        assert_eq!(world.size(), p * p * p, "need exactly p^3 ranks");
        let rank = world.rank();
        let (i, j, k) = mesh3d_coords_of(rank, p);
        let row = world
            .split((j + k * p) as i64, i as u64)
            .expect("row split");
        let col = world
            .split((i + k * p) as i64, j as u64)
            .expect("col split");
        let grd = world
            .split((i + j * p) as i64, k as u64)
            .expect("grd split");
        debug_assert_eq!(row.rank(), i);
        debug_assert_eq!(col.rank(), j);
        debug_assert_eq!(grd.rank(), k);
        Mesh3D {
            p,
            i,
            j,
            k,
            row,
            col,
            grd,
            world,
        }
    }

    /// Duplicate the mesh communicators into N_DUP bundles for the
    /// nonblocking-overlap technique (Algorithm 5's input: "N_DUP copies
    /// of: row_comm, col_comm and grd_comm").
    pub fn dup_bundles(&self, n_dup: usize) -> Mesh3DBundles<T> {
        Mesh3DBundles {
            row: NDupComms::new(&self.row, n_dup),
            col: NDupComms::new(&self.col, n_dup),
            grd: NDupComms::new(&self.grd, n_dup),
            world: NDupComms::new(&self.world, n_dup),
        }
    }
}

/// N_DUP-duplicated communicators of a [`Mesh3D`].
pub struct Mesh3DBundles<T: Transport = SimTransport> {
    /// Duplicates of `row_comm`.
    pub row: NDupComms<T>,
    /// Duplicates of `col_comm`.
    pub col: NDupComms<T>,
    /// Duplicates of `grd_comm`.
    pub grd: NDupComms<T>,
    /// Duplicates of the world communicator (for the D² hand-back sends,
    /// Algorithm 5 line 23 uses `global_comm`).
    pub world: NDupComms<T>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let p = 4;
        for rank in 0..p * p * p {
            let (i, j, k) = mesh3d_coords_of(rank, p);
            assert_eq!(mesh3d_rank_of(i, j, k, p), rank);
            assert!(i < p && j < p && k < p);
        }
    }

    #[test]
    fn natural_order_is_row_then_plane() {
        // rank 0 → (0,0,0); rank 1 → (0,1,0) (next in the row);
        // rank p → (1,0,0) (next row); rank p² → (0,0,1) (next plane).
        let p = 3;
        assert_eq!(mesh3d_coords_of(0, p), (0, 0, 0));
        assert_eq!(mesh3d_coords_of(1, p), (0, 1, 0));
        assert_eq!(mesh3d_coords_of(p, p), (1, 0, 0));
        assert_eq!(mesh3d_coords_of(p * p, p), (0, 0, 1));
    }
}
