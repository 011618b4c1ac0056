//! Every distributed kernel, executed on the real shared-memory backend and
//! compared against the simulator **bit for bit**.
//!
//! Each workload is a single function generic over the backend's
//! `Transport` (it takes `&RankCtx<T>`), so the exact same code runs under
//! `ovcomm_simmpi::run` (virtual time, one engine thread) and
//! `ovcomm_rt::run` (wall-clock time, one OS thread per rank). Both backends execute the same CollPlan IR, so reductions apply
//! in the same order and the floating-point results must be identical —
//! not merely close.

use ovcomm_core::{NDupComms, StagePlan};
use ovcomm_densemat::{BlockBuf, BlockGrid, Matrix, Partition1D};
use ovcomm_kernels::{
    block_cg, matvec_blocking, matvec_pipelined, md_init, md_run, symm_square_cube_25d,
    symm_square_cube_baseline, symm_square_cube_cosma, symm_square_cube_optimized,
    symm_square_cube_original, symm_square_cube_summa, BlockCgConfig, CgComms, MatvecInput,
    MdConfig, Mesh25D, Mesh2D, Mesh3D, SummaBundles, SymmInput, VecBuf,
};
use ovcomm_purify::{purify_rank, scf_staged, KernelChoice, PurifyConfig, ScfConfig};
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{RankCtx, SimConfig, Transport};
use ovcomm_simnet::{MachineProfile, SimDur};

fn test_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let d = i.abs_diff(j) as f64;
        1.0 / (1.0 + d) + if i == j { 0.5 } else { 0.0 } + ((i + j) % 3) as f64 * 0.1
    })
}

/// Run the same generic workload on both backends and return
/// (sim results, rt results) in rank order.
fn run_both<T, F>(nranks: usize, ppn: usize, f: F) -> (Vec<T>, Vec<T>)
where
    T: Send + 'static,
    F: for<'a> Fn(&'a dyn WorkloadDispatch) -> T + Send + Sync + Clone + 'static,
{
    let prof = MachineProfile::test_profile;
    let fs = f.clone();
    let sim = ovcomm_simmpi::run(
        SimConfig::natural(nranks, ppn, prof()),
        move |rc: RankCtx| fs(&rc as &dyn WorkloadDispatch),
    )
    .unwrap_or_else(|e| panic!("sim backend failed: {e}"));
    let rt = ovcomm_rt::run(
        RtConfig::natural(nranks, ppn, prof()),
        move |rc: RtRankCtx| f(&rc as &dyn WorkloadDispatch),
    )
    .unwrap_or_else(|e| panic!("rt backend failed: {e}"));
    (sim.results, rt.results)
}

/// Object-safe shim so one closure can accept either concrete rank context.
/// A closure cannot be generic over the transport, so it downcasts to the
/// concrete context and calls a generic worker.
trait WorkloadDispatch {
    fn as_sim(&self) -> Option<&RankCtx>;
    fn as_rt(&self) -> Option<&RtRankCtx>;
}
impl WorkloadDispatch for RankCtx {
    fn as_sim(&self) -> Option<&RankCtx> {
        Some(self)
    }
    fn as_rt(&self) -> Option<&RtRankCtx> {
        None
    }
}
impl WorkloadDispatch for RtRankCtx {
    fn as_sim(&self) -> Option<&RankCtx> {
        None
    }
    fn as_rt(&self) -> Option<&RtRankCtx> {
        Some(self)
    }
}

/// Expand a generic per-rank worker into a `WorkloadDispatch` closure.
macro_rules! dispatch {
    ($worker:expr) => {
        move |rc: &dyn WorkloadDispatch| {
            if let Some(rc) = rc.as_sim() {
                $worker(rc)
            } else if let Some(rc) = rc.as_rt() {
                $worker(rc)
            } else {
                unreachable!("unknown backend")
            }
        }
    };
}

// ---------------------------------------------------------------------
// Matrix–vector.
// ---------------------------------------------------------------------

fn matvec_worker<T: Transport>(
    rc: &RankCtx<T>,
    n: usize,
    p: usize,
    n_dup: Option<usize>,
) -> Vec<f64> {
    let mesh = Mesh2D::new(rc, p);
    let part = Partition1D::new(n, p);
    let grid = BlockGrid::new(n, p);
    let a = BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j));
    let x_full: Vec<f64> = (0..n).map(|t| (t as f64 * 0.3).sin()).collect();
    let (s, l) = part.range(mesh.j);
    let input = MatvecInput {
        n,
        a,
        x: VecBuf::Real(x_full[s..s + l].to_vec()),
    };
    let y = match n_dup {
        None => matvec_blocking(rc, &mesh, &input),
        Some(d) => {
            let row_ndup = NDupComms::new(&mesh.row, d);
            let col_ndup = NDupComms::new(&mesh.col, d);
            matvec_pipelined(rc, &mesh, &row_ndup, &col_ndup, &input)
        }
    };
    match y {
        VecBuf::Real(v) => v,
        VecBuf::Phantom(_) => unreachable!(),
    }
}

#[test]
fn matvec_blocking_identical_on_both_backends() {
    let (sim, rt) = run_both(4, 2, dispatch!(|rc| matvec_worker(rc, 17, 2, None)));
    assert_eq!(sim, rt, "blocking matvec must be bit-identical");
}

#[test]
fn matvec_pipelined_identical_on_both_backends() {
    let (sim, rt) = run_both(4, 2, dispatch!(|rc| matvec_worker(rc, 17, 2, Some(2))));
    assert_eq!(sim, rt, "pipelined matvec must be bit-identical");
}

// ---------------------------------------------------------------------
// 3-D SymmSquareCube, all three algorithm variants.
// ---------------------------------------------------------------------

fn symm3d_worker<T: Transport>(
    rc: &RankCtx<T>,
    n: usize,
    p: usize,
    variant: usize,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let mesh = Mesh3D::new(rc, p);
    let grid = BlockGrid::new(n, p);
    let d_block =
        (mesh.k == 0).then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
    let input = SymmInput { n, d_block };
    let result = match variant {
        0 => symm_square_cube_original(rc, &mesh, &input),
        1 => symm_square_cube_baseline(rc, &mesh, &input),
        d => {
            let bundles = mesh.dup_bundles(d);
            symm_square_cube_optimized(rc, &mesh, &bundles, &input)
        }
    };
    result.d2.map(|d2| {
        (
            d2.unwrap_real().clone().into_vec(),
            result.d3.unwrap().unwrap_real().clone().into_vec(),
        )
    })
}

#[test]
fn symm3d_all_variants_identical_on_both_backends() {
    for variant in [0usize, 1, 2] {
        let (sim, rt) = run_both(8, 2, dispatch!(move |rc| symm3d_worker(rc, 18, 2, variant)));
        assert_eq!(sim, rt, "symm3d variant {variant} must be bit-identical");
        assert!(sim.iter().filter(|r| r.is_some()).count() == 4);
    }
}

// ---------------------------------------------------------------------
// SUMMA.
// ---------------------------------------------------------------------

fn summa_worker<T: Transport>(
    rc: &RankCtx<T>,
    n: usize,
    p: usize,
    n_dup: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mesh = Mesh2D::new(rc, p);
    let grid = BlockGrid::new(n, p);
    let bundles = SummaBundles::new(&mesh, n_dup);
    let d_block = BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j));
    let input = SymmInput {
        n,
        d_block: Some(d_block),
    };
    let result = symm_square_cube_summa(rc, &mesh, &bundles, &input);
    (
        result.d2.unwrap().unwrap_real().clone().into_vec(),
        result.d3.unwrap().unwrap_real().clone().into_vec(),
    )
}

#[test]
fn summa_identical_on_both_backends() {
    let (sim, rt) = run_both(4, 2, dispatch!(|rc| summa_worker(rc, 18, 2, 2)));
    assert_eq!(sim, rt, "SUMMA must be bit-identical");
}

// ---------------------------------------------------------------------
// COSMA-style one-sided multiply (RMA windows: win_create, fenced get
// epochs, prefetch overlap) — the rma-smoke cross-backend gate.
// ---------------------------------------------------------------------

fn cosma_worker<T: Transport>(rc: &RankCtx<T>, n: usize, p: usize) -> (Vec<f64>, Vec<f64>) {
    let mesh = Mesh2D::new(rc, p);
    let grid = BlockGrid::new(n, p);
    let d_block = BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j));
    let input = SymmInput {
        n,
        d_block: Some(d_block),
    };
    let result = symm_square_cube_cosma(rc, &mesh, &input);
    (
        result.d2.unwrap().unwrap_real().clone().into_vec(),
        result.d3.unwrap().unwrap_real().clone().into_vec(),
    )
}

#[test]
fn cosma_identical_on_both_backends() {
    let (sim, rt) = run_both(4, 2, dispatch!(|rc| cosma_worker(rc, 18, 2)));
    assert_eq!(sim, rt, "one-sided COSMA must be bit-identical");
}

#[test]
fn cosma_matches_summa_across_backends() {
    // One-sided and two-sided transports of the same schedule: every
    // backend × algorithm combination must produce the same bits.
    let (sim_c, rt_c) = run_both(9, 3, dispatch!(|rc| cosma_worker(rc, 20, 3)));
    let (sim_s, rt_s) = run_both(9, 3, dispatch!(|rc| summa_worker(rc, 20, 3, 2)));
    assert_eq!(sim_c, sim_s, "cosma vs SUMMA on sim");
    assert_eq!(rt_c, rt_s, "cosma vs SUMMA on rt");
}

// ---------------------------------------------------------------------
// 2.5-D SymmSquareCube.
// ---------------------------------------------------------------------

fn symm25d_worker<T: Transport>(
    rc: &RankCtx<T>,
    n: usize,
    q: usize,
    c: usize,
    n_dup: usize,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let mesh = Mesh25D::new(rc, q, c);
    let grid = BlockGrid::new(n, q);
    let d_block =
        (mesh.k == 0).then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
    let grd_ndup = NDupComms::new(&mesh.grd, n_dup);
    let input = SymmInput { n, d_block };
    let result = symm_square_cube_25d(rc, &mesh, &grd_ndup, &input);
    result.d2.map(|d2| {
        (
            d2.unwrap_real().clone().into_vec(),
            result.d3.unwrap().unwrap_real().clone().into_vec(),
        )
    })
}

#[test]
fn symm25d_identical_on_both_backends() {
    let (sim, rt) = run_both(8, 2, dispatch!(|rc| symm25d_worker(rc, 18, 2, 2, 2)));
    assert_eq!(sim, rt, "2.5D must be bit-identical");
}

// ---------------------------------------------------------------------
// Block CG (overlapped Gram reductions).
// ---------------------------------------------------------------------

fn blockcg_worker<T: Transport>(
    rc: &RankCtx<T>,
    n: usize,
    p: usize,
    s: usize,
) -> (usize, bool, Vec<f64>) {
    let mesh = Mesh2D::new(rc, p);
    let grid = BlockGrid::new(n, p);
    let part = Partition1D::new(n, p);
    let a_full = ovcomm_densemat::symmetric_with_spectrum(
        &(0..n)
            .map(|i| 1.0 + 10.0 * i as f64 / n as f64)
            .collect::<Vec<_>>(),
        77,
    );
    let a = BlockBuf::Real(grid.extract(&a_full, mesh.i, mesh.j));
    let b_full = Matrix::from_fn(n, s, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
    let (st, l) = part.range(mesh.j);
    let b_seg = BlockBuf::Real(b_full.submatrix(st, 0, l, s));
    let comms = CgComms::new(&mesh, 2);
    let cfg = BlockCgConfig {
        n,
        s,
        tol: 1e-10,
        max_iter: 200,
        overlap: true,
    };
    let res = block_cg(rc, &mesh, &comms, &cfg, &a, &b_seg);
    (
        res.iterations,
        res.converged,
        res.x_segment.unwrap_real().clone().into_vec(),
    )
}

#[test]
fn block_cg_identical_on_both_backends() {
    let (sim, rt) = run_both(4, 2, dispatch!(|rc| blockcg_worker(rc, 24, 2, 2)));
    assert!(sim[0].1, "CG must converge");
    assert_eq!(sim, rt, "block CG must be bit-identical");
}

// ---------------------------------------------------------------------
// Force-decomposition MD.
// ---------------------------------------------------------------------

fn md_worker<T: Transport>(
    rc: &RankCtx<T>,
    n: usize,
    p: usize,
    overlap: Option<usize>,
) -> Vec<f64> {
    let mesh = Mesh2D::new(rc, p);
    let cfg = MdConfig {
        n_particles: n,
        steps: 5,
        dt: 0.01,
        overlap,
        neighbors: None,
    };
    let state = md_init(rc, &mesh, &cfg, false);
    let fin = md_run(rc, &mesh, &cfg, state);
    match fin.x {
        VecBuf::Real(v) => v,
        VecBuf::Phantom(_) => unreachable!(),
    }
}

#[test]
fn md_identical_on_both_backends() {
    for overlap in [None, Some(3)] {
        let (sim, rt) = run_both(4, 2, dispatch!(move |rc| md_worker(rc, 12, 2, overlap)));
        assert_eq!(sim, rt, "MD (overlap {overlap:?}) must be bit-identical");
    }
}

// ---------------------------------------------------------------------
// Purification — the full application loop, to convergence.
// ---------------------------------------------------------------------

fn purify_worker<T: Transport>(
    rc: &RankCtx<T>,
    choice: KernelChoice,
) -> (usize, bool, Option<Vec<f64>>) {
    let cfg = PurifyConfig {
        n: 24,
        nocc: 8,
        tol: 1e-9,
        max_iter: 100,
        phantom: false,
        seed: 42,
    };
    let res = purify_rank(rc, &cfg, choice);
    (
        res.iterations,
        res.converged,
        res.d_block.map(|b| b.unwrap_real().clone().into_vec()),
    )
}

#[test]
fn purification_identical_on_both_backends() {
    for choice in [
        KernelChoice::Baseline,
        KernelChoice::Optimized { n_dup: 2 },
        KernelChoice::TwoFiveD { c: 2, n_dup: 2 },
    ] {
        let (sim, rt) = run_both(8, 2, dispatch!(move |rc| purify_worker(rc, choice)));
        assert!(sim[0].1, "{choice:?} must converge");
        assert_eq!(sim, rt, "{choice:?} purification must be bit-identical");
    }
}

// ---------------------------------------------------------------------
// Staged SCF (per-kernel PPN with Ibarrier sleep-polling) — exercises
// nonblocking barriers, MPI_Test polling and rank sleeping on real
// threads.
// ---------------------------------------------------------------------

fn scf_worker<T: Transport>(rc: &RankCtx<T>) -> (usize, usize) {
    let cfg = ScfConfig {
        purify: PurifyConfig {
            n: 16,
            nocc: 4,
            tol: 1e-8,
            max_iter: 60,
            phantom: false,
            seed: 9,
        },
        plan: StagePlan::per_node(1, 2),
        fock_time: SimDur::from_micros(50),
        scf_iterations: 2,
    };
    let res = scf_staged(rc, &cfg, KernelChoice::Baseline);
    (res.scf_iterations, res.kernel_calls)
}

#[test]
fn staged_scf_runs_on_both_backends_with_same_kernel_work() {
    // 16 ranks at ppn 2, 1 active per node → 8 actives forming a 2³ cube.
    // Poll counts legitimately differ across backends (wall-clock sleeps vs
    // virtual-time sleeps), so compare the deterministic outputs only.
    let (sim, rt) = run_both(16, 2, dispatch!(scf_worker));
    assert_eq!(sim, rt, "SCF iteration/kernel-call counts must agree");
    for (iters, _) in &rt {
        assert_eq!(*iters, 2);
    }
}
