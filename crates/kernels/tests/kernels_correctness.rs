//! End-to-end correctness of every distributed kernel against dense
//! references, plus the real/phantom timing-equivalence invariant and the
//! headline performance ordering at paper scale.

use ovcomm_core::NDupComms;
use ovcomm_densemat::{gemm, BlockBuf, BlockGrid, Matrix, Partition1D};
use ovcomm_kernels::{
    matvec_blocking, matvec_pipelined, symm_square_cube_25d, symm_square_cube_baseline,
    symm_square_cube_optimized, symm_square_cube_original, MatvecInput, Mesh25D, Mesh2D, Mesh3D,
    SymmInput, VecBuf,
};
use ovcomm_simmpi::{run, RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;

/// Deterministic symmetric test matrix (no RNG needed).
fn test_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let d = i.abs_diff(j) as f64;
        1.0 / (1.0 + d) + if i == j { 0.5 } else { 0.0 } + ((i + j) % 3) as f64 * 0.1
    })
}

#[derive(Clone, Copy, Debug)]
enum Algo {
    Original,
    Baseline,
    Optimized(usize),
}

/// Run a 3-D SymmSquareCube and assemble the global D², D³.
fn run_symm3d(n: usize, p: usize, algo: Algo) -> (Matrix, Matrix) {
    let out = run(
        SimConfig::natural(p * p * p, 4, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let mesh = Mesh3D::new(&rc, p);
            let grid = BlockGrid::new(n, p);
            let d_block = (mesh.k == 0).then(|| {
                let full = test_matrix(n);
                BlockBuf::Real(grid.extract(&full, mesh.i, mesh.j))
            });
            let input = SymmInput { n, d_block };
            let result = match algo {
                Algo::Original => symm_square_cube_original(&rc, &mesh, &input),
                Algo::Baseline => symm_square_cube_baseline(&rc, &mesh, &input),
                Algo::Optimized(n_dup) => {
                    let bundles = mesh.dup_bundles(n_dup);
                    symm_square_cube_optimized(&rc, &mesh, &bundles, &input)
                }
            };
            result.d2.map(|d2| {
                (
                    mesh.i,
                    mesh.j,
                    d2.unwrap_real().clone().into_vec(),
                    result.d3.unwrap().unwrap_real().clone().into_vec(),
                )
            })
        },
    )
    .unwrap_or_else(|e| panic!("{algo:?} n={n} p={p}: {e}"));

    let grid = BlockGrid::new(n, p);
    let mut d2_blocks = vec![Matrix::zeros(0, 0); p * p];
    let mut d3_blocks = vec![Matrix::zeros(0, 0); p * p];
    for res in out.results.into_iter().flatten() {
        let (i, j, d2, d3) = res;
        let (r, c) = grid.block_dims(i, j);
        d2_blocks[i * p + j] = Matrix::from_vec(r, c, d2);
        d3_blocks[i * p + j] = Matrix::from_vec(r, c, d3);
    }
    (grid.assemble(&d2_blocks), grid.assemble(&d3_blocks))
}

fn check_symm3d(n: usize, p: usize, algo: Algo) {
    let d = test_matrix(n);
    let d2_ref = gemm(&d, &d);
    let d3_ref = gemm(&d2_ref, &d);
    let (d2, d3) = run_symm3d(n, p, algo);
    assert!(
        d2.max_abs_diff(&d2_ref) < 1e-8,
        "{algo:?} D² wrong (n={n}, p={p}): err {}",
        d2.max_abs_diff(&d2_ref)
    );
    assert!(
        d3.max_abs_diff(&d3_ref) < 1e-7,
        "{algo:?} D³ wrong (n={n}, p={p}): err {}",
        d3.max_abs_diff(&d3_ref)
    );
}

#[test]
fn original_algorithm_correct_p2() {
    check_symm3d(18, 2, Algo::Original);
}

#[test]
fn original_algorithm_correct_p3_unbalanced() {
    // n = 20, p = 3: unbalanced blocks (7, 7, 6).
    check_symm3d(20, 3, Algo::Original);
}

#[test]
fn baseline_algorithm_correct_p2_and_p3() {
    check_symm3d(18, 2, Algo::Baseline);
    check_symm3d(20, 3, Algo::Baseline);
}

#[test]
fn optimized_algorithm_correct_all_ndup() {
    for n_dup in [1, 2, 3, 4] {
        check_symm3d(18, 2, Algo::Optimized(n_dup));
    }
    check_symm3d(20, 3, Algo::Optimized(2));
    check_symm3d(20, 3, Algo::Optimized(4));
}

#[test]
fn all_algorithms_agree_at_p4() {
    // 64 ranks, small blocks — exercises every code path on a real mesh.
    check_symm3d(25, 4, Algo::Original);
    check_symm3d(25, 4, Algo::Baseline);
    check_symm3d(25, 4, Algo::Optimized(2));
}

#[test]
fn phantom_and_real_kernel_take_identical_virtual_time() {
    let go = |phantom: bool| {
        run(
            SimConfig::natural(8, 2, MachineProfile::test_profile()),
            move |rc: RankCtx| {
                let mesh = Mesh3D::new(&rc, 2);
                let grid = BlockGrid::new(16, 2);
                let d_block = (mesh.k == 0).then(|| {
                    if phantom {
                        let (r, c) = grid.block_dims(mesh.i, mesh.j);
                        BlockBuf::Phantom(r, c)
                    } else {
                        BlockBuf::Real(grid.extract(&test_matrix(16), mesh.i, mesh.j))
                    }
                });
                let bundles = mesh.dup_bundles(3);
                let input = SymmInput { n: 16, d_block };
                let _ = symm_square_cube_optimized(&rc, &mesh, &bundles, &input);
                rc.now().as_nanos()
            },
        )
        .unwrap()
    };
    let real = go(false);
    let phantom = go(true);
    assert_eq!(real.makespan, phantom.makespan);
    assert_eq!(real.end_times, phantom.end_times);
    assert_eq!(real.inter_node_bytes, phantom.inter_node_bytes);
}

#[test]
fn optimized_beats_baseline_at_paper_scale() {
    // 1hsg_70 geometry: N = 7645, 4×4×4 mesh, 64 nodes, PPN = 1, phantom
    // data, calibrated profile. Paper (Table I): Alg 5 ≈ 1.17× Alg 4.
    let n = 7645;
    let go = |n_dup: usize| {
        run(
            SimConfig::natural(64, 1, MachineProfile::stampede2_skylake()),
            move |rc: RankCtx| {
                let mesh = Mesh3D::new(&rc, 4);
                let grid = BlockGrid::new(n, 4);
                let d_block = (mesh.k == 0).then(|| {
                    let (r, c) = grid.block_dims(mesh.i, mesh.j);
                    BlockBuf::Phantom(r, c)
                });
                let bundles = mesh.dup_bundles(n_dup);
                let input = SymmInput { n, d_block };
                let t0 = rc.now();
                let _ = symm_square_cube_optimized(&rc, &mesh, &bundles, &input);
                rc.world().barrier();
                (rc.now() - t0).as_secs_f64()
            },
        )
        .unwrap()
    };
    let baseline = go(1);
    let optimized = go(4);
    let t_base = baseline.makespan.as_secs_f64();
    let t_opt = optimized.makespan.as_secs_f64();
    assert!(
        t_opt < t_base,
        "optimized ({t_opt:.4}s) must beat baseline ({t_base:.4}s)"
    );
    let speedup = t_base / t_opt;
    assert!(
        speedup > 1.05 && speedup < 2.0,
        "speedup {speedup:.3} out of the plausible band"
    );
}

// ---------------------------------------------------------------------
// Matrix–vector (Algorithms 1–2).
// ---------------------------------------------------------------------

fn run_matvec(n: usize, p: usize, n_dup: Option<usize>) -> Vec<f64> {
    let out = run(
        SimConfig::natural(p * p, 2, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let mesh = Mesh2D::new(&rc, p);
            let part = Partition1D::new(n, p);
            let full = test_matrix(n);
            let grid = BlockGrid::new(n, p);
            let a = BlockBuf::Real(grid.extract(&full, mesh.i, mesh.j));
            let x_full: Vec<f64> = (0..n).map(|t| (t as f64 * 0.3).sin()).collect();
            let (s, l) = part.range(mesh.j);
            let x = VecBuf::Real(x_full[s..s + l].to_vec());
            let input = MatvecInput { n, a, x };
            let y = match n_dup {
                None => matvec_blocking(&rc, &mesh, &input),
                Some(d) => {
                    let row_ndup = NDupComms::new(&mesh.row, d);
                    let col_ndup = NDupComms::new(&mesh.col, d);
                    matvec_pipelined(&rc, &mesh, &row_ndup, &col_ndup, &input)
                }
            };
            match y {
                VecBuf::Real(v) => (mesh.i, mesh.j, v),
                VecBuf::Phantom(_) => unreachable!(),
            }
        },
    )
    .unwrap();

    // y is distributed as x: P(:, j) all hold y_j; collect from row i = 0.
    let part = Partition1D::new(n, p);
    let mut y = vec![0.0; n];
    for (i, j, v) in out.results {
        if i == 0 {
            let (s, l) = part.range(j);
            assert_eq!(v.len(), l);
            y[s..s + l].copy_from_slice(&v);
        }
    }
    y
}

fn check_matvec(n: usize, p: usize, n_dup: Option<usize>) {
    let full = test_matrix(n);
    let x: Vec<f64> = (0..n).map(|t| (t as f64 * 0.3).sin()).collect();
    let want = full.matvec(&x);
    let got = run_matvec(n, p, n_dup);
    for t in 0..n {
        assert!(
            (got[t] - want[t]).abs() < 1e-9,
            "matvec n={n} p={p} n_dup={n_dup:?} elem {t}: {} vs {}",
            got[t],
            want[t]
        );
    }
}

#[test]
fn matvec_blocking_correct() {
    check_matvec(17, 2, None);
    check_matvec(23, 3, None);
    check_matvec(16, 4, None);
}

#[test]
fn matvec_pipelined_correct_all_ndup() {
    for d in [1, 2, 4] {
        check_matvec(17, 2, Some(d));
        check_matvec(23, 3, Some(d));
    }
}

#[test]
fn matvec_replicas_agree_down_columns() {
    // Every rank in a column must hold the same y_j.
    let n = 12;
    let p = 2;
    let out = run(
        SimConfig::natural(4, 2, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let mesh = Mesh2D::new(&rc, p);
            let part = Partition1D::new(n, p);
            let full = test_matrix(n);
            let grid = BlockGrid::new(n, p);
            let a = BlockBuf::Real(grid.extract(&full, mesh.i, mesh.j));
            let x_full: Vec<f64> = (0..n).map(|t| t as f64).collect();
            let (s, l) = part.range(mesh.j);
            let input = MatvecInput {
                n,
                a,
                x: VecBuf::Real(x_full[s..s + l].to_vec()),
            };
            match matvec_blocking(&rc, &mesh, &input) {
                VecBuf::Real(v) => (mesh.j, v),
                _ => unreachable!(),
            }
        },
    )
    .unwrap();
    for j in 0..p {
        let copies: Vec<&Vec<f64>> = out
            .results
            .iter()
            .filter(|(jj, _)| *jj == j)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(copies.len(), p);
        for c in &copies[1..] {
            assert_eq!(*c, copies[0], "column {j} replicas disagree");
        }
    }
}

// ---------------------------------------------------------------------
// 2.5D SymmSquareCube (Algorithm 6).
// ---------------------------------------------------------------------

fn run_symm25d(n: usize, q: usize, c: usize, n_dup: usize) -> (Matrix, Matrix) {
    let out = run(
        SimConfig::natural(q * q * c, 4, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let mesh = Mesh25D::new(&rc, q, c);
            let grid = BlockGrid::new(n, q);
            let d_block = (mesh.k == 0)
                .then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
            let grd_ndup = NDupComms::new(&mesh.grd, n_dup);
            let input = SymmInput { n, d_block };
            let result = symm_square_cube_25d(&rc, &mesh, &grd_ndup, &input);
            result.d2.map(|d2| {
                (
                    mesh.i,
                    mesh.j,
                    d2.unwrap_real().clone().into_vec(),
                    result.d3.unwrap().unwrap_real().clone().into_vec(),
                )
            })
        },
    )
    .unwrap_or_else(|e| panic!("2.5D n={n} q={q} c={c}: {e}"));

    let grid = BlockGrid::new(n, q);
    let mut d2_blocks = vec![Matrix::zeros(0, 0); q * q];
    let mut d3_blocks = vec![Matrix::zeros(0, 0); q * q];
    for res in out.results.into_iter().flatten() {
        let (i, j, d2, d3) = res;
        let (r, cc) = grid.block_dims(i, j);
        d2_blocks[i * q + j] = Matrix::from_vec(r, cc, d2);
        d3_blocks[i * q + j] = Matrix::from_vec(r, cc, d3);
    }
    (grid.assemble(&d2_blocks), grid.assemble(&d3_blocks))
}

fn check_symm25d(n: usize, q: usize, c: usize, n_dup: usize) {
    let d = test_matrix(n);
    let d2_ref = gemm(&d, &d);
    let d3_ref = gemm(&d2_ref, &d);
    let (d2, d3) = run_symm25d(n, q, c, n_dup);
    assert!(
        d2.max_abs_diff(&d2_ref) < 1e-8,
        "2.5D D² wrong (n={n}, q={q}, c={c}, n_dup={n_dup})"
    );
    assert!(
        d3.max_abs_diff(&d3_ref) < 1e-7,
        "2.5D D³ wrong (n={n}, q={q}, c={c}, n_dup={n_dup})"
    );
}

#[test]
fn symm25d_pure_cannon_c1() {
    // c = 1 degenerates to plain 2-D Cannon (q steps, one plane).
    check_symm25d(18, 2, 1, 1);
    check_symm25d(21, 3, 1, 1);
}

#[test]
fn symm25d_replicated_planes() {
    check_symm25d(18, 2, 2, 1); // 8 ranks, fully 3-D-like
    check_symm25d(21, 3, 3, 1); // 27 ranks
    check_symm25d(22, 4, 2, 1); // 32 ranks, 2 planes of 2 steps
}

#[test]
fn symm25d_with_nonblocking_overlap() {
    check_symm25d(18, 2, 2, 2);
    check_symm25d(22, 4, 2, 4);
}

#[test]
fn symm25d_unbalanced_blocks() {
    // n = 23 over q = 4: blocks of 6,6,6,5.
    check_symm25d(23, 4, 2, 2);
}

/// Every collective call shape one Strict Algorithm 5 run logs on a
/// 4×4×4 mesh (N_DUP = 2), with its count summed over ranks: the
/// verifier's `coll_calls` multiset, pinned whole.
#[test]
fn optimized_coll_calls_are_pinned_on_a_4x4x4_mesh() {
    let out = run(
        SimConfig::natural(64, 4, MachineProfile::test_profile()),
        |rc: RankCtx| {
            let mesh = Mesh3D::new(&rc, 4);
            let grid = BlockGrid::new(32, 4);
            let d_block = (mesh.k == 0).then(|| {
                let (r, c) = grid.block_dims(mesh.i, mesh.j);
                BlockBuf::Phantom(r, c)
            });
            let bundles = mesh.dup_bundles(2);
            let input = SymmInput { n: 32, d_block };
            let _ = symm_square_cube_optimized(&rc, &mesh, &bundles, &input);
        },
    )
    .expect("a clean Strict run");
    let calls: Vec<String> = out
        .verify
        .coll_calls
        .iter()
        .map(|(&(ctx, kind, root, len, blocking), n)| {
            let root = root.map_or("-".to_string(), |r| r.to_string());
            let form = if blocking { "b" } else { "nb" };
            format!("{ctx} {kind:?} {root} {len} {form} x{n}")
        })
        .collect();
    assert_eq!(calls.join("; "), OPTIMIZED_COLL_CALLS);
}

/// `ctx kind root len blocking-form xcount`, in `coll_calls` key order.
const OPTIMIZED_COLL_CALLS: &str =
    "0 Dup - 0 nb x128; 0 Split - 0 b x192; 1 Dup - 0 nb x8; 2 Dup - 0 nb x8; 3 Dup - 0 nb \
    x8; 4 Dup - 0 nb x8; 5 Dup - 0 nb x8; 6 Dup - 0 nb x8; 7 Dup - 0 nb x8; 8 Dup - 0 nb x8; \
    9 Dup - 0 nb x8; 10 Dup - 0 nb x8; 11 Dup - 0 nb x8; 12 Dup - 0 nb x8; 13 Dup - 0 nb x8; \
    14 Dup - 0 nb x8; 15 Dup - 0 nb x8; 16 Dup - 0 nb x8; 17 Dup - 0 nb x8; 18 Dup - 0 nb \
    x8; 19 Dup - 0 nb x8; 20 Dup - 0 nb x8; 21 Dup - 0 nb x8; 22 Dup - 0 nb x8; 23 Dup - 0 \
    nb x8; 24 Dup - 0 nb x8; 25 Dup - 0 nb x8; 26 Dup - 0 nb x8; 27 Dup - 0 nb x8; 28 Dup - \
    0 nb x8; 29 Dup - 0 nb x8; 30 Dup - 0 nb x8; 31 Dup - 0 nb x8; 32 Dup - 0 nb x8; 33 Dup \
    - 0 nb x8; 34 Dup - 0 nb x8; 35 Dup - 0 nb x8; 36 Dup - 0 nb x8; 37 Dup - 0 nb x8; 38 \
    Dup - 0 nb x8; 39 Dup - 0 nb x8; 40 Dup - 0 nb x8; 41 Dup - 0 nb x8; 42 Dup - 0 nb x8; \
    43 Dup - 0 nb x8; 44 Dup - 0 nb x8; 45 Dup - 0 nb x8; 46 Dup - 0 nb x8; 47 Dup - 0 nb \
    x8; 48 Dup - 0 nb x8; 49 Bcast 3 256 nb x8; 50 Bcast 3 256 nb x8; 51 Reduce 3 256 nb x8; \
    52 Reduce 3 256 nb x8; 53 Bcast 0 256 nb x4; 54 Bcast 0 256 nb x4; 57 Bcast 0 256 nb x8; \
    58 Bcast 0 256 nb x8; 59 Reduce 0 256 nb x8; 60 Reduce 0 256 nb x8; 61 Bcast 0 256 nb \
    x4; 62 Bcast 0 256 nb x4; 63 Bcast 0 256 nb x4; 63 Bcast 1 256 nb x4; 64 Bcast 0 256 nb \
    x4; 64 Bcast 1 256 nb x4; 65 Bcast 0 256 nb x4; 66 Bcast 0 256 nb x4; 67 Bcast 0 256 nb \
    x4; 67 Bcast 2 256 nb x4; 68 Bcast 0 256 nb x4; 68 Bcast 2 256 nb x4; 69 Bcast 0 256 nb \
    x4; 70 Bcast 0 256 nb x4; 71 Bcast 0 256 nb x4; 71 Bcast 3 256 nb x4; 72 Bcast 0 256 nb \
    x4; 72 Bcast 3 256 nb x4; 73 Bcast 0 256 nb x4; 74 Bcast 0 256 nb x4; 75 Reduce 0 256 nb \
    x4; 75 Reduce 1 256 nb x4; 76 Reduce 0 256 nb x4; 76 Reduce 1 256 nb x4; 77 Bcast 0 256 \
    nb x4; 78 Bcast 0 256 nb x4; 79 Bcast 0 256 nb x4; 80 Bcast 0 256 nb x4; 81 Bcast 0 256 \
    nb x4; 82 Bcast 0 256 nb x4; 83 Bcast 0 256 nb x4; 84 Bcast 0 256 nb x4; 85 Reduce 0 256 \
    nb x4; 85 Reduce 2 256 nb x4; 86 Reduce 0 256 nb x4; 86 Reduce 2 256 nb x4; 87 Bcast 0 \
    256 nb x4; 88 Bcast 0 256 nb x4; 89 Bcast 0 256 nb x4; 90 Bcast 0 256 nb x4; 91 Bcast 0 \
    256 nb x4; 92 Bcast 0 256 nb x4; 93 Bcast 0 256 nb x4; 94 Bcast 0 256 nb x4; 95 Reduce 0 \
    256 nb x4; 95 Reduce 3 256 nb x4; 96 Reduce 0 256 nb x4; 96 Reduce 3 256 nb x4; 97 Bcast \
    0 256 nb x4; 98 Bcast 0 256 nb x4; 99 Bcast 0 256 nb x4; 100 Bcast 0 256 nb x4; 101 \
    Bcast 0 256 nb x4; 102 Bcast 0 256 nb x4; 103 Bcast 0 256 nb x4; 103 Bcast 1 256 nb x4; \
    104 Bcast 0 256 nb x4; 104 Bcast 1 256 nb x4; 105 Reduce 0 256 nb x4; 105 Reduce 1 256 \
    nb x4; 106 Reduce 0 256 nb x4; 106 Reduce 1 256 nb x4; 107 Bcast 1 256 nb x8; 108 Bcast \
    1 256 nb x8; 109 Bcast 1 256 nb x4; 109 Bcast 2 256 nb x4; 110 Bcast 1 256 nb x4; 110 \
    Bcast 2 256 nb x4; 111 Bcast 1 256 nb x4; 111 Bcast 3 256 nb x4; 112 Bcast 1 256 nb x4; \
    112 Bcast 3 256 nb x4; 113 Reduce 1 256 nb x8; 114 Reduce 1 256 nb x8; 115 Reduce 1 256 \
    nb x4; 115 Reduce 2 256 nb x4; 116 Reduce 1 256 nb x4; 116 Reduce 2 256 nb x4; 117 \
    Reduce 1 256 nb x4; 117 Reduce 3 256 nb x4; 118 Reduce 1 256 nb x4; 118 Reduce 3 256 nb \
    x4; 119 Bcast 0 256 nb x4; 119 Bcast 2 256 nb x4; 120 Bcast 0 256 nb x4; 120 Bcast 2 256 \
    nb x4; 121 Reduce 0 256 nb x4; 121 Reduce 2 256 nb x4; 122 Reduce 0 256 nb x4; 122 \
    Reduce 2 256 nb x4; 123 Bcast 1 256 nb x4; 123 Bcast 2 256 nb x4; 124 Bcast 1 256 nb x4; \
    124 Bcast 2 256 nb x4; 125 Bcast 2 256 nb x8; 126 Bcast 2 256 nb x8; 127 Bcast 2 256 nb \
    x4; 127 Bcast 3 256 nb x4; 128 Bcast 2 256 nb x4; 128 Bcast 3 256 nb x4; 129 Reduce 1 \
    256 nb x4; 129 Reduce 2 256 nb x4; 130 Reduce 1 256 nb x4; 130 Reduce 2 256 nb x4; 131 \
    Reduce 2 256 nb x8; 132 Reduce 2 256 nb x8; 133 Reduce 2 256 nb x4; 133 Reduce 3 256 nb \
    x4; 134 Reduce 2 256 nb x4; 134 Reduce 3 256 nb x4; 135 Bcast 0 256 nb x4; 135 Bcast 3 \
    256 nb x4; 136 Bcast 0 256 nb x4; 136 Bcast 3 256 nb x4; 137 Reduce 0 256 nb x4; 137 \
    Reduce 3 256 nb x4; 138 Reduce 0 256 nb x4; 138 Reduce 3 256 nb x4; 139 Bcast 1 256 nb \
    x4; 139 Bcast 3 256 nb x4; 140 Bcast 1 256 nb x4; 140 Bcast 3 256 nb x4; 141 Bcast 2 256 \
    nb x4; 141 Bcast 3 256 nb x4; 142 Bcast 2 256 nb x4; 142 Bcast 3 256 nb x4; 143 Reduce 1 \
    256 nb x4; 143 Reduce 3 256 nb x4; 144 Reduce 1 256 nb x4; 144 Reduce 3 256 nb x4; 145 \
    Reduce 2 256 nb x4; 145 Reduce 3 256 nb x4; 146 Reduce 2 256 nb x4; 146 Reduce 3 256 nb \
    x4";
