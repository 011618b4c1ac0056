//! Every kernel, run twice at small scale, must produce bit-identical
//! simulations — same per-rank outputs, same virtual end times, same
//! traffic counters — and must equal its pinned [`Golden`] values.
//!
//! The literals are the last verdict of the retired thread-per-rank
//! executor: they were recorded from its run of each program at commit
//! `ef982b7` (PR 13), where the fiber scheduler produced the same values
//! (hence the test names, kept from that differential suite). A change in
//! them is a change in scheduler order or in the model, not a numerics
//! issue. The `cosma` case (the one kernel over one-sided windows) was
//! added later; its literal was printed by commit `94985ee` (PR 14), the
//! last one with a simulator-only window implementation.

use std::sync::Arc;

use ovcomm_core::NDupComms;
use ovcomm_densemat::{BlockBuf, BlockGrid, Matrix, Partition1D};
use ovcomm_kernels::{
    block_cg, matvec_blocking, matvec_pipelined, md_init, md_run, summa_multiply,
    summa_multiply_pipelined, symm_square_cube_25d, symm_square_cube_baseline,
    symm_square_cube_cosma, symm_square_cube_optimized, symm_square_cube_original, BlockCgConfig,
    CgComms, MatvecInput, MdConfig, Mesh25D, Mesh2D, Mesh3D, SummaBundles, SymmInput, VecBuf,
};
use ovcomm_simmpi::{run, RankCtx, SimConfig, SimOutput};
use ovcomm_simnet::{MachineProfile, SimTime};

fn test_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let d = i.abs_diff(j) as f64;
        1.0 / (1.0 + d) + if i == j { 0.5 } else { 0.0 } + ((i + j) % 3) as f64 * 0.1
    })
}

/// Fold a slice of f64s into a single bit pattern (wrapping, order-fixed).
fn bits(v: &[f64]) -> u64 {
    v.iter().fold(0u64, |a, x| a.wrapping_add(x.to_bits()))
}

/// What one program's simulation must reproduce: makespan (ns), messages,
/// inter-node bytes, intra-node bytes, and an order-sensitive fold of the
/// per-rank `(result bits, rank-local end time)` pairs.
#[derive(Debug, PartialEq)]
struct Golden(u64, u64, u64, u64, u64);

/// Run `body` (which returns a bit pattern) twice; the runs must match
/// each other in the entire observable simulation and match `golden`.
fn assert_deterministic<F>(nranks: usize, ppn: usize, golden: Golden, body: F)
where
    F: Fn(&RankCtx) -> u64 + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let run_once = || -> SimOutput<(u64, SimTime)> {
        let b = body.clone();
        run(
            SimConfig::natural(nranks, ppn, MachineProfile::test_profile()),
            move |rc: RankCtx| {
                let out = b(&rc);
                (out, rc.now())
            },
        )
        .unwrap_or_else(|e| panic!("run failed: {e}"))
    };
    let (a, b) = (run_once(), run_once());
    assert_eq!(a.results, b.results, "per-rank results diverge");
    assert_eq!(a.end_times, b.end_times, "virtual end times diverge");
    let observed = |o: &SimOutput<(u64, SimTime)>| {
        let fold = o.results.iter().fold(0u64, |h, &(bits, t)| {
            (h.rotate_left(7) ^ bits).wrapping_add(t.as_nanos())
        });
        Golden(
            o.makespan.as_nanos(),
            o.messages,
            o.inter_node_bytes,
            o.intra_node_bytes,
            fold,
        )
    };
    assert_eq!(observed(&a), observed(&b), "second run diverges");
    assert_eq!(observed(&a), golden, "run diverges from the pinned values");
}

#[test]
fn matvec_blocking_and_pipelined_match_across_modes() {
    for (n_dup, golden) in [
        (None, Golden(1913, 4, 136, 136, 0x3ade595b291b5c12)),
        (Some(2), Golden(2005, 8, 136, 136, 0x3ade5958c2a7b2de)),
    ] {
        assert_deterministic(4, 2, golden, move |rc| {
            let p = 2;
            let n = 17;
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
                    let row = NDupComms::new(&mesh.row, d);
                    let col = NDupComms::new(&mesh.col, d);
                    matvec_pipelined(rc, &mesh, &row, &col, &input)
                }
            };
            match y {
                VecBuf::Real(v) => bits(&v),
                VecBuf::Phantom(_) => unreachable!(),
            }
        });
    }
}

#[test]
fn symm3d_all_algorithms_match_across_modes() {
    let goldens = [
        Golden(20973, 26, 5184, 11664, 0xfbc427bb284de356),
        Golden(18879, 25, 5184, 11016, 0x2c38c3f5cff4269f),
        Golden(14001, 50, 5184, 11016, 0x07f00d53f622c421),
    ];
    for (algo, golden) in goldens.into_iter().enumerate() {
        assert_deterministic(8, 4, golden, move |rc| {
            let (n, p) = (18, 2);
            let mesh = Mesh3D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let d_block = (mesh.k == 0)
                .then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
            let input = SymmInput { n, d_block };
            let result = match algo {
                0 => symm_square_cube_original(rc, &mesh, &input),
                1 => symm_square_cube_baseline(rc, &mesh, &input),
                _ => {
                    let bundles = mesh.dup_bundles(2);
                    symm_square_cube_optimized(rc, &mesh, &bundles, &input)
                }
            };
            result.d2.map_or(0, |d2| {
                bits(d2.unwrap_real().data())
                    .wrapping_add(bits(result.d3.unwrap().unwrap_real().data()))
            })
        });
    }
}

#[test]
fn symm25d_matches_across_modes() {
    let golden = Golden(18455, 48, 10368, 10368, 0xc2e2ec7cfcb6e233);
    assert_deterministic(8, 4, golden, |rc| {
        let (n, q, c) = (18, 2, 2);
        let mesh = Mesh25D::new(rc, q, c);
        let grid = BlockGrid::new(n, q);
        let d_block =
            (mesh.k == 0).then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
        let grd_ndup = NDupComms::new(&mesh.grd, 2);
        let input = SymmInput { n, d_block };
        let result = symm_square_cube_25d(rc, &mesh, &grd_ndup, &input);
        result.d2.map_or(0, |d2| {
            bits(d2.unwrap_real().data())
                .wrapping_add(bits(result.d3.unwrap().unwrap_real().data()))
        })
    });
}

#[test]
fn summa_plain_and_pipelined_match_across_modes() {
    for (pipelined, golden) in [
        (false, Golden(7002, 16, 2048, 2048, 0xeb58038b5a3a34ca)),
        (true, Golden(3606, 8, 2048, 2048, 0xeb58038945cff02f)),
    ] {
        assert_deterministic(4, 2, golden, move |rc| {
            let (n, p) = (16, 2);
            let mesh = Mesh2D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let bundles = SummaBundles::new(&mesh, 2);
            let a = BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j));
            let b = BlockBuf::Real(grid.extract(&test_matrix(n).transpose(), mesh.i, mesh.j));
            let rate = rc.profile().process_flops(1, n / p);
            let c = if pipelined {
                summa_multiply_pipelined(rc, &mesh, &grid, &bundles, &a, &b, rate)
            } else {
                summa_multiply(rc, &mesh, &grid, &bundles, &a, &b, rate)
            };
            bits(c.unwrap_real().data())
        });
    }
}

#[test]
fn cosma_one_sided_multiply_matches_pinned_values() {
    // Gets under one fence-delimited epoch per operand window, on a 3×3
    // mesh at PPN 2 so transfers cross both intra- and inter-node paths.
    let golden = Golden(112265, 972, 21232, 17168, 0x325af374e0f75d3b);
    assert_deterministic(9, 2, golden, |rc| {
        let (n, p) = (20, 3);
        let mesh = Mesh2D::new(rc, p);
        let grid = BlockGrid::new(n, p);
        let d_block = Some(BlockBuf::Real(grid.extract(
            &test_matrix(n),
            mesh.i,
            mesh.j,
        )));
        let result = symm_square_cube_cosma(rc, &mesh, &SymmInput { n, d_block });
        bits(result.d2.unwrap().unwrap_real().data())
            .wrapping_add(bits(result.d3.unwrap().unwrap_real().data()))
    });
}

#[test]
fn block_cg_matches_across_modes() {
    for (overlap, golden) in [
        (false, Golden(43634, 140, 3584, 3584, 0x7997c272a7d9023d)),
        (true, Golden(40540, 140, 3584, 3584, 0x7997c271270f7ca7)),
    ] {
        assert_deterministic(4, 2, golden, move |rc| {
            let (n, p, s) = (20, 2, 2);
            let mesh = Mesh2D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let part = Partition1D::new(n, p);
            // SPD by diagonal dominance — deterministic, no RNG.
            let a_full = Matrix::from_fn(n, n, |i, j| {
                let base = 1.0 / (1.0 + i.abs_diff(j) as f64);
                if i == j {
                    base + n as f64
                } else {
                    base
                }
            });
            let a = BlockBuf::Real(grid.extract(&a_full, mesh.i, mesh.j));
            let b_full = Matrix::from_fn(n, s, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
            let (st, l) = part.range(mesh.j);
            let b_seg = BlockBuf::Real(b_full.submatrix(st, 0, l, s));
            let comms = CgComms::new(&mesh, 2);
            let cfg = BlockCgConfig {
                n,
                s,
                tol: 1e-10,
                max_iter: 50,
                overlap,
            };
            let res = block_cg(rc, &mesh, &comms, &cfg, &a, &b_seg);
            bits(res.x_segment.unwrap_real().data()).wrapping_add(res.iterations as u64)
        });
    }
}

#[test]
fn particles_md_matches_across_modes() {
    for (overlap, golden) in [
        (None, Golden(10286, 26, 768, 1728, 0xa2993e11c73ad291)),
        (Some(2), Golden(10922, 42, 768, 1728, 0xa2993e115037876e)),
    ] {
        assert_deterministic(4, 2, golden, move |rc| {
            let mesh = Mesh2D::new(rc, 2);
            let cfg = MdConfig {
                n_particles: 24,
                steps: 4,
                dt: 0.01,
                overlap,
                neighbors: None,
            };
            let state = md_init(rc, &mesh, &cfg, false);
            let fin = md_run(rc, &mesh, &cfg, state);
            match fin.x {
                VecBuf::Real(v) => bits(&v),
                VecBuf::Phantom(_) => 0,
            }
        });
    }
}
