//! Workspace-level integration tests: the full stack (simulator → MPI →
//! overlap library → kernels → purification) exercised end to end through
//! the `ovcomm` facade.

use ovcomm::densemat::BlockBuf;
use ovcomm::densemat::{exact_density, fock_like_spectrum, gemm, BlockGrid, Matrix};
use ovcomm::kernels::{symm_square_cube_baseline, symm_square_cube_optimized, Mesh3D, SymmInput};
use ovcomm::prelude::*;
use ovcomm::purify::{purify_rank, KernelChoice, PurifyConfig};

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check mostly; also a minimal run through the prelude.
    let out = run(
        SimConfig::natural(2, 1, MachineProfile::test_profile()),
        |rc: RankCtx| {
            let w = rc.world();
            if rc.rank() == 0 {
                w.send(1, 0, Payload::from_f64s(&[1.0]));
                0.0
            } else {
                w.recv(0, 0).to_f64s()[0]
            }
        },
    )
    .unwrap();
    assert_eq!(out.results[1], 1.0);
}

#[test]
fn full_pipeline_purification_matches_exact_projector() {
    // 27 ranks (3×3×3 mesh), optimized kernel with N_DUP = 2, real data.
    let n = 27;
    let nocc = 9;
    let seed = 31;
    let cfg = PurifyConfig {
        n,
        nocc,
        tol: 1e-10,
        max_iter: 60,
        phantom: false,
        seed,
    };
    let out = run(
        SimConfig::natural(27, 4, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let res = purify_rank(&rc, &cfg, KernelChoice::Optimized { n_dup: 2 });
            (
                res.converged,
                res.d_block.map(|b| b.unwrap_real().clone().into_vec()),
                rc.rank(),
            )
        },
    )
    .unwrap();
    let p = 3;
    let grid = BlockGrid::new(n, p);
    let mut blocks = vec![Matrix::zeros(0, 0); p * p];
    for (converged, block, rank) in out.results {
        if let Some(v) = block {
            assert!(converged);
            let (i, j) = (rank / p, rank % p);
            let (r, c) = grid.block_dims(i, j);
            blocks[i * p + j] = Matrix::from_vec(r, c, v);
        }
    }
    let d = grid.assemble(&blocks);
    let exact = exact_density(&fock_like_spectrum(n, nocc), nocc, seed);
    assert!(d.max_abs_diff(&exact) < 1e-6);
}

#[test]
fn whole_runs_are_deterministic_across_repetitions() {
    let go = || {
        let cfg = PurifyConfig {
            n: 20,
            nocc: 6,
            tol: 1e-9,
            max_iter: 40,
            phantom: false,
            seed: 9,
        };
        run(
            SimConfig::natural(8, 4, MachineProfile::stampede2_skylake()),
            move |rc: RankCtx| {
                let res = purify_rank(&rc, &cfg, KernelChoice::Optimized { n_dup: 4 });
                (
                    res.iterations,
                    res.kernel_time.as_nanos(),
                    rc.now().as_nanos(),
                )
            },
        )
        .unwrap()
    };
    let a = go();
    let b = go();
    assert_eq!(a.results, b.results);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.inter_node_bytes, b.inter_node_bytes);
    assert_eq!(a.messages, b.messages);
}

#[test]
fn scheduler_order_is_pinned_for_overlapping_nonblocking_collectives() {
    // Two nonblocking collectives on dup'd communicators plus an ibarrier
    // at p = 8, PPN 4 — the program of the simmpi `determinism` suite that
    // exercises op actors. The literals were recorded from the retired
    // thread-per-rank executor at commit `ef982b7` (the fiber scheduler
    // agreed); a change in them is a change in `(time, id)` release order.
    let go = || {
        run(
            SimConfig::natural(8, 4, MachineProfile::test_profile()),
            |rc: RankCtx| {
                let w = rc.world();
                let me = rc.rank();
                let contrib = |r: usize, len: usize| {
                    Payload::from_f64s(&(0..len).map(|i| (r * len + i) as f64).collect::<Vec<_>>())
                };
                let (c1, c2) = (w.dup(), w.dup());
                let r1 = c1.ibcast(0, (me == 0).then(|| contrib(2, 1024)), 1024 * 8);
                let r2 = c2.iallreduce(contrib(me, 512));
                let rb = w.ibarrier();
                let (a, b) = (c1.wait(&r1), c2.wait(&r2));
                w.wait(&rb);
                (a.to_f64s(), b.to_f64s(), rc.now())
            },
        )
        .unwrap()
    };
    let (a, b) = (go(), go());
    assert_eq!(a.results, b.results);
    assert_eq!(a.end_times, b.end_times);
    for o in [&a, &b] {
        assert_eq!(o.makespan.as_nanos(), 75_479);
        assert_eq!(o.messages, 55);
        assert_eq!(o.inter_node_bytes, 40_960);
        assert_eq!(o.intra_node_bytes, 114_688);
    }
}

#[test]
fn overlap_and_ppn_combine_for_the_headline_speedup() {
    // The paper's §V-D story at reduced scale: combining N_DUP overlap with
    // a better PPN beats the plain baseline by a wide margin.
    let time_of = |n: usize, ppn: usize, n_dup: usize| {
        run(
            SimConfig::natural(64, ppn, MachineProfile::stampede2_skylake()),
            move |rc: RankCtx| {
                let mesh = Mesh3D::new(&rc, 4);
                let grid = BlockGrid::new(n, 4);
                let d_block = (mesh.k == 0).then(|| {
                    let (r, c) = grid.block_dims(mesh.i, mesh.j);
                    BlockBuf::Phantom(r, c)
                });
                let input = SymmInput { n, d_block };
                rc.world().barrier();
                let t0 = rc.now();
                if n_dup == 0 {
                    let _ = symm_square_cube_baseline(&rc, &mesh, &input);
                } else {
                    let bundles = mesh.dup_bundles(n_dup);
                    let _ = symm_square_cube_optimized(&rc, &mesh, &bundles, &input);
                }
                rc.world().barrier();
                (rc.now() - t0).as_secs_f64()
            },
        )
        .unwrap()
        .results
        .into_iter()
        .fold(0.0f64, f64::max)
    };
    let baseline = time_of(3000, 1, 0);
    let combined = time_of(3000, 2, 4);
    assert!(
        combined < baseline,
        "combined techniques ({combined:.4}s) must beat the plain baseline ({baseline:.4}s)"
    );
    // The known model deviation, pinned: at the paper's 1hsg_70 size the
    // N_DUP = 4 overlap alone (Alg 4 ÷ Alg 5, PPN 1) gains ≈ 1.17× in the
    // paper's Table I and 1.49× here (`model.ndup_gain`). The gap is to be
    // explained by ROADMAP items 3/4 (a non-ideal progress policy); until
    // then it must not drift unnoticed.
    let gain = time_of(7645, 1, 0) / time_of(7645, 1, 4);
    assert!(
        (1.40..=1.60).contains(&gain),
        "Alg 4 / Alg 5 (N_DUP 4) at n = 7645 is {gain:.4}, outside [1.40, 1.60]"
    );
}

#[test]
fn chunked_overlap_preserves_data_through_the_whole_stack() {
    // Random-ish data through NDup pipelines across mesh communicators.
    let out = run(
        SimConfig::natural(9, 3, MachineProfile::test_profile()),
        |rc: RankCtx| {
            let w = rc.world();
            let row = w
                .split((rc.rank() / 3) as i64, (rc.rank() % 3) as u64)
                .unwrap();
            let comms = NDupComms::new(&row, 3);
            let data: Vec<f64> = (0..100).map(|i| (rc.rank() * 100 + i) as f64).collect();
            let payload = Payload::from_f64s(&data);
            let got = overlapped_bcast(
                &comms,
                1,
                (row.rank() == 1).then_some(&payload),
                payload.len(),
            );
            got.to_f64s()
        },
    )
    .unwrap();
    // Every rank receives the data of its row's middle rank.
    for r in 0..9 {
        let root_world = (r / 3) * 3 + 1;
        let want: Vec<f64> = (0..100).map(|i| (root_world * 100 + i) as f64).collect();
        assert_eq!(out.results[r], want, "rank {r}");
    }
}

#[test]
fn gemm_reference_agrees_with_distributed_square() {
    // One more cross-check: 3-D kernel D² against the dense gemm at a size
    // with ragged blocks on every mesh dimension.
    let n = 13;
    let out = run(
        SimConfig::natural(8, 8, MachineProfile::test_profile()),
        move |rc: RankCtx| {
            let mesh = Mesh3D::new(&rc, 2);
            let grid = BlockGrid::new(n, 2);
            let full = Matrix::from_fn(n, n, |i, j| {
                ((i * 7 + j * 3) % 5) as f64 - 2.0 + if i == j { 1.0 } else { 0.0 }
            });
            // Symmetrize.
            let mut h = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    h[(i, j)] = 0.5 * (full[(i, j)] + full[(j, i)]);
                }
            }
            let d_block = (mesh.k == 0).then(|| BlockBuf::Real(grid.extract(&h, mesh.i, mesh.j)));
            let input = SymmInput { n, d_block };
            let res = symm_square_cube_baseline(&rc, &mesh, &input);
            res.d2
                .map(|b| (mesh.i, mesh.j, b.unwrap_real().clone().into_vec()))
        },
    )
    .unwrap();
    let mut h = Matrix::zeros(n, n);
    let full = Matrix::from_fn(n, n, |i, j| {
        ((i * 7 + j * 3) % 5) as f64 - 2.0 + if i == j { 1.0 } else { 0.0 }
    });
    for i in 0..n {
        for j in 0..n {
            h[(i, j)] = 0.5 * (full[(i, j)] + full[(j, i)]);
        }
    }
    let want = gemm(&h, &h);
    let grid = BlockGrid::new(n, 2);
    for res in out.results.into_iter().flatten() {
        let (i, j, v) = res;
        let (r, c) = grid.block_dims(i, j);
        let got = Matrix::from_vec(r, c, v);
        let expect = grid.extract(&want, i, j);
        assert!(got.max_abs_diff(&expect) < 1e-9, "block ({i},{j})");
    }
}

#[test]
fn the_plan_check_names_a_planted_wrong_peer_send() {
    use ovcomm::simmpi::plan::{build_all, model_check_single, CollAlgo, McConfig, StepOp};
    use ovcomm::simmpi::CollKind;

    // Tier-1 otherwise reaches `verify::plan` only through Strict runs of
    // clean shapes. Redirect the root's first send of a 4-rank binomial
    // bcast to the wrong child and ask the model checker.
    let mut plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 256, 0);
    let cfg = McConfig::default();
    assert!(model_check_single(&plans, &cfg).clean());
    let (idx, step) = (plans[0].steps.iter_mut().enumerate())
        .find(|(_, s)| matches!(s.op, StepOp::Send { .. }))
        .unwrap();
    let StepOp::Send { peer, tag, .. } = &mut step.op else {
        unreachable!()
    };
    let (wrong, tag) = (if *peer == 1 { 3 } else { 1 }, *tag);
    *peer = wrong;

    // The deadlock counterexample shows the mutated post.
    let rep = model_check_single(&plans, &cfg);
    let ce = (rep.findings.iter())
        .find(|f| f.code == "mc-deadlock")
        .unwrap_or_else(|| panic!("{:?}", rep.findings));
    let post = format!("i0 r0 s{idx}: post send");
    let dest = format!("-> r{wrong} tag {tag}");
    assert!(
        ce.trace
            .iter()
            .any(|l| l.contains(&post) && l.contains(&dest)),
        "{ce}"
    );
}
