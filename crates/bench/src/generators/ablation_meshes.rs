//! Ablation: mesh dimensionality at a fixed rank budget (64 ranks,
//! PPN = 1) — SUMMA (2-D, 8×8), 2.5D (8×8×1 = Cannon, 4×4×4 = fully
//! replicated) and the 3-D algorithm (4×4×4), with and without nonblocking
//! overlap. Shows the communication-volume ordering the paper's §II
//! describes: O(N²/√P) for 2-D vs O(N²/P^(2/3)) for 3-D, and what overlap
//! buys each of them.

use ovcomm_bench::{symm_run, write_json, MeshSpec, Opts, Table};
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_kernels::{
    symm_square_cube_flops, symm_square_cube_summa, Mesh2D, SummaBundles, SymmInput,
};
use ovcomm_purify::{paper_system, KernelChoice};
use ovcomm_simmpi::{run, RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    mesh: String,
    n_dup: usize,
    tflops: f64,
    inter_gb: f64,
}

/// SUMMA runner (the shared harness covers the 3-D/2.5D cases).
fn summa_stats(profile: &MachineProfile, n: usize, p: usize, n_dup: usize) -> (f64, f64) {
    let out = run(
        SimConfig::natural(p * p, 1, profile.clone()),
        move |rc: RankCtx| {
            let mesh = Mesh2D::new(&rc, p);
            let grid = BlockGrid::new(n, p);
            let bundles = SummaBundles::new(&mesh, n_dup);
            let (r, c) = grid.block_dims(mesh.i, mesh.j);
            let input = SymmInput {
                n,
                d_block: Some(BlockBuf::Phantom(r, c)),
            };
            rc.world().barrier();
            let t0 = rc.now();
            let _ = symm_square_cube_summa(&rc, &mesh, &bundles, &input);
            rc.world().barrier();
            (rc.now() - t0).as_secs_f64()
        },
    )
    .expect("summa run");
    let t = out.results.iter().cloned().fold(0.0, f64::max);
    (
        symm_square_cube_flops(n) / t / 1e12,
        out.inter_node_bytes as f64 / 1e9,
    )
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let sys = paper_system("1hsg_70").unwrap();
    let n = sys.dimension;

    println!("Mesh-dimensionality ablation: 64 ranks, PPN=1, 1hsg_70\n");
    let mut table = Table::new(&["algorithm", "mesh", "N_DUP", "TFlops", "inter-node GB"]);
    let mut rows = Vec::new();

    for n_dup in [1usize, 4] {
        let (tf, gb) = summa_stats(&profile, n, 8, n_dup);
        table.row(vec![
            "SUMMA (2-D)".into(),
            "8x8".into(),
            n_dup.to_string(),
            format!("{tf:.2}"),
            format!("{gb:.1}"),
        ]);
        rows.push(Row {
            algorithm: "summa2d".into(),
            mesh: "8x8".into(),
            n_dup,
            tflops: tf,
            inter_gb: gb,
        });

        let s25 = symm_run(
            &profile,
            n,
            MeshSpec::TwoFiveD { q: 8, c: 1 },
            KernelChoice::TwoFiveD { c: 1, n_dup },
            1,
            2,
        );
        table.row(vec![
            "Cannon (2.5D, c=1)".into(),
            "8x8x1".into(),
            n_dup.to_string(),
            format!("{:.2}", s25.tflops),
            format!("{:.1}", s25.inter_bytes_per_call as f64 / 1e9),
        ]);
        rows.push(Row {
            algorithm: "cannon_c1".into(),
            mesh: "8x8x1".into(),
            n_dup,
            tflops: s25.tflops,
            inter_gb: s25.inter_bytes_per_call as f64 / 1e9,
        });

        let s25b = symm_run(
            &profile,
            n,
            MeshSpec::TwoFiveD { q: 4, c: 4 },
            KernelChoice::TwoFiveD { c: 4, n_dup },
            1,
            2,
        );
        table.row(vec![
            "2.5D (c=4)".into(),
            "4x4x4".into(),
            n_dup.to_string(),
            format!("{:.2}", s25b.tflops),
            format!("{:.1}", s25b.inter_bytes_per_call as f64 / 1e9),
        ]);
        rows.push(Row {
            algorithm: "25d_c4".into(),
            mesh: "4x4x4".into(),
            n_dup,
            tflops: s25b.tflops,
            inter_gb: s25b.inter_bytes_per_call as f64 / 1e9,
        });

        let s3 = symm_run(
            &profile,
            n,
            MeshSpec::Cube { p: 4 },
            KernelChoice::Optimized { n_dup },
            1,
            2,
        );
        table.row(vec![
            "3-D (Alg 5)".into(),
            "4x4x4".into(),
            n_dup.to_string(),
            format!("{:.2}", s3.tflops),
            format!("{:.1}", s3.inter_bytes_per_call as f64 / 1e9),
        ]);
        rows.push(Row {
            algorithm: "3d_alg5".into(),
            mesh: "4x4x4".into(),
            n_dup,
            tflops: s3.tflops,
            inter_gb: s3.inter_bytes_per_call as f64 / 1e9,
        });
    }
    table.print();
    println!(
        "\nexpected ordering: the 2-D algorithms move more data (O(N²/sqrt(P)) per rank) than \
         the replicated 2.5D/3-D ones (O(N²/P^(2/3))); overlap helps every variant."
    );
    write_json(&opts.out_dir, "ablation_meshes", &rows);
}
