//! Sim-vs-rt validation report: run the same kernel workloads on the
//! virtual-time simulator (modeled time) and the real shared-memory
//! runtime (measured wall-clock time), then quantify where the model
//! diverges from reality — per-kernel time ratios, overlap-efficiency
//! deltas, and a bit-identity check on the numerical results.
//!
//! `--backend sim` or `--backend rt` restricts the run to one side (the
//! JSON then carries only that side's columns); the default runs both and
//! emits the full divergence report to `results/sim_vs_rt.json`.

// Bench drivers fail loudly by design.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use super::test_matrix;
use ovcomm_bench::{metrics_block, profile_block, write_json, Backend, MetricsBlock, Opts, Table};
use ovcomm_core::{NDupComms, RankHandle};
use ovcomm_densemat::{BlockBuf, BlockGrid, Partition1D};
use ovcomm_kernels::{
    matvec_blocking, matvec_pipelined, symm_square_cube_25d, symm_square_cube_baseline,
    symm_square_cube_cosma, symm_square_cube_optimized, symm_square_cube_summa, MatvecInput,
    Mesh25D, Mesh2D, Mesh3D, SummaBundles, SymmInput, VecBuf,
};
use ovcomm_obs::ProfileBlock;
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

/// One kernel workload: generic over the backend's rank handle, returning
/// the flattened local result so the report can check bit-identity.
fn workload<R: RankHandle>(rc: &R, kernel: &str, n: usize) -> Vec<f64> {
    match kernel {
        "matvec-blocking" | "matvec-pipelined" => {
            let p = 2;
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
            let y = if kernel == "matvec-blocking" {
                matvec_blocking(rc, &mesh, &input)
            } else {
                let row_ndup = NDupComms::new(&mesh.row, 2);
                let col_ndup = NDupComms::new(&mesh.col, 2);
                matvec_pipelined(rc, &mesh, &row_ndup, &col_ndup, &input)
            };
            match y {
                VecBuf::Real(v) => v,
                VecBuf::Phantom(_) => unreachable!(),
            }
        }
        "symm3d-baseline" | "symm3d-optimized" => {
            let p = 2;
            let mesh = Mesh3D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let d_block = (mesh.k == 0)
                .then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
            let input = SymmInput { n, d_block };
            let result = if kernel == "symm3d-baseline" {
                symm_square_cube_baseline(rc, &mesh, &input)
            } else {
                let bundles = mesh.dup_bundles(2);
                symm_square_cube_optimized(rc, &mesh, &bundles, &input)
            };
            result
                .d2
                .map(|d2| d2.unwrap_real().clone().into_vec())
                .unwrap_or_default()
        }
        "summa" => {
            let p = 2;
            let mesh = Mesh2D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let bundles = SummaBundles::new(&mesh, 2);
            let input = SymmInput {
                n,
                d_block: Some(BlockBuf::Real(grid.extract(
                    &test_matrix(n),
                    mesh.i,
                    mesh.j,
                ))),
            };
            let result = symm_square_cube_summa(rc, &mesh, &bundles, &input);
            result.d2.unwrap().unwrap_real().clone().into_vec()
        }
        "cosma" => {
            let p = 2;
            let mesh = Mesh2D::new(rc, p);
            let grid = BlockGrid::new(n, p);
            let input = SymmInput {
                n,
                d_block: Some(BlockBuf::Real(grid.extract(
                    &test_matrix(n),
                    mesh.i,
                    mesh.j,
                ))),
            };
            let result = symm_square_cube_cosma(rc, &mesh, &input);
            result.d2.unwrap().unwrap_real().clone().into_vec()
        }
        "symm25d" => {
            let (q, c) = (2, 2);
            let mesh = Mesh25D::new(rc, q, c);
            let grid = BlockGrid::new(n, q);
            let d_block = (mesh.k == 0)
                .then(|| BlockBuf::Real(grid.extract(&test_matrix(n), mesh.i, mesh.j)));
            let grd_ndup = NDupComms::new(&mesh.grd, 2);
            let input = SymmInput { n, d_block };
            let result = symm_square_cube_25d(rc, &mesh, &grd_ndup, &input);
            result
                .d2
                .map(|d2| d2.unwrap_real().clone().into_vec())
                .unwrap_or_default()
        }
        other => panic!("unknown kernel {other}"),
    }
}

#[derive(Serialize)]
struct Row {
    kernel: String,
    nranks: usize,
    ppn: usize,
    n: usize,
    /// Simulator's virtual makespan (seconds); `None` under `--backend rt`.
    modeled_s: Option<f64>,
    /// rt wall-clock makespan (seconds); `None` under `--backend sim`.
    measured_s: Option<f64>,
    /// modeled / measured — how far the model sits from this machine's
    /// shared-memory reality (expected ≪ or ≫ 1: the model is a cluster,
    /// the measurement is one box).
    time_ratio: Option<f64>,
    /// rt overlap efficiency minus sim overlap efficiency.
    overlap_efficiency_delta: Option<f64>,
    /// Did both backends produce bit-identical results?
    bit_identical: Option<bool>,
    sim_metrics: Option<MetricsBlock>,
    rt_metrics: Option<MetricsBlock>,
    /// Critical-path blame for the sim run (always traced).
    sim_profile: Option<ProfileBlock>,
    /// Critical-path blame for the rt run: the sim-vs-rt gap decomposed
    /// into named causes (progress-delay, rendezvous-stall, spin, park).
    rt_profile: Option<ProfileBlock>,
}

const KERNELS: &[(&str, usize, usize, usize)] = &[
    // (kernel, nranks, ppn, n)
    ("matvec-blocking", 4, 2, 96),
    ("matvec-pipelined", 4, 2, 96),
    ("symm3d-baseline", 8, 2, 64),
    ("symm3d-optimized", 8, 2, 64),
    ("summa", 4, 2, 64),
    ("cosma", 4, 2, 64),
    ("symm25d", 8, 2, 64),
];

pub fn main(opts: &Opts) {
    let (run_sim, run_rt) = (
        opts.backend != Some(Backend::Rt),
        opts.backend != Some(Backend::Sim),
    );

    println!("sim-vs-rt validation: same kernels, modeled vs measured\n");
    let mut table = Table::new(&[
        "kernel",
        "ranks",
        "modeled (s)",
        "measured (s)",
        "ratio",
        "ovl sim",
        "ovl rt",
        "identical",
    ]);
    let mut rows = Vec::new();

    for &(kernel, nranks, ppn, n) in KERNELS {
        let k = kernel.to_string();
        let sim = run_sim.then(|| {
            let k = k.clone();
            ovcomm_simmpi::run(
                SimConfig::natural(nranks, ppn, MachineProfile::test_profile()).with_trace(),
                move |rc: RankCtx| workload(&rc, &k, n),
            )
            .unwrap_or_else(|e| panic!("sim {kernel}: {e}"))
        });
        let rt = run_rt.then(|| {
            let k = k.clone();
            ovcomm_rt::run(
                RtConfig::natural(nranks, ppn, MachineProfile::test_profile()).with_trace(),
                move |rc: RtRankCtx| workload(&rc, &k, n),
            )
            .unwrap_or_else(|e| panic!("rt {kernel}: {e}"))
        });

        let modeled_s = sim.as_ref().map(|o| o.makespan.as_secs_f64());
        let measured_s = rt.as_ref().map(|o| o.makespan.as_secs_f64());
        let sim_metrics = sim.as_ref().map(metrics_block);
        let rt_metrics = rt.as_ref().map(metrics_block);
        let sim_profile = sim.as_ref().and_then(profile_block);
        let rt_profile = rt.as_ref().and_then(profile_block);
        let bit_identical = sim
            .as_ref()
            .zip(rt.as_ref())
            .map(|(s, r)| s.results == r.results);
        if let Some(false) = bit_identical {
            eprintln!("DIVERGENCE: {kernel} results differ between backends");
        }
        let time_ratio = modeled_s.zip(measured_s).map(|(m, w)| m / w);
        let overlap_efficiency_delta = rt_metrics
            .as_ref()
            .zip(sim_metrics.as_ref())
            .map(|(r, s)| r.overlap_efficiency - s.overlap_efficiency);

        let fmt = |x: Option<f64>| x.map_or("-".into(), |v| format!("{v:.6}"));
        table.row(vec![
            kernel.to_string(),
            nranks.to_string(),
            fmt(modeled_s),
            fmt(measured_s),
            time_ratio.map_or("-".into(), |v| format!("{v:.3}")),
            fmt(sim_metrics.as_ref().map(|m| m.overlap_efficiency)),
            fmt(rt_metrics.as_ref().map(|m| m.overlap_efficiency)),
            bit_identical.map_or("-".into(), |b| b.to_string()),
        ]);
        rows.push(Row {
            kernel: kernel.to_string(),
            nranks,
            ppn,
            n,
            modeled_s,
            measured_s,
            time_ratio,
            overlap_efficiency_delta,
            bit_identical,
            sim_metrics,
            rt_metrics,
            sim_profile,
            rt_profile,
        });
    }

    table.print();
    println!(
        "\nThe time ratio compares the simulator's modeled cluster against this machine's \
         shared-memory wall clock — absolute agreement is not expected; what validates the \
         model is bit-identical numerics and comparable overlap structure."
    );
    if let Some(bad) = rows.iter().find(|r| r.bit_identical == Some(false)) {
        panic!("cross-backend divergence on {}", bad.kernel);
    }
    write_json(&opts.out_dir, "sim_vs_rt", &rows);
}
