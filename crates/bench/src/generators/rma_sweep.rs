//! One-sided vs two-sided multiply sweep: the COSMA-style RMA kernel
//! (origin-driven `get` prefetch, fence epochs, no receiver posting)
//! against the two-sided SUMMA baseline (broadcast rings) over a sweep of
//! matrix sizes, on both backends.
//!
//! The headline column is overlap efficiency: the fraction of
//! communication-busy time carrying ≥ 2 concurrent transfers. The
//! one-sided variant keeps the next step's operand gets in flight during
//! the current local GEMM, so its overlap should meet or beat the
//! two-sided baseline at the paper's block sizes — the acceptance
//! property this artifact records.
//!
//! Flags: `--smoke` (one small size per backend — the CI configuration),
//! `--backend {sim,rt}` (restrict to one backend; default runs both).

// Bench drivers fail loudly by design.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use super::test_matrix;
use ovcomm_bench::{metrics_block, write_json, Backend, MetricsBlock, Opts, Table};
use ovcomm_core::{Communicator, RankHandle};
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_kernels::{
    symm_square_cube_cosma, symm_square_cube_summa, Mesh2D, SummaBundles, SymmInput,
};
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

/// One barrier-delimited SymmSquareCube call of the chosen paradigm;
/// returns the phase time in (virtual or wall-clock) seconds.
fn workload<R: RankHandle>(rc: &R, variant: &str, n: usize, p: usize, real: bool) -> f64 {
    let mesh = Mesh2D::new(rc, p);
    let grid = BlockGrid::new(n, p);
    let d_block = if real {
        Some(BlockBuf::Real(grid.extract(
            &test_matrix(n),
            mesh.i,
            mesh.j,
        )))
    } else {
        let (r, c) = grid.block_dims(mesh.i, mesh.j);
        Some(BlockBuf::Phantom(r, c))
    };
    let input = SymmInput { n, d_block };
    rc.world().barrier();
    let t0 = rc.now();
    match variant {
        "summa-two-sided" => {
            let bundles = SummaBundles::new(&mesh, 1);
            let _ = symm_square_cube_summa(rc, &mesh, &bundles, &input);
        }
        "cosma-one-sided" => {
            let _ = symm_square_cube_cosma(rc, &mesh, &input);
        }
        other => panic!("unknown variant {other}"),
    }
    rc.world().barrier();
    (rc.now() - t0).as_secs_f64()
}

#[derive(Serialize)]
struct Row {
    variant: String,
    backend: String,
    n: usize,
    p: usize,
    nranks: usize,
    ppn: usize,
    seconds: f64,
    /// Total one-sided calls / bytes the run issued (`rma.*` counters);
    /// zero for the two-sided baseline.
    rma_calls: u64,
    rma_bytes: u64,
    metrics: MetricsBlock,
}

/// Sum every `<prefix>{…}` counter of a run's metrics snapshot.
fn counter_sum(counters: &std::collections::BTreeMap<String, u64>, prefix: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

fn run_row(backend: &str, variant: &'static str, n: usize, p: usize, ppn: usize) -> Row {
    let nranks = p * p;
    let out = match backend {
        "sim" => ovcomm_simmpi::run(
            SimConfig::natural(nranks, ppn, MachineProfile::stampede2_skylake()).with_trace(),
            move |rc: RankCtx| workload(&rc, variant, n, p, false),
        ),
        "rt" => ovcomm_rt::run(
            RtConfig::natural(nranks, ppn, MachineProfile::test_profile()).with_trace(),
            move |rc: RtRankCtx| workload(&rc, variant, n, p, true),
        ),
        other => panic!("unknown backend {other}"),
    }
    .unwrap_or_else(|e| panic!("{backend} {variant} n={n}: {e}"));
    Row {
        variant: variant.to_string(),
        backend: backend.to_string(),
        n,
        p,
        nranks,
        ppn,
        seconds: out.results.iter().cloned().fold(0.0, f64::max),
        rma_calls: counter_sum(&out.metrics.counters, "rma.calls"),
        rma_bytes: counter_sum(&out.metrics.counters, "rma.bytes"),
        metrics: metrics_block(&out),
    }
}

pub fn main(opts: &Opts) {
    let smoke = opts.smoke;
    let (run_sim, run_rt) = (
        opts.backend != Some(Backend::Rt),
        opts.backend != Some(Backend::Sim),
    );

    // Sim sweeps the paper's block-size regime (4×4 mesh, modeled nodes,
    // phantom data); rt moves real bytes on one box, so it stays a size
    // class smaller on a 2×2 mesh.
    let sim_sizes: &[usize] = if smoke { &[512] } else { &[1024, 2048, 4096] };
    let rt_sizes: &[usize] = if smoke { &[32] } else { &[32, 64, 96] };

    println!(
        "rma sweep: one-sided COSMA vs two-sided SUMMA ({} sizes)\n",
        if smoke { "smoke" } else { "full" }
    );
    let mut rows = Vec::new();
    for &(backend, enabled, p, ppn, sizes) in &[
        ("sim", run_sim, 4usize, 2usize, sim_sizes),
        ("rt", run_rt, 2, 2, rt_sizes),
    ] {
        if !enabled {
            continue;
        }
        for &n in sizes {
            for variant in ["summa-two-sided", "cosma-one-sided"] {
                rows.push(run_row(backend, variant, n, p, ppn));
            }
        }
    }

    let mut table = Table::new(&[
        "backend",
        "n",
        "variant",
        "seconds",
        "overlap",
        "wait share",
        "rma MB",
    ]);
    for r in &rows {
        table.row(vec![
            r.backend.clone(),
            r.n.to_string(),
            r.variant.clone(),
            format!("{:.6}", r.seconds),
            format!("{:.3}", r.metrics.overlap_efficiency),
            format!("{:.3}", r.metrics.wait_time_share),
            format!("{:.2}", r.rma_bytes as f64 / 1e6),
        ]);
    }
    table.print();

    // The acceptance property: at every swept size, the one-sided
    // variant's overlap efficiency meets or beats the two-sided baseline
    // (modeled backend; rt wall clock is reported but not gated — span
    // concurrency on a shared box is noisy).
    let mut worst = f64::INFINITY;
    for pair in rows.chunks(2) {
        let [summa, cosma] = pair else { continue };
        let delta = cosma.metrics.overlap_efficiency - summa.metrics.overlap_efficiency;
        println!(
            "{} n={}: one-sided overlap {:.3} vs two-sided {:.3} (delta {delta:+.3})",
            cosma.backend,
            cosma.n,
            cosma.metrics.overlap_efficiency,
            summa.metrics.overlap_efficiency
        );
        if cosma.backend == "sim" {
            worst = worst.min(delta);
        }
    }
    if worst < 0.0 {
        eprintln!("WARNING: one-sided overlap fell below the two-sided baseline (sim)");
        std::process::exit(1);
    }
    if smoke {
        println!("smoke run: gate only, results/rma_sweep.json not rewritten");
    } else {
        write_json(&opts.out_dir, "rma_sweep", &rows);
    }
}
