//! SymmSquareCube benchmark runner: one configuration → TFlops and traffic
//! statistics, shared by the Table I/II/III/IV/V generators.

// Benchmark drivers fail loudly by design: `expect`/`unwrap` here surface
// simulator errors (including Strict-mode verification findings) directly
// as harness panics rather than recoverable results.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::NDupComms;
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_kernels::{
    symm_square_cube_25d, symm_square_cube_baseline, symm_square_cube_cosma,
    symm_square_cube_flops, symm_square_cube_optimized, symm_square_cube_original, Mesh25D, Mesh2D,
    Mesh3D, SymmInput,
};
use ovcomm_purify::KernelChoice;
use ovcomm_simmpi::{run, RankCtx, SimConfig, SimOutput};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

use crate::metrics::{metrics_block, MetricsBlock};

/// The process-mesh geometry of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshSpec {
    /// p×p×p (3-D algorithms).
    Cube {
        /// Mesh dimension.
        p: usize,
    },
    /// q×q×c (2.5D algorithm).
    TwoFiveD {
        /// Square dimension.
        q: usize,
        /// Replication factor.
        c: usize,
    },
}

impl MeshSpec {
    /// Total ranks.
    pub fn nranks(&self) -> usize {
        match self {
            MeshSpec::Cube { p } => p * p * p,
            MeshSpec::TwoFiveD { q, c } => q * q * c,
        }
    }

    /// Human-readable mesh string (paper style).
    pub fn label(&self) -> String {
        match self {
            MeshSpec::Cube { p } => format!("{p}x{p}x{p}"),
            MeshSpec::TwoFiveD { q, c } => format!("{q}x{q}x{c}"),
        }
    }
}

/// Measured statistics of one kernel configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SymmStats {
    /// Matrix dimension.
    pub n: usize,
    /// Mesh label.
    pub mesh: String,
    /// Processes per node.
    pub ppn: usize,
    /// Nodes used (⌈ranks/ppn⌉).
    pub nodes: usize,
    /// Average kernel time per call (seconds, virtual).
    pub time_per_call: f64,
    /// TFlops (4N³ per call / time).
    pub tflops: f64,
    /// Inter-node bytes per call.
    pub inter_bytes_per_call: u64,
    /// Intra-node bytes per call.
    pub intra_bytes_per_call: u64,
    /// Modeled per-call local-GEMM time of the critical rank (seconds).
    pub compute_time: f64,
    /// Observability block of the measured run (overlap efficiency, NIC
    /// utilization, wait-time share).
    pub metrics: MetricsBlock,
}

/// Run `iters` back-to-back SymmSquareCube calls (barrier-separated, like
/// the purification loop) with phantom paper-scale data and return averaged
/// statistics.
pub fn symm_run(
    profile: &MachineProfile,
    n: usize,
    mesh: MeshSpec,
    choice: KernelChoice,
    ppn: usize,
    iters: usize,
) -> SymmStats {
    assert!(iters >= 1);
    let nranks = mesh.nranks();
    let cfg = SimConfig::natural(nranks, ppn, profile.clone());
    let out = run(cfg, move |rc: RankCtx| match mesh {
        MeshSpec::Cube { p } => {
            let m3 = Mesh3D::new(&rc, p);
            let grid = BlockGrid::new(n, p);
            let bundles = match choice {
                KernelChoice::Optimized { n_dup } => Some(m3.dup_bundles(n_dup)),
                _ => None,
            };
            let d_block = (m3.k == 0).then(|| {
                let (r, c) = grid.block_dims(m3.i, m3.j);
                BlockBuf::Phantom(r, c)
            });
            rc.world().barrier();
            let t0 = rc.now();
            for _ in 0..iters {
                let input = SymmInput {
                    n,
                    d_block: d_block.clone(),
                };
                match choice {
                    KernelChoice::Original => {
                        let _ = symm_square_cube_original(&rc, &m3, &input);
                    }
                    KernelChoice::Baseline => {
                        let _ = symm_square_cube_baseline(&rc, &m3, &input);
                    }
                    KernelChoice::Optimized { .. } => {
                        let _ =
                            symm_square_cube_optimized(&rc, &m3, bundles.as_ref().unwrap(), &input);
                    }
                    KernelChoice::TwoFiveD { .. } => unreachable!(),
                }
                rc.world().barrier();
            }
            (rc.now() - t0).as_secs_f64()
        }
        MeshSpec::TwoFiveD { q, c } => {
            let n_dup = match choice {
                KernelChoice::TwoFiveD { n_dup, .. } => n_dup,
                _ => panic!("2.5D mesh needs the 2.5D kernel choice"),
            };
            let m25 = Mesh25D::new(&rc, q, c);
            let grid = BlockGrid::new(n, q);
            let grd_ndup = NDupComms::new(&m25.grd, n_dup);
            let d_block = (m25.k == 0).then(|| {
                let (r, cc) = grid.block_dims(m25.i, m25.j);
                BlockBuf::Phantom(r, cc)
            });
            rc.world().barrier();
            let t0 = rc.now();
            for _ in 0..iters {
                let input = SymmInput {
                    n,
                    d_block: d_block.clone(),
                };
                let _ = symm_square_cube_25d(&rc, &m25, &grd_ndup, &input);
                rc.world().barrier();
            }
            (rc.now() - t0).as_secs_f64()
        }
    })
    .unwrap_or_else(|e| panic!("symm_run n={n} {} ppn={ppn}: {e}", mesh.label()));

    // Modeled per-rank GEMM time: two multiplications over the mesh's
    // partition of the N³ work — ~2·b³ flops per rank per phase; with 2.5D
    // each plane does q/c steps of b³-ish blocks.
    let (p, steps) = match mesh {
        MeshSpec::Cube { p } => (p, 1.0),
        MeshSpec::TwoFiveD { q, c } => (q, (q / c) as f64),
    };
    let b = n.div_ceil(p) as f64;
    let compute_time = 2.0 * 2.0 * b * b * b * steps / profile.process_flops(ppn, n.div_ceil(p));
    stats(&out, n, mesh.label(), ppn, iters, compute_time)
}

/// Average one run's counters over its `iters` calls.
fn stats(
    out: &SimOutput<f64>,
    n: usize,
    mesh: String,
    ppn: usize,
    iters: usize,
    compute_time: f64,
) -> SymmStats {
    let total: f64 = out.results.iter().cloned().fold(0.0, f64::max);
    let time_per_call = total / iters as f64;
    SymmStats {
        n,
        mesh,
        ppn,
        nodes: out.results.len().div_ceil(ppn),
        time_per_call,
        tflops: symm_square_cube_flops(n) / time_per_call / 1e12,
        inter_bytes_per_call: out.inter_node_bytes / iters as u64,
        intra_bytes_per_call: out.intra_node_bytes / iters as u64,
        compute_time,
        metrics: metrics_block(out),
    }
}

/// Run `iters` back-to-back COSMA-style one-sided SymmSquareCube calls
/// (barrier-separated) on a `p×p` mesh with phantom paper-scale data and
/// return averaged statistics — the one-sided counterpart of [`symm_run`]
/// for the Table V / `rma_sweep` comparisons.
pub fn cosma_run(
    profile: &MachineProfile,
    n: usize,
    p: usize,
    ppn: usize,
    iters: usize,
) -> SymmStats {
    assert!(iters >= 1);
    let nranks = p * p;
    let cfg = SimConfig::natural(nranks, ppn, profile.clone());
    let out = run(cfg, move |rc: RankCtx| {
        let mesh = Mesh2D::new(&rc, p);
        let grid = BlockGrid::new(n, p);
        let (r, c) = grid.block_dims(mesh.i, mesh.j);
        rc.world().barrier();
        let t0 = rc.now();
        for _ in 0..iters {
            let input = SymmInput {
                n,
                d_block: Some(BlockBuf::Phantom(r, c)),
            };
            let _ = symm_square_cube_cosma(&rc, &mesh, &input);
            rc.world().barrier();
        }
        (rc.now() - t0).as_secs_f64()
    })
    .unwrap_or_else(|e| panic!("cosma_run n={n} {p}x{p} ppn={ppn}: {e}"));

    let b = n.div_ceil(p) as f64;
    let rate = profile.process_flops(ppn, n.div_ceil(p));
    // Two multiplications, each p block-GEMM steps of 2·b³ flops per rank.
    let compute_time = 2.0 * p as f64 * 2.0 * b * b * b / rate;
    stats(&out, n, format!("{p}x{p}"), ppn, iters, compute_time)
}
