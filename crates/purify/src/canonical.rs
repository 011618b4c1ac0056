//! Canonical density matrix purification (Palser & Manolopoulos, 1998)
//! driven by the distributed SymmSquareCube kernels.
//!
//! Each iteration computes D² and D³ with one SymmSquareCube call — the
//! kernel the paper optimizes — then applies the canonical update
//!
//! ```text
//! c = tr(D² − D³) / tr(D − D²)
//! D ← ((1+c)·D² − D³) / c                   if c ≥ ½
//! D ← ((1−2c)·D + (1+c)·D² − D³) / (1−c)   otherwise
//! ```
//!
//! (The branch choice keeps both fixed points 0 and 1 of the trace-
//! conserving cubic stable: the first form's derivative at 1 is (2c−1)/c,
//! the second's at 0 is (1−2c)/(1−c).)
//!
//! until `tr(D − D²)` vanishes (D becomes an idempotent projector with
//! trace = nocc). The initial iterate is the standard scaled/shifted
//! Hamiltonian `D₀ = (λ/N)(μI − F) + (nocc/N)·I` with `μ = tr(F)/N` and λ
//! from the spectral bounds.

// Purification drivers are invariant-dense: `expect`/`unwrap` here assert
// plane/root-only payload delivery and staged-communicator membership
// guaranteed by the surrounding protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::NDupComms;
use ovcomm_densemat::{BlockBuf, BlockGrid, Matrix};
use ovcomm_kernels::{
    symm_square_cube_25d, symm_square_cube_baseline, symm_square_cube_optimized,
    symm_square_cube_original, Mesh25D, Mesh3D, Mesh3DBundles, SymmInput,
};
use ovcomm_simmpi::{Comm, Payload, RankCtx, Transport};
use ovcomm_simnet::{SimDur, SimTime};

/// Which SymmSquareCube variant drives the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Algorithm 3 (original GTFock).
    Original,
    /// Algorithm 4 (baseline).
    Baseline,
    /// Algorithm 5 with the given N_DUP.
    Optimized {
        /// Number of duplicated communicators / pipeline chunks.
        n_dup: usize,
    },
    /// Algorithm 6 (2.5D) with replication factor c and N_DUP.
    TwoFiveD {
        /// Replication factor (c | q).
        c: usize,
        /// Self-overlap N_DUP for the grid collectives.
        n_dup: usize,
    },
}

/// Configuration of a purification run.
#[derive(Debug, Clone)]
pub struct PurifyConfig {
    /// Matrix dimension N.
    pub n: usize,
    /// Occupied count (target trace).
    pub nocc: usize,
    /// Convergence threshold on `tr(D − D²)` (real mode).
    pub tol: f64,
    /// Iteration cap; phantom mode runs exactly this many iterations.
    pub max_iter: usize,
    /// Phantom data (paper-scale benchmarking) or real arithmetic.
    pub phantom: bool,
    /// Seed for the synthetic Hamiltonian (real mode).
    pub seed: u64,
}

/// Outcome of a purification run on one rank.
pub struct PurifyResult {
    /// SymmSquareCube calls performed.
    pub iterations: usize,
    /// Whether `tr(D − D²)` dropped below tolerance (always false for
    /// phantom runs, which are fixed-length).
    pub converged: bool,
    /// Final `tr(D − D²)` (real mode; 0.0 for phantom).
    pub residual: f64,
    /// Total virtual time spent inside SymmSquareCube calls.
    pub kernel_time: SimDur,
    /// Virtual time of the whole purification loop.
    pub total_time: SimDur,
    /// Final density block on plane 0 (real mode).
    pub d_block: Option<BlockBuf>,
}

impl PurifyResult {
    /// Average SymmSquareCube performance in flop/s — the paper's reported
    /// metric (4N³ flops per call, averaged over calls).
    pub fn kernel_flops_per_sec(&self, n: usize) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        let flops = ovcomm_kernels::symm_square_cube_flops(n) * self.iterations as f64;
        flops / self.kernel_time.as_secs_f64()
    }
}

/// Mesh + communicators built once per run.
enum KernelState<T: Transport> {
    ThreeD {
        mesh: Mesh3D<T>,
        bundles: Option<Mesh3DBundles<T>>,
        choice: KernelChoice,
    },
    TwoFiveD {
        mesh: Mesh25D<T>,
        grd_ndup: NDupComms<T>,
    },
}

impl<T: Transport> KernelState<T> {
    fn grid_p(&self) -> usize {
        match self {
            KernelState::ThreeD { mesh, .. } => mesh.p,
            KernelState::TwoFiveD { mesh, .. } => mesh.q,
        }
    }

    fn on_plane0(&self) -> bool {
        match self {
            KernelState::ThreeD { mesh, .. } => mesh.k == 0,
            KernelState::TwoFiveD { mesh, .. } => mesh.k == 0,
        }
    }

    fn coords(&self) -> (usize, usize) {
        match self {
            KernelState::ThreeD { mesh, .. } => (mesh.i, mesh.j),
            KernelState::TwoFiveD { mesh, .. } => (mesh.i, mesh.j),
        }
    }

    fn call(&self, rc: &RankCtx<T>, input: &SymmInput) -> ovcomm_kernels::SymmOutput {
        match self {
            KernelState::ThreeD {
                mesh,
                bundles,
                choice,
            } => match choice {
                KernelChoice::Original => symm_square_cube_original(rc, mesh, input),
                KernelChoice::Baseline => symm_square_cube_baseline(rc, mesh, input),
                KernelChoice::Optimized { .. } => {
                    symm_square_cube_optimized(rc, mesh, bundles.as_ref().unwrap(), input)
                }
                KernelChoice::TwoFiveD { .. } => unreachable!(),
            },
            KernelState::TwoFiveD { mesh, grd_ndup } => {
                symm_square_cube_25d(rc, mesh, grd_ndup, input)
            }
        }
    }
}

/// Build the initial canonical-purification iterate from the Hamiltonian
/// (full matrices; used at real scale only).
pub fn initial_iterate(h: &Matrix, nocc: usize) -> Matrix {
    let n = h.rows();
    let mu = h.trace() / n as f64;
    let (emin, emax) = ovcomm_densemat::gershgorin_bounds(h);
    let ne = nocc as f64;
    let nf = n as f64;
    let lambda = (ne / (emax - mu)).min((nf - ne) / (mu - emin));
    // D0 = (λ/N)(μI − H) + (ne/N)·I
    let mut d0 = h.clone();
    d0.scale(-lambda / nf);
    d0.shift_diag(lambda * mu / nf + ne / nf);
    d0
}

/// The per-rank purification driver. Call from inside a simulation rank
/// closure; every rank of the universe participates (the mesh shape is
/// inferred from the kernel choice and the rank count).
pub fn purify_rank<T: Transport>(
    rc: &RankCtx<T>,
    cfg: &PurifyConfig,
    choice: KernelChoice,
) -> PurifyResult {
    purify_rank_on(rc, &rc.world(), cfg, choice)
}

/// Purification over an arbitrary base communicator — the building block of
/// per-kernel PPN selection (§III-B): the caller hands in just the active
/// subset of processes. Every member of `base` must call.
pub fn purify_rank_on<T: Transport>(
    rc: &RankCtx<T>,
    base: &Comm<T>,
    cfg: &PurifyConfig,
    choice: KernelChoice,
) -> PurifyResult {
    purify_loop_on(rc, base, cfg, choice, initial_iterate_cfg, canonical_update)
}

/// Canonical initial iterate bound to the config's occupation count.
fn initial_iterate_cfg(h: &Matrix, cfg: &PurifyConfig) -> Matrix {
    initial_iterate(h, cfg.nocc)
}

/// The canonical (trace-conserving) update; `sums = [tr(D−D²), tr(D²−D³)]`
/// from the global reduction. Returns `None` when the iteration is
/// numerically exhausted (c leaves (0, 1)).
fn canonical_update(dm: &Matrix, d2m: &Matrix, d3m: &Matrix, sums: [f64; 2]) -> Option<Matrix> {
    let (den, num) = (sums[0], sums[1]);
    let c = num / den;
    if !c.is_finite() || !(1e-12..=1.0 - 1e-12).contains(&c) {
        return None;
    }
    let mut next = Matrix::zeros(dm.rows(), dm.cols());
    if c >= 0.5 {
        // ((1+c)D² − D³)/c
        next.axpy((1.0 + c) / c, d2m);
        next.axpy(-1.0 / c, d3m);
    } else {
        // ((1−2c)D + (1+c)D² − D³)/(1−c)
        next.axpy((1.0 - 2.0 * c) / (1.0 - c), dm);
        next.axpy((1.0 + c) / (1.0 - c), d2m);
        next.axpy(-1.0 / (1.0 - c), d3m);
    }
    Some(next)
}

/// The generic purification loop over the world communicator (used by the
/// McWeeny variant too).
pub(crate) fn purify_loop<T: Transport>(
    rc: &RankCtx<T>,
    cfg: &PurifyConfig,
    choice: KernelChoice,
    init: impl Fn(&Matrix, &PurifyConfig) -> Matrix,
    update: impl Fn(&Matrix, &Matrix, &Matrix, [f64; 2]) -> Option<Matrix>,
) -> PurifyResult {
    purify_loop_on(rc, &rc.world(), cfg, choice, init, update)
}

/// The generic purification loop: one SymmSquareCube call per iteration,
/// global trace reduction, a pluggable polynomial update.
pub(crate) fn purify_loop_on<T: Transport>(
    rc: &RankCtx<T>,
    base: &Comm<T>,
    cfg: &PurifyConfig,
    choice: KernelChoice,
    init: impl Fn(&Matrix, &PurifyConfig) -> Matrix,
    update: impl Fn(&Matrix, &Matrix, &Matrix, [f64; 2]) -> Option<Matrix>,
) -> PurifyResult {
    let world = base.clone();
    let nranks = world.size();
    let state = match choice {
        KernelChoice::TwoFiveD { c, n_dup } => {
            let q = ((nranks / c) as f64).sqrt().round() as usize;
            assert_eq!(q * q * c, nranks, "rank count must be q^2*c");
            let mesh = Mesh25D::new_on(world.clone(), q, c);
            let grd_ndup = NDupComms::new(&mesh.grd, n_dup);
            KernelState::TwoFiveD { mesh, grd_ndup }
        }
        _ => {
            let p = (nranks as f64).cbrt().round() as usize;
            assert_eq!(p * p * p, nranks, "rank count must be p^3");
            let mesh = Mesh3D::new_on(world.clone(), p);
            let bundles = match choice {
                KernelChoice::Optimized { n_dup } => Some(mesh.dup_bundles(n_dup)),
                _ => None,
            };
            KernelState::ThreeD {
                mesh,
                bundles,
                choice,
            }
        }
    };

    let p = state.grid_p();
    let grid = BlockGrid::new(cfg.n, p);
    let (bi, bj) = state.coords();
    let plane0 = state.on_plane0();
    // Communicator over plane 0 for the trace reductions.
    let plane0_comm: Option<Comm<T>> =
        world.split(if plane0 { 0 } else { -1 }, world.rank() as u64);

    // Initial iterate.
    let mut d_block: Option<BlockBuf> = plane0.then(|| {
        if cfg.phantom {
            let (r, c) = grid.block_dims(bi, bj);
            BlockBuf::Phantom(r, c)
        } else {
            let eigs = ovcomm_densemat::fock_like_spectrum(cfg.n, cfg.nocc);
            let h = ovcomm_densemat::symmetric_with_spectrum(&eigs, cfg.seed);
            let d0 = init(&h, cfg);
            BlockBuf::Real(grid.extract(&d0, bi, bj))
        }
    });

    let t_start = rc.now();
    let mut kernel_time = SimDur::ZERO;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut residual = f64::NAN;

    while iterations < cfg.max_iter {
        // One SymmSquareCube call (all ranks).
        let input = SymmInput {
            n: cfg.n,
            d_block: d_block.clone(),
        };
        let t0: SimTime = rc.now();
        let out = state.call(rc, &input);
        world.barrier();
        kernel_time += rc.now() - t0;
        iterations += 1;
        rc.phase_span(t0, format!("purify iter {iterations}"));

        // Canonical update on plane 0.
        let mut stop = false;
        if plane0 {
            let comm = plane0_comm.as_ref().expect("plane 0 has the trace comm");
            let d2 = out.d2.expect("plane 0 receives D²");
            let d3 = out.d3.expect("plane 0 receives D³");
            let d = d_block.take().unwrap();
            if cfg.phantom {
                // Timing-faithful stand-ins: scalar trace allreduce and the
                // three-operand block update charge.
                let _ = comm.allreduce(Payload::from_f64s(&[0.0, 0.0]));
                charge_update(rc, &grid, bi, bj);
                d_block = Some(d);
            } else {
                let (dm, d2m, d3m) = (d.unwrap_real(), d2.unwrap_real(), d3.unwrap_real());
                // Local trace contributions (diagonal blocks only).
                let (tr_d_d2, tr_d2_d3) = if bi == bj {
                    (dm.trace() - d2m.trace(), d2m.trace() - d3m.trace())
                } else {
                    (0.0, 0.0)
                };
                let sums = comm
                    .allreduce(Payload::from_f64s(&[tr_d_d2, tr_d2_d3]))
                    .to_f64s();
                let (den, num) = (sums[0], sums[1]);
                residual = den;
                let next = if den.abs() < cfg.tol {
                    None
                } else {
                    update(dm, d2m, d3m, [den, num])
                };
                match next {
                    Some(next) => {
                        charge_update(rc, &grid, bi, bj);
                        d_block = Some(BlockBuf::Real(next));
                    }
                    None => {
                        // Converged (or numerically exhausted).
                        converged = true;
                        d_block = Some(BlockBuf::Real(dm.clone()));
                        stop = true;
                    }
                }
            }
        }
        // Everyone learns whether to continue.
        let flag = world.bcast(
            0,
            (world.rank() == 0).then(|| Payload::from_f64s(&[if stop { 1.0 } else { 0.0 }])),
            8,
        );
        if !cfg.phantom && flag.to_f64s()[0] > 0.5 {
            break;
        }
    }

    PurifyResult {
        iterations,
        converged,
        residual: if residual.is_nan() { 0.0 } else { residual },
        kernel_time,
        total_time: rc.now() - t_start,
        d_block,
    }
}

/// Virtual-time cost of the three-operand canonical update (memory-bound
/// streaming over D, D², D³ and the output).
fn charge_update<T: Transport>(rc: &RankCtx<T>, grid: &BlockGrid, i: usize, j: usize) {
    let bytes = grid.block_bytes(i, j) as f64 * 4.0;
    // Stream at the node's memory bandwidth share.
    let bw = rc.profile().node_mem_bw / rc.compute_ppn() as f64;
    rc.advance(SimDur::from_secs_f64(bytes / bw));
}
