//! The five workloads: what one repetition runs, which inputs it takes
//! from the seed, and the oracle every repetition is checked against.
//!
//! A repetition is timed from outside by the driver in `main.rs`; this
//! module only calls the crates' `pub` functions and brackets each call
//! with a harness span.

use std::sync::Arc;
use std::time::Duration;

use ovcomm_bench::{metrics_block, metrics_block_rt, profile_block, profile_block_rt};
use ovcomm_core::{Communicator, NDupComms, RankHandle};
use ovcomm_densemat::{gemm, BlockBuf, BlockGrid, Matrix};
use ovcomm_kernels::mesh::{mesh3d_coords_of, mesh3d_rank_of};
use ovcomm_kernels::{
    symm_square_cube_25d, symm_square_cube_baseline, symm_square_cube_cosma,
    symm_square_cube_flops, symm_square_cube_optimized, symm_square_cube_original, Mesh25D, Mesh2D,
    Mesh3D, SymmInput, SymmOutput,
};
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{CollAlgo, CollKind, CollSelector, Payload, RankCtx, SimConfig, VerifyMode};
use ovcomm_simnet::{MachineProfile, SimTime, TraceSpan};

use crate::gen::{symmetric_matrix, Rng};
use crate::spans::Recorder;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sim_symm3d_64",
        "Table I shape (Alg 3/4/5, 4x4x4, PPN 1, Strict): host time is simmpi's per-message front end and per-run universe set-up",
    ),
    (
        "sim_symm25d_256",
        "Table V row (2.5D 8x8x4 + COSMA q=8, PPN 4): multi-flow solver components, p2p shifts, RMA and 320 one-MiB fiber stacks per repetition",
    ),
    (
        "sim_allreduce_4096",
        "one recursive-doubling allreduce at p=4096, PPN 32, verify Off: engine, fibers and flow solver do the work, the verifier none",
    ),
    (
        "rt_symm3d_n128",
        "real f64 Alg 5 + Alg 4 on 8 rank threads, 8 KiB eager chunks: latency-bound, mailbox/queue/progress and spin-park waits dominate",
    ),
    (
        "rt_symm3d_n512",
        "same kernel at n=512, 128 KiB rendezvous chunks: bandwidth-bound, payload reduce/concat/copies and gemm_acc dominate",
    ),
];

/// N_DUP of every overlapped kernel in the benchmark (the paper's choice).
const N_DUP: usize = 4;

/// One configuration a repetition can run under. The end-to-end run uses
/// each workload's [`Workload::base`]; the traced run also flips one field
/// at a time to price the checking and observing layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    pub verify: VerifyMode,
    /// The crates' own span tracing (`with_trace()`), plus the post-run
    /// analyses that need a trace.
    pub trace: bool,
    /// rt's telemetry sampler thread (ignored by the simulator).
    pub sampler: bool,
}

/// Deterministic results of the modelled program; a change meant only to
/// speed the simulator must leave them bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    pub virtual_s: f64,
    pub tflops: f64,
    pub overlap_efficiency: f64,
    pub ndup_gain: f64,
}

/// Host seconds of the post-run analyses of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyses {
    pub metrics_block_s: f64,
    pub profile_block_s: f64,
    pub perfetto_export_s: f64,
    pub trace_spans: u64,
}

#[derive(Debug, Default)]
pub struct RepOut {
    /// Kernel calls attempted.
    pub ops: u64,
    /// Calls that returned `Err`, tripped the watchdog or failed the
    /// output check.
    pub failed: u64,
    pub messages: u64,
    pub findings: u64,
    pub model: Model,
    pub analyses: Analyses,
    /// Rank-summed nanoseconds of rt's `wait_spin`, `wait_park` and
    /// `rendezvous_stall` histograms.
    pub rt_wait_ns: [u64; 3],
    /// Why calls failed (printed to stderr by the driver).
    pub notes: Vec<String>,
}

/// Input shapes the layer probes borrow from the workload.
#[derive(Debug, Clone)]
pub struct Shapes {
    /// Edge of the square blocks `gemm_acc` multiplies.
    pub gemm_edge: usize,
    /// Bytes of one pipelined chunk (what payload operations see).
    pub chunk_bytes: usize,
    pub ranks: usize,
    pub ppn: usize,
    pub fiber_stack: usize,
    /// `(collective, ranks, bytes)` of the schedules the workload compiles,
    /// and the selector that picks their algorithms.
    pub plans: Vec<(CollKind, usize, usize)>,
    pub selector: CollSelector,
}

pub trait Workload {
    fn base(&self) -> Variant;
    fn shapes(&self) -> Shapes;
    fn rep(&mut self, variant: Variant, rec: &mut Recorder) -> RepOut;
    /// Kernel calls in one repetition (for per-call figures).
    fn calls_per_rep(&self) -> u64;
    /// Seconds a plain single-threaded `gemm` takes for the same D² and
    /// D³ (rt workloads; measured while building the reference).
    fn serial_s(&self) -> Option<f64> {
        None
    }
    /// The generated inputs, for the record.
    fn inputs(&self) -> String;
}

pub fn build(name: &str, seed: u64, rec: &mut Recorder) -> Option<Box<dyn Workload>> {
    let mut rng = Rng::for_workload(seed, name);
    Some(match name {
        "sim_symm3d_64" => Box::new(SimWorkload::symm3d(rng.jitter(7645, 32))),
        "sim_symm25d_256" => Box::new(SimWorkload::symm25d(rng.jitter(7645, 32))),
        "sim_allreduce_4096" => Box::new(SimWorkload::allreduce(
            (1 << 20) - 4096 + 8 * rng.jitter(512, 512),
        )),
        "rt_symm3d_n128" => Box::new(RtWorkload::new(&mut rng, 128, 100, rec)),
        "rt_symm3d_n512" => Box::new(RtWorkload::new(&mut rng, 512, 5, rec)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Kernel bodies, generic over the backend
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alg {
    Original,
    Baseline,
    Optimized,
}

/// Barrier-separated SymmSquareCube calls on a `p×p×p` mesh, handing each
/// call's output to `on_output`; returns the phase seconds on this rank's
/// clock.
fn symm3d_calls<R: RankHandle>(
    rc: &R,
    p: usize,
    n: usize,
    d_block: Option<BlockBuf>,
    seq: &[(Alg, usize)],
    mut on_output: impl FnMut(Alg, SymmOutput),
) -> f64 {
    let mesh = Mesh3D::new(rc, p);
    let bundles = seq
        .iter()
        .any(|&(alg, _)| alg == Alg::Optimized)
        .then(|| mesh.dup_bundles(N_DUP));
    let input = SymmInput { n, d_block };
    rc.world().barrier();
    let t0 = rc.now();
    for &(alg, calls) in seq {
        for _ in 0..calls {
            let out = match (alg, &bundles) {
                (Alg::Original, _) => symm_square_cube_original(rc, &mesh, &input),
                (Alg::Baseline, _) => symm_square_cube_baseline(rc, &mesh, &input),
                (Alg::Optimized, Some(b)) => symm_square_cube_optimized(rc, &mesh, b, &input),
                (Alg::Optimized, None) => unreachable!("bundles exist when Alg 5 is in seq"),
            };
            on_output(alg, out);
            rc.world().barrier();
        }
    }
    (rc.now() - t0).as_secs_f64()
}

/// The schedules SymmSquareCube compiles: a chunk's broadcast and its
/// reduction along one mesh line of `p` ranks.
fn symm_plans(p: usize, chunk_bytes: usize) -> Vec<(CollKind, usize, usize)> {
    vec![
        (CollKind::Bcast, p, chunk_bytes),
        (CollKind::Reduce, p, chunk_bytes),
    ]
}

/// This rank's phantom D block on plane 0 of a `p×p×p` mesh.
fn phantom_block(rank: usize, p: usize, n: usize) -> Option<BlockBuf> {
    let (i, j, k) = mesh3d_coords_of(rank, p);
    (k == 0).then(|| {
        let (r, c) = BlockGrid::new(n, p).block_dims(i, j);
        BlockBuf::Phantom(r, c)
    })
}

// ---------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum SimKernel {
    Symm3d(Alg),
    Symm25d,
    Cosma,
    Allreduce,
}

struct SimStage {
    kernel: SimKernel,
    nranks: usize,
    ppn: usize,
    calls: usize,
    /// Virtual makespan of the first repetition; every later one must
    /// reproduce it bit for bit, under every variant.
    makespan: Option<SimTime>,
}

struct SimWorkload {
    /// Matrix dimension, or payload bytes for the allreduce.
    size: usize,
    stages: Vec<SimStage>,
    base_verify: VerifyMode,
    /// Also holds the fiber stack size and the collective selector of the
    /// workload's own runs.
    shapes: Shapes,
}

struct StageOut {
    makespan: SimTime,
    messages: u64,
    findings: u64,
    secs_per_call: f64,
    overlap_efficiency: f64,
}

impl SimWorkload {
    fn new(
        size: usize,
        base_verify: VerifyMode,
        stages: Vec<(SimKernel, usize, usize, usize)>,
        shapes: Shapes,
    ) -> Self {
        SimWorkload {
            size,
            stages: stages
                .into_iter()
                .map(|(kernel, nranks, ppn, calls)| SimStage {
                    kernel,
                    nranks,
                    ppn,
                    calls,
                    makespan: None,
                })
                .collect(),
            base_verify,
            shapes,
        }
    }

    fn symm3d(n: usize) -> SimWorkload {
        let block = BlockGrid::new(n, 4).block_bytes(0, 0);
        SimWorkload::new(
            n,
            VerifyMode::Strict,
            [Alg::Original, Alg::Baseline, Alg::Optimized]
                .map(|alg| (SimKernel::Symm3d(alg), 64, 1, 3))
                .to_vec(),
            Shapes {
                gemm_edge: 128,
                chunk_bytes: block / N_DUP,
                ranks: 64,
                ppn: 1,
                fiber_stack: ovcomm_simnet::DEFAULT_STACK_SIZE,
                plans: symm_plans(4, block / N_DUP),
                selector: CollSelector::default(),
            },
        )
    }

    fn symm25d(n: usize) -> SimWorkload {
        let block = BlockGrid::new(n, 8).block_bytes(0, 0);
        SimWorkload::new(
            n,
            VerifyMode::Strict,
            vec![
                (SimKernel::Symm25d, 256, 4, 1),
                (SimKernel::Cosma, 64, 4, 1),
            ],
            Shapes {
                gemm_edge: 128,
                chunk_bytes: block / N_DUP,
                ranks: 256,
                ppn: 4,
                fiber_stack: ovcomm_simnet::DEFAULT_STACK_SIZE,
                plans: symm_plans(8, block / N_DUP),
                selector: CollSelector::default(),
            },
        )
    }

    fn allreduce(bytes: usize) -> SimWorkload {
        // Verification costs Θ(messages) and the default selector picks a
        // Θ(p²)-message ring here; both would be a different benchmark.
        SimWorkload::new(
            bytes,
            VerifyMode::Off,
            vec![(SimKernel::Allreduce, 4096, 32, 1)],
            Shapes {
                gemm_edge: 128,
                chunk_bytes: bytes,
                ranks: 4096,
                ppn: 32,
                fiber_stack: 128 << 10,
                plans: vec![(CollKind::Allreduce, 4096, bytes)],
                selector: CollSelector::default().force(CollAlgo::AllreduceRecursiveDoubling),
            },
        )
    }

    fn run_stage(
        &self,
        stage: &SimStage,
        variant: Variant,
        rec: &mut Recorder,
        analyses: &mut Analyses,
    ) -> Result<StageOut, String> {
        let profile = MachineProfile::stampede2_skylake();
        let mut cfg = SimConfig::natural(stage.nranks, stage.ppn, profile)
            .with_verify(variant.verify)
            .with_coll_select(self.shapes.selector.clone())
            .with_fiber_stack(self.shapes.fiber_stack);
        if variant.trace {
            cfg = cfg.with_trace();
        }
        let (size, kernel, calls) = (self.size, stage.kernel, stage.calls);
        let out = rec.span("simmpi::run", "simmpi", |_| {
            let out = ovcomm_simmpi::run(cfg, move |rc: RankCtx| match kernel {
                SimKernel::Symm3d(alg) => {
                    let d = phantom_block(rc.rank(), 4, size);
                    symm3d_calls(&rc, 4, size, d, &[(alg, calls)], |_, _| ())
                }
                SimKernel::Symm25d => symm25d_calls(&rc, 8, 4, size, calls),
                SimKernel::Cosma => cosma_calls(&rc, 8, size, calls),
                SimKernel::Allreduce => {
                    // No barriers: at p = 4096 each would cost as many
                    // messages as the allreduce itself.
                    for _ in 0..calls {
                        let _ = rc.world().allreduce(Payload::Phantom(size));
                    }
                    rc.now().as_secs_f64()
                }
            });
            let messages = out.as_ref().map_or(0, |o| o.messages);
            (out, messages)
        });
        let out = out.map_err(|e| format!("{kernel:?}: {e}"))?;
        let (block, secs) = rec.timed("metrics_block", "obs", |_| (metrics_block(&out), 1));
        analyses.metrics_block_s += secs;
        if let Some(trace) = out.trace.as_ref() {
            analyses.trace_spans += trace.spans().len() as u64;
            let (_, secs) = rec.timed("profile_block", "obs", |_| (profile_block(&out), 1));
            analyses.profile_block_s += secs;
            analyses.perfetto_export_s += export_perfetto(rec, trace.spans());
        }
        Ok(StageOut {
            makespan: out.makespan,
            messages: out.messages,
            findings: out.verify.findings.len() as u64,
            secs_per_call: out.results.iter().cloned().fold(0.0, f64::max) / calls as f64,
            overlap_efficiency: block.overlap_efficiency,
        })
    }
}

/// Serialise a run's trace the way `--trace-out` does, in memory; returns
/// the host seconds it took.
fn export_perfetto(rec: &mut Recorder, spans: &[TraceSpan]) -> f64 {
    rec.timed("perfetto_export", "obs", |_| {
        let text = serde_json::to_string(&ovcomm_obs::perfetto::trace_to_json(spans));
        (std::hint::black_box(text).is_ok(), spans.len() as u64)
    })
    .1
}

fn symm25d_calls(rc: &RankCtx, q: usize, c: usize, n: usize, calls: usize) -> f64 {
    let mesh = Mesh25D::new(rc, q, c);
    let grd_ndup = NDupComms::new(&mesh.grd, N_DUP);
    let d_block = (mesh.k == 0).then(|| {
        let (r, cc) = BlockGrid::new(n, q).block_dims(mesh.i, mesh.j);
        BlockBuf::Phantom(r, cc)
    });
    let input = SymmInput { n, d_block };
    rc.world().barrier();
    let t0 = rc.now();
    for _ in 0..calls {
        let _ = symm_square_cube_25d(rc, &mesh, &grd_ndup, &input);
        rc.world().barrier();
    }
    (rc.now() - t0).as_secs_f64()
}

fn cosma_calls(rc: &RankCtx, p: usize, n: usize, calls: usize) -> f64 {
    let mesh = Mesh2D::new(rc, p);
    let (r, c) = BlockGrid::new(n, p).block_dims(mesh.i, mesh.j);
    let input = SymmInput {
        n,
        d_block: Some(BlockBuf::Phantom(r, c)),
    };
    rc.world().barrier();
    let t0 = rc.now();
    for _ in 0..calls {
        let _ = symm_square_cube_cosma(rc, &mesh, &input);
        rc.world().barrier();
    }
    (rc.now() - t0).as_secs_f64()
}

impl Workload for SimWorkload {
    fn base(&self) -> Variant {
        Variant {
            verify: self.base_verify,
            trace: false,
            sampler: false,
        }
    }

    fn shapes(&self) -> Shapes {
        self.shapes.clone()
    }

    fn calls_per_rep(&self) -> u64 {
        self.stages.iter().map(|s| s.calls as u64).sum()
    }

    fn inputs(&self) -> String {
        match self.stages[0].kernel {
            SimKernel::Allreduce => format!("payload_bytes={}", self.size),
            _ => format!("n={}", self.size),
        }
    }

    fn rep(&mut self, variant: Variant, rec: &mut Recorder) -> RepOut {
        let mut rep = RepOut::default();
        let mut per_call = Vec::new();
        for idx in 0..self.stages.len() {
            let calls = self.stages[idx].calls as u64;
            rep.ops += calls;
            match self.run_stage(&self.stages[idx], variant, rec, &mut rep.analyses) {
                Err(e) => {
                    rep.failed += calls;
                    rep.notes.push(e);
                    per_call.push(f64::NAN);
                }
                Ok(out) => {
                    let stage = &mut self.stages[idx];
                    let first = *stage.makespan.get_or_insert(out.makespan);
                    if out.makespan != first || out.findings != 0 {
                        rep.failed += calls;
                        rep.notes.push(format!(
                            "{:?}: makespan {:?} (first {:?}), {} verify finding(s)",
                            stage.kernel, out.makespan, first, out.findings
                        ));
                    }
                    rep.messages += out.messages;
                    rep.findings += out.findings;
                    rep.model.virtual_s += out.makespan.as_secs_f64();
                    // The last stage is the headline one (Alg 5, COSMA, the
                    // allreduce).
                    rep.model.overlap_efficiency = out.overlap_efficiency;
                    per_call.push(out.secs_per_call);
                }
            }
        }
        match self.stages[0].kernel {
            SimKernel::Symm3d(_) => {
                rep.model.tflops = symm_square_cube_flops(self.size) / per_call[2] / 1e12;
                rep.model.ndup_gain = per_call[1] / per_call[2];
            }
            SimKernel::Symm25d => {
                rep.model.tflops = symm_square_cube_flops(self.size) / per_call[0] / 1e12;
            }
            SimKernel::Cosma | SimKernel::Allreduce => {}
        }
        rep
    }
}

// ---------------------------------------------------------------------
// rt workloads
// ---------------------------------------------------------------------

/// Mesh edge of the rt workloads: 2×2×2 = 8 rank threads.
const RT_P: usize = 2;

/// D² and D³ blocks of plane 0, in `i * p + j` order.
type Blocks = Vec<(Matrix, Matrix)>;

struct RtWorkload {
    n: usize,
    /// Calls of each algorithm per `run` (Alg 5 first, then Alg 4).
    calls: usize,
    d_blocks: Arc<Vec<Matrix>>,
    /// What the simulator computed for the same kernel and size, per
    /// algorithm; every rt call must reproduce it bit for bit.
    reference: Arc<[Blocks; 2]>,
    serial_s: f64,
}

fn alg_index(alg: Alg) -> usize {
    match alg {
        Alg::Optimized => 0,
        Alg::Baseline => 1,
        Alg::Original => unreachable!("rt workloads run Alg 5 and Alg 4"),
    }
}

fn real_block(rank: usize, d_blocks: &[Matrix]) -> Option<BlockBuf> {
    let (i, j, k) = mesh3d_coords_of(rank, RT_P);
    (k == 0).then(|| BlockBuf::Real(d_blocks[i * RT_P + j].clone()))
}

fn take_blocks(out: SymmOutput) -> Option<(Matrix, Matrix)> {
    match (out.d2, out.d3) {
        (Some(BlockBuf::Real(d2)), Some(BlockBuf::Real(d3))) => Some((d2, d3)),
        _ => None,
    }
}

impl RtWorkload {
    fn new(rng: &mut Rng, n: usize, calls: usize, rec: &mut Recorder) -> RtWorkload {
        let d = symmetric_matrix(rng, n);
        let grid = BlockGrid::new(n, RT_P);
        let d_blocks: Arc<Vec<Matrix>> = Arc::new(
            (0..RT_P * RT_P)
                .map(|b| grid.extract(&d, b / RT_P, b % RT_P))
                .collect(),
        );

        let ((d2, d3), serial_s) = rec.timed("gemm reference", "densemat", |_| {
            let d2 = gemm(&d, &d);
            let d3 = gemm(&d2, &d);
            ((d2, d3), 2)
        });

        // One simulator run of the same kernels on the same blocks.
        let blocks = d_blocks.clone();
        let sim = rec.span("simmpi::run reference", "simmpi", |_| {
            let out = ovcomm_simmpi::run(
                SimConfig::natural(RT_P.pow(3), 1, MachineProfile::test_profile()),
                move |rc: RankCtx| {
                    let mut got = Vec::new();
                    let d = real_block(rc.rank(), &blocks);
                    let seq = [(Alg::Optimized, 1), (Alg::Baseline, 1)];
                    symm3d_calls(&rc, RT_P, n, d, &seq, |_, out| got.push(take_blocks(out)));
                    got
                },
            );
            (out, 2)
        });
        let sim = sim.unwrap_or_else(|e| panic!("reference simulator run failed: {e}"));
        let mut reference: [Blocks; 2] = [Vec::new(), Vec::new()];
        let tol = 1e-9 * n as f64;
        for b in 0..RT_P * RT_P {
            let rank = mesh3d_rank_of(b / RT_P, b % RT_P, 0, RT_P);
            for (alg, got) in sim.results[rank].iter().enumerate() {
                let (s2, s3) = got.clone().expect("plane 0 returns real D² and D³ blocks");
                let e2 = s2.max_abs_diff(&grid.extract(&d2, b / RT_P, b % RT_P));
                let e3 = s3.max_abs_diff(&grid.extract(&d3, b / RT_P, b % RT_P));
                assert!(
                    e2 <= tol && e3 <= tol,
                    "simulator reference is off the dense gemm by {e2:e} / {e3:e} (> {tol:e})"
                );
                reference[alg].push((s2, s3));
            }
        }
        RtWorkload {
            n,
            calls,
            d_blocks,
            reference: Arc::new(reference),
            serial_s,
        }
    }
}

impl Workload for RtWorkload {
    fn base(&self) -> Variant {
        // Strict verification and the sampler thread move rt totals by more
        // than the regression bound on a 2-core box; they are priced as
        // layer overheads in the traced run instead.
        Variant {
            verify: VerifyMode::Off,
            trace: false,
            sampler: false,
        }
    }

    fn shapes(&self) -> Shapes {
        let edge = self.n / RT_P;
        let chunk = edge * edge * 8 / N_DUP;
        Shapes {
            gemm_edge: edge,
            chunk_bytes: chunk,
            ranks: RT_P.pow(3),
            ppn: 1,
            fiber_stack: ovcomm_simnet::DEFAULT_STACK_SIZE,
            plans: symm_plans(RT_P, chunk),
            selector: CollSelector::default(),
        }
    }

    fn calls_per_rep(&self) -> u64 {
        2 * self.calls as u64
    }

    fn serial_s(&self) -> Option<f64> {
        Some(self.serial_s)
    }

    fn inputs(&self) -> String {
        format!(
            "n={} d[0][1]={:e}",
            self.n,
            self.d_blocks[0].data().get(1).copied().unwrap_or(0.0)
        )
    }

    fn rep(&mut self, variant: Variant, rec: &mut Recorder) -> RepOut {
        let mut rep = RepOut {
            ops: self.calls_per_rep(),
            ..RepOut::default()
        };
        let mut cfg = RtConfig::natural(RT_P.pow(3), 1, MachineProfile::test_profile())
            .with_verify(variant.verify)
            .with_deadlock_timeout(Duration::from_secs(10));
        if !variant.sampler {
            cfg = cfg.without_sampler();
        }
        if variant.trace {
            cfg = cfg.with_trace();
        }
        let (n, calls) = (self.n, self.calls);
        let (blocks, reference) = (self.d_blocks.clone(), self.reference.clone());
        let out = rec.span("rt::run", "rt", |_| {
            let out = ovcomm_rt::run(cfg, move |rc: RtRankCtx| {
                let d = real_block(rc.rank(), &blocks);
                let (i, j, k) = mesh3d_coords_of(rc.rank(), RT_P);
                let mut mismatches = 0u64;
                let seq = [(Alg::Optimized, calls), (Alg::Baseline, calls)];
                symm3d_calls(&rc, RT_P, n, d, &seq, |alg, out| {
                    if k != 0 {
                        return;
                    }
                    let (r2, r3) = &reference[alg_index(alg)][i * RT_P + j];
                    let same = take_blocks(out)
                        .is_some_and(|(d2, d3)| bits_eq(&d2, r2) && bits_eq(&d3, r3));
                    mismatches += u64::from(!same);
                });
                mismatches
            });
            let messages = out.as_ref().map_or(0, |o| o.messages);
            (out, messages)
        });
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                rep.failed = rep.ops;
                rep.notes.push(format!("rt run: {e}"));
                return rep;
            }
        };
        let (_, secs) = rec.timed("metrics_block_rt", "obs", |_| (metrics_block_rt(&out), 1));
        rep.analyses.metrics_block_s = secs;
        if let Some(trace) = out.trace.as_ref() {
            rep.analyses.trace_spans = trace.spans().len() as u64;
            let (_, secs) = rec.timed("profile_block_rt", "obs", |_| (profile_block_rt(&out), 1));
            rep.analyses.profile_block_s = secs;
            rep.analyses.perfetto_export_s = export_perfetto(rec, trace.spans());
        }
        // A call is wrong if any plane-0 rank saw a wrong block; ranks see
        // the same calls, so the worst rank bounds the number of bad calls.
        let bad = out.results.iter().copied().max().unwrap_or(0);
        rep.findings = out.verify.findings.len() as u64;
        if bad != 0 || rep.findings != 0 {
            rep.failed = bad.max(1);
            rep.notes.push(format!(
                "{bad} call(s) differ from the simulator's D²/D³; {} verify finding(s)",
                rep.findings
            ));
        }
        rep.messages = out.messages;
        for (slot, name) in [
            "rt.wait_spin_ns",
            "rt.wait_park_ns",
            "rt.rendezvous_stall_ns",
        ]
        .iter()
        .enumerate()
        {
            rep.rt_wait_ns[slot] = out
                .metrics
                .histograms
                .iter()
                .filter(|(key, _)| key.starts_with(name))
                .map(|(_, h)| h.sum)
                .sum();
        }
        rep
    }
}

fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.data().len() == b.data().len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
