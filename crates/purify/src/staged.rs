//! Per-kernel PPN selection inside an SCF-like application (§III-B).
//!
//! The paper modified GTFock "to allow the user to separately choose the
//! number of MPI processes for Fock matrix construction and for density
//! matrix purification": all launched processes work on the Fock stage,
//! then only the chosen subset runs purification while the rest sleep-poll
//! an `MPI_Ibarrier`. This module is that mechanism, end to end.

// Purification drivers are invariant-dense: `expect`/`unwrap` here assert
// plane/root-only payload delivery and staged-communicator membership
// guaranteed by the surrounding protocol, not recoverable error paths.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{run_stage, StagePlan};
use ovcomm_simmpi::{RankCtx, Transport};
use ovcomm_simnet::{SimDur, SimTime};

use crate::canonical::{purify_rank_on, KernelChoice, PurifyConfig};

/// Configuration of a staged SCF-like run.
#[derive(Debug, Clone)]
pub struct ScfConfig {
    /// Purification parameters (matrix size, iterations, phantom…).
    pub purify: PurifyConfig,
    /// Which ranks are active during purification.
    pub plan: StagePlan,
    /// Modeled duration of the Fock-construction stage (all ranks).
    pub fock_time: SimDur,
    /// Number of SCF iterations (Fock stage + purification stage each).
    pub scf_iterations: usize,
}

/// Per-rank outcome of a staged run.
pub struct ScfResult {
    /// SCF iterations executed.
    pub scf_iterations: usize,
    /// Total purification-kernel virtual time (active ranks; zero on
    /// sleepers).
    pub purify_kernel_time: SimDur,
    /// SymmSquareCube calls performed by this rank.
    pub kernel_calls: usize,
    /// Total sleep polls performed by this rank across stages.
    pub polls: usize,
    /// Virtual time of the whole run.
    pub total_time: SimDur,
}

/// Run `scf_iterations` of (Fock stage on all ranks → purification on the
/// planned subset). Every rank of the universe must call this.
pub fn scf_staged<T: Transport>(
    rc: &RankCtx<T>,
    cfg: &ScfConfig,
    choice: KernelChoice,
) -> ScfResult {
    let world = rc.world();
    let t0: SimTime = rc.now();
    // The active subset's communicator is created once, collectively.
    let active = cfg.plan.is_active(rc.rank());
    let sub = world.split(if active { 0 } else { -1 }, rc.rank() as u64);

    let mut kernel_time = SimDur::ZERO;
    let mut kernel_calls = 0usize;
    let mut polls = 0usize;
    for _ in 0..cfg.scf_iterations {
        // Stage 1: Fock construction — every process computes.
        rc.advance(cfg.fock_time);
        world.barrier();

        // Stage 2: purification at the per-kernel PPN; surplus processes
        // sleep-poll the Ibarrier and release their cores to the actives.
        if let Some(k) = cfg.plan.active_ppn() {
            rc.set_active_ppn(k);
        }
        let (res, p) = run_stage(rc, &world, &cfg.plan, || {
            purify_rank_on(
                rc,
                sub.as_ref()
                    .expect("active ranks have the sub-communicator"),
                &cfg.purify,
                choice,
            )
        });
        rc.set_active_ppn(0);
        polls += p;
        if let Some(r) = res {
            kernel_time += r.kernel_time;
            kernel_calls += r.iterations;
        }
    }
    ScfResult {
        scf_iterations: cfg.scf_iterations,
        purify_kernel_time: kernel_time,
        kernel_calls,
        polls,
        total_time: rc.now() - t0,
    }
}
