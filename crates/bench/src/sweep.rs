//! Algorithm sweep: every collective algorithm, measured and linted.
//!
//! For each (collective, algorithm, communicator size, message size) cell
//! the sweep compiles the per-rank [`CollPlan`](ovcomm_simmpi::plan)s,
//! runs the static plan linter on them, then measures the collective's
//! virtual completion time with that algorithm forced through the
//! selector — under `VerifyMode::Strict`, so every measured run doubles
//! as a dynamic correctness check. The records feed the fitted selector
//! (`ovcomm_core::fit_selector`) and `ovcomm-bench algo_sweep`.

// Benchmark drivers fail loudly by design: `expect`/`unwrap` here surface
// simulator errors (including Strict-mode verification findings) directly
// as harness panics rather than recoverable results.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use ovcomm_core::AlgoSample;
use ovcomm_simmpi::plan::{self, chunk_bounds, kind_short, CollAlgo};
use ovcomm_simmpi::{run, CollKind, CollSelector, Payload, RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

/// The collectives the sweep covers (everything with an algorithm).
pub const SWEEP_KINDS: &[CollKind] = &[
    CollKind::Bcast,
    CollKind::Reduce,
    CollKind::Allreduce,
    CollKind::Gather,
    CollKind::Scatter,
    CollKind::Allgather,
    CollKind::Barrier,
];

/// One measured sweep cell.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRecord {
    /// Collective name (`bcast`, `reduce`, …).
    pub coll: String,
    /// Algorithm short name (`binomial`, `ring`, …).
    pub algo: String,
    /// Communicator size.
    pub p: usize,
    /// Logical payload bytes.
    pub n: usize,
    /// Virtual completion time in seconds.
    pub seconds: f64,
    /// Total messages across all ranks' plans.
    pub messages: usize,
    /// Findings of the static plan check at the all-rendezvous cutpoint
    /// (`plan::lint_plans`; must be empty for a healthy build).
    pub lint_findings: Vec<String>,
}

/// Call collective `kind` once on the world communicator with an
/// `n`-byte phantom payload (root 0; gather/allgather contribute their
/// [`chunk_bounds`] share).
pub fn call_collective(rc: &RankCtx, kind: CollKind, n: usize) {
    let w = rc.world();
    let (me, p) = (rc.rank(), rc.nranks());
    match kind {
        CollKind::Bcast => {
            let data = (me == 0).then_some(Payload::Phantom(n));
            let _ = w.bcast(0, data, n);
        }
        CollKind::Reduce => {
            let _ = w.reduce(0, Payload::Phantom(n));
        }
        CollKind::Allreduce => {
            let _ = w.allreduce(Payload::Phantom(n));
        }
        CollKind::Scatter => {
            let data = (me == 0).then_some(Payload::Phantom(n));
            let _ = w.scatter(0, data, n);
        }
        CollKind::Gather => {
            let b = chunk_bounds(n, p);
            let _ = w.gather(0, Payload::Phantom(b[me + 1] - b[me]), n);
        }
        CollKind::Allgather => {
            let b = chunk_bounds(n, p);
            let _ = w.allgather(Payload::Phantom(b[me + 1] - b[me]), n);
        }
        CollKind::Barrier => w.barrier(),
        CollKind::Dup | CollKind::Split => unreachable!("not an algorithmic collective"),
    }
}

/// Measure one cell: compile + lint the plans, then run the collective
/// with `algo` forced, under Strict dynamic verification.
pub fn measure_cell(profile: &MachineProfile, algo: CollAlgo, p: usize, n: usize) -> SweepRecord {
    let kind = algo.kind();
    let plans = plan::build_all(kind, algo, p, n, 0);
    let messages = plans.iter().map(|pl| pl.messages()).sum();
    let lint_findings: Vec<String> = plan::lint_plans(&plans)
        .iter()
        .map(|f| f.to_string())
        .collect();
    let sel = CollSelector::default().force(algo);
    let cfg = SimConfig::natural(p, 1, profile.clone()).with_coll_select(sel);
    let out = run(cfg, move |rc: RankCtx| call_collective(&rc, kind, n))
        .expect("algorithm-sweep run (Strict verify)");
    SweepRecord {
        coll: kind_short(kind).to_string(),
        algo: algo.short().to_string(),
        p,
        n,
        seconds: out.makespan.as_secs_f64(),
        messages,
        lint_findings,
    }
}

/// The full sweep: every algorithm of every collective × `ps` × `sizes`
/// (barrier runs once per `p` at size 0).
pub fn algo_sweep(profile: &MachineProfile, ps: &[usize], sizes: &[usize]) -> Vec<SweepRecord> {
    let mut records = Vec::new();
    for &kind in SWEEP_KINDS {
        for algo in CollAlgo::for_kind(kind) {
            for &p in ps {
                let cell_sizes: &[usize] = if kind == CollKind::Barrier {
                    &[0]
                } else {
                    sizes
                };
                for &n in cell_sizes {
                    records.push(measure_cell(profile, algo, p, n));
                }
            }
        }
    }
    records
}

/// Convert sweep records into the samples `ovcomm_core::fit_selector`
/// consumes.
pub fn sweep_samples(records: &[SweepRecord]) -> Vec<AlgoSample> {
    records
        .iter()
        .filter_map(|r| {
            let kind = plan::parse_kind(&r.coll)?;
            let algo = CollAlgo::parse_for(kind, &r.algo)?;
            Some(AlgoSample {
                algo,
                p: r.p,
                n: r.n,
                seconds: r.seconds,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_is_clean_and_timed() {
        let profile = MachineProfile::test_profile();
        let r = measure_cell(&profile, CollAlgo::AllreduceRing, 5, 64 * 1024);
        assert!(r.lint_findings.is_empty(), "{:?}", r.lint_findings);
        assert!(r.seconds > 0.0);
        assert!(r.messages > 0);
        assert_eq!(r.coll, "allreduce");
        assert_eq!(r.algo, "ring");
    }

    #[test]
    fn sweep_samples_roundtrip() {
        let profile = MachineProfile::test_profile();
        let recs = vec![
            measure_cell(&profile, CollAlgo::GatherBinomial, 4, 4096),
            measure_cell(&profile, CollAlgo::GatherLinear, 4, 4096),
        ];
        let samples = sweep_samples(&recs);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].algo, CollAlgo::GatherBinomial);
    }
}
