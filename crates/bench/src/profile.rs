//! `ProfileBlock` builders: the critical-path/wait-blame record attached
//! next to each [`MetricsBlock`](crate::MetricsBlock) in bench JSON.
//!
//! The blocks come from [`ovcomm_obs::profile`], which rebuilds the
//! happens-before DAG from the run's trace spans plus send→recv and
//! post→wait edges and folds the DAG critical path into a
//! phase → operation → step → cause blame tree. Both backends emit the
//! same span/edge schema and return the same output type, so one builder
//! is all the harness needs; runs without tracing yield `None` (no spans,
//! nothing to blame).

use ovcomm_obs::ProfileBlock;
use ovcomm_simmpi::RunOutput;

/// Build the profile block for a finished run on either backend, or `None`
/// when the run was not traced. On rt, wait time on the path splits into
/// spin/park/rendezvous-stall by the run's recorded `rt.wait_*_ns` sums.
pub fn profile_block<T>(out: &RunOutput<T>) -> Option<ProfileBlock> {
    let trace = out.trace.as_ref()?;
    Some(ovcomm_obs::profile(
        trace.spans(),
        trace.edges(),
        &out.metrics,
        out.makespan,
        out.backend,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
    use ovcomm_simnet::MachineProfile;

    #[test]
    fn sim_profile_tiles_makespan() {
        let out = run(
            SimConfig::natural(4, 1, MachineProfile::test_profile()).with_trace(),
            |rc: RankCtx| {
                let w = rc.world();
                let data = (rc.rank() == 0).then_some(Payload::Phantom(1 << 20));
                let _ = w.bcast(0, data, 1 << 20);
            },
        )
        .unwrap();
        let p = profile_block(&out).expect("traced run yields a profile");
        assert_eq!(p.backend, "sim");
        let sum: f64 = p.critical_path.iter().map(|s| s.dur_us).sum();
        assert!(
            (sum - p.makespan_us).abs() < 1e-6,
            "path tiles makespan: {sum} vs {}",
            p.makespan_us
        );
        assert!((p.blame.leaf_sum_us() - p.makespan_us).abs() < 1e-6);
    }

    #[test]
    fn untraced_run_has_no_profile() {
        let out = run(
            SimConfig::natural(2, 1, MachineProfile::test_profile()),
            |_rc: RankCtx| {},
        )
        .unwrap();
        assert!(profile_block(&out).is_none());
    }

    #[test]
    fn rt_profile_names_rt_causes() {
        let out = ovcomm_rt::run(
            ovcomm_rt::RtConfig::natural(4, 1, MachineProfile::test_profile()).with_trace(),
            |rc: ovcomm_rt::RtRankCtx| {
                let w = rc.world();
                let data = (rc.rank() == 0).then_some(Payload::Phantom(1 << 16));
                let _ = w.bcast(0, data, 1 << 16);
            },
        )
        .unwrap();
        let p = profile_block(&out).expect("traced rt run yields a profile");
        assert_eq!(p.backend, "rt");
        assert!((p.blame.leaf_sum_us() - p.makespan_us).abs() < 1e-6);
        // Non-roots block in the bcast, and any blocked rank records
        // spin-poll or park time — causes the simulator never names.
        assert!(
            ["spin-poll", "park", "rendezvous-stall", "progress-delay"]
                .iter()
                .any(|cause| p.causes.contains_key(*cause)),
            "no runtime-specific cause on the rt critical path: {:?}",
            p.causes
        );
    }
}
