//! Pins the virtual-time outcome of a program that drives every wake path
//! of the engine (see `common/wake_program.rs`): the makespan, each
//! rank's end time, the message count and each rank's `test` probes. A changed value means a wake
//! was released at another time or in another order.

#[path = "common/wake_program.rs"]
mod wake_program;

use ovcomm_simmpi::{run, RankCtx, SimConfig};
use ovcomm_simnet::{MachineProfile, SimTime};

use wake_program::{program, RANKS};

#[test]
fn every_wake_path_releases_at_its_pinned_time() {
    let cfg = || SimConfig::natural(RANKS, 2, MachineProfile::test_profile());
    let out = run(cfg(), |rc: RankCtx| program(rc)).unwrap();
    let again = run(cfg(), |rc: RankCtx| program(rc)).unwrap();
    assert_eq!(out.results, again.results, "payloads diverge across runs");
    assert_eq!(
        out.end_times, again.end_times,
        "end times diverge across runs"
    );
    let ends: Vec<u64> = out.end_times.iter().map(|t| t.as_nanos()).collect();
    assert_eq!(out.makespan, SimTime(684_643));
    assert_eq!(ends, vec![684_443, 682_840, 684_643, 681_727]);
    assert_eq!(out.messages, 32);
    let probes: Vec<u64> = (0..RANKS)
        .map(|r| out.metrics.counters[&format!("simmpi.tests{{rank={r}}}")])
        .collect();
    assert_eq!(probes, vec![7, 8, 10, 4], "test-poll probes per rank");
}
