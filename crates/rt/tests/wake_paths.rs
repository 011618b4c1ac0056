//! Wakes on the runtime: the wake-path program of
//! `crates/simmpi/tests/common/wake_program.rs` must deliver the
//! simulator's payload bits, and waits that really park must be woken by
//! their completion, not by the park slice running out.
//!
//! A lost wake costs a waiter one 25 ms park slice. The ping-pong tests
//! make every round park (the responder naps 200 µs, four times the 50 µs
//! spin budget), so 1,000 rounds finish in well under a second when every
//! wake lands and take about 25 s when none does.

#[path = "../../simmpi/tests/common/wake_program.rs"]
mod wake_program;

use std::time::{Duration, Instant};

use ovcomm_rt::{run, RtConfig, RtRankCtx};
use ovcomm_simmpi::{Payload, RankCtx, RunOutput, SimConfig};
use ovcomm_simnet::MachineProfile;

use wake_program::{program, RANKS};

const ROUNDS: usize = 1_000;
/// Above the test profile's 64 KiB eager limit: a rendezvous message.
const RNDV: usize = 64 * 1024;
const NAP: Duration = Duration::from_micros(200);
const LIMIT: Duration = Duration::from_secs(10);

/// Asserts the run finished in time and that rank 0's waits really
/// parked in at least half the rounds.
fn assert_woken_in_time<R>(out: &RunOutput<R>, took: Duration) {
    assert!(
        took < LIMIT,
        "{ROUNDS} rounds took {took:?}: wakes were lost"
    );
    let park = &out.metrics.histograms["rt.wait_park_ns{rank=0}"];
    let parked = park.count - park.buckets[0];
    assert!(
        parked >= ROUNDS as u64 / 2,
        "only {parked} of rank 0's waits parked"
    );
}

#[test]
fn the_wake_path_program_delivers_the_simulators_bits() {
    let sim = ovcomm_simmpi::run(
        SimConfig::natural(RANKS, 2, MachineProfile::test_profile()),
        |rc: RankCtx| program(rc),
    )
    .unwrap();
    let rt = run(
        RtConfig::natural(RANKS, 2, MachineProfile::test_profile()),
        |rc: RtRankCtx| program(rc),
    )
    .unwrap();
    assert_eq!(rt.results, sim.results);
}

#[test]
fn parked_rank_threads_are_woken_by_their_completions() {
    let t0 = Instant::now();
    let out = run(
        RtConfig::natural(2, 1, MachineProfile::test_profile()),
        |rc: RtRankCtx| {
            let w = rc.world();
            for round in 0..ROUNDS {
                let tag = round as u32;
                if rc.rank() == 0 {
                    let ping = w.isend(1, tag, Payload::from_vec(vec![1; RNDV]));
                    assert_eq!(w.recv(1, tag).len(), RNDV);
                    w.wait(&ping);
                } else {
                    assert_eq!(w.recv(0, tag).len(), RNDV);
                    std::thread::sleep(NAP);
                    w.send(0, tag, Payload::from_vec(vec![2; RNDV]));
                }
            }
        },
    )
    .unwrap();
    assert_woken_in_time(&out, t0.elapsed());
}

#[test]
fn parked_op_agents_are_woken_by_their_completions() {
    let t0 = Instant::now();
    let out = run(
        RtConfig::natural(2, 1, MachineProfile::test_profile()),
        |rc: RtRankCtx| {
            let w = rc.world();
            for _ in 0..ROUNDS {
                let data = if rc.rank() == 1 {
                    std::thread::sleep(NAP);
                    Some(Payload::from_vec(vec![3; RNDV]))
                } else {
                    None
                };
                let req = w.ibcast(1, data, RNDV);
                assert_eq!(w.wait(&req).len(), RNDV);
            }
        },
    )
    .unwrap();
    assert_woken_in_time(&out, t0.elapsed());
}
