//! What `run` leaves in the process-wide fiber-stack pool: every stack
//! back whatever way the run ended, and nothing new mapped by a run the
//! process has done before. The pool's counters are global to the process,
//! so the tests hold `SERIAL` and compare snapshots taken inside it.
#![cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]

use ovcomm_simmpi::{run, Payload, RankCtx, RunError, SimConfig};
use ovcomm_simnet::fiber::stack_pool_stats;
use ovcomm_simnet::MachineProfile;

/// Not poisoned by a failed assertion, so one failure stays one failure.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn cfg(nranks: usize) -> SimConfig {
    SimConfig::natural(nranks, 4, MachineProfile::test_profile())
}

/// Eight ranks, sixteen `ibcast`s in flight on each: 8 rank fibers plus
/// 128 op fibers, most of them alive at once.
fn overlapped_bcasts(rc: RankCtx) -> f64 {
    let comms = rc.world().dup_n(16);
    let reqs: Vec<_> = comms
        .iter()
        .enumerate()
        .map(|(c, comm)| {
            let data = (rc.rank() == c % 8).then(|| Payload::from_f64s(&[c as f64]));
            comm.ibcast(c % 8, data, 8)
        })
        .collect();
    reqs.iter()
        .zip(&comms)
        .map(|(r, comm)| comm.wait(r).to_f64s()[0])
        .sum()
}

#[test]
fn a_repeated_run_maps_no_new_stacks() {
    let _serial = SERIAL.lock();
    let t0 = stack_pool_stats();
    let first = run(cfg(8), overlapped_bcasts).expect("first run");
    let t1 = stack_pool_stats();
    assert_eq!(t1.live, t0.live);
    assert!(
        t1.live_max >= t0.live + 8 + 16,
        "rank and op fibers were alive together: {t1:?}"
    );
    let second = run(cfg(8), overlapped_bcasts).expect("second run");
    let t2 = stack_pool_stats();
    assert_eq!(second.results, first.results);
    assert_eq!(
        t2.mapped, t1.mapped,
        "the first run's stacks serve the second"
    );
    assert_eq!(t2.reused - t1.reused, 8 + 8 * 16);
    assert_eq!((t2.live, t2.pooled), (t1.live, t1.pooled));
}

#[test]
fn failed_runs_return_every_stack() {
    let _serial = SERIAL.lock();
    let before = stack_pool_stats();
    // Three ranks wait for an `ibcast` whose root never posts it: their rank
    // fibers and the op fibers behind the requests are all suspended when
    // the engine runs out of events.
    let deadlock = run(cfg(4), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() != 3 {
            let pending = w.ibcast(3, None, 8);
            w.wait(&pending);
        }
    });
    assert!(matches!(deadlock, Err(RunError::Deadlock { .. })));
    assert_eq!(stack_pool_stats().live, before.live);
    // A rank panics while its peers wait for it.
    let panic = run(cfg(4), |rc: RankCtx| {
        if rc.rank() == 2 {
            panic!("rank 2 gives up");
        }
        rc.world().barrier();
    });
    assert!(matches!(panic, Err(RunError::RankPanic { .. })));
    let after = stack_pool_stats();
    assert_eq!(after.live, before.live);
    assert!(after.pooled >= before.pooled.max(4));
}
