//! One program that drives every wake path of a waiting agent, shared by
//! the simulator pin (`crates/simmpi/tests/wake_paths.rs`) and its
//! runtime twin (`crates/rt/tests/wake_paths.rs`).
//!
//! Each of 4 ranks posts N_DUP = 4 `ibcast`s, one per `dup_n`
//! communicator, and polls them with `test` + `sleep` (the paper's
//! §III-B sleep/poll loop) until the last-posted one completes. It then
//! waits on the rest out of posting order and ends with an `iallreduce`
//! whose reductions run through the rank's shared γ-reduce CPU flow.
//! Every op runs on its own progress actor, so the run covers self-wakes
//! (a completion the waiter finds before it parks), routed wakes to
//! parked actors, merged wakes, op-actor start and flow-completion wakes.

use ovcomm_simmpi::rank::RankCtx;
use ovcomm_simmpi::transport::Transport;
use ovcomm_simmpi::Payload;
use ovcomm_simnet::SimDur;

/// Ranks in the program.
pub const RANKS: usize = 4;
/// Nonblocking broadcasts in flight at once.
pub const N_DUP: usize = 4;
/// Doubles per broadcast: 2 KiB, eager.
const BCAST_LEN: usize = 256;
/// Doubles per allreduce contribution: 96 KiB, above the test profile's
/// 64 KiB eager limit.
const ALLREDUCE_LEN: usize = 12 * 1024;
/// The poll loop's nap between probes.
const POLL_NAP: SimDur = SimDur(2_000);

fn values(seed: usize, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((seed * 7919 + i * 104_729) % 1_000_003) as f64 * 1.0e-3 + 0.1)
        .collect()
}

/// FNV-1a over every value's bits.
fn digest(p: &Payload) -> u64 {
    p.to_f64s().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The rank body: one digest per broadcast, in posting order, then the
/// allreduce result's.
pub fn program<T: Transport>(rc: RankCtx<T>) -> Vec<u64> {
    let world = rc.world();
    let me = rc.rank();
    let comms = world.dup_n(N_DUP);
    let reqs: Vec<_> = comms
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let root = i % RANKS;
            let data = (me == root).then(|| Payload::from_f64s(&values(i, BCAST_LEN)));
            c.ibcast(root, data, BCAST_LEN * 8)
        })
        .collect();
    let last = N_DUP - 1;
    while !comms[last].test(&reqs[last]) {
        rc.sleep(POLL_NAP);
    }
    let mut out = vec![0; N_DUP + 1];
    for i in [last, 1, 0, 2] {
        out[i] = digest(&comms[i].wait(&reqs[i]));
    }
    let sum = world.iallreduce(Payload::from_f64s(&values(100 + me, ALLREDUCE_LEN)));
    out[N_DUP] = digest(&world.wait(&sum));
    out
}
