//! One communicator front end, two backends.
//!
//! `ovcomm_simmpi::Comm` and `ovcomm_rt::RtComm` are the same generic
//! `Comm<T>` over a narrow `Transport` seam. This suite runs one program,
//! written against `RankHandle`/`Communicator` only, on the virtual-time
//! simulator and on the wall-clock runtime, and requires everything the
//! front end produces to agree: results to the bit, per-rank operation
//! counters, the multiset of verify `Coll` events per communicator, and a
//! clean verify report. It also pins the front end's argument-check panic
//! messages (once — they are the same code on either backend).

use std::collections::BTreeMap;

use ovcomm::core::{Communicator, RankHandle};
use ovcomm::prelude::*;
use ovcomm::simmpi::{VerifyMode, VerifyReport};
use ovcomm_obs::MetricsSnapshot;
use ovcomm_rt::{RtConfig, RtRankCtx};

const N_DUP: usize = 4;
/// 1 KiB: below the test profile's 64 KiB eager limit.
const EAGER_F64S: usize = 128;
/// 128 KiB: above it.
const RNDV_F64S: usize = 16 * 1024;

fn vals(n: usize, seed: usize) -> Vec<f64> {
    (0..n).map(|i| (seed * 1000 + i) as f64 * 0.5).collect()
}

/// The program: every family of front-end call, on the world
/// communicator, `N_DUP` duplicates of it, and a row split. Returns the
/// bit patterns of every value the rank received.
fn program<R: RankHandle>(rc: &R) -> Vec<u64> {
    let world = rc.world();
    let (me, p) = (world.rank(), world.size());
    let mut seen: Vec<u64> = Vec::new();
    let mut keep = |pl: &Payload| seen.extend(pl.to_f64s().iter().map(|v| v.to_bits()));

    // Communicator management, in one global order so context ids agree.
    let dups = world.dup_n(N_DUP);
    let row = world
        .split((me % 2) as i64, me as u64)
        .expect("non-negative color");
    let (rme, rp) = (row.rank(), row.size());
    assert_eq!(rp, p / 2);
    assert_eq!(row.world_rank(rme), me);

    // Point-to-point: an eager ring shift, a rendezvous ring shift, and a
    // blocking send/recv between neighbours.
    let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
    keep(&world.sendrecv(next, prev, 1, Payload::from_f64s(&vals(EAGER_F64S, me))));
    let rr = world.irecv(prev, 2);
    let sr = world.isend(next, 2, Payload::from_f64s(&vals(RNDV_F64S, me)));
    world.wait_all(std::slice::from_ref(&sr));
    keep(&world.wait_traced(&rr, "rendezvous shift"));
    if me % 2 == 0 {
        world.send(me + 1, 3, Payload::from_f64s(&[me as f64]));
    } else {
        keep(&world.recv(me - 1, 3));
    }

    // Every blocking collective, on the row communicator.
    let root = 1 % rp;
    let data = (rme == root).then(|| Payload::from_f64s(&vals(64, 7)));
    keep(&row.bcast(root, data, 64 * 8));
    if let Some(sum) = row.reduce(0, Payload::from_f64s(&vals(32, me))) {
        keep(&sum);
    }
    keep(&row.allreduce(Payload::from_f64s(&vals(16, me))));
    row.barrier();
    let len = 8 * 6 * rp;
    let whole = (rme == 0).then(|| Payload::from_f64s(&vals(6 * rp, 9)));
    let chunk = row.scatter(0, whole, len);
    keep(&chunk);
    if let Some(back) = row.gather(0, chunk.clone(), len) {
        keep(&back);
    }
    keep(&row.allgather(chunk, len));

    // The paper's pattern: N_DUP nonblocking collectives in flight, one
    // per duplicated communicator, waited in post order.
    let reqs: Vec<_> = dups
        .iter()
        .enumerate()
        .map(|(c, comm)| {
            let root = c % p;
            let data = (me == root).then(|| Payload::from_f64s(&vals(256, c)));
            comm.ibcast(root, data, 256 * 8)
        })
        .collect();
    for (c, r) in reqs.iter().enumerate() {
        keep(&dups[c].wait_traced_chunk(r, "ibcast", c as u32));
    }
    let reqs: Vec<_> = dups
        .iter()
        .enumerate()
        .map(|(c, comm)| comm.ireduce((c + 1) % p, Payload::from_f64s(&vals(256, me + c))))
        .collect();
    for out in world.wait_all_payloads(&reqs).into_iter().flatten() {
        keep(&out);
    }
    let reqs: Vec<_> = dups
        .iter()
        .map(|comm| comm.iallreduce(Payload::from_f64s(&vals(RNDV_F64S, me))))
        .collect();
    for r in &reqs {
        keep(&world.wait(r));
    }
    let reqs: Vec<_> = dups.iter().map(|comm| comm.ibarrier()).collect();
    world.wait_all(&reqs);

    // `test` polling retires a request without blocking in `wait`.
    let r = dups[0].iallreduce(Payload::from_f64s(&[me as f64, 1.0]));
    while !dups[0].test(&r) {
        rc.sleep(SimDur::from_micros(5));
    }
    keep(&dups[0].wait(&r));
    seen
}

/// What one backend's run of [`program`] produced.
struct Observed {
    results: Vec<Vec<u64>>,
    metrics: MetricsSnapshot,
    verify: VerifyReport,
}

fn on_sim(p: usize) -> Observed {
    let cfg = SimConfig::natural(p, 2, MachineProfile::test_profile());
    let out = run(cfg, |rc: RankCtx| program(&rc)).expect("sim run");
    Observed {
        results: out.results,
        metrics: out.metrics,
        verify: out.verify,
    }
}

fn on_rt(p: usize) -> Observed {
    let cfg = RtConfig::natural(p, 2, MachineProfile::test_profile());
    let out = ovcomm_rt::run(cfg, |rc: RtRankCtx| program(&rc)).expect("rt run");
    Observed {
        results: out.results,
        metrics: out.metrics,
        verify: out.verify,
    }
}

/// The per-rank `OpKind` call and byte counters (everything the front end
/// counts deterministically; `simmpi.tests` depends on polling luck).
fn op_counters(m: &MetricsSnapshot) -> BTreeMap<&str, u64> {
    m.counters
        .iter()
        .filter(|(k, _)| k.starts_with("simmpi.calls{") || k.starts_with("simmpi.bytes_posted{"))
        .map(|(k, v)| (k.as_str(), *v))
        .collect()
}

fn assert_clean(backend: &str, v: &VerifyReport) {
    assert!(v.findings.is_empty(), "{backend}: {:?}", v.findings);
    assert_eq!(
        (v.dropped_incomplete, v.dropped_untaken),
        (0, 0),
        "{backend}"
    );
}

#[test]
fn one_program_agrees_across_backends() {
    for p in [4, 6] {
        let (sim, rt) = (on_sim(p), on_rt(p));
        assert_eq!(sim.results, rt.results, "p={p}: results differ");
        assert!(sim.results.iter().all(|r| !r.is_empty()));

        let (sc, rc) = (op_counters(&sim.metrics), op_counters(&rt.metrics));
        assert_eq!(sc, rc, "p={p}: per-rank op counters differ");
        // Spot-check that the comparison is not vacuous: every rank posted
        // N_DUP + 1 iallreduces, and the eager + rendezvous isends.
        for r in 0..p {
            assert_eq!(
                sc[format!("simmpi.calls{{op=iallreduce,rank={r}}}").as_str()],
                5
            );
            assert!(sc[format!("simmpi.calls{{op=isend,rank={r}}}").as_str()] >= 2);
        }
        assert!(sim.metrics.counters["simmpi.tests{rank=0}"] >= 1);
        assert!(rt.metrics.counters["simmpi.tests{rank=0}"] >= 1);

        assert_eq!(
            sim.verify.coll_calls, rt.verify.coll_calls,
            "p={p}: verify Coll events differ"
        );
        // world (ctx 0): N_DUP dups + 1 split per rank; each dup: four
        // nonblocking collectives per rank (five on the first).
        let on_ctx = |ctx: u32| -> u64 {
            sim.verify
                .coll_calls
                .iter()
                .filter(|(k, _)| k.0 == ctx)
                .map(|(_, n)| n)
                .sum()
        };
        assert_eq!(on_ctx(0), (p * (N_DUP + 1)) as u64);
        assert_eq!(on_ctx(1), (p * 5) as u64);
        assert_eq!(on_ctx(2), (p * 4) as u64);

        assert_clean("sim", &sim.verify);
        assert_clean("rt", &rt.verify);

        // p ≤ 128: every compiled shape was model-checked, none skipped.
        for m in [&sim.metrics, &rt.metrics] {
            assert!(!m.counters.keys().any(|k| k.starts_with("plan.mc.skipped")));
        }
    }
}

/// Run `f` on two simulated ranks and return the panic message.
fn panic_message(f: impl Fn(&Comm, usize) + Send + Sync + 'static) -> String {
    let cfg = SimConfig::natural(2, 1, MachineProfile::test_profile()).with_verify(VerifyMode::Off);
    match run(cfg, move |rc: RankCtx| f(&rc.world(), rc.rank())) {
        Err(SimError::RankPanic { message, .. }) => message,
        Err(e) => panic!("expected a rank panic, got {e}"),
        Ok(_) => panic!("expected a rank panic, run succeeded"),
    }
}

#[test]
fn argument_checks_panic_with_their_messages() {
    let bad_root = panic_message(|w, _| {
        w.bcast(5, Some(Payload::from_f64s(&[1.0])), 8);
    });
    assert!(
        bad_root.contains("bcast root 5 out of range (p=2)"),
        "{bad_root}"
    );
    let bad_root = panic_message(|w, _| {
        w.ireduce(2, Payload::from_f64s(&[1.0]));
    });
    assert!(
        bad_root.contains("reduce root 2 out of range (p=2)"),
        "{bad_root}"
    );
    let bad_len = panic_message(|w, me| {
        w.scatter(0, (me == 0).then(|| Payload::from_f64s(&[1.0])), 16);
    });
    assert!(
        bad_len.contains("scatter root data length mismatch"),
        "{bad_len}"
    );
    let no_data = panic_message(|w, _| {
        w.ibcast(0, None, 8);
    });
    assert!(no_data.contains("bcast root must supply data"), "{no_data}");
}
