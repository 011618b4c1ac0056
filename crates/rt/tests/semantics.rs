//! Runtime-semantics tests for the shared-memory backend: point-to-point
//! protocols, communicator management, collectives, deadlock detection and
//! traffic accounting — the rt analogue of simmpi's `mpi_semantics.rs`.
//!
//! Wall-clock assertions use *generous* bounds (hundreds of milliseconds
//! of slack) so they hold on loaded CI machines; they check protocol
//! *ordering* (eager completes before the receiver shows up, rendezvous
//! does not), never precise timing.

use std::time::{Duration, Instant};

use ovcomm_rt::{run, RtConfig, RtError, RtRankCtx};
use ovcomm_simmpi::Payload;
use ovcomm_simnet::MachineProfile;

fn cfg(nranks: usize, ppn: usize) -> RtConfig {
    RtConfig::natural(nranks, ppn, MachineProfile::test_profile())
}

fn bytes(n: usize, seed: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 251) as u8)
        .collect()
}

#[test]
fn eager_send_completes_without_receiver() {
    // Below the eager limit the sender's request completes at post time,
    // even though the receiver sleeps before posting its receive.
    let out = run(cfg(2, 1), |rc: RtRankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let t0 = Instant::now();
            let req = w.isend(1, 7, Payload::from_vec(bytes(1024, 3)));
            w.wait(&req);
            t0.elapsed()
        } else {
            std::thread::sleep(Duration::from_millis(400));
            let got = w.recv(0, 7);
            assert_eq!(got, Payload::from_vec(bytes(1024, 3)));
            Duration::ZERO
        }
    })
    .unwrap();
    assert!(
        out.results[0] < Duration::from_millis(200),
        "eager send should not wait for the receiver (took {:?})",
        out.results[0]
    );
}

#[test]
fn rendezvous_send_waits_for_receiver() {
    // Above the eager limit (64 KiB in the test profile) the sender
    // completes only at match time.
    let n = 256 * 1024;
    let out = run(cfg(2, 1), move |rc: RtRankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let t0 = Instant::now();
            let req = w.isend(1, 7, Payload::from_vec(bytes(n, 5)));
            w.wait(&req);
            t0.elapsed()
        } else {
            std::thread::sleep(Duration::from_millis(400));
            let got = w.recv(0, 7);
            assert_eq!(got.len(), n);
            Duration::ZERO
        }
    })
    .unwrap();
    assert!(
        out.results[0] >= Duration::from_millis(100),
        "rendezvous send must block until the receive is posted (took {:?})",
        out.results[0]
    );
}

#[test]
fn fifo_order_is_preserved_per_envelope() {
    // Two same-envelope messages must match in post order even when the
    // receives are posted late.
    let out = run(cfg(2, 1), |rc: RtRankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 1, Payload::from_f64s(&[1.0]));
            w.send(1, 1, Payload::from_f64s(&[2.0]));
            vec![]
        } else {
            let a = w.recv(0, 1).to_f64s();
            let b = w.recv(0, 1).to_f64s();
            vec![a[0], b[0]]
        }
    })
    .unwrap();
    assert_eq!(out.results[1], vec![1.0, 2.0]);
}

#[test]
fn sendrecv_ring_rotates_payloads() {
    let p = 5;
    let out = run(cfg(p, 1), move |rc: RtRankCtx| {
        let w = rc.world();
        let me = rc.rank();
        let dst = (me + 1) % p;
        let src = (me + p - 1) % p;
        let got = w.sendrecv(dst, src, 9, Payload::from_f64s(&[me as f64]));
        got.to_f64s()[0]
    })
    .unwrap();
    for (r, &v) in out.results.iter().enumerate() {
        assert_eq!(v as usize, (r + p - 1) % p);
    }
}

#[test]
fn dup_contexts_do_not_cross_match() {
    // The same (src, dst, tag) on world and on a dup'd communicator are
    // different envelopes.
    let out = run(cfg(2, 1), |rc: RtRankCtx| {
        let w = rc.world();
        let d = w.dup();
        if rc.rank() == 0 {
            let r1 = w.isend(1, 3, Payload::from_f64s(&[10.0]));
            let r2 = d.isend(1, 3, Payload::from_f64s(&[20.0]));
            w.wait(&r1);
            d.wait(&r2);
            (0.0, 0.0)
        } else {
            // Receive dup-first: cross-matching would deliver 10.0 here.
            let on_dup = d.recv(0, 3).to_f64s()[0];
            let on_world = w.recv(0, 3).to_f64s()[0];
            (on_world, on_dup)
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (10.0, 20.0));
}

#[test]
fn split_forms_groups_and_supports_collectives() {
    // Even/odd split; each group allreduces its ranks.
    let p = 6;
    let out = run(cfg(p, 1), move |rc: RtRankCtx| {
        let w = rc.world();
        let me = rc.rank();
        let sub = w.split((me % 2) as i64, me as u64).unwrap();
        assert_eq!(sub.size(), p / 2);
        assert_eq!(sub.rank(), me / 2);
        sub.allreduce(Payload::from_f64s(&[me as f64])).to_f64s()[0]
    })
    .unwrap();
    let even: f64 = (0..p).filter(|r| r % 2 == 0).map(|r| r as f64).sum();
    let odd: f64 = (0..p).filter(|r| r % 2 == 1).map(|r| r as f64).sum();
    for (r, &v) in out.results.iter().enumerate() {
        assert_eq!(v, if r % 2 == 0 { even } else { odd });
    }
}

#[test]
fn split_negative_color_opts_out() {
    let out = run(cfg(4, 1), |rc: RtRankCtx| {
        let w = rc.world();
        let color = if rc.rank() < 2 { 0 } else { -1 };
        let sub = w.split(color, rc.rank() as u64);
        match sub {
            Some(c) => {
                assert_eq!(c.size(), 2);
                true
            }
            None => false,
        }
    })
    .unwrap();
    assert_eq!(out.results, vec![true, true, false, false]);
}

#[test]
fn blocking_collectives_deliver_exact_data() {
    let p = 5;
    let n = 4096;
    let data = bytes(n, 11);
    let expect = Payload::from_vec(data.clone());
    let expect2 = expect.clone();
    let out = run(cfg(p, 1), move |rc: RtRankCtx| {
        let w = rc.world();
        let me = rc.rank();

        // bcast from rank 2.
        let got = w.bcast(2, (me == 2).then(|| Payload::from_vec(data.clone())), n);
        assert_eq!(got, expect2, "bcast");

        // reduce to rank 1.
        let red = w.reduce(1, Payload::from_f64s(&[me as f64, 1.0]));
        if me == 1 {
            let v = red.unwrap().to_f64s();
            assert_eq!(v, vec![(0..p).map(|r| r as f64).sum::<f64>(), p as f64]);
        } else {
            assert!(red.is_none());
        }

        // allreduce.
        let all = w
            .allreduce(Payload::from_f64s(&[2.0 * me as f64]))
            .to_f64s();
        assert_eq!(all[0], (0..p).map(|r| 2.0 * r as f64).sum::<f64>());

        // barrier.
        w.barrier();

        // scatter from 0 / gather to 0 round-trip.
        let sc = w.scatter(0, (me == 0).then(|| Payload::from_vec(data.clone())), n);
        let back = w.gather(0, sc, n);
        if me == 0 {
            assert_eq!(back.unwrap().len(), n);
        } else {
            assert!(back.is_none());
        }

        // allgather of per-rank chunks.
        let b = ovcomm_simmpi::plan::chunk_bounds(n, p);
        let mine = Payload::from_vec(data[b[me]..b[me + 1]].to_vec());
        w.allgather(mine, n)
    })
    .unwrap();
    for res in &out.results {
        assert_eq!(res, &expect);
    }
}

/// Collectives on different communicators may be posted in any order per
/// rank: rank 0 posts on dups 0..4, rank 1 on dups 3..=0, and each waits
/// in the reverse of its own post order. Whatever advances them must not
/// finish one before the next is posted.
#[test]
fn dup_collectives_posted_in_opposite_orders_complete() {
    let out = run(cfg(2, 1), |rc: RtRankCtx| {
        let comms = rc.world().dup_n(4);
        let mut order: Vec<usize> = (0..comms.len()).collect();
        if rc.rank() == 1 {
            order.reverse();
        }
        let reqs: Vec<_> = order
            .iter()
            .map(|&c| {
                let contrib = Payload::from_f64s(&[(rc.rank() * 10 + c) as f64]);
                (c, comms[c].iallreduce(contrib))
            })
            .collect();
        let mut sums = vec![0.0; comms.len()];
        for (c, req) in reqs.iter().rev() {
            sums[*c] = comms[*c].wait(req).to_f64s()[0];
        }
        sums
    })
    .unwrap();
    for sums in &out.results {
        assert_eq!(sums, &[10.0, 12.0, 14.0, 16.0]);
    }
}

#[test]
fn nonblocking_collectives_complete_via_wait_and_test() {
    let p = 4;
    let out = run(cfg(p, 1), move |rc: RtRankCtx| {
        let w = rc.world();
        let me = rc.rank();

        let rb = w.ibcast(0, (me == 0).then(|| Payload::from_f64s(&[7.0])), 8);
        let rr = w.ireduce(3, Payload::from_f64s(&[me as f64]));
        let ra = w.iallreduce(Payload::from_f64s(&[1.0]));

        let b = w.wait(&rb).to_f64s()[0];
        let r = w.wait(&rr).map(|x| x.to_f64s()[0]);
        let a = w.wait(&ra).to_f64s()[0];

        // ibarrier completed by polling MPI_Test.
        let bar = w.ibarrier();
        let mut polls = 0usize;
        while !w.test(&bar) {
            std::thread::sleep(Duration::from_millis(1));
            polls += 1;
            assert!(polls < 10_000, "ibarrier never completed");
        }
        w.wait(&bar);
        (b, r, a)
    })
    .unwrap();
    for (me, (b, r, a)) in out.results.iter().enumerate() {
        assert_eq!(*b, 7.0);
        assert_eq!(*a, p as f64);
        if me == 3 {
            assert_eq!(r.unwrap(), (0..p).map(|x| x as f64).sum::<f64>());
        } else {
            assert!(r.is_none());
        }
    }
}

#[test]
fn unmatched_receive_is_detected_as_deadlock() {
    let res = run(
        cfg(2, 1).with_deadlock_timeout(Duration::from_millis(300)),
        |rc: RtRankCtx| {
            let w = rc.world();
            if rc.rank() == 0 {
                // Nobody ever sends this.
                let _ = w.recv(1, 42);
            } else {
                // Rank 1 waits forever on a barrier rank 0 never reaches.
                w.barrier();
            }
        },
    );
    match res {
        Err(RtError::Deadlock { .. }) => {}
        other => panic!(
            "expected deadlock, got {:?}",
            other.as_ref().map(|_| "Ok").map_err(|e| e.to_string())
        ),
    }
}

#[test]
fn traffic_accounting_distinguishes_intra_and_inter_node() {
    // 4 ranks packed 2 per node: 0,1 on node 0; 2,3 on node 1.
    let out = run(cfg(4, 2), |rc: RtRankCtx| {
        let w = rc.world();
        match rc.rank() {
            0 => {
                w.send(1, 0, Payload::from_vec(vec![0u8; 1000])); // intra
                w.send(2, 0, Payload::from_vec(vec![0u8; 3000])); // inter
            }
            1 => {
                let _ = w.recv(0, 0);
            }
            2 => {
                let _ = w.recv(0, 0);
            }
            _ => {}
        }
    })
    .unwrap();
    assert_eq!(out.intra_node_bytes, 1000);
    assert_eq!(out.inter_node_bytes, 3000);
    assert_eq!(out.messages, 2);
}

#[test]
fn strict_verification_passes_a_clean_run_and_counts_nothing() {
    let out = run(cfg(3, 1), |rc: RtRankCtx| {
        let w = rc.world();
        let me = rc.rank();
        let v = w.allreduce(Payload::from_f64s(&[me as f64]));
        w.barrier();
        v.to_f64s()[0]
    })
    .unwrap();
    assert_eq!(out.verify.errors(), 0);
    assert_eq!(out.verify.dropped_incomplete, 0);
    assert_eq!(out.verify.dropped_untaken, 0);
}

#[test]
fn makespan_and_end_times_are_monotone() {
    let out = run(cfg(3, 1), |rc: RtRankCtx| {
        let w = rc.world();
        w.barrier();
        rc.rank()
    })
    .unwrap();
    assert_eq!(out.results, vec![0, 1, 2]);
    for &t in &out.end_times {
        assert!(t <= out.makespan);
        assert!(t > ovcomm_simnet::SimTime::ZERO);
    }
}

/// `run` must not sit out the rest of the watchdog's 20 ms sampling tick
/// when the ranks are already done: the watchdog is unparked, not slept
/// out.
#[test]
fn empty_runs_do_not_wait_out_the_watchdog_tick() {
    let t0 = Instant::now();
    for _ in 0..20 {
        run(cfg(2, 1), |_rc: RtRankCtx| ()).unwrap();
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "20 empty runs took {took:?} (>= 20 ms each means the watchdog join sleeps)"
    );
}

/// 32 rank threads on however few cores this box has: most of the time a
/// runnable thread is descheduled, not blocked. The watchdog's
/// `live`/`blocked`/`progress_epoch` accounting must never read that as
/// "everyone is blocked and nothing completes", even with a 200 ms timeout.
#[test]
fn watchdog_stays_quiet_under_oversubscription() {
    const N_DUP: usize = 4;
    let out = run(
        cfg(32, 4).with_deadlock_timeout(Duration::from_millis(200)),
        |rc: RtRankCtx| {
            let w = rc.world();
            let (me, p) = (rc.rank(), rc.nranks());
            let dups = w.dup_n(N_DUP);
            let mut sum = 0.0;
            for round in 0..5 {
                let reqs: Vec<_> = dups
                    .iter()
                    .map(|c| {
                        c.iallreduce(Payload::from_f64s(&vec![(me + round) as f64; 16 * 1024]))
                    })
                    .collect();
                let ring = Payload::from_vec(bytes(128 * 1024, me as u64));
                let got = w.sendrecv((me + 1) % p, (me + p - 1) % p, round as u32, ring);
                assert_eq!(got.len(), 128 * 1024);
                for r in &reqs {
                    sum += w.wait(r).to_f64s()[0];
                }
                w.barrier();
            }
            sum
        },
    )
    .expect("a live run must not be declared deadlocked");
    // Per round every element sums to Σ_r (r + round) over 32 ranks.
    let want: f64 = (0..5).map(|k| (N_DUP * (496 + 32 * k)) as f64).sum();
    assert!(out.results.iter().all(|&s| s == want), "{:?}", out.results);
    assert!(out.verify.findings.is_empty(), "{:?}", out.verify.findings);
}
