//! Envelope-matching semantics of the mailbox transport. This suite used
//! to re-run against two transports (the lock-free router and a locked
//! baseline, since retired — hence the test names); every assertion now
//! runs against the one transport. The properties are the
//! protocol-defining ones: eager-vs-rendezvous completion ordering,
//! per-envelope FIFO non-overtaking, and envelope (context) isolation.
//!
//! The file ends with a proptest that hammers the [`SpscRing`] itself
//! with a concurrent producer/consumer pair where a random subset of
//! full-ring pushes is *cancelled* (the value dropped, never retried) —
//! the consumer must see exactly the successfully pushed subsequence, in
//! order.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use ovcomm_rt::queue::SpscRing;
use ovcomm_rt::{run, RtConfig, RtRankCtx};
use ovcomm_simmpi::Payload;
use ovcomm_simnet::MachineProfile;

fn cfg(nranks: usize) -> RtConfig {
    RtConfig::natural(nranks, 1, MachineProfile::test_profile())
}

#[test]
fn eager_completes_before_the_receiver_on_both_backends() {
    let out = run(cfg(2), |rc: RtRankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let t0 = Instant::now();
            let req = w.isend(1, 7, Payload::from_vec(vec![9u8; 1024]));
            w.wait(&req);
            t0.elapsed()
        } else {
            std::thread::sleep(Duration::from_millis(300));
            assert_eq!(w.recv(0, 7), Payload::from_vec(vec![9u8; 1024]));
            Duration::ZERO
        }
    })
    .unwrap();
    assert!(
        out.results[0] < Duration::from_millis(150),
        "eager send waited for the receiver ({:?})",
        out.results[0]
    );
}

#[test]
fn rendezvous_waits_for_the_receiver_on_both_backends() {
    // 256 KiB is above the test profile's 64 KiB eager limit.
    let n = 256 * 1024;
    let out = run(cfg(2), move |rc: RtRankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let t0 = Instant::now();
            let req = w.isend(1, 7, Payload::from_vec(vec![1u8; n]));
            w.wait(&req);
            t0.elapsed()
        } else {
            std::thread::sleep(Duration::from_millis(300));
            assert_eq!(w.recv(0, 7).len(), n);
            Duration::ZERO
        }
    })
    .unwrap();
    assert!(
        out.results[0] >= Duration::from_millis(100),
        "rendezvous send completed before its receive ({:?})",
        out.results[0]
    );
}

#[test]
fn fifo_never_overtakes_on_both_backends() {
    let out = run(cfg(2), |rc: RtRankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            for v in 0..8 {
                w.send(1, 1, Payload::from_f64s(&[v as f64]));
            }
            vec![]
        } else {
            (0..8).map(|_| w.recv(0, 1).to_f64s()[0]).collect()
        }
    })
    .unwrap();
    let expect: Vec<f64> = (0..8).map(|v| v as f64).collect();
    assert_eq!(out.results[1], expect, "non-overtaking violated");
}

#[test]
fn envelopes_stay_isolated_on_both_backends() {
    // Same (src, dst, tag) on world and a dup'd communicator are distinct
    // envelopes; same communicator with distinct tags likewise.
    let out = run(cfg(2), |rc: RtRankCtx| {
        let w = rc.world();
        let d = w.dup();
        if rc.rank() == 0 {
            let r1 = w.isend(1, 3, Payload::from_f64s(&[10.0]));
            let r2 = d.isend(1, 3, Payload::from_f64s(&[20.0]));
            let r3 = w.isend(1, 4, Payload::from_f64s(&[30.0]));
            w.wait(&r1);
            d.wait(&r2);
            w.wait(&r3);
            (0.0, 0.0, 0.0)
        } else {
            // Receive in reverse posting order: any cross-match would
            // deliver the wrong payload to at least one of these.
            let on_tag4 = w.recv(0, 4).to_f64s()[0];
            let on_dup = d.recv(0, 3).to_f64s()[0];
            let on_world = w.recv(0, 3).to_f64s()[0];
            (on_world, on_dup, on_tag4)
        }
    })
    .unwrap();
    assert_eq!(
        out.results[1],
        (10.0, 20.0, 30.0),
        "envelope isolation violated"
    );
}

#[test]
fn workers_are_reused_across_communicators() {
    // Never more than one collective per rank in flight, but on eight
    // communicators in turn: a worker that finished communicator c's job
    // must serve communicator c + 1's. The sleep lets it re-register; the
    // bound leaves room for one that had completed its request but not
    // yet done so.
    let p = 2;
    let out = run(cfg(p), move |rc: RtRankCtx| {
        let comms = rc.world().dup_n(8);
        let mut got = Vec::new();
        for _round in 0..10 {
            for c in &comms {
                let req = c.iallreduce(Payload::from_f64s(&[rc.rank() as f64 + 1.0]));
                got.push(c.wait(&req).to_f64s()[0]);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        got
    })
    .unwrap();
    for got in &out.results {
        assert_eq!(got, &vec![3.0; 80], "iallreduce wrong");
    }
    let spawned = out.metrics.gauges["simmpi.pool_spawned"].high_water;
    assert!(
        spawned <= 8,
        "{spawned} progress workers for at most {p} jobs in flight"
    );
}

#[test]
fn a_burst_past_the_ring_depth_arrives_in_send_order() {
    // 600 eager sends on one envelope — more than a 256-deep per-rank
    // posting ring holds — while progress workers post the allreduce
    // rounds of four dups concurrently. The receiver posts late, so every
    // send is parked before the first receive matches.
    const N: usize = 600;
    let out = run(cfg(2), |rc: RtRankCtx| {
        let w = rc.world();
        let colls: Vec<_> = w
            .dup_n(4)
            .into_iter()
            .map(|c| {
                let req = c.iallreduce(Payload::from_f64s(&[rc.rank() as f64 + 1.0]));
                (c, req)
            })
            .collect();
        let got = if rc.rank() == 0 {
            let reqs: Vec<_> = (0..N)
                .map(|v| w.isend(1, 2, Payload::from_f64s(&[v as f64])))
                .collect();
            w.wait_all(&reqs);
            vec![]
        } else {
            std::thread::sleep(Duration::from_millis(50));
            let reqs: Vec<_> = (0..N).map(|_| w.irecv(0, 2)).collect();
            reqs.iter().map(|r| w.wait(r).to_f64s()[0]).collect()
        };
        let sums: Vec<f64> = colls
            .iter()
            .map(|(c, req)| c.wait(req).to_f64s()[0])
            .collect();
        (got, sums)
    })
    .unwrap();
    let expect: Vec<f64> = (0..N).map(|v| v as f64).collect();
    assert_eq!(
        out.results[1].0, expect,
        "burst delivered out of send order"
    );
    for (_, sums) in &out.results {
        assert_eq!(sums, &vec![3.0; 4], "iallreduce wrong");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent send/recv/cancel hammer on the SPSC ring: a producer
    /// thread pushes `n` sequenced values through a small ring, dropping
    /// (cancelling) a pseudo-random subset of the pushes that hit a full
    /// ring; the consumer must observe exactly the non-cancelled
    /// subsequence, in order, with the returned-on-full value intact.
    #[test]
    fn spsc_ring_hammer_send_recv_cancel(
        cap in 1usize..9,
        n in 1u64..200,
        cancel_seed in 0u64..u64::MAX,
    ) {
        let ring = Arc::new(SpscRing::new(cap));
        let pring = ring.clone();
        let producer = std::thread::spawn(move || {
            let mut pushed = Vec::new();
            for i in 0..n {
                let cancel_on_full = (cancel_seed >> (i % 64)) & 1 == 1;
                // Safety: this thread is the ring's only producer.
                match unsafe { pring.try_push(i) } {
                    Ok(()) => pushed.push(i),
                    Err(back) => {
                        // Full ring hands the value back intact…
                        assert_eq!(back, i, "try_push corrupted the value");
                        if cancel_on_full {
                            continue; // …and a cancel just drops it.
                        }
                        let mut v = back;
                        loop {
                            std::thread::yield_now();
                            // Safety: still the only producer.
                            match unsafe { pring.try_push(v) } {
                                Ok(()) => break,
                                Err(b) => v = b,
                            }
                        }
                        pushed.push(i);
                    }
                }
            }
            pushed
        });
        let mut got = Vec::new();
        loop {
            // Safety: this thread is the ring's only consumer.
            match unsafe { ring.pop() } {
                Some(v) => got.push(v),
                None if producer.is_finished() => {
                    // Safety: still the only consumer.
                    while let Some(v) = unsafe { ring.pop() } {
                        got.push(v);
                    }
                    break;
                }
                None => std::thread::yield_now(),
            }
        }
        let pushed = producer.join().unwrap();
        prop_assert_eq!(got, pushed);
        prop_assert!(ring.is_empty());
    }
}
