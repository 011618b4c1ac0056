//! Integration tests for the simulated MPI: point-to-point semantics,
//! collective correctness against references, communicator management,
//! nonblocking progress, determinism and deadlock detection.

use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig, SimError};
use ovcomm_simnet::MachineProfile;

fn cfg(nranks: usize, ppn: usize) -> SimConfig {
    SimConfig::natural(nranks, ppn, MachineProfile::test_profile())
}

#[test]
fn send_recv_moves_real_data() {
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 7, Payload::from_f64s(&[1.0, 2.0, 3.0]));
            Vec::new()
        } else {
            w.recv(0, 7).to_f64s()
        }
    })
    .unwrap();
    assert_eq!(out.results[1], vec![1.0, 2.0, 3.0]);
    assert!(out.makespan.as_nanos() > 0);
}

#[test]
fn messages_do_not_overtake_on_same_envelope() {
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            for i in 0..8 {
                w.send(1, 5, Payload::from_f64s(&[i as f64]));
            }
            Vec::new()
        } else {
            (0..8).map(|_| w.recv(0, 5).to_f64s()[0]).collect()
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (0..8).map(|i| i as f64).collect::<Vec<_>>());
}

#[test]
fn tags_demultiplex() {
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 1, Payload::from_f64s(&[10.0]));
            w.send(1, 2, Payload::from_f64s(&[20.0]));
            (0.0, 0.0)
        } else {
            // Receive in the opposite tag order.
            let b = w.recv(0, 2).to_f64s()[0];
            let a = w.recv(0, 1).to_f64s()[0];
            (a, b)
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (10.0, 20.0));
}

#[test]
fn rendezvous_large_message_roundtrip() {
    // 256 KB > eager limit of the test profile (64 KB).
    let data: Vec<f64> = (0..32 * 1024).map(|i| i as f64).collect();
    let expect = data.clone();
    let out = run(cfg(2, 1), move |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 0, Payload::from_f64s(&data));
            true
        } else {
            w.recv(0, 0).to_f64s() == expect
        }
    })
    .unwrap();
    assert!(out.results[1]);
}

#[test]
fn rendezvous_waits_for_receiver() {
    // The sender cannot complete a rendezvous send before the receiver
    // posts. The receiver delays 1 ms; the sender's completion time must
    // reflect that.
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let big = Payload::Phantom(1 << 20);
            w.send(1, 0, big);
            rc.now().as_secs_f64()
        } else {
            rc.advance(ovcomm_simnet::SimDur::from_millis(1));
            let _ = w.recv(0, 0);
            rc.now().as_secs_f64()
        }
    })
    .unwrap();
    assert!(
        out.results[0] >= 1e-3,
        "sender finished at {} but receiver posted at 1ms",
        out.results[0]
    );
}

#[test]
fn eager_send_completes_immediately() {
    // A small send is buffered: the sender finishes long before the
    // receiver even posts.
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 0, Payload::from_f64s(&[1.0]));
            rc.now().as_secs_f64()
        } else {
            rc.advance(ovcomm_simnet::SimDur::from_millis(5));
            let _ = w.recv(0, 0);
            rc.now().as_secs_f64()
        }
    })
    .unwrap();
    assert!(
        out.results[0] < 1e-3,
        "eager sender blocked: {}",
        out.results[0]
    );
    assert!(out.results[1] >= 5e-3);
}

#[test]
fn isend_irecv_overlap_on_one_rank() {
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let r1 = w.isend(1, 1, Payload::from_f64s(&[1.0]));
            let r2 = w.irecv(1, 2);
            w.wait(&r1);
            w.wait(&r2).to_f64s()[0]
        } else {
            let r1 = w.irecv(0, 1);
            let r2 = w.isend(0, 2, Payload::from_f64s(&[2.0]));
            w.wait(&r2);
            w.wait(&r1).to_f64s()[0]
        }
    })
    .unwrap();
    assert_eq!(out.results, vec![2.0, 1.0]);
}

/// Rank 0 isends `lens` (bytes) on one envelope at `send_at`; rank 1
/// posts as many irecvs at `recv_at`. Both wait for everything. Returns
/// each rank's clock (ns) after its waits and the lengths rank 1 got.
fn one_envelope_clocks(send_at: u64, recv_at: u64, lens: &[usize]) -> (u64, u64, Vec<usize>) {
    let lens = lens.to_vec();
    let out = run(cfg(2, 1), move |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            rc.advance(ovcomm_simnet::SimDur(send_at));
            let reqs: Vec<_> = lens
                .iter()
                .map(|&n| w.isend(1, 4, Payload::Phantom(n)))
                .collect();
            reqs.iter().for_each(|r| w.wait(r));
            (rc.now().as_nanos(), Vec::new())
        } else {
            rc.advance(ovcomm_simnet::SimDur(recv_at));
            let reqs: Vec<_> = lens.iter().map(|_| w.irecv(0, 4)).collect();
            let got = reqs.iter().map(|r| w.wait(r).len()).collect();
            (rc.now().as_nanos(), got)
        }
    })
    .unwrap();
    (out.results[0].0, out.results[1].0, out.results[1].1.clone())
}

#[test]
fn match_order_and_protocol_timing_are_pinned() {
    // Eager limit of the test profile is 64 KiB.
    const EAGER: usize = 32 << 10;
    const RNDV: usize = 1 << 20;
    const US: u64 = 1_000;
    // (what, send_at, recv_at, lens, rank 0 clock, rank 1 clock)
    type Case = (&'static str, u64, u64, &'static [usize], u64, u64);
    #[rustfmt::skip]
    let cases: [Case; 6] = [
        ("eager, recv first",           10 * US,    0,          &[EAGER], 42_818,    109_355),
        ("eager, recv while in flight", 0,          36 * US,    &[EAGER], 32_818,    99_355),
        ("eager, recv after landing",   0,          1_000 * US, &[EAGER], 32_818,    1_032_818),
        ("rendezvous, recv first",      1_000 * US, 0,          &[RNDV],  2_051_627, 2_051_627),
        ("rendezvous, send first",      0,          1_000 * US, &[RNDV],  2_051_627, 2_051_627),
        ("mixed protocols",             0,          50 * US,
            &[8, RNDV, 16, 128 << 10, 24], 1_232_749, 1_232_749),
    ];
    for (what, send_at, recv_at, lens, t0, t1) in cases {
        let (c0, c1, got) = one_envelope_clocks(send_at, recv_at, lens);
        assert_eq!((c0, c1), (t0, t1), "{what}: rank clocks");
        assert_eq!(got, lens, "{what}: lengths must arrive in send order");
    }
}

// ---------------------------------------------------------------------
// Collectives: correctness on many communicator sizes.
// ---------------------------------------------------------------------

fn bcast_case(p: usize, root: usize, n_elems: usize) {
    let data: Vec<f64> = (0..n_elems).map(|i| (i as f64) * 0.5 - 3.0).collect();
    let expect = data.clone();
    let out = run(cfg(p, 2), move |rc: RankCtx| {
        let w = rc.world();
        let payload = (rc.rank() == root).then(|| Payload::from_f64s(&data));
        w.bcast(root, payload, n_elems * 8).to_f64s() == expect
    })
    .unwrap();
    assert!(
        out.results.iter().all(|&ok| ok),
        "bcast p={p} root={root} n={n_elems}"
    );
}

#[test]
fn bcast_small_various_sizes_and_roots() {
    for p in [1, 2, 3, 4, 5, 7, 8] {
        bcast_case(p, 0, 16);
        if p > 2 {
            bcast_case(p, p - 1, 16);
            bcast_case(p, 1, 3);
        }
    }
}

#[test]
fn bcast_large_uses_scatter_allgather_and_is_correct() {
    // > 32 KB triggers the van de Geijn path.
    for p in [2, 3, 4, 6, 8] {
        bcast_case(p, 0, 16 * 1024);
        bcast_case(p, p / 2, 8 * 1024 + 3);
    }
}

fn reduce_case(p: usize, root: usize, n_elems: usize) {
    let out = run(cfg(p, 2), move |rc: RankCtx| {
        let w = rc.world();
        let mine: Vec<f64> = (0..n_elems)
            .map(|i| (rc.rank() + 1) as f64 * (i + 1) as f64)
            .collect();
        w.reduce(root, Payload::from_f64s(&mine))
            .map(|r| r.to_f64s())
    })
    .unwrap();
    let total_rank_factor: f64 = (1..=p).map(|r| r as f64).sum();
    for (r, res) in out.results.iter().enumerate() {
        if r == root {
            let res = res.as_ref().expect("root gets the result");
            for (i, &x) in res.iter().enumerate() {
                let want = total_rank_factor * (i + 1) as f64;
                assert!(
                    (x - want).abs() < 1e-9,
                    "reduce p={p} root={root} elem {i}: {x} != {want}"
                );
            }
        } else {
            assert!(res.is_none(), "non-root {r} must get None");
        }
    }
}

#[test]
fn reduce_small_binomial_various() {
    for p in [1, 2, 3, 4, 5, 6, 7, 8] {
        reduce_case(p, 0, 8);
    }
    reduce_case(5, 3, 8);
    reduce_case(8, 7, 8);
}

#[test]
fn reduce_large_rabenseifner_various() {
    for p in [2, 3, 4, 5, 7, 8] {
        reduce_case(p, 0, 8 * 1024); // 64 KB > threshold
    }
    reduce_case(6, 4, 8 * 1024);
    reduce_case(12, 5, 6 * 1024);
}

fn allreduce_case(p: usize, n_elems: usize) {
    let out = run(cfg(p, 2), move |rc: RankCtx| {
        let w = rc.world();
        let mine: Vec<f64> = (0..n_elems)
            .map(|i| (rc.rank() * n_elems + i) as f64)
            .collect();
        w.allreduce(Payload::from_f64s(&mine)).to_f64s()
    })
    .unwrap();
    for i in 0..n_elems {
        let want: f64 = (0..p).map(|r| (r * n_elems + i) as f64).sum();
        for r in 0..p {
            assert!(
                (out.results[r][i] - want).abs() < 1e-9,
                "allreduce p={p} rank {r} elem {i}"
            );
        }
    }
}

#[test]
fn allreduce_small_and_large() {
    for p in [1, 2, 3, 4, 5, 8] {
        allreduce_case(p, 4);
    }
    for p in [2, 3, 4, 6, 8] {
        allreduce_case(p, 8 * 1024);
    }
}

#[test]
fn scatter_gather_roundtrip() {
    for p in [2, 3, 4, 5, 8] {
        let n = 64 * p;
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let expect = data.clone();
        let out = run(cfg(p, 2), move |rc: RankCtx| {
            let w = rc.world();
            let payload = (rc.rank() == 0).then(|| Payload::from_f64s(&data));
            let chunk = w.scatter(0, payload, n * 8);
            let back = w.gather(0, chunk, n * 8);
            match back {
                Some(b) => b.to_f64s() == expect,
                None => true,
            }
        })
        .unwrap();
        assert!(out.results.iter().all(|&ok| ok), "scatter/gather p={p}");
    }
}

#[test]
fn allgather_assembles_in_order() {
    for p in [2, 3, 4, 7] {
        let out = run(cfg(p, 2), move |rc: RankCtx| {
            let w = rc.world();
            // chunk_bounds(8p, p): each rank owns one f64.
            let mine = Payload::from_f64s(&[rc.rank() as f64]);
            w.allgather(mine, p * 8).to_f64s()
        })
        .unwrap();
        let want: Vec<f64> = (0..p).map(|i| i as f64).collect();
        for r in 0..p {
            assert_eq!(out.results[r], want, "allgather p={p} rank {r}");
        }
    }
}

#[test]
fn barrier_synchronizes_clocks() {
    let out = run(cfg(4, 2), |rc: RankCtx| {
        let w = rc.world();
        // Rank 2 is late.
        if rc.rank() == 2 {
            rc.advance(ovcomm_simnet::SimDur::from_millis(3));
        }
        w.barrier();
        rc.now().as_secs_f64()
    })
    .unwrap();
    for r in 0..4 {
        assert!(
            out.results[r] >= 3e-3,
            "rank {r} left the barrier at {} before the straggler arrived",
            out.results[r]
        );
    }
}

// ---------------------------------------------------------------------
// Nonblocking collectives.
// ---------------------------------------------------------------------

#[test]
fn ibcast_and_ireduce_complete_with_correct_data() {
    let out = run(cfg(4, 2), |rc: RankCtx| {
        let w = rc.world();
        let data = (rc.rank() == 0).then(|| Payload::from_f64s(&[5.0, 6.0]));
        let rb = w.ibcast(0, data, 16);
        let got = w.wait(&rb).to_f64s();
        let rr = w.ireduce(0, Payload::from_f64s(&[rc.rank() as f64]));
        let red = w.wait(&rr).map(|p| p.to_f64s());
        (got, red)
    })
    .unwrap();
    for r in 0..4 {
        assert_eq!(out.results[r].0, vec![5.0, 6.0]);
    }
    assert_eq!(out.results[0].1.as_ref().unwrap(), &vec![6.0]);
    assert!(out.results[1].1.is_none());
}

#[test]
fn nonblocking_overlap_beats_blocking_bcast() {
    // The paper's Fig. 5 comparison on the calibrated profile: broadcasting
    // n bytes as one blocking call vs. N_DUP=4 pipelined ibcasts of n/4 on
    // duplicated communicators. Overlap must win in the bandwidth-bound
    // regime.
    let n = 8 << 20; // 8 MB, the paper's Fig. 6 size
    let profile = || MachineProfile::stampede2_skylake();
    let blocking = run(SimConfig::natural(4, 1, profile()), move |rc: RankCtx| {
        let w = rc.world();
        let data = (rc.rank() == 0).then_some(Payload::Phantom(n));
        let _ = w.bcast(0, data, n);
    })
    .unwrap()
    .makespan;
    let overlapped = run(SimConfig::natural(4, 1, profile()), move |rc: RankCtx| {
        let w = rc.world();
        let comms = w.dup_n(4);
        let chunk = n / 4;
        let reqs: Vec<_> = comms
            .iter()
            .map(|c| {
                c.ibcast(
                    0,
                    (rc.rank() == 0).then_some(Payload::Phantom(chunk)),
                    chunk,
                )
            })
            .collect();
        for (c, r) in comms.iter().zip(&reqs) {
            let _ = c.wait(r);
        }
    })
    .unwrap()
    .makespan;
    assert!(
        overlapped < blocking,
        "N_DUP=4 pipelined ibcasts ({overlapped}) should beat one blocking bcast ({blocking})"
    );
}

#[test]
fn nonblocking_overlap_beats_blocking_reduce() {
    // Same comparison for the reduction (the paper's slowest collective:
    // blocking 8 MB reduce ≈ 4x slower than broadcast).
    let n = 8 << 20;
    let profile = || MachineProfile::stampede2_skylake();
    let blocking = run(SimConfig::natural(4, 1, profile()), move |rc: RankCtx| {
        let w = rc.world();
        let _ = w.reduce(0, Payload::Phantom(n));
    })
    .unwrap()
    .makespan;
    let overlapped = run(SimConfig::natural(4, 1, profile()), move |rc: RankCtx| {
        let w = rc.world();
        let comms = w.dup_n(4);
        let chunk = n / 4;
        let reqs: Vec<_> = comms
            .iter()
            .map(|c| c.ireduce(0, Payload::Phantom(chunk)))
            .collect();
        for (c, r) in comms.iter().zip(&reqs) {
            let _ = c.wait(r);
        }
    })
    .unwrap()
    .makespan;
    assert!(
        overlapped < blocking,
        "N_DUP=4 pipelined ireduces ({overlapped}) should beat one blocking reduce ({blocking})"
    );
}

#[test]
fn ibarrier_with_test_and_sleep_poll() {
    // The paper's PPN sleep mechanism: a rank polls an ibarrier with
    // usleep(10ms) while the others delay entering it.
    let out = run(cfg(3, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            let req = w.ibarrier();
            let mut polls = 0;
            while !w.test(&req) {
                rc.sleep(ovcomm_simnet::SimDur::from_millis(10));
                polls += 1;
                assert!(polls < 100_000, "ibarrier never completed");
            }
            w.wait(&req);
            polls
        } else {
            rc.advance(ovcomm_simnet::SimDur::from_millis(35));
            let req = w.ibarrier();
            w.wait(&req);
            0
        }
    })
    .unwrap();
    // Rank 0 must have polled ~3-4 times (35ms / 10ms).
    assert!(
        (3..=5).contains(&out.results[0]),
        "polls = {}",
        out.results[0]
    );
}

// ---------------------------------------------------------------------
// Communicator management.
// ---------------------------------------------------------------------

#[test]
fn split_builds_row_and_column_communicators() {
    // 2x3 mesh: rows {0,1,2},{3,4,5}; cols {0,3},{1,4},{2,5}.
    let out = run(cfg(6, 2), |rc: RankCtx| {
        let w = rc.world();
        let me = rc.rank();
        let (row, col) = (me / 3, me % 3);
        let row_comm = w.split(row as i64, col as u64).unwrap();
        let col_comm = w.split(col as i64, row as u64).unwrap();
        // Row-wise allreduce of rank → sum of world ranks in my row.
        let rsum = row_comm
            .allreduce(Payload::from_f64s(&[me as f64]))
            .to_f64s()[0];
        let csum = col_comm
            .allreduce(Payload::from_f64s(&[me as f64]))
            .to_f64s()[0];
        (row_comm.size(), col_comm.size(), rsum, csum)
    })
    .unwrap();
    for me in 0..6 {
        let (rs, cs, rsum, csum) = out.results[me];
        assert_eq!(rs, 3);
        assert_eq!(cs, 2);
        let row = me / 3;
        let want_r: f64 = (0..3).map(|c| (row * 3 + c) as f64).sum();
        let want_c = (me % 3) as f64 * 2.0 + 3.0; // col + (col+3)
        assert_eq!(rsum, want_r, "rank {me} row sum");
        assert_eq!(csum, want_c, "rank {me} col sum");
    }
}

#[test]
fn split_negative_color_excludes() {
    let out = run(cfg(4, 2), |rc: RankCtx| {
        let w = rc.world();
        let color = if rc.rank() < 2 { 0 } else { -1 };
        let sub = w.split(color, rc.rank() as u64);
        match sub {
            Some(c) => {
                // The included half can still communicate.
                c.barrier();
                c.size() as i64
            }
            None => -1,
        }
    })
    .unwrap();
    assert_eq!(out.results, vec![2, 2, -1, -1]);
}

#[test]
fn dup_creates_independent_context() {
    // Same-tag traffic on parent and dup must not cross-match.
    let out = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        let d = w.dup();
        if rc.rank() == 0 {
            w.send(1, 0, Payload::from_f64s(&[1.0]));
            d.send(1, 0, Payload::from_f64s(&[2.0]));
            (0.0, 0.0)
        } else {
            // Receive dup first.
            let on_dup = d.recv(0, 0).to_f64s()[0];
            let on_parent = w.recv(0, 0).to_f64s()[0];
            (on_parent, on_dup)
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (1.0, 2.0));
}

// ---------------------------------------------------------------------
// Failure modes and determinism.
// ---------------------------------------------------------------------

#[test]
fn mismatched_recv_deadlocks_cleanly() {
    let result = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 1 {
            let _ = w.recv(0, 99); // nobody sends tag 99
        }
    });
    match result {
        Err(SimError::Deadlock { .. }) => {}
        other => panic!(
            "expected deadlock, got {:?}",
            other.map(|o| o.makespan).map_err(|e| e.to_string())
        ),
    }
}

#[test]
fn runs_are_deterministic() {
    let go = || {
        run(cfg(8, 4), |rc: RankCtx| {
            let w = rc.world();
            // A mix of traffic: collective + p2p ring.
            let s = w
                .allreduce(Payload::from_f64s(&[rc.rank() as f64]))
                .to_f64s()[0];
            let right = (rc.rank() + 1) % rc.nranks();
            let left = (rc.rank() + rc.nranks() - 1) % rc.nranks();
            let got = w.sendrecv(right, left, 3, Payload::from_f64s(&[s]));
            let req = w.ibcast(
                0,
                (rc.rank() == 0).then_some(Payload::Phantom(1 << 20)),
                1 << 20,
            );
            let _ = w.wait(&req);
            (rc.now().as_nanos(), got.len())
        })
        .unwrap()
    };
    let a = go();
    let b = go();
    assert_eq!(a.makespan, b.makespan, "makespans differ between runs");
    for r in 0..8 {
        assert_eq!(a.results[r], b.results[r], "rank {r} differs");
        assert_eq!(a.end_times[r], b.end_times[r]);
    }
    assert_eq!(a.inter_node_bytes, b.inter_node_bytes);
    assert_eq!(a.messages, b.messages);
}

#[test]
fn traffic_statistics_distinguish_intra_and_inter() {
    // 2 ranks on one node: all traffic intra. 2 ranks on two nodes: inter.
    let intra = run(cfg(2, 2), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 0, Payload::Phantom(1000));
        } else {
            let _ = w.recv(0, 0);
        }
    })
    .unwrap();
    assert_eq!(intra.intra_node_bytes, 1000);
    assert_eq!(intra.inter_node_bytes, 0);
    let inter = run(cfg(2, 1), |rc: RankCtx| {
        let w = rc.world();
        if rc.rank() == 0 {
            w.send(1, 0, Payload::Phantom(1000));
        } else {
            let _ = w.recv(0, 0);
        }
    })
    .unwrap();
    assert_eq!(inter.inter_node_bytes, 1000);
    assert_eq!(inter.intra_node_bytes, 0);
}

#[test]
fn phantom_and_real_payloads_take_identical_virtual_time() {
    let go = |phantom: bool| {
        run(cfg(4, 1), move |rc: RankCtx| {
            let w = rc.world();
            let n = 256 * 1024usize;
            let data = (rc.rank() == 0).then(|| {
                if phantom {
                    Payload::Phantom(n)
                } else {
                    Payload::from_f64s(&vec![1.0; n / 8])
                }
            });
            let _ = w.bcast(0, data, n);
            // A reduction too (phantom reduction is free arithmetic but the
            // same modeled time).
            let contrib = if phantom {
                Payload::Phantom(n)
            } else {
                Payload::from_f64s(&vec![2.0; n / 8])
            };
            let _ = w.reduce(0, contrib);
            rc.now().as_nanos()
        })
        .unwrap()
    };
    let real = go(false);
    let phantom = go(true);
    assert_eq!(real.makespan, phantom.makespan);
    for r in 0..4 {
        assert_eq!(real.end_times[r], phantom.end_times[r], "rank {r}");
    }
}
