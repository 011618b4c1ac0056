//! Determinism tests: every program runs twice and must equal itself bit
//! for bit — per-rank results, virtual end times, message and byte counts,
//! verification findings, metric counters and histograms — and must equal
//! its pinned [`Golden`] values.
//!
//! The literals are the last verdict of the retired thread-per-rank
//! executor: they were recorded from its run of each program at commit
//! `ef982b7` (PR 13), where the fiber scheduler produced the same values
//! (hence the test names, kept from that differential suite). A change in
//! them is a change in scheduler order or in the model, not noise. The
//! one-sided window program was added later; its literal was printed by
//! commit `94985ee` (PR 14), the last one with a simulator-only window
//! implementation. The contended-transfer program also pins the flow
//! solver's counters and float accumulation order (`NetGolden`); its
//! literals were printed by the ordered-map solver in PR 25's first commit.
//!
//! Also hosts the large-scale smoke test: a 10,000-rank broadcast +
//! allreduce under `VerifyMode::Strict`.

use std::sync::Arc;

use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig, SimOutput, VerifyMode};
use ovcomm_simnet::{MachineProfile, SimTime};

/// What one program's simulation must reproduce: makespan (ns), messages,
/// inter-node bytes, intra-node bytes, and an order-sensitive fold of the
/// per-rank `(result bits, rank-local end time)` pairs.
#[derive(Debug, PartialEq)]
struct Golden(u64, u64, u64, u64, u64);

/// Run the program twice; the runs must match each other bit for bit and
/// match `golden`. Returns both runs for further checks.
fn assert_deterministic<F>(
    mk_cfg: impl Fn() -> SimConfig,
    golden: Golden,
    body: F,
) -> [SimOutput<(u64, SimTime)>; 2]
where
    F: Fn(RankCtx) -> (u64, SimTime) + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let run_once = || {
        let b = body.clone();
        run(mk_cfg(), move |rc: RankCtx| b(rc)).unwrap_or_else(|e| panic!("run failed: {e}"))
    };
    let (a, b) = (run_once(), run_once());
    assert_eq!(a.results, b.results, "per-rank results diverge");
    assert_eq!(a.end_times, b.end_times, "virtual end times diverge");
    let render = |o: &SimOutput<(u64, SimTime)>| -> Vec<String> {
        o.verify.findings.iter().map(|f| f.to_string()).collect()
    };
    assert_eq!(render(&a), render(&b), "verify findings diverge");
    assert_eq!(
        a.metrics.counters, b.metrics.counters,
        "metric counters diverge"
    );
    assert_eq!(
        a.metrics.histograms, b.metrics.histograms,
        "metric histograms diverge"
    );
    let observed = |o: &SimOutput<(u64, SimTime)>| {
        let fold = o.results.iter().fold(0u64, |h, &(bits, t)| {
            (h.rotate_left(7) ^ bits).wrapping_add(t.as_nanos())
        });
        Golden(
            o.makespan.as_nanos(),
            o.messages,
            o.inter_node_bytes,
            o.intra_node_bytes,
            fold,
        )
    };
    assert_eq!(observed(&a), observed(&b), "second run diverges");
    assert_eq!(observed(&a), golden, "run diverges from the pinned values");
    [a, b]
}

fn cfg(nranks: usize, ppn: usize) -> SimConfig {
    SimConfig::natural(nranks, ppn, MachineProfile::test_profile())
}

/// Deterministic per-rank payload whose reduction is exactly
/// representable, so sums are bit-stable regardless of order anyway; the
/// tests still compare raw bits.
fn contrib(rank: usize, len: usize) -> Payload {
    Payload::from_f64s(
        &(0..len)
            .map(|i| (rank * len + i) as f64)
            .collect::<Vec<_>>(),
    )
}

#[test]
fn p2p_ring_is_bit_identical_across_modes() {
    assert_deterministic(
        || cfg(6, 2),
        Golden(2637, 6, 1536, 1536, 0x627e52d6b284667a),
        |rc: RankCtx| {
            let w = rc.world();
            let p = rc.nranks();
            let next = (rc.rank() + 1) % p;
            let prev = (rc.rank() + p - 1) % p;
            let got = w.sendrecv(next, prev, 7, contrib(rc.rank(), 64));
            (
                got.to_f64s()
                    .iter()
                    .fold(0u64, |a, x| a.wrapping_add(x.to_bits())),
                rc.now(),
            )
        },
    );
}

#[test]
fn blocking_collectives_are_bit_identical_across_modes() {
    assert_deterministic(
        || cfg(8, 2),
        Golden(26691, 132, 5376, 3712, 0xee6c1584da34ceeb),
        |rc: RankCtx| {
            let w = rc.world();
            let me = rc.rank();
            let data = (me == 0).then(|| contrib(1, 32));
            let b = w.bcast(0, data, 32 * 8);
            let red = w.reduce(2, contrib(me, 16));
            let all = w.allreduce(contrib(me, 16));
            w.barrier();
            let sc = w.scatter(
                1,
                (me == 1).then(|| contrib(3, 8 * rc.nranks())),
                8 * 8 * rc.nranks(),
            );
            let ga = w.gather(0, contrib(me, 8), 8 * 8 * rc.nranks());
            let ag = w.allgather(contrib(me, 4), 4 * 8 * rc.nranks());
            let bits = |p: &Payload| {
                p.to_f64s()
                    .iter()
                    .fold(0u64, |a, x| a.wrapping_add(x.to_bits()))
            };
            (
                bits(&b)
                    .wrapping_add(red.as_ref().map_or(0, bits))
                    .wrapping_add(bits(&all))
                    .wrapping_add(bits(&sc))
                    .wrapping_add(ga.as_ref().map_or(0, bits))
                    .wrapping_add(bits(&ag)),
                rc.now(),
            )
        },
    );
}

#[test]
fn nonblocking_collectives_are_bit_identical_across_modes() {
    assert_deterministic(
        || cfg(8, 4),
        Golden(75479, 55, 40960, 114688, 0x01bef06f5ebd9262),
        |rc: RankCtx| {
            let w = rc.world();
            let me = rc.rank();
            // Two overlapping nonblocking collectives on dup'd comms plus
            // an ibarrier: exercises op actors.
            let c1 = w.dup();
            let c2 = w.dup();
            let r1 = c1.ibcast(0, (me == 0).then(|| contrib(2, 1024)), 1024 * 8);
            let r2 = c2.iallreduce(contrib(me, 512));
            let rb = w.ibarrier();
            let a = c1.wait(&r1);
            let b = c2.wait(&r2);
            w.wait(&rb);
            let bits = |p: &Payload| {
                p.to_f64s()
                    .iter()
                    .fold(0u64, |a, x| a.wrapping_add(x.to_bits()))
            };
            (bits(&a).wrapping_add(bits(&b)), rc.now())
        },
    );
}

#[test]
fn split_grid_traffic_is_bit_identical_across_modes() {
    assert_deterministic(
        || cfg(9, 3),
        Golden(9314, 30, 3072, 3456, 0x9323cda3afa8fe81),
        |rc: RankCtx| {
            let w = rc.world();
            let me = rc.rank();
            let (row, col) = (me / 3, me % 3);
            let rcomm = w.split(row as i64, col as u64).expect("row comm");
            let ccomm = w.split(3 + col as i64, row as u64).expect("col comm");
            let rsum = rcomm.allreduce(contrib(me, 32));
            let croot = ccomm.reduce(0, rsum);
            let out = ccomm.bcast(0, croot, 32 * 8);
            (
                out.to_f64s()
                    .iter()
                    .fold(0u64, |a, x| a.wrapping_add(x.to_bits())),
                rc.now(),
            )
        },
    );
}

#[test]
fn mixed_p2p_and_nonblocking_under_strict_mode_matches() {
    // Strict mode records every event; the verifier must not change the
    // timings, and the program must come out clean.
    assert_deterministic(
        || cfg(6, 3).with_verify(VerifyMode::Strict),
        Golden(12915, 11, 2304, 3584, 0x5b1f942e101f9107),
        |rc: RankCtx| {
            let w = rc.world();
            let me = rc.rank();
            let p = rc.nranks();
            let r = w.ireduce(0, contrib(me, 128));
            let got = w.sendrecv((me + 1) % p, (me + p - 1) % p, 1, contrib(me, 16));
            let red = w.wait(&r);
            let bits = |p: &Payload| {
                p.to_f64s()
                    .iter()
                    .fold(0u64, |a, x| a.wrapping_add(x.to_bits()))
            };
            (
                bits(&got).wrapping_add(red.as_ref().map_or(0, bits)),
                rc.now(),
            )
        },
    );
}

#[test]
fn one_sided_window_program_matches_pinned_values() {
    // Every window call, p = 4 at PPN 2: put + accumulate under fences, a
    // 3-origin contended lock/accumulate/unlock on rank 0, get + wait,
    // free. Pins the charge order of each: post → stage → transfer;
    // drain → barrier → apply → copy → barrier; apply → copy → grant.
    assert_deterministic(
        || cfg(4, 2),
        Golden(36898, 106, 5376, 4992, 0xb22279cfebd6ef70),
        |rc: RankCtx| {
            let w = rc.world();
            let (me, p) = (rc.rank(), rc.nranks());
            let win = w.win_create(Payload::from_f64s(&vec![me as f64; 512]));
            win.fence();
            // Slots 0..128 of the right neighbour; slots 128..192 of rank
            // 0, summed in (origin, post) order — 0.1 steps are inexact,
            // so the bits pin that order.
            win.put((me + 1) % p, 0, contrib(me, 128));
            win.accumulate(
                0,
                128 * 8,
                Payload::from_f64s(&vec![0.1 * (me + 1) as f64; 64]),
            );
            win.fence();
            if me != 0 {
                win.lock(0);
                win.accumulate(0, 192 * 8, contrib(me, 32));
                win.accumulate(0, 192 * 8, contrib(me + 1, 16));
                win.unlock(0);
            }
            w.barrier();
            win.fence();
            let r = win.get(0, 128 * 8, 96 * 8);
            let got = win.wait(&r);
            win.fence();
            let local = win.local();
            win.free();
            let bits = |p: &Payload| {
                p.to_f64s()
                    .iter()
                    .fold(0u64, |a, x| a.rotate_left(1) ^ x.to_bits())
            };
            (bits(&got).wrapping_add(bits(&local)), rc.now())
        },
    );
}

/// What the flow solver must reproduce on a contended run: re-solves, Σ
/// component sizes, completion events moved, and an order-sensitive fold
/// of the f64 bits of every resource's `busy_secs` / `overlap2_secs` /
/// `bytes` and of `total_queue_delay_secs`.
#[derive(Debug, PartialEq)]
struct NetGolden(u64, u64, u64, u64);

fn net_golden(o: &SimOutput<(u64, SimTime)>) -> NetGolden {
    let net = o.net.as_ref().expect("sim runs carry net stats");
    let fold = net
        .resources
        .iter()
        .flat_map(|r| [r.stats.busy_secs, r.stats.overlap2_secs, r.stats.bytes])
        .chain([net.total_queue_delay_secs])
        .fold(0u64, |h, x| h.rotate_left(5) ^ x.to_bits());
    NetGolden(net.resolves, net.resolved_flows, net.rekeys, fold)
}

#[test]
fn contended_transfers_pin_the_flow_solver() {
    // 128 ranks on 32 nodes, three rounds of six concurrent 256 KiB – 1 MiB
    // transfers per rank over near and far peers: the NICs and memory
    // channels join into components of ~150 flows whose rates change
    // every time one of the unequal transfers lands. The literals were
    // recorded from the ordered-map solver (PR 25's first commit); any
    // change in the progressive fill's visit order or in the order of
    // float accumulation shows up in the fold.
    let runs = assert_deterministic(
        || cfg(128, 4),
        Golden(17599822, 1152, 562476800, 193083136, 0x181d636dccc53a9f),
        |rc: RankCtx| {
            let w = rc.world();
            let (me, p) = (rc.rank(), rc.nranks());
            for round in 0..3 {
                let peers = [1, 5 + round, 37 + 11 * round];
                let len =
                    |src: usize, k: usize| (256 << 10) * (1 + (src + k + round) % 4) + 8 * src;
                let recvs: Vec<_> = peers
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| w.irecv((me + p - d) % p, k as u32))
                    .collect();
                let sends: Vec<_> = peers
                    .iter()
                    .enumerate()
                    .map(|(k, &d)| w.isend((me + d) % p, k as u32, Payload::Phantom(len(me, k))))
                    .collect();
                for (k, r) in recvs.iter().enumerate() {
                    let got = w.wait(r);
                    assert_eq!(got.len(), len((me + p - peers[k]) % p, k));
                }
                w.wait_all(&sends);
            }
            (me as u64, rc.now())
        },
    );
    let [a, b] = &runs;
    assert_eq!(net_golden(a), net_golden(b), "net stats diverge");
    assert_eq!(
        net_golden(a),
        NetGolden(1677, 244948, 9581, 0xc02f459c63c9e62a),
        "flow solver diverges from the pinned values"
    );
}

/// The scale target: 10,000 ranks in one process, broadcast + allreduce
/// under strict verification (static lint, the per-shape model check and
/// the dynamic recorder, every online analysis included).
#[test]
fn ten_thousand_rank_bcast_allreduce_strict_smoke() {
    let p = 10_000;
    let out = run(
        SimConfig::natural(p, 4, MachineProfile::test_profile())
            .with_verify(VerifyMode::Strict)
            // Not needed for the footprint any more: a stack costs the
            // pages a fiber touches, whatever size is asked for here.
            .with_fiber_stack(256 << 10),
        move |rc: RankCtx| {
            let w = rc.world();
            let data = (rc.rank() == 0).then(|| Payload::from_f64s(&[42.0; 8]));
            let b = w.bcast(0, data, 8 * 8);
            let s = w.allreduce(Payload::from_f64s(&[1.0]));
            (b.to_f64s()[0], s.to_f64s()[0])
        },
    )
    .expect("10k-rank smoke run");
    assert_eq!(out.results.len(), p);
    for (b, s) in &out.results {
        assert_eq!(*b, 42.0);
        assert_eq!(*s, p as f64);
    }
    assert!(out.makespan.as_nanos() > 0);
    // Both shapes were linted and model-checked at p = 10,000, and the
    // race check ran too: no analysis has a size gate, so none found
    // anything and no counter says one was skipped.
    assert_eq!(out.verify.warnings(), 0, "{:?}", out.verify.findings);
    assert!(!out.metrics.counters.keys().any(|k| k.contains("skipped")));
    // Every rank has its 31 `simmpi.*` counters (15 op kinds × calls and
    // bytes, plus `tests`) and 3 histograms; this run makes no on-demand
    // key (no dup, no window, no clamped span).
    let (counters, histograms) = (&out.metrics.counters, &out.metrics.histograms);
    assert!(counters
        .keys()
        .chain(histograms.keys())
        .all(|k| k.starts_with("simmpi.")));
    assert_eq!((counters.len(), histograms.len()), (p * 31, p * 3));
}
