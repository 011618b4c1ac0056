//! One communicator front end, two backends.
//!
//! `ovcomm_simmpi::Comm` and `ovcomm_rt::RtComm` are the same generic
//! `Comm<T>` over a narrow `Transport` seam. This suite runs one program,
//! generic over the transport (`&RankCtx<T>`), on the virtual-time
//! simulator and on the wall-clock runtime, and requires everything the
//! front end produces to agree: results to the bit, per-rank operation
//! counters, the multiset of verify `Coll` events per communicator, and a
//! clean verify report. A second program does the same for the one window
//! front end, `Win<T>`: committed segment bytes and `rma.*` counters. It
//! also pins the front ends' argument-check panic messages (once — they
//! are the same code on either backend), and that the one run harness —
//! `RankCtx<T>`, `RunOutput`, `RunError` — reports the same identity and
//! the same failures on both. The verifier's race check reads per-rank
//! call order only, so a planted race is the same warning on both and its
//! clean twin is clean on both. With tracing on, the one trace sink
//! records the same spans and edges for either backend, and a failed run
//! still writes its Perfetto file. At p = 12 the simulator's metrics
//! snapshot is pinned (key counts, first and last keys, a digest of its
//! JSON) and both backends render the same `simmpi.*` keys. One program is
//! bound on `R: RankHandle` instead and does what the `benchmark/` package
//! does through `ovcomm_core::backend`, so a break there fails here too.

use std::collections::BTreeMap;

use std::time::Duration;

use ovcomm::core::RankHandle;
use ovcomm::densemat::{BlockBuf, BlockGrid, Matrix};
use ovcomm::kernels::{symm_square_cube_optimized, Mesh3D, SymmInput};
use ovcomm::prelude::*;
use ovcomm::simmpi::{RunError, RunOutput, Transport, VerifyMode, VerifyReport};
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
fn program<T: Transport>(rc: &RankCtx<T>) -> Vec<u64> {
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

/// The one-sided program: every `Window` call. A put and an accumulate
/// per rank under fences, every non-zero rank contending for rank 0's
/// lock to accumulate into it, then a get of what landed. Returns the
/// bits of the fetched range followed by the rank's whole committed
/// segment.
fn window_program<T: Transport>(rc: &RankCtx<T>) -> Vec<u64> {
    let world = rc.world();
    let (me, p) = (world.rank(), world.size());
    let init = Payload::from_f64s(&vec![me as f64; 512]);
    let win = world.win_create(init.clone());
    assert_eq!((win.rank(), win.size(), win.segment_len(0)), (me, p, 4096));
    win.fence();
    let before = win.local();
    // Slots 0..128 of the right neighbour; slots 128..192 of rank 0,
    // summed in (origin, post) order — 0.1 steps are inexact, so equal
    // bits mean equal apply order.
    win.put((me + 1) % p, 0, Payload::from_f64s(&vals(128, me)));
    win.accumulate(
        0,
        128 * 8,
        Payload::from_f64s(&vec![0.1 * (me + 1) as f64; 64]),
    );
    win.fence();
    // The epoch close changed the segment, but not the caller's creation
    // payload nor a snapshot taken before it.
    assert_ne!(win.local().to_f64s()[0], me as f64);
    for kept in [&init, &before] {
        assert_eq!(kept.to_f64s(), vec![me as f64; 512]);
    }
    if me != 0 {
        // Grant order is a real race on rt; halves sum exactly, so the
        // committed bytes do not depend on it.
        win.lock(0);
        win.accumulate(0, 192 * 8, Payload::from_f64s(&vals(32, me)));
        win.accumulate(0, 192 * 8, Payload::from_f64s(&vals(16, me + 1)));
        win.unlock(0);
    }
    world.barrier();
    win.fence();
    let r = win.get(0, 128 * 8, 96 * 8);
    let mut seen: Vec<u64> = win.wait(&r).to_f64s().iter().map(|v| v.to_bits()).collect();
    win.fence();
    seen.extend(win.local().to_f64s().iter().map(|v| v.to_bits()));
    win.free();
    seen
}

fn try_sim<T: Send + 'static>(
    cfg: SimConfig,
    program: fn(&RankCtx) -> T,
) -> Result<RunOutput<T>, RunError> {
    run(cfg, move |rc: RankCtx| program(&rc))
}

fn try_rt<T: Send + 'static>(
    cfg: RtConfig,
    program: fn(&RtRankCtx) -> T,
) -> Result<RunOutput<T>, RunError> {
    ovcomm_rt::run(cfg, move |rc: RtRankCtx| program(&rc))
}

/// `p` simulated ranks, `ppn` per node.
fn sim_cfg(p: usize, ppn: usize) -> SimConfig {
    SimConfig::natural(p, ppn, MachineProfile::test_profile())
}

fn rt_cfg(p: usize, ppn: usize) -> RtConfig {
    RtConfig::natural(p, ppn, MachineProfile::test_profile())
}

fn on_sim(p: usize, program: fn(&RankCtx) -> Vec<u64>) -> RunOutput<Vec<u64>> {
    try_sim(sim_cfg(p, 2), program).expect("sim run")
}

fn on_rt(p: usize, program: fn(&RtRankCtx) -> Vec<u64>) -> RunOutput<Vec<u64>> {
    try_rt(rt_cfg(p, 2), program).expect("rt run")
}

/// The per-rank call and byte counters of the communicator front end
/// (everything it counts deterministically; `simmpi.tests` depends on
/// polling luck) …
const COMM_COUNTERS: [&str; 2] = ["simmpi.calls{", "simmpi.bytes_posted{"];
/// … and of the window front end.
const WIN_COUNTERS: [&str; 2] = ["rma.calls{", "rma.bytes{"];

/// The counters whose key starts with one of `prefixes`.
fn op_counters<'a>(m: &'a MetricsSnapshot, prefixes: [&str; 2]) -> BTreeMap<&'a str, u64> {
    m.counters
        .iter()
        .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
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
        let (sim, rt) = (on_sim(p, program), on_rt(p, program));
        assert_eq!(sim.results, rt.results, "p={p}: results differ");
        assert!(sim.results.iter().all(|r| !r.is_empty()));

        let (sc, rc) = (
            op_counters(&sim.metrics, COMM_COUNTERS),
            op_counters(&rt.metrics, COMM_COUNTERS),
        );
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

        // No plan or verifier pass can be skipped, so no key says one was.
        for m in [&sim.metrics, &rt.metrics] {
            assert!(!m.counters.keys().any(|k| k.contains("skipped")));
        }
    }
}

/// FNV-1a over `bytes`: a digest to pin a long rendering with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `simmpi.*` keys of every instrument class.
fn simmpi_keys(m: &MetricsSnapshot) -> Vec<&str> {
    m.counters
        .keys()
        .chain(m.gauges.keys())
        .chain(m.histograms.keys())
        .map(String::as_str)
        .filter(|k| k.starts_with("simmpi."))
        .collect()
}

#[test]
fn the_metrics_snapshot_is_pinned_at_two_digit_ranks() {
    // p = 12: rank labels sort as strings, so `rank=10` precedes `rank=2`.
    let p = 12;
    let (sim, rt) = (on_sim(p, program), on_rt(p, program));
    let m = &sim.metrics;
    let first_last = |keys: Vec<&str>| (keys[0].to_string(), keys[keys.len() - 1].to_string());
    // 31 counters and 3 histograms per rank, plus one `simmpi.comm_dup`
    // per rank and parent context.
    assert_eq!(m.counters.len(), p * 31 + p);
    assert_eq!(m.histograms.len(), p * 3);
    assert_eq!(
        first_last(m.counters.keys().map(String::as_str).collect()),
        (
            "simmpi.bytes_posted{op=allgather,rank=0}".to_string(),
            "simmpi.tests{rank=9}".to_string()
        )
    );
    assert_eq!(
        first_last(m.histograms.keys().map(String::as_str).collect()),
        (
            "simmpi.blocking_ns{rank=0}".to_string(),
            "simmpi.wait_ns{rank=9}".to_string()
        )
    );
    let keys: Vec<&str> = m.counters.keys().map(String::as_str).collect();
    let at = |k: &str| keys.iter().position(|x| *x == k).expect(k);
    assert!(at("simmpi.tests{rank=10}") < at("simmpi.tests{rank=2}"));
    // Every value and the order of every key, on the simulator's
    // deterministic snapshot.
    let json = serde_json::to_string(m).expect("snapshot serializes");
    assert_eq!(fnv1a(json.as_bytes()), 0x289f_3099_9412_0219);
    assert_eq!(simmpi_keys(m), simmpi_keys(&rt.metrics));
}

/// Rank 0 sends rank 1 two messages on one envelope — in flight together,
/// or the second posted only after the first was waited.
fn same_envelope_sends<T: Transport>(rc: &RankCtx<T>, wait_between: bool) -> Vec<u64> {
    let world = rc.world();
    match world.rank() {
        0 => {
            let first = world.isend(1, 4, Payload::from_f64s(&[1.0]));
            if wait_between {
                world.wait(&first);
            }
            let second = world.isend(1, 4, Payload::from_f64s(&[2.0]));
            if !wait_between {
                world.wait(&first);
            }
            world.wait(&second);
            Vec::new()
        }
        1 => [world.recv(0, 4), world.recv(0, 4)]
            .iter()
            .map(|pl| pl.to_f64s()[0].to_bits())
            .collect(),
        _ => Vec::new(),
    }
}

fn two_sends_in_flight<T: Transport>(rc: &RankCtx<T>) -> Vec<u64> {
    same_envelope_sends(rc, false)
}

fn second_send_after_wait<T: Transport>(rc: &RankCtx<T>) -> Vec<u64> {
    same_envelope_sends(rc, true)
}

fn rendered(v: &VerifyReport) -> Vec<String> {
    v.findings.iter().map(|f| f.to_string()).collect()
}

/// The race check reads each rank's own call order, which no backend
/// changes: a planted race is the same warning on both.
#[test]
fn a_planted_race_is_the_same_warning_on_both_backends() {
    let (sim, rt) = (
        on_sim(2, two_sends_in_flight),
        on_rt(2, two_sends_in_flight),
    );
    assert_eq!(sim.results, rt.results);
    let (sim, rt) = (rendered(&sim.verify), rendered(&rt.verify));
    assert_eq!(sim.len(), 1, "{sim:?}");
    assert!(
        sim[0].starts_with("warning[order-dependent-match]: concurrent same-envelope sends"),
        "{sim:?}"
    );
    assert!(sim[0].contains("rank 0 -> rank 1, tag=4"), "{sim:?}");
    assert_eq!(sim, rt);
    assert_eq!(sim, [PLANTED_RACE], "sim");
    assert_eq!(rt, [PLANTED_RACE], "rt");
}

#[test]
fn a_wait_between_the_posts_is_clean_on_both_backends() {
    let sim = on_sim(2, second_send_after_wait);
    let rt = on_rt(2, second_send_after_wait);
    assert_eq!(sim.results, rt.results);
    assert_clean("sim", &sim.verify);
    assert_clean("rt", &rt.verify);
}

#[test]
fn one_window_program_agrees_across_backends() {
    for p in [4, 6] {
        let (sim, rt) = (on_sim(p, window_program), on_rt(p, window_program));
        assert_eq!(sim.results, rt.results, "p={p}: segment bytes differ");

        let (sc, rc) = (
            op_counters(&sim.metrics, WIN_COUNTERS),
            op_counters(&rt.metrics, WIN_COUNTERS),
        );
        assert_eq!(sc, rc, "p={p}: per-rank rma counters differ");
        // Not vacuous: 4 fences and one 768-byte get everywhere, and the
        // contended section's two accumulates on top of the fenced one.
        for r in 0..p {
            assert_eq!(sc[format!("rma.calls{{op=fence,rank={r}}}").as_str()], 4);
            assert_eq!(sc[format!("rma.bytes{{op=get,rank={r}}}").as_str()], 768);
            assert_eq!(
                sc[format!("rma.calls{{op=accumulate,rank={r}}}").as_str()],
                if r == 0 { 1 } else { 3 }
            );
        }
        assert_eq!(sc.get("rma.calls{op=lock,rank=0}"), None);
        assert_eq!(sc["rma.calls{op=unlock,rank=1}"], 1);

        // Rank 0's slot 192 took every contender's two first elements:
        // vals(_, r)[0] = 500·r, so 500·(r + r + 1) over r = 1..p.
        let slot = f64::from_bits(sim.results[0][96 + 192]);
        let want: f64 = (1..p).map(|r| 500.0 * (2 * r + 1) as f64).sum();
        assert_eq!(slot, want, "p={p}");

        assert_clean("sim", &sim.verify);
        assert_clean("rt", &rt.verify);
    }
}

/// What the `benchmark/` package does through `ovcomm_core::backend`, the
/// compatibility shim, bound on `R: RankHandle` exactly as its workloads
/// are: a 2×2×2 `Mesh3D` and its N_DUP bundles, one Algorithm 5 call, and
/// a fence epoch on a world window, timed on `rc.now()`. Returns the bits
/// of D² and D³ (plane 0 only) and of the fetched window range.
fn shim_program<R: RankHandle>(rc: &R) -> Vec<u64> {
    let (n, p) = (10, 2);
    let mesh = Mesh3D::new(rc, p);
    let bundles = mesh.dup_bundles(N_DUP);
    let grid = BlockGrid::new(n, p);
    let d = Matrix::from_fn(n, n, |i, j| {
        1.0 / (1.0 + i.abs_diff(j) as f64) + (i + j) as f64 * 0.1
    });
    let d_block = (mesh.k == 0).then(|| BlockBuf::Real(grid.extract(&d, mesh.i, mesh.j)));
    let t0 = rc.now();
    let out = symm_square_cube_optimized(rc, &mesh, &bundles, &SymmInput { n, d_block });
    let mut seen: Vec<u64> = [out.d2, out.d3]
        .into_iter()
        .flatten()
        .flat_map(|b| b.unwrap_real().clone().into_vec())
        .map(f64::to_bits)
        .collect();

    let me = rc.rank();
    let win = rc
        .world()
        .win_create(Payload::from_f64s(&[me as f64, 0.5 * me as f64]));
    win.fence();
    let r = win.get((me + 1) % 8, 8, 8);
    seen.extend(win.wait(&r).to_f64s().iter().map(|v| v.to_bits()));
    win.fence();
    win.free();
    assert!(rc.now() > t0);
    seen
}

#[test]
fn the_benchmark_shim_runs_one_program_on_both_backends() {
    let (sim, rt) = (on_sim(8, shim_program), on_rt(8, shim_program));
    assert_eq!(sim.results, rt.results, "results differ");
    // Plane 0 holds a 5×5 block of D² and of D³ plus the fetched value;
    // the other plane only the fetched value.
    let lens: Vec<usize> = sim.results.iter().map(Vec::len).collect();
    assert_eq!(lens, [51, 51, 51, 51, 1, 1, 1, 1]);
    assert_clean("sim", &sim.verify);
    assert_clean("rt", &rt.verify);
}

/// What a trace records that no clock decides: the sorted
/// `(actor, kind, label, chunk)` of its spans and `(kind, from, to)` of its
/// edges.
type TraceBag = (
    Vec<(u32, &'static str, String, Option<u32>)>,
    Vec<(&'static str, u32, u32)>,
);

fn trace_bag(out: RunOutput<Vec<u64>>) -> TraceBag {
    assert_eq!(out.clamped_spans, 0, "{}", out.backend);
    let trace = out.trace.expect("traced run");
    let mut spans: Vec<_> = trace
        .spans()
        .iter()
        .map(|s| (s.actor, s.kind.name(), s.label.clone(), s.chunk))
        .collect();
    let mut edges: Vec<_> = trace
        .edges()
        .iter()
        .map(|e| (e.kind.name(), e.from_actor, e.to_actor))
        .collect();
    spans.sort();
    edges.sort();
    (spans, edges)
}

#[test]
fn both_backends_record_the_same_trace() {
    // The simulator's (spans, edges) for `program` and `window_program`,
    // pinned so the comparison is not vacuous.
    for (p, counts) in [
        (4, [(764, 242), (352, 106)]),
        (6, [(1680, 537), (728, 226)]),
    ] {
        let (sim, rt) = (|| sim_cfg(p, 2).with_trace(), rt_cfg(p, 2).with_trace());
        let runs = [
            (try_sim(sim(), program), try_rt(rt.clone(), program)),
            (try_sim(sim(), window_program), try_rt(rt, window_program)),
        ];
        for ((sim, rt), want) in runs.into_iter().zip(counts) {
            let (sim, rt) = (
                trace_bag(sim.expect("sim run")),
                trace_bag(rt.expect("rt run")),
            );
            assert_eq!((sim.0.len(), sim.1.len()), want, "p={p}");
            assert!(sim.0 == rt.0, "p={p}: spans differ");
            assert!(sim.1 == rt.1, "p={p}: edges differ");
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
    // The window front end's checks: at the origin's call, not as an
    // index panic or at the target's distant epoch close.
    let bad_target = panic_message(|w, _| {
        let win = w.win_create(Payload::from_f64s(&[0.0; 2]));
        win.put(2, 0, Payload::from_f64s(&[1.0]));
    });
    assert!(
        bad_target.contains("put target 2 out of range (p=2)"),
        "{bad_target}"
    );
    let unaligned = panic_message(|w, _| {
        let win = w.win_create(Payload::from_f64s(&[0.0; 2]));
        win.accumulate(0, 4, Payload::from_f64s(&[1.0]));
    });
    assert!(
        unaligned.contains("accumulate must be f64-aligned (offset 4, len 8)"),
        "{unaligned}"
    );
}

// ---------------------------------------------------------------------
// The run harness: failures and identity
// ---------------------------------------------------------------------

/// Run a program that must fail on both backends; returns `[sim, rt]`.
fn failures(
    p: usize,
    sim_program: fn(&RankCtx),
    rt_program: fn(&RtRankCtx),
) -> [(&'static str, RunError); 2] {
    let failed = |backend: &str, r: Result<RunOutput<()>, RunError>| match r {
        Err(e) => e,
        Ok(_) => panic!("{backend}: expected a failure, run succeeded"),
    };
    // The programs hang; do not sit out the watchdog's default 2 s.
    let cfg = rt_cfg(p, 1).with_deadlock_timeout(Duration::from_millis(200));
    [
        ("sim", failed("sim", try_sim(sim_cfg(p, 1), sim_program))),
        ("rt", failed("rt", try_rt(cfg, rt_program))),
    ]
}

fn both_recv_first<T: Transport>(rc: &RankCtx<T>) {
    let world = rc.world();
    let peer = 1 - world.rank();
    let _ = world.recv(peer, 0);
    world.send(peer, 0, Payload::from_f64s(&[1.0]));
}

#[test]
fn deadlock_is_the_same_error_on_both_backends() {
    for (backend, e) in failures(2, both_recv_first, both_recv_first) {
        match e {
            RunError::Deadlock { report } => {
                assert_eq!(report.blocked_ranks(), [0, 1], "{backend}");
                assert_eq!(report.cycle, [0, 1], "{backend}");
            }
            e => panic!("{backend}: expected a deadlock, got {e}"),
        }
    }
}

fn barrier_then_both_recv<T: Transport>(rc: &RankCtx<T>) {
    let world = rc.world();
    world.barrier();
    let _ = world.recv(1 - world.rank(), 0);
}

/// The trace of a failed run is the one somebody needs: `trace_out` is
/// written before the epilogue returns its error.
#[test]
fn a_failed_run_still_writes_its_trace() {
    for backend in ["sim", "rt"] {
        let path = std::env::temp_dir().join(format!(
            "ovcomm_failed_run_{backend}_{}.json",
            std::process::id()
        ));
        let failed = match backend {
            "sim" => try_sim(sim_cfg(2, 1).with_trace_out(&path), barrier_then_both_recv),
            _ => try_rt(
                rt_cfg(2, 1)
                    .with_deadlock_timeout(Duration::from_millis(200))
                    .with_trace_out(&path),
                barrier_then_both_recv,
            ),
        };
        assert!(
            matches!(failed, Err(RunError::Deadlock { .. })),
            "{backend}: expected a deadlock"
        );
        let v = ovcomm_obs::read_trace(&path).expect("trace file written");
        std::fs::remove_file(&path).ok();
        ovcomm_obs::validate_trace_events(&v).expect("well-formed trace events");
        let barriers = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("MPI_Barrier"))
            .count();
        assert_eq!(barriers, 2, "{backend}: one barrier span per rank");
    }
}

const GIVE_UP: &str = "rank one gives up";

/// Ranks 0 and 2 wait on a rank that panics: they end in the backend's
/// deadlock unwind, which must not win the triage over its cause.
fn rank_one_panics<T: Transport>(rc: &RankCtx<T>) {
    if rc.rank() == 1 {
        panic!("{GIVE_UP}");
    }
    let _ = rc.world().recv(1, 0);
}

#[test]
fn a_rank_panic_wins_over_the_deadlock_it_induces() {
    for (backend, e) in failures(3, rank_one_panics, rank_one_panics) {
        match e {
            RunError::RankPanic { rank, message } => {
                assert_eq!((rank, message.as_str()), (1, GIVE_UP), "{backend}");
            }
            e => panic!("{backend}: expected rank 1's panic, got {e}"),
        }
    }
}

fn identity<T: Transport>(rc: &RankCtx<T>) -> (Vec<usize>, &'static str) {
    let mut seen = vec![
        rc.rank(),
        rc.nranks(),
        rc.node(),
        rc.ppn(),
        rc.compute_ppn(),
    ];
    rc.set_active_ppn(2);
    seen.push(rc.compute_ppn());
    rc.set_active_ppn(0);
    seen.push(rc.compute_ppn());
    (seen, rc.backend_name())
}

#[test]
fn rank_identity_agrees_across_backends() {
    let sim = try_sim(sim_cfg(6, 3), identity).expect("sim run");
    let rt = try_rt(rt_cfg(6, 3), identity).expect("rt run");
    for (r, (s, t)) in sim.results.iter().zip(&rt.results).enumerate() {
        assert_eq!(s.0, [r, 6, r / 3, 3, 3, 2, 3], "rank {r}");
        assert_eq!(s.0, t.0, "rank {r}");
        assert_eq!((s.1, t.1), ("sim", "rt"));
    }
    // Only the simulator has a flow model to report on.
    assert_eq!((sim.backend, sim.net.is_some()), ("sim", true));
    assert_eq!((rt.backend, rt.net.is_some()), ("rt", false));
}

/// The exact text of the planted race's one finding, on either backend.
/// The site is the second `isend` in `same_envelope_sends`.
const PLANTED_RACE: &str = "warning[order-dependent-match]: concurrent same-envelope sends \
    (comm 0, rank 0 -> rank 1, tag=4): matching depends on arrival order, \
    posted at tests/front_end.rs:355";
