//! Layer probes: one number per layer, measured from outside by timing
//! calls into each crate's `pub` API at input shapes borrowed from the
//! workload. Every probe runs inside a harness span of its layer.
//!
//! Buffers are chunk-sized and stay in cache, so the `payload.*_gbps`
//! figures are cache-resident rates, not memory bandwidth;
//! `payload.memcpy_gbps`, taken in the same run, is their bound.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ovcomm_core::{Communicator, NDupComms, RankHandle, Window};
use ovcomm_densemat::{gemm_acc, gemm_flops, Matrix};
use ovcomm_rt::mailbox::{Mailbox, RecvPost, RtKey, SendPost};
use ovcomm_rt::queue::{MpscQueue, Popped, SpscRing};
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::plan::{build_all, lint_plans, model_check_single, CollPlan, McConfig};
use ovcomm_simmpi::{Payload, RankCtx, SimConfig, VerifyMode};
use ovcomm_simnet::{fiber_yield, Fiber, FlowNet, FlowSpec, MachineProfile, SimDur};

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Shapes, Variant};

/// Rounds each probe is repeated; the median round is reported.
const ROUNDS: usize = 5;
/// N_DUP of the nonblocking-collective probes (the paper's choice).
const N_DUP: usize = 4;
/// Bytes of one put or get of the RMA probes.
const RMA_BYTES: usize = 8 << 10;
/// The static model checker refuses wider communicators.
const MC_MAX_RANKS: usize = 128;

/// Median seconds of `ROUNDS` calls of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&rounds)
}

/// Host seconds and message count of one simulator run.
fn sim_run(cfg: SimConfig, body: impl Fn(&RankCtx) + Send + Sync + 'static) -> (f64, u64) {
    let t0 = Instant::now();
    let out = ovcomm_simmpi::run(cfg, move |rc: RankCtx| body(&rc))
        .unwrap_or_else(|e| panic!("simulator probe failed: {e}"));
    (t0.elapsed().as_secs_f64(), out.messages)
}

/// Largest per-rank phase seconds of one rt run under the measured
/// configuration (verification off, no sampler).
fn rt_phase_secs(nranks: usize, body: impl Fn(&RtRankCtx) -> f64 + Send + Sync + 'static) -> f64 {
    let cfg = RtConfig::natural(nranks, 1, MachineProfile::test_profile())
        .with_verify(VerifyMode::Off)
        .with_deadlock_timeout(Duration::from_secs(10))
        .without_sampler();
    let out = ovcomm_rt::run(cfg, move |rc: RtRankCtx| body(&rc))
        .unwrap_or_else(|e| panic!("rt probe failed: {e}"));
    out.results.iter().cloned().fold(0.0, f64::max)
}

fn real_payload(bytes: usize) -> Payload {
    let vals: Vec<f64> = (0..bytes / 8).map(|i| i as f64 * 0.5).collect();
    Payload::from_f64s(&vals)
}

pub fn run_all(
    shapes: &Shapes,
    base: Variant,
    rec: &mut Recorder,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let mut probe = |name: &'static str,
                     layer: &'static str,
                     rec: &mut Recorder,
                     f: &mut dyn FnMut() -> f64| {
        let value = rec.span(name, layer, |_| (f(), 1));
        out.insert(name, value);
    };
    let chunk = shapes.chunk_bytes / 8 * 8;

    // ---- densemat ----------------------------------------------------
    probe("densemat.gemm_gflops", "densemat", rec, &mut || {
        let e = shapes.gemm_edge;
        let a = Matrix::from_fn(e, e, |i, j| 1.0 / (1.0 + (i + 2 * j) as f64));
        let mut c = Matrix::zeros(e, e);
        let reps = (2.0e7 / gemm_flops(e, e, e)).ceil().max(1.0) as usize;
        let secs = median_secs(|| {
            for _ in 0..reps {
                gemm_acc(&mut c, &a, &a);
            }
        });
        black_box(&c);
        gemm_flops(e, e, e) * reps as f64 / secs / 1e9
    });

    // ---- simmpi::payload ----------------------------------------------
    let (pa, pb) = (real_payload(chunk), real_payload(chunk));
    let payload_reps = ((8 << 20) / chunk).max(1);
    let gbps = |bytes_per_op: usize, secs: f64| (bytes_per_op * payload_reps) as f64 / secs / 1e9;
    probe("payload.reduce_gbps", "simmpi::payload", rec, &mut || {
        gbps(
            chunk,
            median_secs(|| {
                for _ in 0..payload_reps {
                    black_box(pa.reduce_sum_f64(&pb));
                }
            }),
        )
    });
    probe("payload.concat_gbps", "simmpi::payload", rec, &mut || {
        let parts = [pa.clone(), pb.clone(), pa.clone(), pb.clone()];
        gbps(
            4 * chunk,
            median_secs(|| {
                for _ in 0..payload_reps {
                    black_box(Payload::concat(&parts));
                }
            }),
        )
    });
    probe(
        "payload.f64_roundtrip_gbps",
        "simmpi::payload",
        rec,
        &mut || {
            let vals = pa.to_f64s();
            gbps(
                chunk,
                median_secs(|| {
                    for _ in 0..payload_reps {
                        black_box(Payload::from_f64s(&vals).to_f64s());
                    }
                }),
            )
        },
    );
    probe("payload.memcpy_gbps", "simmpi::payload", rec, &mut || {
        let src = vec![1u8; chunk];
        gbps(
            chunk,
            median_secs(|| {
                for _ in 0..payload_reps {
                    black_box(src.to_vec());
                }
            }),
        )
    });

    // ---- rt -------------------------------------------------------------
    probe("rt.spawn_us", "rt", rec, &mut || {
        median_secs(|| {
            rt_phase_secs(8, |_| 0.0);
        }) * 1e6
    });
    probe("rt.p2p_rtt_us", "rt", rec, &mut || {
        const TRIPS: usize = 2000;
        let secs = rt_phase_secs(2, |rc| {
            let w = rc.world();
            let (me, ball) = (rc.rank(), real_payload(8));
            w.barrier();
            let t0 = rc.now();
            for _ in 0..TRIPS {
                if me == 0 {
                    w.send(1, 1, ball.clone());
                    black_box(w.recv(1, 1));
                } else {
                    black_box(w.recv(0, 1));
                    w.send(0, 1, ball.clone());
                }
            }
            (rc.now() - t0).as_secs_f64()
        });
        secs / TRIPS as f64 * 1e6
    });
    probe("rt.p2p_gbps", "rt", rec, &mut || {
        const MSGS: usize = 64;
        const BYTES: usize = 1 << 20;
        let secs = rt_phase_secs(2, |rc| {
            let w = rc.world();
            let data = real_payload(BYTES);
            w.barrier();
            let t0 = rc.now();
            if rc.rank() == 0 {
                let reqs: Vec<_> = (0..MSGS).map(|_| w.isend(1, 2, data.clone())).collect();
                w.wait_all(&reqs);
            } else {
                let reqs: Vec<_> = (0..MSGS).map(|_| w.irecv(0, 2)).collect();
                black_box(w.wait_all_payloads(&reqs));
            }
            (rc.now() - t0).as_secs_f64()
        });
        (MSGS * BYTES) as f64 / secs / 1e9
    });
    probe("rt.mailbox_match_ns", "rt", rec, &mut || {
        const PAIRS: u64 = 100_000;
        let mut mb: Mailbox<u64, u64> = Mailbox::new();
        let secs = median_secs(|| {
            for i in 0..PAIRS {
                let key = RtKey {
                    ctx: 0,
                    src: (i % 8) as u32,
                    dst: 0,
                    tag: i % 4,
                };
                let parked = matches!(mb.post_send(key, i), SendPost::Parked(_));
                let matched = matches!(mb.post_recv(key, i), RecvPost::Matched { .. });
                assert!(parked && matched, "a lone send must park and then match");
            }
        });
        secs / PAIRS as f64 * 1e9
    });
    const QUEUE_OPS: u64 = 200_000;
    probe("rt.spsc_ns", "rt", rec, &mut || {
        let ring: SpscRing<u64> = SpscRing::new(64);
        let secs = median_secs(|| {
            for i in 0..QUEUE_OPS {
                // SAFETY: this thread is the ring's only producer and its
                // only consumer, so no push or pop runs concurrently.
                let got = unsafe {
                    ring.try_push(i).expect("ring has room after each pop");
                    ring.pop()
                };
                assert_eq!(got, Some(i));
            }
        });
        secs / QUEUE_OPS as f64 * 1e9
    });
    probe("rt.mpsc_ns", "rt", rec, &mut || {
        let queue: MpscQueue<u64> = MpscQueue::new();
        let secs = median_secs(|| {
            for i in 0..QUEUE_OPS {
                queue.push(i);
                // SAFETY: this thread is the queue's only consumer.
                let got = unsafe { queue.pop() };
                assert_eq!(got, Popped::Item(i));
            }
        });
        secs / QUEUE_OPS as f64 * 1e9
    });
    probe("rt.icoll_ops_per_s", "rt", rec, &mut || {
        const ROUNDS_PER_RUN: usize = 200;
        let secs = rt_phase_secs(4, |rc| {
            let comms = NDupComms::new(&rc.world(), N_DUP);
            let data = real_payload(8 << 10);
            rc.world().barrier();
            let t0 = rc.now();
            for _ in 0..ROUNDS_PER_RUN {
                let reqs: Vec<_> = comms
                    .iter()
                    .map(|(_, c)| c.iallreduce(data.clone()))
                    .collect();
                black_box(comms.comm(0).wait_all_payloads(&reqs));
            }
            (rc.now() - t0).as_secs_f64()
        });
        (ROUNDS_PER_RUN * N_DUP) as f64 / secs
    });
    probe("rt.rma_op_us", "rt", rec, &mut || {
        const OPS: usize = 200;
        let secs = rt_phase_secs(2, |rc| {
            rma_epoch(
                rc,
                OPS,
                real_payload(2 * OPS * RMA_BYTES),
                real_payload(RMA_BYTES),
            )
        });
        secs / (2 * OPS) as f64 * 1e6
    });

    // ---- simnet -----------------------------------------------------------
    probe("simnet.fiber_create_us", "simnet", rec, &mut || {
        const FIBERS: usize = 256;
        let secs = median_secs(|| {
            for _ in 0..FIBERS {
                let mut f = Fiber::new(shapes.fiber_stack, || {
                    black_box(0u8);
                });
                f.resume();
                assert!(f.done());
            }
        });
        secs / FIBERS as f64 * 1e6
    });
    probe("simnet.fiber_switch_ns", "simnet", rec, &mut || {
        const SWITCHES: usize = 100_000;
        let secs = median_secs(|| {
            let mut f = Fiber::new(shapes.fiber_stack, || {
                for _ in 0..SWITCHES {
                    fiber_yield();
                }
            });
            for _ in 0..=SWITCHES {
                f.resume();
            }
            assert!(f.done());
        });
        secs / SWITCHES as f64 * 1e9
    });
    for (name, k) in [
        ("simnet.flow_churn_k1_ns", 1usize),
        ("simnet.flow_churn_k4_ns", 4),
        ("simnet.flow_churn_k32_ns", 32),
    ] {
        probe(name, "simnet", rec, &mut || {
            const CHURNS: usize = 20_000;
            let mut net = FlowNet::new();
            let shared = net.add_resource(1.0e10);
            let spec = |bytes: f64| FlowSpec {
                resources: vec![shared],
                cap: 1.0e10,
                bytes,
            };
            // k flows share the resource: k − 1 stay, one comes and goes.
            for _ in 1..k {
                net.add(spec(1.0e12));
            }
            let secs = median_secs(|| {
                for _ in 0..CHURNS {
                    let id = net.add(spec(1.0e6));
                    black_box(net.remove(id));
                    black_box(net.take_rate_changes());
                }
            });
            secs / CHURNS as f64 * 1e9
        });
    }
    probe("simnet.advance_event_ns", "simnet", rec, &mut || {
        // 1000 advances per rank up to 256 ranks; fewer per rank beyond
        // that, so the probe stays a fraction of a second at p = 4096.
        let advances = (256_000 / shapes.ranks).clamp(50, 1000);
        let cfg = SimConfig::natural(
            shapes.ranks,
            shapes.ppn,
            MachineProfile::stampede2_skylake(),
        )
        .with_verify(VerifyMode::Off)
        .with_fiber_stack(shapes.fiber_stack);
        let (secs, _) = sim_run(cfg, move |rc| {
            for _ in 0..advances {
                rc.advance(SimDur::from_nanos(100));
            }
        });
        secs / (shapes.ranks * advances) as f64 * 1e9
    });

    // ---- simmpi -------------------------------------------------------------
    let sim_cfg = |nranks: usize, ppn: usize| {
        SimConfig::natural(nranks, ppn, MachineProfile::stampede2_skylake())
            .with_verify(base.verify)
            .with_fiber_stack(shapes.fiber_stack)
    };
    probe("simmpi.spawn_us_per_rank", "simmpi", rec, &mut || {
        let secs = median_secs(|| {
            sim_run(sim_cfg(shapes.ranks, shapes.ppn), |_| ());
        });
        secs / shapes.ranks as f64 * 1e6
    });
    for (name, bytes) in [
        ("simmpi.p2p_eager_msg_us", 1usize << 10),
        ("simmpi.p2p_rndv_msg_us", 1 << 20),
    ] {
        probe(name, "simmpi", rec, &mut || {
            const MSGS: usize = 2000;
            let (secs, messages) = sim_run(sim_cfg(2, 1), move |rc| {
                let w = rc.world();
                for batch in 0..MSGS / 50 {
                    let tag = batch as u32;
                    if rc.rank() == 0 {
                        let reqs: Vec<_> = (0..50)
                            .map(|_| w.isend(1, tag, Payload::Phantom(bytes)))
                            .collect();
                        w.wait_all(&reqs);
                    } else {
                        let reqs: Vec<_> = (0..50).map(|_| w.irecv(0, tag)).collect();
                        black_box(w.wait_all_payloads(&reqs));
                    }
                }
            });
            secs / messages as f64 * 1e6
        });
    }
    let coll_bytes = shapes.chunk_bytes;
    probe("simmpi.coll_msg_us", "simmpi", rec, &mut || {
        let (secs, messages) = sim_run(sim_cfg(64, 1), move |rc| {
            for _ in 0..8 {
                black_box(rc.world().allreduce(Payload::Phantom(coll_bytes)));
            }
        });
        secs / messages as f64 * 1e6
    });
    probe("simmpi.icoll_msg_us", "simmpi", rec, &mut || {
        let (secs, messages) = sim_run(sim_cfg(64, 1), move |rc| {
            let comms = NDupComms::new(&rc.world(), N_DUP);
            for _ in 0..2 {
                let reqs: Vec<_> = comms
                    .iter()
                    .map(|(_, c)| c.iallreduce(Payload::Phantom(coll_bytes)))
                    .collect();
                black_box(comms.comm(0).wait_all_payloads(&reqs));
            }
        });
        secs / messages as f64 * 1e6
    });
    probe("simmpi.rma_op_us", "simmpi", rec, &mut || {
        const OPS: usize = 500;
        let (secs, _) = sim_run(sim_cfg(2, 1), move |rc| {
            rma_epoch(
                rc,
                OPS,
                Payload::Phantom(2 * OPS * RMA_BYTES),
                Payload::Phantom(RMA_BYTES),
            );
        });
        secs / (2 * OPS) as f64 * 1e6
    });
    let mut plans: Vec<Vec<CollPlan>> = Vec::new();
    probe("simmpi.plan_build_us", "simmpi", rec, &mut || {
        median_secs(|| {
            plans = shapes
                .plans
                .iter()
                .map(|&(kind, p, n)| build_all(kind, shapes.selector.select(kind, n, p), p, n, 0))
                .collect();
        }) * 1e6
    });

    // ---- verify ---------------------------------------------------------------
    let mut static_findings = 0usize;
    probe("verify.plan_lint_us", "verify", rec, &mut || {
        median_secs(|| {
            static_findings = plans.iter().map(|p| lint_plans(p).len()).sum();
        }) * 1e6
    });
    probe("verify.plan_mc_us", "verify", rec, &mut || {
        let narrow: Vec<Vec<CollPlan>> = shapes
            .plans
            .iter()
            .map(|&(kind, p, n)| {
                let p = p.min(MC_MAX_RANKS);
                build_all(kind, shapes.selector.select(kind, n, p), p, n, 0)
            })
            .collect();
        median_secs(|| {
            for p in &narrow {
                let report = model_check_single(p, &McConfig::default());
                static_findings += report.findings.len();
            }
        }) * 1e6
    });
    out.insert("verify.findings", static_findings as f64);
}

/// One fence epoch of `ops` puts and `ops` gets between two ranks, every
/// operation on its own byte range (overlapping writes in one epoch are a
/// conflict the verifier reports); returns the epoch's seconds on this
/// rank's clock.
fn rma_epoch<R: RankHandle>(rc: &R, ops: usize, window: Payload, chunk: Payload) -> f64 {
    let len = chunk.len();
    assert_eq!(
        window.len(),
        2 * ops * len,
        "window holds a put and a get range per op"
    );
    let win = rc.world().win_create(window);
    let peer = 1 - rc.rank();
    win.fence();
    let t0 = rc.now();
    for op in 0..ops {
        win.put(peer, op * len, chunk.clone());
        black_box(win.wait(&win.get(peer, (ops + op) * len, len)));
    }
    win.fence();
    let secs = (rc.now() - t0).as_secs_f64();
    win.free();
    secs
}
