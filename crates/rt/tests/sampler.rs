//! Live-telemetry sampler tests: the background sampler must see runtime
//! load under contention, and its cost must stay negligible relative to
//! the run it observes.

use std::time::Duration;

use ovcomm_rt::{run, RtConfig, RtRankCtx};
use ovcomm_simmpi::Payload;
use ovcomm_simnet::MachineProfile;

/// A held-up receive: rank 0 sleeps before sending, so rank 1 is parked
/// in its wait for ~20ms while a fast sampler (500µs) takes dozens of
/// snapshots. The queue-depth histograms must be non-empty, the
/// blocked-ranks histogram must have caught the parked rank, and the pool
/// has one occupancy series — none per shard.
#[test]
fn sampler_records_load_under_contention() {
    let out = run(
        RtConfig::natural(2, 1, MachineProfile::test_profile())
            .with_sample_interval(Duration::from_micros(500)),
        |rc: RtRankCtx| {
            let w = rc.world();
            if rc.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                w.send(1, 0, Payload::Phantom(64));
            } else {
                let _ = w.recv(0, 0);
            }
        },
    )
    .expect("sampled run");
    let samples = out.metrics.counters.get("rt.sampler.samples").copied();
    assert!(
        samples.is_some_and(|n| n >= 5),
        "sampler took too few snapshots over a 20ms stall: {samples:?}"
    );
    for key in [
        "rt.sampler.pool_queue_depth",
        "rt.sampler.mailbox_slots",
        "rt.sampler.posted_recvs",
        "rt.sampler.blocked_ranks",
    ] {
        let h = out
            .metrics
            .histograms
            .get(key)
            .unwrap_or_else(|| panic!("{key} missing from snapshot"));
        assert!(h.count > 0, "{key} histogram is empty");
    }
    let blocked = &out.metrics.histograms["rt.sampler.blocked_ranks"];
    assert!(
        blocked.max >= 1,
        "a 20ms-parked rank never showed up in blocked_ranks (max {})",
        blocked.max
    );
    assert!(
        out.metrics
            .histograms
            .keys()
            .all(|k| !k.starts_with("rt.sampler.shard")),
        "a per-shard series survived the one-pool engine"
    );
}

/// No sampler configured: the run records no sampler metrics at all.
#[test]
fn without_sampler_records_nothing() {
    let out = run(
        RtConfig::natural(2, 1, MachineProfile::test_profile()).without_sampler(),
        |rc: RtRankCtx| {
            let w = rc.world();
            if rc.rank() == 0 {
                w.send(1, 0, Payload::Phantom(64));
            } else {
                let _ = w.recv(0, 0);
            }
        },
    )
    .expect("unsampled run");
    assert!(!out.metrics.counters.contains_key("rt.sampler.samples"));
    assert!(out
        .metrics
        .histograms
        .keys()
        .all(|k| !k.starts_with("rt.sampler.")));
}

fn pingpong_seconds(cfg: RtConfig) -> f64 {
    let out = run(cfg, |rc: RtRankCtx| {
        let w = rc.world();
        for _ in 0..200 {
            if rc.rank() == 0 {
                w.send(1, 0, Payload::Phantom(1024));
                let _ = w.recv(1, 1);
            } else {
                let _ = w.recv(0, 0);
                w.send(0, 1, Payload::Phantom(1024));
            }
        }
    })
    .expect("pingpong run");
    out.makespan.as_secs_f64()
}

/// Overhead bound: sampling at 250µs must not meaningfully slow a
/// message-heavy run. The bound is deliberately generous (3× + 50ms) —
/// it catches a sampler that serializes the hot path, not scheduler
/// noise on a shared machine.
#[test]
fn rt_sampler_overhead() {
    let profile = MachineProfile::test_profile();
    let off = pingpong_seconds(RtConfig::natural(2, 1, profile.clone()).without_sampler());
    let on = pingpong_seconds(
        RtConfig::natural(2, 1, profile).with_sample_interval(Duration::from_micros(250)),
    );
    assert!(
        on <= 3.0 * off + 0.050,
        "sampler overhead out of bounds: {on}s sampled vs {off}s unsampled"
    );
}
