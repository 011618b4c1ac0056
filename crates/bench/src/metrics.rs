//! The structured metrics block attached to every JSON record the harness
//! emits: overlap efficiency, NIC utilization and wait-time share of the
//! run each record was measured from — tagged with the backend (simulated
//! virtual time vs. rt wall clock) that produced it.

use ovcomm_obs::{analyze, MetricsSnapshot};
use ovcomm_simmpi::RunOutput;
use ovcomm_simnet::{SimTime, SpanKind, TraceSpan};
use serde::Serialize;

/// Headline observability figures of one run (simulated or real).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsBlock {
    /// Which backend produced this record: `"sim"` (virtual time, flow
    /// model) or `"rt"` (OS threads, wall clock).
    pub backend: &'static str,
    /// Fraction of communication-busy time carrying ≥ 2 concurrent
    /// transfers — how much of the communication was overlapped with other
    /// communication. On sim this is NIC-flow concurrency; on rt it is
    /// span concurrency across ranks (no flow model exists for real runs).
    pub overlap_efficiency: f64,
    /// Mean NIC busy fraction over the run.
    pub nic_busy_frac: f64,
    /// Share of total rank-time blocked in waits and blocking calls.
    pub wait_time_share: f64,
    /// Flows that ran to completion.
    pub completed_flows: u64,
    /// Mean per-flow queueing delay in microseconds.
    pub mean_queue_delay_us: f64,
    /// Spans clamped for `end < start` — non-zero flags an
    /// instrumentation bug.
    pub clamped_spans: u64,
}

/// Share of total rank-time (`makespan × nranks`) spent blocked, from the
/// `simmpi.wait_ns` / `simmpi.blocking_ns` histograms both backends record.
fn wait_time_share(metrics: &MetricsSnapshot, makespan: SimTime, nranks: usize) -> f64 {
    let blocked_ns: u64 = metrics
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("simmpi.wait_ns") || k.starts_with("simmpi.blocking_ns"))
        .map(|(_, h)| h.sum)
        .sum();
    let total_ns = makespan.as_nanos() as f64 * nranks.max(1) as f64;
    if total_ns > 0.0 {
        (blocked_ns as f64 / total_ns).min(1.0)
    } else {
        0.0
    }
}

/// Build the metrics block from a finished run on either backend. Works
/// with or without tracing: the wait share comes from the always-on
/// `simmpi.wait_ns` / `simmpi.blocking_ns` histograms both backends record.
/// Where the run has a flow model (`out.net`, the simulator) the NIC figures
/// come from its always-on network accounting; where it has none (rt) they
/// are replaced by their span-based analogues: busy = some rank inside a
/// communication call, overlapped = ≥ 2 ranks concurrently communicating.
pub fn metrics_block<T>(out: &RunOutput<T>) -> MetricsBlock {
    let spans = out.trace.as_ref().map_or(&[][..], |t| t.spans());
    let (overlap_efficiency, nic_busy_frac, completed_flows, mean_queue_delay_us) = match &out.net {
        Some(net) => {
            let report = analyze(net, out.makespan);
            (
                report.nic_overlap2_frac,
                report.nic_busy_frac,
                report.completed_flows,
                report.mean_queue_delay_us,
            )
        }
        None => {
            let (busy_frac, over2_frac) = span_concurrency(spans, out.makespan);
            // No flow model on real threads: count delivered messages.
            (over2_frac, busy_frac, out.messages, 0.0)
        }
    };
    MetricsBlock {
        backend: out.backend,
        overlap_efficiency,
        nic_busy_frac,
        wait_time_share: wait_time_share(&out.metrics, out.makespan, out.results.len()),
        completed_flows,
        mean_queue_delay_us,
        clamped_spans: out.clamped_spans as u64,
    }
}

/// Sweep-line concurrency over communication spans: returns
/// (busy fraction, overlapped-given-busy fraction) of the makespan during
/// which ≥ 1 / ≥ 2 communication spans were active across all ranks.
fn span_concurrency(spans: &[TraceSpan], makespan: SimTime) -> (f64, f64) {
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for s in spans {
        let comm = matches!(
            s.kind,
            SpanKind::BlockingCall | SpanKind::Wait | SpanKind::CollStep
        );
        if comm && s.end > s.start {
            edges.push((s.start.as_nanos(), 1));
            edges.push((s.end.as_nanos(), -1));
        }
    }
    edges.sort_unstable();
    let (mut depth, mut last, mut busy, mut over2) = (0i64, 0u64, 0u64, 0u64);
    for (t, d) in edges {
        if depth >= 1 {
            busy += t - last;
        }
        if depth >= 2 {
            over2 += t - last;
        }
        depth += d;
        last = t;
    }
    let total = makespan.as_nanos().max(1) as f64;
    let busy_frac = busy as f64 / total;
    let over2_frac = if busy > 0 {
        over2 as f64 / busy as f64
    } else {
        0.0
    };
    (busy_frac, over2_frac)
}

/// Which runtime a generator should execute on (`--backend`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Virtual-time simulator (the default; modeled times).
    Sim,
    /// Real shared-memory runtime (OS threads; measured wall-clock times).
    Rt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
    use ovcomm_simnet::MachineProfile;

    #[test]
    fn metrics_block_reflects_communication() {
        let out = run(
            SimConfig::natural(4, 1, MachineProfile::test_profile()),
            |rc: RankCtx| {
                let w = rc.world();
                let data = (rc.rank() == 0).then_some(Payload::Phantom(1 << 20));
                let _ = w.bcast(0, data, 1 << 20);
            },
        )
        .unwrap();
        let m = metrics_block(&out);
        assert_eq!(m.backend, "sim");
        assert!(m.nic_busy_frac > 0.0, "bcast must use the NICs");
        assert!(m.wait_time_share > 0.0, "non-roots block in bcast");
        assert!(m.wait_time_share <= 1.0);
        assert!(m.completed_flows > 0);
        assert_eq!(m.clamped_spans, 0);
    }

    #[test]
    fn metrics_block_reflects_real_communication_on_rt() {
        let out = ovcomm_rt::run(
            ovcomm_rt::RtConfig::natural(4, 1, MachineProfile::test_profile()).with_trace(),
            |rc: ovcomm_rt::RtRankCtx| {
                let w = rc.world();
                let data = (rc.rank() == 0).then_some(Payload::Phantom(1 << 16));
                let _ = w.bcast(0, data, 1 << 16);
            },
        )
        .unwrap();
        let m = metrics_block(&out);
        assert_eq!(m.backend, "rt");
        assert!(m.nic_busy_frac > 0.0, "bcast spans must register as busy");
        assert!(m.completed_flows > 0, "bcast moves messages");
        assert_eq!(m.clamped_spans, 0);
    }
}
