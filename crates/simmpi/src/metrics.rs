//! Pre-registered metric families fed by the MPI layer.
//!
//! Every per-rank metric is one family, registered up front: one slab of
//! atomics indexed by rank (× operation kind). The hot path — every send,
//! post, wait — is one relaxed atomic per cell, never the registry lock,
//! and no key is formatted until a snapshot renders them.
//! Virtual-time durations go into histograms in nanoseconds; byte counts
//! and call counts into counters. OS-scheduling-dependent quantities (the
//! rt backend's posted-collective occupancy) are *gauges* so that
//! deterministic and nondeterministic metrics never share a metric class:
//! counters and histograms are bit-reproducible across runs, gauges are
//! diagnostics.

use std::sync::Arc;

use ovcomm_obs::{CounterFamily, Gauge, HistogramFamily, MetricsRegistry, MetricsSnapshot};

/// Operation kinds metrics are labeled with. Variant names mirror the MPI
/// calls they count.
///
/// Exposed (hidden) for the `ovcomm-rt` wall-clock backend, which labels
/// its metrics identically so sim-vs-rt comparisons join on the same keys.
#[doc(hidden)]
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Isend,
    Irecv,
    Send,
    Recv,
    Bcast,
    Reduce,
    Allreduce,
    Barrier,
    Scatter,
    Gather,
    Allgather,
    Ibcast,
    Ireduce,
    Iallreduce,
    Ibarrier,
}

/// Number of [`OpKind`] variants.
const N_OPS: usize = 15;

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Isend => "isend",
            OpKind::Irecv => "irecv",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
            OpKind::Bcast => "bcast",
            OpKind::Reduce => "reduce",
            OpKind::Allreduce => "allreduce",
            OpKind::Barrier => "barrier",
            OpKind::Scatter => "scatter",
            OpKind::Gather => "gather",
            OpKind::Allgather => "allgather",
            OpKind::Ibcast => "ibcast",
            OpKind::Ireduce => "ireduce",
            OpKind::Iallreduce => "iallreduce",
            OpKind::Ibarrier => "ibarrier",
        }
    }

    fn all() -> [OpKind; N_OPS] {
        [
            OpKind::Isend,
            OpKind::Irecv,
            OpKind::Send,
            OpKind::Recv,
            OpKind::Bcast,
            OpKind::Reduce,
            OpKind::Allreduce,
            OpKind::Barrier,
            OpKind::Scatter,
            OpKind::Gather,
            OpKind::Allgather,
            OpKind::Ibcast,
            OpKind::Ireduce,
            OpKind::Iallreduce,
            OpKind::Ibarrier,
        ]
    }
}

/// All metric handles for one run.
///
/// Exposed (hidden) for the `ovcomm-rt` wall-clock backend: both backends
/// feed the same registry shape (`simmpi.*` metric names), so downstream
/// analysis joins records without backend-specific cases.
#[doc(hidden)]
pub struct SimMetrics {
    registry: MetricsRegistry,
    /// `simmpi.calls` and `simmpi.bytes_posted`, row `rank × N_OPS + op`.
    calls: CounterFamily,
    bytes: CounterFamily,
    /// `simmpi.tests`, `simmpi.post_ns`, `simmpi.wait_ns` and
    /// `simmpi.blocking_ns`, row `rank`.
    tests: CounterFamily,
    post_ns: HistogramFamily,
    wait_ns: HistogramFamily,
    blocking_ns: HistogramFamily,
    /// Nonblocking collectives posted and not yet finished: op fibers on
    /// sim, runs in their rank's posted list on rt.
    pub pool_occupancy: Gauge,
}

impl SimMetrics {
    /// Register the per-rank families of an `nranks`-rank run.
    pub fn new(nranks: usize) -> SimMetrics {
        let registry = MetricsRegistry::new();
        let ranks: Arc<[String]> = (0..nranks).map(|r| r.to_string()).collect();
        let ops: Arc<[String]> = OpKind::all()
            .iter()
            .map(|op| op.name().to_string())
            .collect();
        let by_op = [("rank", ranks.clone()), ("op", ops)];
        let by_rank = [("rank", ranks)];
        SimMetrics {
            calls: registry.counter_family("simmpi.calls", &by_op),
            bytes: registry.counter_family("simmpi.bytes_posted", &by_op),
            tests: registry.counter_family("simmpi.tests", &by_rank),
            post_ns: registry.histogram_family("simmpi.post_ns", &by_rank),
            wait_ns: registry.histogram_family("simmpi.wait_ns", &by_rank),
            blocking_ns: registry.histogram_family("simmpi.blocking_ns", &by_rank),
            pool_occupancy: registry.gauge("simmpi.pool_occupancy", &[]),
            registry,
        }
    }

    /// Record a posted operation: one call of `kind` moving `bytes` payload
    /// bytes.
    pub fn op(&self, rank: u32, kind: OpKind, bytes: usize) {
        let row = rank as usize * N_OPS + kind as usize;
        self.calls.add(row, 1);
        self.bytes.add(row, bytes as u64);
    }

    /// Record the virtual time a nonblocking post took.
    pub fn post_duration(&self, rank: u32, ns: u64) {
        self.post_ns.record(rank as usize, ns);
    }

    /// Record the virtual time a wait blocked for.
    pub fn wait_duration(&self, rank: u32, ns: u64) {
        self.wait_ns.record(rank as usize, ns);
    }

    /// Record the virtual time spent inside a blocking call.
    pub fn blocking_duration(&self, rank: u32, ns: u64) {
        self.blocking_ns.record(rank as usize, ns);
    }

    /// Count an `MPI_Test` probe.
    pub fn test_probe(&self, rank: u32) {
        self.tests.add(rank as usize, 1);
    }

    /// Record the number of trace spans clamped on insertion (end before
    /// start) in the `trace.spans_clamped` counter, so instrumentation bugs
    /// surface in metrics output instead of staying buried in the trace.
    /// Registers on demand — called once per run, after the trace settles.
    pub fn spans_clamped(&self, n: u64) {
        if n > 0 {
            self.registry.counter("trace.spans_clamped", &[]).add(n);
        }
    }

    /// The underlying registry. Exposed (hidden) so the `ovcomm-rt` backend
    /// can register its wall-clock-only metrics (`rt.*`) into the same
    /// registry its `simmpi.*` families feed.
    #[doc(hidden)]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Count a communicator duplication, labeled by rank and parent context
    /// (registers on demand — `dup` is cold).
    pub fn comm_dup(&self, rank: u32, parent_ctx: u32) {
        self.registry
            .counter(
                "simmpi.comm_dup",
                &[("rank", rank.to_string()), ("ctx", parent_ctx.to_string())],
            )
            .inc();
    }

    /// Snapshot the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rank_handles_land_in_labeled_metrics() {
        let m = SimMetrics::new(2);
        m.op(1, OpKind::Ibcast, 4096);
        m.op(1, OpKind::Ibcast, 4096);
        m.wait_duration(0, 1_500);
        m.comm_dup(0, 0);
        let snap = m.snapshot();
        assert_eq!(snap.counters["simmpi.calls{op=ibcast,rank=1}"], 2);
        assert_eq!(snap.counters["simmpi.bytes_posted{op=ibcast,rank=1}"], 8192);
        assert_eq!(snap.counters["simmpi.comm_dup{ctx=0,rank=0}"], 1);
        assert_eq!(snap.histograms["simmpi.wait_ns{rank=0}"].count, 1);
        // Untouched rows of a family still render, at zero.
        assert_eq!(snap.counters["simmpi.calls{op=send,rank=0}"], 0);
    }
}
