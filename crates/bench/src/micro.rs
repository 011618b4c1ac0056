//! Micro-benchmarks: point-to-point bandwidth (Fig. 3) and collective
//! bandwidth under the three overlap cases (Figs. 4–5).

// Benchmark drivers fail loudly by design: `expect`/`unwrap` here surface
// simulator errors (including Strict-mode verification findings) directly
// as harness panics rather than recoverable results.
#![allow(clippy::expect_used, clippy::unwrap_used)]
use ovcomm_core::{overlapped_bcast, overlapped_reduce, NDupComms};
use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
use ovcomm_simnet::{MachineProfile, NodeMap};

use crate::metrics::{metrics_block, MetricsBlock};

/// Unidirectional point-to-point bandwidth between two nodes with `ppn`
/// sender/receiver pairs, each moving `msg` bytes. All sources live on node
/// 0, all destinations on node 1 (the paper's Fig. 3 setup). Returns the
/// aggregate bandwidth in bytes/second.
pub fn p2p_bandwidth(profile: &MachineProfile, ppn: usize, msg: usize) -> f64 {
    p2p_bandwidth_metrics(profile, ppn, msg).0
}

/// [`p2p_bandwidth`] plus the run's observability block.
pub fn p2p_bandwidth_metrics(
    profile: &MachineProfile,
    ppn: usize,
    msg: usize,
) -> (f64, MetricsBlock) {
    let nranks = 2 * ppn;
    let node_of: Vec<usize> = (0..nranks).map(|r| usize::from(r >= ppn)).collect();
    let cfg = SimConfig::with_map(NodeMap::custom(node_of), profile.clone());
    let out = run(cfg, move |rc: RankCtx| {
        let w = rc.world();
        let me = rc.rank();
        if me < ppn {
            w.send(ppn + me, 0, Payload::Phantom(msg));
        } else {
            let _ = w.recv(me - ppn, 0);
        }
    })
    .expect("p2p micro-benchmark");
    let bw = (ppn * msg) as f64 / out.makespan.as_secs_f64();
    (bw, metrics_block(&out))
}

/// Which collective the micro-benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Broadcast from rank 0.
    Bcast,
    /// Sum-reduction to rank 0.
    Reduce,
}

/// How the collective is (or is not) overlapped — the three cases of §V-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollCase {
    /// One blocking collective, one process per node.
    Blocking,
    /// Nonblocking overlap: one process per node, N_DUP communicators each
    /// carrying 1/N_DUP of the message.
    NonblockingOverlap(usize),
    /// Multiple-PPN overlap: `ppn` processes per node, each in a column
    /// communicator (one rank per node) running a blocking collective of
    /// 1/ppn of the message (the paper's Fig. 4 configuration).
    PpnOverlap(usize),
}

/// Effective collective bandwidth over `nodes` nodes for an `msg`-byte
/// operation, normalized by the algorithmic volume `2(p−1)·n/p` as in the
/// paper's Fig. 5. Returns bytes/second.
pub fn coll_bandwidth(
    profile: &MachineProfile,
    kind: CollKind,
    case: CollCase,
    nodes: usize,
    msg: usize,
) -> f64 {
    coll_bandwidth_metrics(profile, kind, case, nodes, msg).0
}

/// [`coll_bandwidth`] plus the run's observability block.
pub fn coll_bandwidth_metrics(
    profile: &MachineProfile,
    kind: CollKind,
    case: CollCase,
    nodes: usize,
    msg: usize,
) -> (f64, MetricsBlock) {
    let (time, metrics) = coll_run(profile, kind, case, nodes, msg);
    let p = nodes as f64;
    let volume = 2.0 * (p - 1.0) * msg as f64 / p;
    (volume / time, metrics)
}

fn coll_run(
    profile: &MachineProfile,
    kind: CollKind,
    case: CollCase,
    nodes: usize,
    msg: usize,
) -> (f64, MetricsBlock) {
    let out = match case {
        CollCase::Blocking => {
            let cfg = SimConfig::natural(nodes, 1, profile.clone());
            run(cfg, move |rc: RankCtx| {
                let w = rc.world();
                match kind {
                    CollKind::Bcast => {
                        let data = (rc.rank() == 0).then_some(Payload::Phantom(msg));
                        let _ = w.bcast(0, data, msg);
                    }
                    CollKind::Reduce => {
                        let _ = w.reduce(0, Payload::Phantom(msg));
                    }
                }
            })
            .expect("blocking collective micro-benchmark")
        }
        CollCase::NonblockingOverlap(n_dup) => {
            let cfg = SimConfig::natural(nodes, 1, profile.clone());
            run(cfg, move |rc: RankCtx| {
                let w = rc.world();
                let comms = NDupComms::new(&w, n_dup);
                match kind {
                    CollKind::Bcast => {
                        let data = (rc.rank() == 0).then_some(Payload::Phantom(msg));
                        let _ = overlapped_bcast(&comms, 0, data.as_ref(), msg);
                    }
                    CollKind::Reduce => {
                        let contrib = Payload::Phantom(msg);
                        let _ = overlapped_reduce(&comms, 0, &contrib);
                    }
                }
            })
            .expect("nonblocking-overlap micro-benchmark")
        }
        CollCase::PpnOverlap(ppn) => {
            // `nodes` nodes × ppn ranks; column communicator j contains the
            // ranks with local index j (one per node); each column runs a
            // blocking collective of msg/ppn bytes. Same inter-node volume
            // as the other cases (Fig. 4).
            let nranks = nodes * ppn;
            let part = msg / ppn;
            let cfg = SimConfig::natural(nranks, ppn, profile.clone());
            run(cfg, move |rc: RankCtx| {
                let w = rc.world();
                let local = rc.rank() % ppn;
                let node = rc.rank() / ppn;
                let col = w
                    .split(local as i64, node as u64)
                    .expect("column communicator");
                match kind {
                    CollKind::Bcast => {
                        let data = (node == 0).then_some(Payload::Phantom(part));
                        let _ = col.bcast(0, data, part);
                    }
                    CollKind::Reduce => {
                        let _ = col.reduce(0, Payload::Phantom(part));
                    }
                }
            })
            .expect("ppn-overlap micro-benchmark")
        }
    };
    (out.makespan.as_secs_f64(), metrics_block(&out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_bandwidth_grows_with_ppn_at_moderate_sizes() {
        let p = MachineProfile::stampede2_skylake();
        let one = p2p_bandwidth(&p, 1, 256 * 1024);
        let four = p2p_bandwidth(&p, 4, 256 * 1024);
        assert!(four > 1.5 * one, "ppn4 {four} vs ppn1 {one}");
        assert!(four <= p.nic_bw * 1.01);
    }

    #[test]
    fn p2p_single_stream_approaches_peak_only_when_large() {
        let p = MachineProfile::stampede2_skylake();
        let small = p2p_bandwidth(&p, 1, 64 * 1024);
        let large = p2p_bandwidth(&p, 1, 16 << 20);
        assert!(small < 0.4 * p.nic_bw);
        assert!(large > 0.9 * p.nic_bw);
    }

    #[test]
    fn overlap_cases_beat_blocking_at_8mb() {
        let p = MachineProfile::stampede2_skylake();
        for kind in [CollKind::Bcast, CollKind::Reduce] {
            let blocking = coll_bandwidth(&p, kind, CollCase::Blocking, 4, 8 << 20);
            let ndup = coll_bandwidth(&p, kind, CollCase::NonblockingOverlap(4), 4, 8 << 20);
            let ppn = coll_bandwidth(&p, kind, CollCase::PpnOverlap(4), 4, 8 << 20);
            assert!(
                ndup > blocking,
                "{kind:?}: ndup {ndup} vs blocking {blocking}"
            );
            assert!(ppn > blocking, "{kind:?}: ppn {ppn} vs blocking {blocking}");
        }
    }
}
