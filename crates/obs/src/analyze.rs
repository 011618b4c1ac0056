//! Overlap-efficiency analysis: turn a run's network utilization integrals
//! into the numbers behind the paper's figures — how busy the NICs were,
//! and how much of that busy time actually overlapped two or more
//! transfers (the paper's central quantity). Everything derived from
//! *spans* — the critical path, per-rank blame — is [`crate::blame`]'s.

use serde::Serialize;

use ovcomm_simnet::{NetStats, SimTime};

/// Whole-run overlap-efficiency report.
#[derive(Debug, Clone, Serialize)]
pub struct OverlapReport {
    /// Run length in microseconds.
    pub makespan_us: f64,
    /// Mean over NIC resources of the fraction of the run each was busy.
    pub nic_busy_frac: f64,
    /// Fraction of NIC-busy time that carried ≥ 2 concurrent flows —
    /// the paper's "communications overlapped with other communications".
    pub nic_overlap2_frac: f64,
    /// Largest number of flows ever concurrent on any single NIC resource.
    pub nic_max_concurrent: u32,
    /// Flows that ran to completion.
    pub completed_flows: u64,
    /// Mean per-flow queueing delay (actual minus contention-free duration)
    /// in microseconds.
    pub mean_queue_delay_us: f64,
    /// Largest single-flow queueing delay in microseconds.
    pub max_queue_delay_us: f64,
}

/// Build an [`OverlapReport`] from a run's network accounting and makespan.
pub fn analyze(net: &NetStats, makespan: SimTime) -> OverlapReport {
    let makespan_secs = makespan.as_nanos() as f64 / 1e9;

    let mut nic_busy = 0.0;
    let mut nic_overlap2 = 0.0;
    let mut nic_count = 0usize;
    let mut nic_max_concurrent = 0u32;
    for entry in net.resources.iter().filter(|e| e.kind.is_nic()) {
        let s = entry.stats;
        nic_busy += s.busy_secs;
        nic_overlap2 += s.overlap2_secs;
        nic_count += 1;
        nic_max_concurrent = nic_max_concurrent.max(s.max_concurrent);
    }
    let nic_busy_frac = if nic_count > 0 && makespan_secs > 0.0 {
        (nic_busy / (nic_count as f64 * makespan_secs)).min(1.0)
    } else {
        0.0
    };
    let nic_overlap2_frac = if nic_busy > 0.0 {
        nic_overlap2 / nic_busy
    } else {
        0.0
    };

    OverlapReport {
        makespan_us: makespan.as_nanos() as f64 / 1_000.0,
        nic_busy_frac,
        nic_overlap2_frac,
        nic_max_concurrent,
        completed_flows: net.completed_flows,
        mean_queue_delay_us: if net.completed_flows > 0 {
            net.total_queue_delay_secs * 1e6 / net.completed_flows as f64
        } else {
            0.0
        },
        max_queue_delay_us: net.max_queue_delay_secs * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovcomm_simnet::{ResourceEntry, ResourceKind, ResourceStats};

    fn nic_entry(busy: f64, overlap2: f64, maxc: u32) -> ResourceEntry {
        ResourceEntry {
            kind: ResourceKind::NicTx(0),
            capacity: 1e9,
            stats: ResourceStats {
                busy_secs: busy,
                overlap2_secs: overlap2,
                bytes: 1.0,
                max_concurrent: maxc,
            },
        }
    }

    #[test]
    fn nic_fractions() {
        let net = NetStats {
            resources: vec![nic_entry(0.5, 0.25, 3)],
            completed_flows: 2,
            total_queue_delay_secs: 0.002,
            max_queue_delay_secs: 0.0015,
            ..NetStats::default()
        };
        // 1 second makespan.
        let r = analyze(&net, SimTime(1_000_000_000));
        assert!((r.nic_busy_frac - 0.5).abs() < 1e-12);
        assert!((r.nic_overlap2_frac - 0.5).abs() < 1e-12);
        assert_eq!(r.nic_max_concurrent, 3);
        assert!((r.mean_queue_delay_us - 1_000.0).abs() < 1e-9);
        assert!((r.max_queue_delay_us - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_produce_empty_report() {
        let r = analyze(&NetStats::default(), SimTime(0));
        assert_eq!(r.nic_busy_frac, 0.0);
        assert_eq!(r.nic_overlap2_frac, 0.0);
        assert_eq!(r.completed_flows, 0);
    }
}
