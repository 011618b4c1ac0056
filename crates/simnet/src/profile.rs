//! Machine profiles: every calibration constant of the simulated cluster.
//!
//! The default profile, [`MachineProfile::stampede2_skylake`], is fitted to
//! the absolute anchors the paper reports for the Stampede2 Skylake partition
//! (§V): ~12 000 MB/s peak unidirectional inter-node bandwidth, a single MPI
//! process unable to reach peak except at very large messages (Fig. 3),
//! blocking 8 MB broadcast ≈ 1392 μs vs. blocking 8 MB reduction ≈ 5746 μs on
//! 4 nodes (Fig. 6), nonblocking-post cost roughly equal to an internal
//! buffer copy (Ireduce post of 8 MB ≈ 1139 μs), and two local DGEMMs of the
//! 1hsg_70 system taking 0.01794 s on a node (§V-A, ≈1.56 TFlops/node).

use crate::time::SimDur;

/// All tunable constants describing one cluster's nodes, NICs and software
/// stack. Bandwidths are bytes/second.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    /// Human-readable profile name.
    pub name: &'static str,
    /// NIC capacity per direction (peak unidirectional bandwidth).
    pub nic_bw: f64,
    /// Asymptotic single-stream bandwidth for one in-flight message.
    pub stream_rmax: f64,
    /// Message size (bytes) at which a single stream reaches half of
    /// `stream_rmax`; models protocol pipelining inefficiency — the reason a
    /// single process per node cannot saturate the NIC (Fig. 3).
    pub stream_nhalf: f64,
    /// One-way network latency between nodes.
    pub alpha_inter: SimDur,
    /// One-way latency between processes on the same node (shared memory).
    pub alpha_intra: SimDur,
    /// Per-pair intra-node (shared-memory) stream bandwidth.
    pub shm_stream_bw: f64,
    /// Aggregate intra-node communication capacity (memory bandwidth share).
    pub node_mem_bw: f64,
    /// Bandwidth of internal library buffer copies; nonblocking posts of
    /// large operations are charged `post_base + n / copy_bw` (Fig. 6 shows
    /// posting an 8 MB `MPI_Ireduce` costs ≈ one buffer copy).
    pub copy_bw: f64,
    /// Fixed software cost of posting a nonblocking operation.
    pub post_base: SimDur,
    /// Fixed software cost of posting/initiating a blocking point-to-point.
    pub small_post: SimDur,
    /// Messages strictly below this size use the eager protocol: the sender
    /// buffers the message (a copy) and proceeds without waiting for the
    /// receiver. At or above, rendezvous synchronization applies.
    pub eager_limit: usize,
    /// Extra handshake delay for rendezvous-protocol messages.
    pub rendezvous_rtt: SimDur,
    /// Streaming rate of the local reduction kernel (one pass over two
    /// operand buffers producing one output), per reduction stream.
    pub gamma_reduce_bw: f64,
    /// How many concurrent reduction streams a single process can sustain
    /// (main thread + asynchronous progress), as a multiple of
    /// `gamma_reduce_bw`. Concurrent nonblocking collectives on one rank
    /// share this capacity — this is what keeps N_DUP pipelines from
    /// getting a free N_DUP× speedup on reduction compute.
    pub reduce_parallel: f64,
    /// Dense GEMM rate of a whole node when one process drives all cores.
    pub node_flops: f64,
    /// Per-collective-round software slack (progress-engine scheduling,
    /// request bookkeeping) added on top of message costs.
    pub coll_round_slack: SimDur,
    /// Polling period used by sleeping processes in the multiple-PPN
    /// mechanism (§III-B says 10 ms: `MPI_Test` + `usleep`).
    pub sleep_poll: SimDur,
}

impl MachineProfile {
    /// Profile calibrated against the paper's Stampede2 Skylake numbers.
    pub fn stampede2_skylake() -> MachineProfile {
        MachineProfile {
            name: "stampede2-skylake",
            nic_bw: 12.0e9,
            stream_rmax: 12.2e9,
            stream_nhalf: 192.0 * 1024.0,
            alpha_inter: SimDur::from_nanos(2_300),
            alpha_intra: SimDur::from_nanos(500),
            shm_stream_bw: 10.0e9,
            node_mem_bw: 80.0e9,
            copy_bw: 7.5e9,
            post_base: SimDur::from_nanos(2_000),
            small_post: SimDur::from_nanos(300),
            eager_limit: 64 * 1024,
            rendezvous_rtt: SimDur::from_nanos(4_600),
            gamma_reduce_bw: 1.6e9,
            reduce_parallel: 2.0,
            node_flops: 1.56e12,
            coll_round_slack: SimDur::from_nanos(1_500),
            sleep_poll: SimDur::from_millis(10),
        }
    }

    /// A commodity cluster: 10 GbE (1.25 GB/s), higher latency, slower
    /// intra-node path — the regime where communication overlap matters
    /// even more than on Omni-Path (used by the network ablation).
    pub fn commodity_10gbe() -> MachineProfile {
        MachineProfile {
            name: "commodity-10gbe",
            nic_bw: 1.25e9,
            stream_rmax: 1.28e9,
            stream_nhalf: 96.0 * 1024.0,
            alpha_inter: SimDur::from_micros(15),
            alpha_intra: SimDur::from_nanos(800),
            shm_stream_bw: 6.0e9,
            node_mem_bw: 40.0e9,
            copy_bw: 5.0e9,
            post_base: SimDur::from_micros(3),
            small_post: SimDur::from_nanos(500),
            eager_limit: 32 * 1024,
            rendezvous_rtt: SimDur::from_micros(30),
            gamma_reduce_bw: 1.6e9,
            reduce_parallel: 2.0,
            node_flops: 1.0e12,
            coll_round_slack: SimDur::from_micros(3),
            sleep_poll: SimDur::from_millis(10),
        }
    }

    /// A forward-looking fat-NIC system (HDR-class 25 GB/s effective, lower
    /// latency): the regime where a single stream is even further from
    /// saturating the NIC.
    pub fn fat_nic_hdr() -> MachineProfile {
        MachineProfile {
            name: "fat-nic-hdr",
            nic_bw: 25.0e9,
            stream_rmax: 26.0e9,
            stream_nhalf: 384.0 * 1024.0,
            alpha_inter: SimDur::from_nanos(1_300),
            alpha_intra: SimDur::from_nanos(400),
            shm_stream_bw: 14.0e9,
            node_mem_bw: 120.0e9,
            copy_bw: 12.0e9,
            post_base: SimDur::from_nanos(1_500),
            small_post: SimDur::from_nanos(250),
            eager_limit: 64 * 1024,
            rendezvous_rtt: SimDur::from_nanos(2_600),
            gamma_reduce_bw: 2.5e9,
            reduce_parallel: 2.0,
            node_flops: 3.0e12,
            coll_round_slack: SimDur::from_nanos(1_200),
            sleep_poll: SimDur::from_millis(10),
        }
    }

    /// A small, fast, latency-dominated profile for unit tests: round
    /// numbers, large eager limit, so tests reason about exact times easily.
    pub fn test_profile() -> MachineProfile {
        MachineProfile {
            name: "test",
            nic_bw: 1.0e9,
            stream_rmax: 1.0e9,
            stream_nhalf: 1.0, // effectively no single-stream penalty
            alpha_inter: SimDur::from_micros(1),
            alpha_intra: SimDur::from_nanos(100),
            shm_stream_bw: 1.0e9,
            node_mem_bw: 4.0e9,
            copy_bw: 1.0e9,
            post_base: SimDur::from_nanos(100),
            small_post: SimDur::from_nanos(50),
            eager_limit: 64 * 1024,
            rendezvous_rtt: SimDur::from_micros(2),
            gamma_reduce_bw: 1.0e9,
            reduce_parallel: 2.0,
            node_flops: 1.0e12,
            sleep_poll: SimDur::from_millis(10),
            coll_round_slack: SimDur::from_nanos(100),
        }
    }

    /// Single-stream bandwidth cap for a message of `n` bytes crossing the
    /// inter-node network: `rmax · n / (n + n_half)`, floored so tiny
    /// messages still make progress (their time is dominated by latency and
    /// posting costs anyway).
    pub fn stream_cap(&self, n: usize) -> f64 {
        let n = n as f64;
        let cap = self.stream_rmax * n / (n + self.stream_nhalf);
        cap.max(16.0e6)
    }

    /// Time to copy `n` bytes through an internal library buffer.
    pub fn copy_time(&self, n: usize) -> SimDur {
        SimDur::from_secs_f64(n as f64 / self.copy_bw)
    }

    /// Dense GEMM rate (flop/s) of one process when `ppn` processes share a
    /// node and local blocks are `block_dim`² — the node's cores are divided
    /// among processes, with a mild efficiency loss for small blocks and a
    /// mild overhead for very high process counts.
    pub fn process_flops(&self, ppn: usize, block_dim: usize) -> f64 {
        assert!(ppn >= 1, "ppn must be at least 1");
        let block_eff = {
            let d = block_dim as f64;
            (d / (d + 48.0)).clamp(0.05, 1.0)
        };
        let ppn_eff = match ppn {
            1 => 1.0,
            2..=6 => 0.99,
            _ => 0.96,
        };
        self.node_flops / ppn as f64 * block_eff * ppn_eff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_cap_rises_with_size() {
        let p = MachineProfile::stampede2_skylake();
        let small = p.stream_cap(16 * 1024);
        let mid = p.stream_cap(1024 * 1024);
        let large = p.stream_cap(16 * 1024 * 1024);
        assert!(small < mid && mid < large);
        // A single 16 MB stream should be able to approach the NIC peak
        // ("except for very large message sizes, the peak available
        // bandwidth cannot be attained by a single process", §V-A).
        assert!(large > 0.95 * p.nic_bw, "large cap {large}");
        // ...but a 64 KB stream must be far from peak.
        assert!(p.stream_cap(64 * 1024) < 0.4 * p.nic_bw);
    }

    #[test]
    fn stream_cap_has_floor() {
        let p = MachineProfile::stampede2_skylake();
        assert!(p.stream_cap(1) >= 16.0e6);
    }

    #[test]
    fn copy_and_reduce_times_scale_linearly() {
        let p = MachineProfile::stampede2_skylake();
        let one = p.copy_time(1 << 20).as_nanos();
        let two = p.copy_time(2 << 20).as_nanos();
        assert!((two as i64 - 2 * one as i64).unsigned_abs() <= 2);
        // 8 MB copy at 7.5 GB/s ≈ 1118 us — the paper's Ireduce post anchor.
        let post = p.copy_time(8 * 1024 * 1024).as_micros_f64();
        assert!((post - 1118.0).abs() < 5.0, "8MB copy {post}us");
    }

    #[test]
    fn node_flops_anchor() {
        // §V-A: two local multiplications of 1912^2 blocks take 0.01794 s,
        // i.e. 2·(2·1912³) flops in that time ≈ 1.56 TFlops.
        let p = MachineProfile::stampede2_skylake();
        let flops = 2.0 * 2.0 * 1912.0_f64.powi(3);
        let t = flops / p.process_flops(1, 1912);
        assert!((t - 0.01794).abs() < 0.002, "two-gemm time {t}");
    }

    #[test]
    fn process_flops_divides_among_ppn() {
        let p = MachineProfile::stampede2_skylake();
        let one = p.process_flops(1, 2000);
        let four = p.process_flops(4, 2000);
        assert!(four < one);
        // Aggregate across 4 processes stays within a few percent of 1 PPN.
        assert!((4.0 * four / one - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "ppn must be at least 1")]
    fn zero_ppn_rejected() {
        MachineProfile::stampede2_skylake().process_flops(0, 100);
    }

    #[test]
    fn alternative_profiles_are_internally_consistent() {
        for p in [
            MachineProfile::commodity_10gbe(),
            MachineProfile::fat_nic_hdr(),
            MachineProfile::stampede2_skylake(),
        ] {
            // Stream cap never exceeds its own asymptote and approaches it
            // for huge messages.
            assert!(p.stream_cap(1 << 30) <= p.stream_rmax);
            assert!(p.stream_cap(1 << 30) > 0.9 * p.stream_rmax, "{}", p.name);
            // Eager limit below the rendezvous-worthy sizes.
            assert!(p.eager_limit >= 4 * 1024 && p.eager_limit <= 1 << 20);
            // Copying is slower than the NIC only on the slow profile.
            assert!(p.copy_bw > 0.0 && p.gamma_reduce_bw > 0.0);
        }
        // Ordering across generations.
        let slow = MachineProfile::commodity_10gbe();
        let mid = MachineProfile::stampede2_skylake();
        let fast = MachineProfile::fat_nic_hdr();
        assert!(slow.nic_bw < mid.nic_bw && mid.nic_bw < fast.nic_bw);
        assert!(slow.alpha_inter > mid.alpha_inter);
        assert!(mid.alpha_inter > fast.alpha_inter);
    }
}
