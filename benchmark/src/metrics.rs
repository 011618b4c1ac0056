//! The benchmark's metric tables. `BENCHMARK.json` at the repository root
//! declares the same names, units, directions and bounds; a unit test
//! below fails when the two drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "msgs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// `(name, unit, better)` of every per-layer metric of the traced run. A
/// value of 0 on a workload means the metric does not apply there (rt
/// shares on a simulator workload, model results on an rt workload).
pub const PER_LAYER: [(&str, &str, Better); 56] = {
    use Better::{Higher, Lower};
    [
        ("densemat.gemm_gflops", "GFlop/s", Higher),
        ("densemat.gemm_share", "frac", Lower),
        ("payload.reduce_gbps", "GB/s", Higher),
        ("payload.concat_gbps", "GB/s", Higher),
        ("payload.f64_roundtrip_gbps", "GB/s", Higher),
        ("payload.memcpy_gbps", "GB/s", Higher),
        ("rt.spawn_us", "us", Lower),
        ("rt.p2p_rtt_us", "us", Lower),
        ("rt.p2p_gbps", "GB/s", Higher),
        ("rt.mailbox_match_ns", "ns", Lower),
        ("rt.spsc_ns", "ns", Lower),
        ("rt.mpsc_ns", "ns", Lower),
        ("rt.icoll_ops_per_s", "1/s", Higher),
        ("rt.rma_op_us", "us", Lower),
        ("rt.wait_spin_frac", "frac", Lower),
        ("rt.wait_park_frac", "frac", Lower),
        ("rt.rendezvous_stall_frac", "frac", Lower),
        ("rt.strict_overhead_frac", "frac", Lower),
        ("rt.sampler_overhead_frac", "frac", Lower),
        ("rt.speedup_vs_serial", "x", Higher),
        ("simnet.fiber_create_us", "us", Lower),
        ("simnet.fiber_switch_ns", "ns", Lower),
        ("simnet.flow_churn_k1_ns", "ns", Lower),
        ("simnet.flow_churn_k4_ns", "ns", Lower),
        ("simnet.flow_churn_k32_ns", "ns", Lower),
        ("simnet.advance_event_ns", "ns", Lower),
        ("simmpi.spawn_us_per_rank", "us", Lower),
        ("simmpi.p2p_eager_msg_us", "us", Lower),
        ("simmpi.p2p_rndv_msg_us", "us", Lower),
        ("simmpi.coll_msg_us", "us", Lower),
        ("simmpi.icoll_msg_us", "us", Lower),
        ("simmpi.rma_op_us", "us", Lower),
        ("simmpi.plan_build_us", "us", Lower),
        ("verify.strict_overhead_frac", "frac", Lower),
        ("verify.plan_lint_us", "us", Lower),
        ("verify.plan_mc_us", "us", Lower),
        ("verify.findings", "count", Lower),
        ("obs.trace_overhead_frac", "frac", Lower),
        ("obs.trace_spans", "count", Lower),
        ("obs.metrics_block_ms", "ms", Lower),
        ("obs.profile_block_ms", "ms", Lower),
        ("obs.perfetto_export_ms", "ms", Lower),
        ("model.virtual_s", "s", Lower),
        ("model.tflops", "TFlop/s", Higher),
        ("model.overlap_efficiency", "frac", Higher),
        ("model.ndup_gain", "x", Higher),
        ("process.user_s", "s", Lower),
        ("process.sys_s", "s", Lower),
        ("process.minor_faults", "count", Lower),
        ("process.invol_ctx", "count", Lower),
        ("process.cold_rep_s", "s", Lower),
        ("rep.samples", "count", Higher),
        ("rep.wall_hi_s", "s", Lower),
        ("rep.wall_hi_pct", "%", Higher),
        ("rep.iqr_frac", "frac", Lower),
        ("harness.trace_overhead_frac", "frac", Lower),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde_json::Value;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn rows<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
        v.get(key).and_then(Value::as_array).expect(key)
    }

    fn text<'a>(row: &'a Value, key: &str) -> &'a str {
        row.get(key).and_then(Value::as_str).expect(key)
    }

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let decl = declared();
        assert_eq!(
            decl.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );

        let workloads = rows(&decl, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "why"), why);
        }

        let e2e = rows(&decl, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), direction(m.better));
            assert_eq!(row.get("bound").and_then(Value::as_f64), Some(m.bound));
        }

        let layers = rows(&decl, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(row, "name"), name);
            assert_eq!(text(row, "unit"), unit);
            assert_eq!(text(row, "better"), direction(better));
        }
    }
}
