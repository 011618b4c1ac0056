//! End-to-end acceptance tests for the observability stack: determinism of
//! the metrics/trace pipeline, the N_DUP overlap signal the paper's
//! technique is built on, and `--trace-out` Perfetto export.

use ovcomm_bench::metrics_block;
use ovcomm_densemat::{BlockBuf, BlockGrid};
use ovcomm_kernels::{symm_square_cube_optimized, Mesh3D, SymmInput};
use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig, SimOutput};
use ovcomm_simnet::MachineProfile;

/// One phantom SymmSquareCube (Algorithm 5) on a p×p×p mesh with tracing.
fn run_symm3d(n: usize, p: usize, n_dup: usize, profile: MachineProfile) -> SimOutput<f64> {
    let cfg = SimConfig::natural(p * p * p, 1, profile).with_trace();
    run(cfg, move |rc: RankCtx| {
        let m3 = Mesh3D::new(&rc, p);
        let grid = BlockGrid::new(n, p);
        let bundles = m3.dup_bundles(n_dup);
        let d_block = (m3.k == 0).then(|| {
            let (r, c) = grid.block_dims(m3.i, m3.j);
            BlockBuf::Phantom(r, c)
        });
        rc.world().barrier();
        let t0 = rc.now();
        let input = SymmInput { n, d_block };
        let _ = symm_square_cube_optimized(&rc, &m3, &bundles, &input);
        rc.world().barrier();
        (rc.now() - t0).as_secs_f64()
    })
    .expect("symm3d run")
}

fn trace_json<T>(out: &SimOutput<T>) -> String {
    let spans = out.trace.as_ref().expect("tracing enabled").spans();
    serde_json::to_string(&ovcomm_obs::trace_to_json(spans)).expect("trace serializes")
}

/// Two identically-configured runs must agree bit-for-bit on every
/// virtual-time observable: byte counters, duration histograms and the
/// exported trace JSON. Gauges are deliberately excluded — on the rt
/// backend they depend on OS thread scheduling, which is exactly why they
/// are kept out of counters and histograms.
#[test]
fn seeded_symm3d_metrics_and_trace_are_deterministic() {
    let a = run_symm3d(512, 2, 2, MachineProfile::test_profile());
    let b = run_symm3d(512, 2, 2, MachineProfile::test_profile());

    assert!(!a.metrics.counters.is_empty(), "counters were recorded");
    assert!(!a.metrics.histograms.is_empty(), "histograms were recorded");
    assert_eq!(a.metrics.counters, b.metrics.counters);
    assert_eq!(a.metrics.histograms, b.metrics.histograms);
    assert_eq!(a.makespan, b.makespan);

    let (ja, jb) = (trace_json(&a), trace_json(&b));
    assert!(ja.contains("traceEvents"));
    assert_eq!(ja, jb, "exported trace JSON is bit-identical");
}

/// The paper's core claim, observed at the NIC: duplicating communicators
/// (N_DUP = 4) pipelines chunks so that more of each NIC's busy time carries
/// at least two concurrent flows than with a single communicator.
#[test]
fn ndup4_overlaps_more_nic_time_than_ndup1() {
    let profile = MachineProfile::stampede2_skylake();
    let m1 = metrics_block(&run_symm3d(2048, 2, 1, profile.clone()));
    let m4 = metrics_block(&run_symm3d(2048, 2, 4, profile));

    assert!(m1.nic_busy_frac > 0.0 && m4.nic_busy_frac > 0.0);
    assert!(
        m4.overlap_efficiency > m1.overlap_efficiency,
        "N_DUP=4 should overlap more NIC busy time than N_DUP=1: {} vs {}",
        m4.overlap_efficiency,
        m1.overlap_efficiency,
    );
}

/// `SimConfig::with_trace_out` writes a file that parses as JSON and
/// satisfies the Chrome trace-event structural rules.
#[test]
fn trace_out_writes_valid_perfetto_json() {
    let path = std::env::temp_dir().join(format!("ovcomm_trace_{}.json", std::process::id()));
    let cfg = SimConfig::natural(4, 1, MachineProfile::test_profile()).with_trace_out(path.clone());
    let out = run(cfg, move |rc: RankCtx| {
        let w = rc.world();
        let data = (rc.rank() == 0).then_some(Payload::Phantom(1 << 20));
        let r = w.ibcast(0, data, 1 << 20);
        let _ = w.wait_traced(&r, "wait MPI_Ibcast");
    })
    .expect("bcast run");
    assert!(out.trace.is_some(), "with_trace_out implies tracing");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let v = serde_json::from_str(&text).expect("trace file is valid JSON");
    ovcomm_obs::validate_trace_events(&v).expect("well-formed trace events");
    assert!(text.contains("wait MPI_Ibcast"), "wait span exported");
}
