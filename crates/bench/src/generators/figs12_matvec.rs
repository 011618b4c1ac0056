//! Figures 1–2 (the motivating example): parallel matrix–vector
//! multiplication communication phase on a 4×4 mesh — Algorithm 1
//! (blocking reduce then broadcast) vs Algorithm 2 (N_DUP pipelined
//! ireduce→ibcast) over a sweep of vector sizes and N_DUP values.
//!
//! `--backend rt` executes the same phase on the real shared-memory
//! runtime (wall-clock seconds, one box) instead of the simulator
//! (modeled seconds, 16 nodes).

use ovcomm_bench::{metrics_block, profile_block, write_json, Backend, MetricsBlock, Opts, Table};
use ovcomm_core::{pipelined_reduce_bcast, Communicator, NDupComms, RankHandle};
use ovcomm_densemat::Partition1D;
use ovcomm_kernels::Mesh2D;
use ovcomm_obs::ProfileBlock;
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

const P: usize = 4;

#[derive(Serialize)]
struct Row {
    vector_elems: usize,
    n_dup: usize,
    alg1_s: f64,
    alg2_s: f64,
    speedup: f64,
    metrics: MetricsBlock,
    profile: Option<ProfileBlock>,
}

/// The reduce+broadcast phase (the part Figs. 1–2 illustrate), generic
/// over the backend: virtual seconds on sim, wall-clock seconds on rt.
fn phase<R: RankHandle>(rc: &R, n: usize, n_dup: Option<usize>) -> f64 {
    let mesh = Mesh2D::new(rc, P);
    let part = Partition1D::new(n, P);
    let contrib = Payload::Phantom(part.len(mesh.i) * 8);
    let bcast_len = part.len(mesh.j) * 8;
    rc.world().barrier();
    let t0 = rc.now();
    match n_dup {
        None => {
            let reduced = mesh.row.reduce(mesh.i, contrib);
            let data = (mesh.i == mesh.j).then(|| reduced.expect("diagonal is the reduce root"));
            let _ = mesh.col.bcast(mesh.j, data, bcast_len);
        }
        Some(d) => {
            let row_ndup = NDupComms::new(&mesh.row, d);
            let col_ndup = NDupComms::new(&mesh.col, d);
            let _ =
                pipelined_reduce_bcast(&row_ndup, mesh.i, &col_ndup, mesh.j, &contrib, bcast_len);
        }
    }
    rc.world().barrier();
    (rc.now() - t0).as_secs_f64()
}

/// Time the phase on the selected backend. Tracing stays on so every
/// record carries its critical-path profile next to the metrics.
fn comm_phase(
    backend: Backend,
    n: usize,
    n_dup: Option<usize>,
) -> (f64, MetricsBlock, Option<ProfileBlock>) {
    let out = match backend {
        Backend::Sim => run(
            SimConfig::natural(P * P, 1, MachineProfile::stampede2_skylake()).with_trace(),
            move |rc: RankCtx| phase(&rc, n, n_dup),
        ),
        Backend::Rt => ovcomm_rt::run(
            RtConfig::natural(P * P, 1, MachineProfile::test_profile()).with_trace(),
            move |rc: RtRankCtx| phase(&rc, n, n_dup),
        ),
    }
    .expect("matvec comm phase");
    let t = out.results.iter().cloned().fold(0.0, f64::max);
    (t, metrics_block(&out), profile_block(&out))
}

pub fn main(opts: &Opts) {
    let backend = opts.backend.unwrap_or(Backend::Sim);
    // Wall-clock runs move real bytes through mailboxes; keep the sweep a
    // size class smaller so the rt smoke run stays fast.
    let sizes: &[usize] = match backend {
        Backend::Sim => &[1 << 18, 1 << 21, 1 << 24, 1 << 26],
        Backend::Rt => &[1 << 16, 1 << 18, 1 << 20],
    };
    println!(
        "Figures 1-2: matvec reduce->broadcast phase, 4x4 mesh ({})\n",
        match backend {
            Backend::Sim => "simulated, 16 nodes",
            Backend::Rt => "measured, shared memory",
        }
    );
    let mut table = Table::new(&["vector", "N_DUP", "Alg1 (s)", "Alg2 (s)", "speedup"]);
    let mut rows = Vec::new();
    for &elems in sizes {
        let (t1, _, _) = comm_phase(backend, elems, None);
        for n_dup in [2usize, 4, 8] {
            let (t2, metrics, profile) = comm_phase(backend, elems, Some(n_dup));
            let label = if elems >= 1 << 20 {
                format!("{}M", elems >> 20)
            } else {
                format!("{}K", elems >> 10)
            };
            table.row(vec![
                label,
                n_dup.to_string(),
                format!("{t1:.6}"),
                format!("{t2:.6}"),
                format!("{:.2}", t1 / t2),
            ]);
            rows.push(Row {
                vector_elems: elems,
                n_dup,
                alg1_s: t1,
                alg2_s: t2,
                speedup: t1 / t2,
                metrics,
                profile,
            });
        }
    }
    table.print();
    println!(
        "\nAlgorithm 2's pipeline overlaps each chunk's broadcast with the next chunk's \
         reduction (Fig. 2); the win grows with the vector size as the phase becomes \
         bandwidth-bound."
    );
    let name = match backend {
        Backend::Sim => "figs12_matvec",
        Backend::Rt => "figs12_matvec_rt",
    };
    write_json(&opts.out_dir, name, &rows);
}
