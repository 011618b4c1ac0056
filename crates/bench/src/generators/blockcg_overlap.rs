//! Future-work demonstration (§VI): block CG iteration time with and
//! without overlapped Gram-matrix reductions, swept over mesh sizes. The
//! paper predicts reductions "involving large numbers of nodes" are the
//! bottleneck — so the latency hidden by overlapping the two simultaneous
//! reductions should grow with the mesh.

use ovcomm_bench::{metrics_block, profile_block, write_json, MetricsBlock, Opts, Table};
use ovcomm_densemat::{BlockBuf, BlockGrid, Partition1D};
use ovcomm_kernels::{block_cg, BlockCgConfig, CgComms, Mesh2D};
use ovcomm_obs::ProfileBlock;
use ovcomm_simmpi::{run, RankCtx, SimConfig};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mesh_p: usize,
    nodes: usize,
    t_blocking_s: f64,
    t_overlap_s: f64,
    speedup: f64,
    metrics: MetricsBlock,
    profile: Option<ProfileBlock>,
}

fn cg_time(
    p: usize,
    n: usize,
    s: usize,
    overlap: bool,
) -> (f64, MetricsBlock, Option<ProfileBlock>) {
    let iters = 8;
    let out = run(
        SimConfig::natural(p * p, 1, MachineProfile::stampede2_skylake()).with_trace(),
        move |rc: RankCtx| {
            let mesh = Mesh2D::new(&rc, p);
            let grid = BlockGrid::new(n, p);
            let part = Partition1D::new(n, p);
            let (r, c) = grid.block_dims(mesh.i, mesh.j);
            let a = BlockBuf::Phantom(r, c);
            let b = BlockBuf::Phantom(part.len(mesh.j), s);
            let comms = CgComms::new(&mesh, 2);
            let cfg = BlockCgConfig {
                n,
                s,
                tol: 0.0,
                max_iter: iters,
                overlap,
            };
            rc.world().barrier();
            let t0 = rc.now();
            let _ = block_cg(&rc, &mesh, &comms, &cfg, &a, &b);
            rc.world().barrier();
            (rc.now() - t0).as_secs_f64() / iters as f64
        },
    )
    .expect("block CG run");
    let t = out.results.iter().cloned().fold(0.0, f64::max);
    let profile = profile_block(&out);
    (t, metrics_block(&out), profile)
}

pub fn main(opts: &Opts) {
    let n = 65536;
    let s = 8;
    println!("Block CG with overlapped Gram reductions (N = {n}, s = {s}, PPN=1)\n");
    let mut table = Table::new(&[
        "mesh",
        "nodes",
        "blocking s/iter",
        "overlap s/iter",
        "speedup",
    ]);
    let mut rows = Vec::new();
    for p in [2usize, 4, 8, 12, 16] {
        let (tb, _, _) = cg_time(p, n, s, false);
        let (to, metrics, profile) = cg_time(p, n, s, true);
        table.row(vec![
            format!("{p}x{p}"),
            (p * p).to_string(),
            format!("{tb:.6}"),
            format!("{to:.6}"),
            format!("{:.3}", tb / to),
        ]);
        rows.push(Row {
            mesh_p: p,
            nodes: p * p,
            t_blocking_s: tb,
            t_overlap_s: to,
            speedup: tb / to,
            metrics,
            profile,
        });
    }
    table.print();
    println!(
        "\nthe overlapped variant hides one reduce+broadcast latency chain per iteration; the \
         saving grows with the process count, as the paper's future-work section anticipates."
    );
    write_json(&opts.out_dir, "blockcg_overlap", &rows);
}
