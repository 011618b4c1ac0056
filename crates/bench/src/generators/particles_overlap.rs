//! Future-work demonstration (§VI): force-decomposition molecular dynamics
//! with the per-step reduce→broadcast pipelined (Algorithm 2 applied to an
//! N-body code). Sweeps the mesh size at a fixed particle count.

use ovcomm_bench::{metrics_block, profile_block, write_json, MetricsBlock, Opts, Table};
use ovcomm_kernels::{md_init, md_run, MdConfig, Mesh2D};
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

fn md_time(
    p: usize,
    n: usize,
    overlap: Option<usize>,
) -> (f64, MetricsBlock, Option<ProfileBlock>) {
    let steps = 4;
    let out = run(
        SimConfig::natural(p * p, 1, MachineProfile::stampede2_skylake()).with_trace(),
        move |rc: RankCtx| {
            let mesh = Mesh2D::new(&rc, p);
            let cfg = MdConfig {
                n_particles: n,
                steps,
                dt: 0.005,
                overlap,
                neighbors: Some(64), // cutoff interactions, as in real MD
            };
            let state = md_init(&rc, &mesh, &cfg, true);
            rc.world().barrier();
            let t0 = rc.now();
            let _ = md_run(&rc, &mesh, &cfg, state);
            rc.world().barrier();
            (rc.now() - t0).as_secs_f64() / steps as f64
        },
    )
    .expect("MD run");
    let t = out.results.iter().cloned().fold(0.0, f64::max);
    let profile = profile_block(&out);
    (t, metrics_block(&out), profile)
}

pub fn main(opts: &Opts) {
    let n = 16 << 20; // 16M particles
    println!("Force-decomposition MD (16M particles, PPN=1): step time\n");
    let mut table = Table::new(&[
        "mesh",
        "nodes",
        "blocking s/step",
        "overlap s/step",
        "speedup",
    ]);
    let mut rows = Vec::new();
    for p in [2usize, 4, 8] {
        let (tb, _, _) = md_time(p, n, None);
        let (to, metrics, profile) = md_time(p, n, Some(4));
        table.row(vec![
            format!("{p}x{p}"),
            (p * p).to_string(),
            format!("{tb:.6}"),
            format!("{to:.6}"),
            format!("{:.2}", tb / to),
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
        "\nthe force reduction and position broadcast of each step pipeline chunk-by-chunk \
         on duplicated communicators — the paper's §VI particle-simulation direction."
    );
    write_json(&opts.out_dir, "particles_overlap", &rows);
}
