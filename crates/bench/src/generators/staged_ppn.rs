//! Per-kernel PPN selection end to end (§III-B): an SCF-like application
//! launched at 8 PPN on 64 nodes (512 processes) whose purification stage
//! runs at a *different* PPN — the surplus processes sleep-poll an
//! `MPI_Ibarrier`. Compares keeping all 512 processes active against
//! waking only 1 or 2 per node for the purification kernel.

use ovcomm_bench::{metrics_block, profile_block, write_json, MetricsBlock, Opts, Table};
use ovcomm_core::StagePlan;
use ovcomm_obs::ProfileBlock;
use ovcomm_purify::{paper_system, scf_staged, KernelChoice, PurifyConfig, ScfConfig};
use ovcomm_simmpi::{run, RankCtx, SimConfig};
use ovcomm_simnet::{MachineProfile, SimDur};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    purify_ppn: usize,
    mesh: String,
    scf_time_s: f64,
    kernel_tflops: f64,
    metrics: MetricsBlock,
    profile: Option<ProfileBlock>,
}

fn staged(
    plan: StagePlan,
    choice: KernelChoice,
    label: &str,
    n: usize,
) -> (f64, f64, MetricsBlock, Option<ProfileBlock>) {
    let cfg = ScfConfig {
        purify: PurifyConfig {
            n,
            nocc: 0,
            tol: 1e-9,
            max_iter: 2, // two SymmSquareCube calls per SCF iteration
            phantom: true,
            seed: 0,
        },
        plan,
        fock_time: SimDur::from_millis(40),
        scf_iterations: 2,
    };
    let label = label.to_string();
    let out = run(
        SimConfig::natural(512, 8, MachineProfile::stampede2_skylake()).with_trace(),
        move |rc: RankCtx| {
            let res = scf_staged(&rc, &cfg, choice);
            (
                res.total_time.as_secs_f64(),
                res.purify_kernel_time.as_secs_f64(),
                res.kernel_calls,
            )
        },
    )
    .unwrap_or_else(|e| panic!("staged run {label}: {e}"));
    let total = out
        .results
        .iter()
        .map(|(t, _, _)| *t)
        .fold(0.0f64, f64::max);
    // Kernel TFlops from the slowest active rank's kernel time.
    let (ktime, calls) = out
        .results
        .iter()
        .filter(|(_, kt, c)| *c > 0 && *kt > 0.0)
        .map(|(_, kt, c)| (*kt, *c))
        .fold((0.0f64, 0usize), |acc, x| if x.0 > acc.0 { x } else { acc });
    let tflops = if calls > 0 {
        ovcomm_kernels::symm_square_cube_flops(n) * calls as f64 / ktime / 1e12
    } else {
        0.0
    };
    let profile = profile_block(&out);
    (total, tflops, metrics_block(&out), profile)
}

pub fn main(opts: &Opts) {
    let n = paper_system("1hsg_70").unwrap().dimension;
    println!("Per-kernel PPN (§III-B): 64 nodes x 8 PPN launched; purification wakes a subset\n");
    let mut table = Table::new(&["purify actives", "mesh", "SCF total (s)", "kernel TFlops"]);
    let mut rows = Vec::new();
    let configs: Vec<(usize, String, StagePlan, KernelChoice)> = vec![
        (
            8,
            "8x8x8 (3-D)".into(),
            StagePlan::per_node(8, 8),
            KernelChoice::Optimized { n_dup: 4 },
        ),
        (
            2,
            "8x8x2 (2.5D)".into(),
            StagePlan::per_node(2, 8),
            KernelChoice::TwoFiveD { c: 2, n_dup: 4 },
        ),
        (
            1,
            "4x4x4 (3-D)".into(),
            StagePlan::per_node(1, 8),
            KernelChoice::Optimized { n_dup: 4 },
        ),
    ];
    for (k, mesh, plan, choice) in configs {
        let (total, tflops, metrics, profile) = staged(plan, choice, &mesh, n);
        table.row(vec![
            format!("{k}/node"),
            mesh.clone(),
            format!("{total:.3}"),
            format!("{tflops:.2}"),
        ]);
        rows.push(Row {
            purify_ppn: k,
            mesh,
            scf_time_s: total,
            kernel_tflops: tflops,
            metrics,
            profile,
        });
    }
    table.print();
    println!(
        "\nthe mechanism lets the purification kernel run at whichever PPN/mesh is fastest \
         without changing the Fock stage's 8 PPN — the paper's GTFock modification."
    );
    write_json(&opts.out_dir, "staged_ppn", &rows);
}
