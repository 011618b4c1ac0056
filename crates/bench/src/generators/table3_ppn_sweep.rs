//! Table III: optimized SymmSquareCube with N_DUP = 1 and 4 for different
//! numbers of processes per node (meshes 4³…8³, 54–64 nodes), 1hsg_70.
//! Combines the multiple-PPN and nonblocking overlap techniques — the
//! source of the paper's headline 91.2% improvement.

use ovcomm_bench::{symm_run, write_json, MeshSpec, Opts, Table};
use ovcomm_purify::{paper_system, KernelChoice};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ppn: usize,
    mesh: String,
    nodes: usize,
    tflops_ndup1: f64,
    tflops_ndup4: f64,
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let sys = paper_system("1hsg_70").unwrap();
    // The paper picks PPN so that 64·(PPN−1) < p³ ≤ 64·PPN.
    let configs = [(1usize, 4usize), (2, 5), (4, 6), (6, 7), (8, 8)];
    let iters = 2;

    println!("Table III: optimized SymmSquareCube vs PPN (1hsg_70)\n");
    let mut table = Table::new(&["PPN", "Mesh", "Nodes", "N_DUP=1 TF", "N_DUP=4 TF"]);
    let mut rows = Vec::new();
    let measure = |p, choice, ppn| {
        let mesh = MeshSpec::Cube { p };
        symm_run(opts, &profile, sys.dimension, mesh, choice, ppn, iters)
    };
    // The paper's 91.2% headline is relative to the Algorithm-4 baseline
    // (PPN=1, no overlap at all).
    let baseline = measure(4, KernelChoice::Baseline, 1);
    let mut best = (0.0f64, String::new());
    for (ppn, p) in configs {
        let mesh = MeshSpec::Cube { p };
        let s1 = measure(p, KernelChoice::Optimized { n_dup: 1 }, ppn);
        let s4 = measure(p, KernelChoice::Optimized { n_dup: 4 }, ppn);
        if s4.tflops > best.0 {
            best = (s4.tflops, format!("PPN={ppn} N_DUP=4"));
        }
        if s1.tflops > best.0 {
            best = (s1.tflops, format!("PPN={ppn} N_DUP=1"));
        }
        table.row(vec![
            ppn.to_string(),
            mesh.label(),
            s1.nodes.to_string(),
            format!("{:.2}", s1.tflops),
            format!("{:.2}", s4.tflops),
        ]);
        rows.push(Row {
            ppn,
            mesh: mesh.label(),
            nodes: s1.nodes,
            tflops_ndup1: s1.tflops,
            tflops_ndup4: s4.tflops,
        });
    }
    table.print();
    {
        let best_time = ovcomm_kernels::symm_square_cube_flops(sys.dimension) / (best.0 * 1e12);
        println!(
            "\nbest combined configuration: {} — {:.1}% faster than the Algorithm-4 baseline \
             ({:.2} TF at PPN=1); paper reports 91.2% (best at PPN=6, N_DUP=4).",
            best.1,
            (baseline.time_per_call / best_time - 1.0) * 100.0,
            baseline.tflops
        );
    }
    println!(
        "paper (Table III): N_DUP=1: 19.21/20.61/26.24/27.53/24.98; \
         N_DUP=4: 22.48/26.45/33.87/36.73/32.38 for PPN=1/2/4/6/8."
    );
    write_json(&opts.out_dir, "table3_ppn_sweep", &rows);
}
