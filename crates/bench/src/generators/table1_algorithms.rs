//! Table I: performance (TFlops) of the original (Alg. 3), baseline
//! (Alg. 4) and optimized (Alg. 5, N_DUP = 4) SymmSquareCube algorithms on
//! the three molecular systems, 64 nodes, 4×4×4 mesh, PPN = 1.

use ovcomm_bench::{symm_run, write_json, MeshSpec, Opts, SymmStats, Table};
use ovcomm_purify::{KernelChoice, PAPER_SYSTEMS};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    system: String,
    dimension: usize,
    alg3_tflops: f64,
    alg4_tflops: f64,
    alg5_tflops: f64,
    speedup_5_over_4: f64,
    stats: Vec<SymmStats>,
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let mesh = MeshSpec::Cube { p: 4 };
    let iters = 3;

    println!("Table I: SymmSquareCube performance, 64 nodes, PPN=1, N_DUP=4\n");
    let mut table = Table::new(&["System", "Dim", "Alg3 TF", "Alg4 TF", "Alg5 TF", "5/4"]);
    let mut rows = Vec::new();
    for sys in PAPER_SYSTEMS {
        let measure = |choice| symm_run(&profile, sys.dimension, mesh, choice, 1, iters);
        let s3 = measure(KernelChoice::Original);
        let s4 = measure(KernelChoice::Baseline);
        let s5 = measure(KernelChoice::Optimized { n_dup: 4 });
        let speedup = s4.time_per_call / s5.time_per_call;
        table.row(vec![
            sys.name.to_string(),
            sys.dimension.to_string(),
            format!("{:.2}", s3.tflops),
            format!("{:.2}", s4.tflops),
            format!("{:.2}", s5.tflops),
            format!("{:.2}", speedup),
        ]);
        rows.push(Row {
            system: sys.name.to_string(),
            dimension: sys.dimension,
            alg3_tflops: s3.tflops,
            alg4_tflops: s4.tflops,
            alg5_tflops: s5.tflops,
            speedup_5_over_4: speedup,
            stats: vec![s3, s4, s5],
        });
    }
    table.print();
    println!(
        "\npaper (Table I): Alg3/4/5 = 12.36/13.20/16.05 (1hsg_45), 16.83/17.57/20.57 (1hsg_60), \
         18.49/19.21/22.48 (1hsg_70); speedups 1.21/1.17/1.17."
    );
    write_json(&opts.out_dir, "table1_algorithms", &rows);
}
