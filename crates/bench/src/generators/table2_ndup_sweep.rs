//! Table II: performance of the optimized SymmSquareCube (Alg. 5) for
//! N_DUP = 1…6 on the three systems (N_DUP = 1 equals the baseline).

use ovcomm_bench::{symm_run, write_json, MeshSpec, Opts, Table};
use ovcomm_purify::{KernelChoice, PAPER_SYSTEMS};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    system: String,
    n_dup: usize,
    tflops: f64,
    time_per_call: f64,
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let mesh = MeshSpec::Cube { p: 4 };
    let iters = 2;
    let ndups = [1usize, 2, 3, 4, 5, 6];

    println!("Table II: optimized SymmSquareCube TFlops vs N_DUP (64 nodes, PPN=1)\n");
    let mut headers: Vec<String> = vec!["System".into()];
    headers.extend(ndups.iter().map(|d| format!("N_DUP={d}")));
    let mut table = Table::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut rows = Vec::new();
    for sys in PAPER_SYSTEMS {
        let mut cells = vec![sys.name.to_string()];
        for &n_dup in &ndups {
            let s = symm_run(
                &profile,
                sys.dimension,
                mesh,
                KernelChoice::Optimized { n_dup },
                1,
                iters,
            );
            cells.push(format!("{:.2}", s.tflops));
            rows.push(Row {
                system: sys.name.to_string(),
                n_dup,
                tflops: s.tflops,
                time_per_call: s.time_per_call,
            });
        }
        table.row(cells);
    }
    table.print();
    println!(
        "\npaper (Table II, 1hsg_70): 19.21 / 21.51 / 21.47 / 22.48 / 22.39 / 22.54 — most of \
         the gain arrives by N_DUP=4 and flattens after."
    );
    write_json(&opts.out_dir, "table2_ndup_sweep", &rows);
}
