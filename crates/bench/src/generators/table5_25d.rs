//! Table V: the 2.5D-multiplication version of SymmSquareCube (Alg. 6) for
//! the paper's process configurations and replication factors, with
//! N_DUP = 1 and 4 (collectives self-overlapped), 1hsg_70.

use ovcomm_bench::{cosma_run, symm_run, write_json, MeshSpec, Opts, Table};
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
    /// COSMA-style one-sided multiply on the `q×q` front plane (no
    /// replication) — the RMA paradigm's entry in the same table.
    tflops_cosma_qxq: f64,
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let sys = paper_system("1hsg_70").unwrap();
    // (PPN, q, c) — the paper's Table V configurations.
    let configs = [
        (2usize, 8usize, 2usize),
        (5, 12, 2),
        (8, 16, 2),
        (4, 9, 3),
        (7, 12, 3),
        (1, 4, 4),
        (4, 8, 4),
        (2, 5, 5),
        (4, 6, 6),
        (6, 7, 7),
        (8, 8, 8),
    ];

    println!("Table V: 2.5D SymmSquareCube (1hsg_70), N_DUP = 1 and 4, vs one-sided COSMA\n");
    let mut table = Table::new(&[
        "PPN",
        "Mesh",
        "Nodes",
        "N_DUP=1 TF",
        "N_DUP=4 TF",
        "COSMA qxq TF",
    ]);
    let mut rows = Vec::new();
    for (ppn, q, c) in configs {
        let mesh = MeshSpec::TwoFiveD { q, c };
        let measure = |n_dup| {
            let choice = KernelChoice::TwoFiveD { c, n_dup };
            symm_run(&profile, sys.dimension, mesh, choice, ppn, 2)
        };
        let (s1, s4) = (measure(1), measure(4));
        let sc = cosma_run(&profile, sys.dimension, q, ppn, 2);
        table.row(vec![
            ppn.to_string(),
            mesh.label(),
            s1.nodes.to_string(),
            format!("{:.2}", s1.tflops),
            format!("{:.2}", s4.tflops),
            format!("{:.2}", sc.tflops),
        ]);
        rows.push(Row {
            ppn,
            mesh: mesh.label(),
            nodes: s1.nodes,
            tflops_ndup1: s1.tflops,
            tflops_ndup4: s4.tflops,
            tflops_cosma_qxq: sc.tflops,
        });
    }
    table.print();
    println!(
        "\npaper (Table V): N_DUP=4 consistently but modestly beats N_DUP=1 (the 2.5D algorithm \
         offers no cross-operation pipelining); for fixed c, more PPN roughly improves \
         performance; best 16x16x2 at PPN=8 (32.16/34.69 TF). The COSMA column runs the \
         one-sided multiply on the q×q front plane only (q² ranks, no replication), so it \
         trades the 2.5D mesh's extra memory for origin-driven prefetch overlap."
    );
    write_json(&opts.out_dir, "table5_25d", &rows);
}
