//! Ablation over the machine-model knobs that DESIGN.md calls out: how the
//! nonblocking-overlap gain (Alg 5 N_DUP=4 over baseline, 1hsg_70) depends
//! on per-rank progress parallelism (`reduce_parallel`), the single-stream
//! cap shape (`stream_nhalf`), the rendezvous handshake, and the posting
//! copy bandwidth. This quantifies which modeled effect the technique's
//! benefit actually comes from.

use ovcomm_bench::{symm_run, write_json, MeshSpec, Opts, Table};
use ovcomm_purify::{paper_system, KernelChoice};
use ovcomm_simnet::{MachineProfile, SimDur};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    baseline_tflops: f64,
    overlapped_tflops: f64,
    speedup: f64,
}

fn measure(profile: &MachineProfile, n: usize) -> (f64, f64, f64) {
    let mesh = MeshSpec::Cube { p: 4 };
    let run = |n_dup| {
        let choice = KernelChoice::Optimized { n_dup };
        symm_run(profile, n, mesh, choice, 1, 2)
    };
    let (s1, s4) = (run(1), run(4));
    (s1.tflops, s4.tflops, s1.time_per_call / s4.time_per_call)
}

pub fn main(opts: &Opts) {
    let n = paper_system("1hsg_70").unwrap().dimension;
    let base = MachineProfile::stampede2_skylake();

    let variants: Vec<(&str, MachineProfile)> = vec![
        ("calibrated", base.clone()),
        ("serial progress (reduce_parallel=1)", {
            let mut p = base.clone();
            p.reduce_parallel = 1.0;
            p
        }),
        ("ideal progress (reduce_parallel=4)", {
            let mut p = base.clone();
            p.reduce_parallel = 4.0;
            p
        }),
        ("no single-stream penalty (nhalf=1B)", {
            let mut p = base.clone();
            p.stream_nhalf = 1.0;
            p
        }),
        ("strong stream penalty (nhalf=1MB)", {
            let mut p = base.clone();
            p.stream_nhalf = (1 << 20) as f64;
            p
        }),
        ("no rendezvous handshake", {
            let mut p = base.clone();
            p.rendezvous_rtt = SimDur::from_nanos(0);
            p
        }),
        ("slow posting copies (copy_bw=3GB/s)", {
            let mut p = base.clone();
            p.copy_bw = 3.0e9;
            p
        }),
    ];

    println!("Model ablation: Alg 5 N_DUP=4 vs N_DUP=1 (1hsg_70, 64 nodes, PPN=1)\n");
    let mut table = Table::new(&["variant", "N_DUP=1 TF", "N_DUP=4 TF", "speedup"]);
    let mut rows = Vec::new();
    for (name, profile) in variants {
        let (t1, t4, s) = measure(&profile, n);
        table.row(vec![
            name.to_string(),
            format!("{t1:.2}"),
            format!("{t4:.2}"),
            format!("{s:.3}"),
        ]);
        rows.push(Row {
            variant: name.to_string(),
            baseline_tflops: t1,
            overlapped_tflops: t4,
            speedup: s,
        });
    }
    table.print();
    println!(
        "\nreading guide: the overlap gain should shrink when progress is serialized and when \
         a single stream already saturates the NIC, and grow with a stronger stream penalty — \
         confirming the mechanism the paper attributes the speedup to."
    );
    write_json(&opts.out_dir, "ablation_model", &rows);
}
