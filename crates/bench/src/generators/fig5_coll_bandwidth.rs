//! Figure 5: broadcast and reduction bandwidth vs message size on 4 nodes
//! for the three cases of §V-B — blocking, nonblocking overlap with
//! N_DUP = 4, and 4-PPN overlap. Bandwidth is normalized by the algorithmic
//! volume 2(p−1)n/p.

use ovcomm_bench::{
    coll_bandwidth_metrics, fmt_bytes, plot_loglog, write_json, CollCase, CollKind, MetricsBlock,
    Opts, Series, Table,
};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    msg_bytes: usize,
    kind: String,
    case: String,
    bandwidth_mb_s: f64,
    metrics: MetricsBlock,
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let sizes: Vec<usize> = vec![
        16,
        128,
        1024,
        8 * 1024,
        64 * 1024,
        256 * 1024,
        1 << 20,
        4 << 20,
        16 << 20,
    ];
    let cases = [
        ("blocking", CollCase::Blocking),
        ("ndup4", CollCase::NonblockingOverlap(4)),
        ("4ppn", CollCase::PpnOverlap(4)),
    ];

    println!("Figure 5: collective bandwidth (MB/s) on 4 nodes\n");
    let mut table = Table::new(&[
        "msg",
        "Bcast blk",
        "Bcast ndup4",
        "Bcast 4ppn",
        "Reduce blk",
        "Reduce ndup4",
        "Reduce 4ppn",
    ]);
    let mut rows = Vec::new();
    for &msg in &sizes {
        let mut cells = vec![fmt_bytes(msg)];
        for kind in [CollKind::Bcast, CollKind::Reduce] {
            for (name, case) in cases {
                let (bw, metrics) = coll_bandwidth_metrics(opts, &profile, kind, case, 4, msg);
                rows.push(Row {
                    msg_bytes: msg,
                    kind: format!("{kind:?}"),
                    case: name.to_string(),
                    bandwidth_mb_s: bw / 1e6,
                    metrics,
                });
                cells.push(format!("{:.0}", bw / 1e6));
            }
        }
        table.row(cells);
    }
    table.print();
    for kind in ["Bcast", "Reduce"] {
        let series: Vec<Series> = [("blocking", 'b'), ("ndup4", 'n'), ("4ppn", 'p')]
            .iter()
            .map(|&(case, glyph)| Series {
                label: format!("{kind} {case}"),
                glyph,
                points: rows
                    .iter()
                    .filter(|r| r.kind == kind && r.case == case && r.bandwidth_mb_s > 0.0)
                    .map(|r| (r.msg_bytes as f64, r.bandwidth_mb_s))
                    .collect(),
            })
            .collect();
        println!("\n{kind} bandwidth (MB/s, log) vs message size (B, log):\n");
        print!("{}", plot_loglog(&series, 64, 14));
    }
    println!(
        "\npaper anchors: blocking bcast ≈ 75% of peak at 16MB; blocking reduce far below; \
         both overlap cases improve on blocking."
    );
    write_json(&opts.out_dir, "fig5_coll_bandwidth", &rows);
}
