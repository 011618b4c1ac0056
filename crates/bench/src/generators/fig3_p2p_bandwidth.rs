//! Figure 3: unidirectional point-to-point bandwidth vs message size for
//! PPN = 1, 2, 4, 8 across two nodes (all sources on one node).

use ovcomm_bench::{
    fmt_bytes, p2p_bandwidth_metrics, plot_loglog, write_json, MetricsBlock, Opts, Series, Table,
};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    msg_bytes: usize,
    ppn: usize,
    bandwidth_mb_s: f64,
    metrics: MetricsBlock,
}

pub fn main(opts: &Opts) {
    let profile = MachineProfile::stampede2_skylake();
    let sizes: Vec<usize> = vec![
        1,
        16,
        256,
        2 * 1024,
        16 * 1024,
        128 * 1024,
        1 << 20,
        4 << 20,
        16 << 20,
    ];
    let ppns = [1usize, 2, 4, 8];

    println!("Figure 3: unidirectional inter-node bandwidth (MB/s) vs message size\n");
    let mut headers: Vec<String> = vec!["msg".to_string()];
    headers.extend(ppns.iter().map(|p| format!("PPN={p}")));
    let mut table = Table::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut rows = Vec::new();
    for &msg in &sizes {
        let mut cells = vec![fmt_bytes(msg)];
        for &ppn in &ppns {
            let (bw, metrics) = p2p_bandwidth_metrics(opts, &profile, ppn, msg);
            rows.push(Row {
                msg_bytes: msg,
                ppn,
                bandwidth_mb_s: bw / 1e6,
                metrics,
            });
            cells.push(format!("{:.0}", bw / 1e6));
        }
        table.row(cells);
    }
    table.print();
    // ASCII rendition of the figure itself.
    let glyphs = ['1', '2', '4', '8'];
    let series: Vec<Series> = ppns
        .iter()
        .zip(glyphs)
        .map(|(&ppn, glyph)| Series {
            label: format!("PPN={ppn}"),
            glyph,
            points: rows
                .iter()
                .filter(|r| r.ppn == ppn)
                .map(|r| (r.msg_bytes as f64, r.bandwidth_mb_s))
                .collect(),
        })
        .collect();
    println!("\nbandwidth (MB/s, log) vs message size (B, log):\n");
    print!("{}", plot_loglog(&series, 64, 16));
    println!("\npaper anchors: peak ≈ 12000 MB/s; a single process reaches peak only at very large messages.");
    write_json(&opts.out_dir, "fig3_p2p_bandwidth", &rows);
}
