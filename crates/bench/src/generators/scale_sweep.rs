//! Large-scale collective sweep: every `CollPlan` builder at ten
//! thousand ranks, single process, on the event-driven fiber engine.
//!
//! This is the tentpole's demonstrable artifact: each of the 13
//! collective algorithms runs once on a phantom payload with
//! verification off (the static lint still runs at plan compile).
//! Logarithmic-depth builders run at p = 10,000. Builders with
//! inherently quadratic cost — the ring family (Θ(p²) total messages)
//! and the linear gather (p−1 concurrent flows contending on one root
//! NIC) — run at p = 512 to keep the whole sweep inside the wall
//! budget; the actual communicator size is recorded per row in the JSON.
//!
//! The emitted `results/scale_sweep.json` is purely virtual-time data —
//! byte-identical across reruns. Wall-clock timing goes to stderr only,
//! and `--budget <seconds>` turns it into an exit code for CI.
//!
//! Flags:
//! * `--smoke` — quarter-scale (p = 2,500 / 256) for debug builds and CI
//!   pull-request runs; does not write the JSON;
//! * `--budget <seconds>` — exit nonzero if the sweep's wall time
//!   exceeds the budget.

use std::time::Instant;

use ovcomm_bench::{call_collective, write_json, Opts, Table};
use ovcomm_simmpi::plan::kind_short;
use ovcomm_simmpi::{run, CollAlgo, CollSelector, RankCtx, SimConfig, VerifyMode};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;

/// Logical (phantom) payload of every collective in the sweep. Every
/// message still runs through the max–min flow model; keeping flows
/// short-lived stops successive collective rounds from piling up into one
/// giant contention component in virtual time, which is what the wall
/// budget is most sensitive to.
const PAYLOAD_BYTES: usize = 8 << 10;

/// One sweep row: virtual-time outcome of one builder at scale.
#[derive(Serialize)]
struct ScaleRecord {
    coll: String,
    algo: String,
    p: usize,
    ppn: usize,
    n: usize,
    seconds: f64,
    messages: u64,
    inter_node_bytes: u64,
    intra_node_bytes: u64,
}

/// Builders whose cost is inherently quadratic in p: the ring family makes
/// Θ(p²) messages total, and the linear gather funnels all p−1 concurrent
/// flows into one root NIC (Θ(p) contention-solver work per flow event).
fn quadratic_family(algo: CollAlgo) -> bool {
    matches!(
        algo,
        CollAlgo::BcastScatterAllgather
            | CollAlgo::ReduceRing
            | CollAlgo::AllreduceRsag
            | CollAlgo::AllreduceRing
            | CollAlgo::AllgatherRing
            | CollAlgo::GatherLinear
    )
}

fn measure(algo: CollAlgo, p: usize, ppn: usize, n: usize) -> ScaleRecord {
    let kind = algo.kind();
    let cfg = SimConfig::natural(p, ppn, MachineProfile::stampede2_skylake())
        .with_coll_select(CollSelector::default().force(algo))
        .with_verify(VerifyMode::Off)
        .with_fiber_stack(128 << 10);
    let out = run(cfg, move |rc: RankCtx| call_collective(&rc, kind, n))
        .unwrap_or_else(|e| panic!("{algo:?} p={p}: {e}"));
    ScaleRecord {
        coll: kind_short(kind).to_string(),
        algo: algo.short().to_string(),
        p,
        ppn,
        n,
        seconds: out.makespan.as_secs_f64(),
        messages: out.messages,
        inter_node_bytes: out.inter_node_bytes,
        intra_node_bytes: out.intra_node_bytes,
    }
}

pub fn main(opts: &Opts) {
    let smoke = opts.smoke;
    let (p_log, p_ring, ppn) = if smoke {
        (2_500, 128, 32)
    } else {
        (10_000, 512, 32)
    };
    let t0 = Instant::now();
    let mut records = Vec::new();
    for &algo in CollAlgo::all() {
        let p = if quadratic_family(algo) {
            p_ring
        } else {
            p_log
        };
        let cell0 = Instant::now();
        let rec = measure(algo, p, ppn, PAYLOAD_BYTES);
        eprintln!(
            "  {}/{} p={} — {} msgs, {:.3}s virtual, {:.2}s wall",
            rec.coll,
            rec.algo,
            rec.p,
            rec.messages,
            rec.seconds,
            cell0.elapsed().as_secs_f64()
        );
        records.push(rec);
    }
    let wall = t0.elapsed().as_secs_f64();

    let mut table = Table::new(&["collective", "algorithm", "p", "virtual s", "messages"]);
    for r in &records {
        table.row(vec![
            r.coll.clone(),
            r.algo.clone(),
            r.p.to_string(),
            format!("{:.4}", r.seconds),
            r.messages.to_string(),
        ]);
    }
    table.print();
    eprintln!(
        "scale sweep: {} builders, {:.1}s wall{}",
        records.len(),
        wall,
        if smoke { " (smoke)" } else { "" }
    );

    if !smoke {
        write_json(&opts.out_dir, "scale_sweep", &records);
    }
    if let Some(b) = opts.budget {
        if wall > b {
            eprintln!("FAIL: wall time {wall:.1}s exceeds budget {b:.1}s");
            std::process::exit(1);
        }
        eprintln!("within wall budget ({wall:.1}s <= {b:.1}s)");
    }
}
