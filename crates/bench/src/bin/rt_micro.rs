//! rt fast-path microbenchmarks: p2p latency/bandwidth and
//! nonblocking-collective throughput on the wall-clock runtime, appended
//! as schema-versioned `kind: "rt-micro"` records to the root
//! `BENCH_ovcomm.json` (shared with `bench_trajectory`'s trajectory
//! records — each binary gates only against its own kind).
//!
//! The suite pins the communication patterns the lock-free transport
//! exists for:
//!
//! * `p2p_latency_small` — 2-rank 8-byte ping-pong, µs per roundtrip
//!   (eager path: spin-poll wait latency + envelope-matching overhead).
//! * `p2p_bandwidth_large` — 2-rank 1 MiB stream, MB/s (rendezvous
//!   path: match latency hidden behind payload hand-off).
//! * `iallreduce_small_ndup4` / `iallreduce_large_ndup4` — 4 ranks, four
//!   duplicated communicators with one in-flight nonblocking allreduce
//!   each (the paper's N_DUP overlap pattern), ops/s resp. MB/s
//!   (progress-engine sharding: each dup's plan runs on its own shard).
//! * `ibcast_small_ndup4` — same shape over nonblocking bcast, ops/s.
//!
//! Modes:
//!
//! - default: run the suite and append a record to `BENCH_ovcomm.json`.
//! - `--smoke`: fewer iterations (the CI configuration).
//! - `--check`: compare against the most recent committed rt-micro
//!   record with the same smoke flag (and `mailbox: "lockfree"`) and
//!   **exit nonzero** when any case regresses by more than `--threshold`
//!   (default 30%); the file is not rewritten.
//!
//! The retired locked transport's numbers remain on record in
//! `BENCH_ovcomm.json` (`mailbox: "locked"`); the run prints the ratio
//! table against the most recent one.
//! - `--label <s>`: tag the appended record.
//!
//! Every run also writes the current record to `results/rt_micro.json`
//! for the CI artifact, whether or not the trajectory file is updated.

// Bench drivers fail loudly by design.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::path::Path;
use std::time::Duration;

use ovcomm_bench::{canonical_json, Table};
use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{Payload, VerifyMode};
use ovcomm_simnet::MachineProfile;
use serde::Serialize;
use serde_json::Value;

/// Schema of one rt-micro record (bump on shape changes).
const MICRO_SCHEMA: u32 = 1;

/// Which way a case's number should move.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Serialize)]
struct MicroCase {
    case: String,
    value: f64,
    unit: String,
    better: String,
}

#[derive(Serialize)]
struct MicroConfig {
    mailbox: String,
    progress_shards: usize,
    spin_budget_us: u64,
}

#[derive(Serialize)]
struct MicroRecord {
    kind: String,
    schema: u32,
    label: String,
    smoke: bool,
    config: MicroConfig,
    cases: Vec<MicroCase>,
}

/// Per-case iteration counts `(warmup, measured)`.
fn iters(case: &str, smoke: bool) -> (usize, usize) {
    match (case, smoke) {
        ("p2p_latency_small", false) => (100, 3000),
        ("p2p_latency_small", true) => (20, 400),
        ("p2p_bandwidth_large", false) => (4, 64),
        ("p2p_bandwidth_large", true) => (2, 12),
        (_, false) => (10, 200),
        (_, true) => (4, 40),
    }
}

/// Measurement config: verification off (its cost is Θ(messages) and
/// would dominate µs-scale measurements) and no sampler thread — the
/// box running this may well be a single hardware thread.
fn bench_cfg(nranks: usize) -> RtConfig {
    RtConfig::natural(nranks, 1, MachineProfile::test_profile())
        .with_verify(VerifyMode::Off)
        .with_deadlock_timeout(Duration::from_secs(20))
        .without_sampler()
}

/// Max of the per-rank phase seconds — the slowest rank defines the
/// measured interval, exactly as a real MPI benchmark would report it.
fn run_seconds(
    nranks: usize,
    f: impl Fn(&RtRankCtx) -> f64 + Send + Sync + Clone + 'static,
) -> f64 {
    let out = ovcomm_rt::run(bench_cfg(nranks), move |rc: RtRankCtx| f(&rc))
        .unwrap_or_else(|e| panic!("rt_micro run failed: {e}"));
    out.results.iter().cloned().fold(0.0, f64::max)
}

/// 2-rank ping-pong: rank 0 sends, waits for the echo; µs per roundtrip.
fn p2p_latency(smoke: bool) -> MicroCase {
    let (warmup, measured) = iters("p2p_latency_small", smoke);
    let secs = run_seconds(2, move |rc| {
        let w = rc.world();
        let me = rc.rank();
        let peer = 1 - me;
        let roundtrip = |tag: u32| {
            if me == 0 {
                w.wait(&w.isend(peer, tag, Payload::Phantom(8)));
                w.wait(&w.irecv(peer, tag));
            } else {
                w.wait(&w.irecv(peer, tag));
                w.wait(&w.isend(peer, tag, Payload::Phantom(8)));
            }
        };
        for _ in 0..warmup {
            roundtrip(1);
        }
        w.barrier();
        let t0 = rc.now();
        for _ in 0..measured {
            roundtrip(2);
        }
        (rc.now() - t0).as_secs_f64()
    });
    MicroCase {
        case: "p2p_latency_small".into(),
        value: secs / measured as f64 * 1e6,
        unit: "us/roundtrip".into(),
        better: Better::Lower.name().into(),
    }
}

/// 2-rank 1 MiB stream (rendezvous protocol), MB/s delivered.
fn p2p_bandwidth(smoke: bool) -> MicroCase {
    const BYTES: usize = 1 << 20;
    let (warmup, measured) = iters("p2p_bandwidth_large", smoke);
    let secs = run_seconds(2, move |rc| {
        let w = rc.world();
        let me = rc.rank();
        let xfer = |tag: u32, n: usize| {
            if me == 0 {
                let reqs: Vec<_> = (0..n)
                    .map(|_| w.isend(1, tag, Payload::Phantom(BYTES)))
                    .collect();
                w.wait_all(&reqs);
            } else {
                let reqs: Vec<_> = (0..n).map(|_| w.irecv(0, tag)).collect();
                for r in &reqs {
                    let _ = w.wait(r);
                }
            }
        };
        xfer(1, warmup);
        w.barrier();
        let t0 = rc.now();
        xfer(2, measured);
        (rc.now() - t0).as_secs_f64()
    });
    MicroCase {
        case: "p2p_bandwidth_large".into(),
        value: (BYTES * measured) as f64 / secs / 1e6,
        unit: "MB/s".into(),
        better: Better::Higher.name().into(),
    }
}

/// N_DUP=4 nonblocking collective rounds on 4 ranks: each round posts
/// one op per dup communicator, then waits for all four — the paper's
/// overlap shape, with every dup's plan on a distinct progress shard.
fn ndup_collective(smoke: bool, case: &'static str) -> MicroCase {
    const NDUP: usize = 4;
    let bytes: usize = match case {
        "iallreduce_small_ndup4" | "ibcast_small_ndup4" => 1 << 10,
        "iallreduce_large_ndup4" => 256 << 10,
        other => panic!("unknown ndup case {other}"),
    };
    let (warmup, measured) = iters(case, smoke);
    let secs = run_seconds(4, move |rc| {
        let w = rc.world();
        let comms = w.dup_n(NDUP);
        let round = |n: usize| {
            for _ in 0..n {
                let reqs: Vec<_> = comms
                    .iter()
                    .map(|c| match case {
                        "ibcast_small_ndup4" => {
                            let data = (rc.rank() == 0).then_some(Payload::Phantom(bytes));
                            c.ibcast(0, data, bytes)
                        }
                        _ => c.iallreduce(Payload::Phantom(bytes)),
                    })
                    .collect();
                for r in &reqs {
                    let _ = w.wait(r);
                }
            }
        };
        round(warmup);
        w.barrier();
        let t0 = rc.now();
        round(measured);
        (rc.now() - t0).as_secs_f64()
    });
    let ops = (measured * NDUP) as f64;
    let (value, unit) = if case == "iallreduce_large_ndup4" {
        ((ops * bytes as f64) / secs / 1e6, "MB/s".to_string())
    } else {
        (ops / secs, "ops/s".to_string())
    };
    MicroCase {
        case: case.into(),
        value,
        unit,
        better: Better::Higher.name().into(),
    }
}

/// The transport name records carry (the one transport there is; the
/// field keeps new records comparable with the committed history).
const MAILBOX: &str = "lockfree";

/// [`RtConfig`]'s knob defaults, recorded so a committed number is
/// reproducible from its record alone.
fn resolved_config() -> MicroConfig {
    let cfg = bench_cfg(1);
    MicroConfig {
        mailbox: MAILBOX.into(),
        progress_shards: cfg.progress_shards,
        spin_budget_us: cfg.spin_budget.as_micros() as u64,
    }
}

/// Is `r` an rt-micro record with this smoke flag and mailbox backend?
fn matches_run(r: &Value, smoke: bool, mailbox: &str) -> bool {
    matches!(r.get("kind"), Some(Value::Str(k)) if k == "rt-micro")
        && matches!(r.get("smoke"), Some(Value::Bool(b)) if *b == smoke)
        && r.get("config")
            .and_then(|c| c.get("mailbox"))
            .and_then(Value::as_str)
            == Some(mailbox)
}

/// Per-case regression list vs a committed baseline record.
fn regressions(prev: &Value, cur: &MicroRecord, thr: f64) -> Vec<String> {
    let empty = Vec::new();
    let prev_cases = prev
        .get("cases")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let mut bad = Vec::new();
    for c in &cur.cases {
        let Some(old) = prev_cases
            .iter()
            .find(|p| p.get("case").and_then(Value::as_str) == Some(&c.case))
            .and_then(|p| p.get("value"))
            .and_then(Value::as_f64)
        else {
            continue; // new case: passes vacuously until committed
        };
        let (regressed, pct) = if c.better == "lower" {
            (c.value > old * (1.0 + thr), c.value / old - 1.0)
        } else {
            (c.value < old * (1.0 - thr), 1.0 - c.value / old)
        };
        if regressed {
            bad.push(format!(
                "{}: {:.3} {} vs baseline {:.3} ({:+.1}% worse > {:.0}% allowed)",
                c.case,
                c.value,
                c.unit,
                old,
                pct * 100.0,
                thr * 100.0
            ));
        }
    }
    bad
}

/// Parse the trajectory file into its record list (empty when missing).
fn load_records(path: &Path) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    match serde_json::from_str(&text) {
        Ok(v) => v
            .get("records")
            .and_then(Value::as_array)
            .cloned()
            .unwrap_or_default(),
        Err(e) => {
            eprintln!(
                "warning: {} unreadable ({e:?}); starting fresh",
                path.display()
            );
            Vec::new()
        }
    }
}

/// Print the speedup of `cur` over the most recent committed `locked`
/// record with the same smoke flag, when one exists.
fn print_speedup(records: &[Value], cur: &MicroRecord) {
    let Some(base) = records
        .iter()
        .rev()
        .find(|r| matches_run(r, cur.smoke, "locked"))
    else {
        return;
    };
    let empty = Vec::new();
    let base_cases = base
        .get("cases")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let mut table = Table::new(&["case", "locked", "this run", "speedup"]);
    for c in &cur.cases {
        let Some(old) = base_cases
            .iter()
            .find(|p| p.get("case").and_then(Value::as_str) == Some(&c.case))
            .and_then(|p| p.get("value"))
            .and_then(Value::as_f64)
        else {
            continue;
        };
        let speedup = if c.better == "lower" {
            old / c.value
        } else {
            c.value / old
        };
        table.row(vec![
            c.case.clone(),
            format!("{old:.3} {}", c.unit),
            format!("{:.3} {}", c.value, c.unit),
            format!("{speedup:.2}x"),
        ]);
    }
    println!("\nvs committed locked baseline:");
    table.print();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
            .or_else(|| {
                args.iter()
                    .find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
            })
    };
    let smoke = flag("--smoke");
    let check = flag("--check");
    let label = opt("--label").unwrap_or_else(|| "dev".to_string());
    let thr: f64 = opt("--threshold").map_or(0.30, |s| s.parse().expect("--threshold"));
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_ovcomm.json".to_string());
    let out_path = Path::new(&out_path);

    println!(
        "rt_micro: {MAILBOX} transport, {} iterations\n",
        if smoke { "smoke" } else { "full" }
    );
    let cases = vec![
        p2p_latency(smoke),
        p2p_bandwidth(smoke),
        ndup_collective(smoke, "iallreduce_small_ndup4"),
        ndup_collective(smoke, "iallreduce_large_ndup4"),
        ndup_collective(smoke, "ibcast_small_ndup4"),
    ];
    let mut table = Table::new(&["case", "value", "unit", "better"]);
    for c in &cases {
        table.row(vec![
            c.case.clone(),
            format!("{:.3}", c.value),
            c.unit.clone(),
            c.better.clone(),
        ]);
    }
    table.print();

    let record = MicroRecord {
        kind: "rt-micro".into(),
        schema: MICRO_SCHEMA,
        label,
        smoke,
        config: resolved_config(),
        cases,
    };
    let mut records = load_records(out_path);
    print_speedup(&records, &record);

    // The CI artifact: always the current run, never the history.
    let record_value = serde_json::to_value(&record).expect("serialize rt-micro record");
    if std::fs::create_dir_all("results").is_ok() {
        match canonical_json(&record_value) {
            Ok(text) => match std::fs::write("results/rt_micro.json", text + "\n") {
                Ok(()) => println!("\nwrote results/rt_micro.json"),
                Err(e) => eprintln!("warning: cannot write results/rt_micro.json: {e}"),
            },
            Err(e) => eprintln!("warning: cannot serialize artifact: {e:?}"),
        }
    }

    if check {
        let prev = records
            .iter()
            .rev()
            .find(|r| matches_run(r, smoke, &record.config.mailbox));
        match prev {
            None => println!(
                "no committed rt-micro baseline (smoke={smoke}, mailbox={}); gate passes vacuously",
                record.config.mailbox
            ),
            Some(prev) => {
                let bad = regressions(prev, &record, thr);
                if bad.is_empty() {
                    println!(
                        "rt-micro gate: OK vs record `{}`",
                        prev.get("label").and_then(Value::as_str).unwrap_or("?")
                    );
                } else {
                    eprintln!("rt-micro gate: REGRESSION");
                    for b in &bad {
                        eprintln!("  {b}");
                    }
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    records.push(record_value);
    let file = Value::Object(vec![
        ("schema".to_string(), Value::UInt(1)),
        ("records".to_string(), Value::Array(records)),
    ]);
    let text = canonical_json(&file).expect("canonical rt-micro JSON");
    std::fs::write(out_path, text + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
    println!("appended record to {}", out_path.display());
}
