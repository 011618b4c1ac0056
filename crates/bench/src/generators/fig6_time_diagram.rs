//! Figure 6: time diagram for reducing/broadcasting 8 MB on 4 nodes under
//! blocking, nonblocking-overlap (N_DUP = 4) and 4-PPN overlap, with 2 MB
//! and 8 MB single nonblocking calls for comparison. Reproduces the post /
//! wait breakdown of the paper's stacked bars (times on node 0).

use ovcomm_bench::{
    metrics_block, profile_block, render, write_json, Bar, MetricsBlock, Opts, Table,
};
use ovcomm_core::NDupComms;
use ovcomm_obs::ProfileBlock;
use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
use ovcomm_simnet::{rank_of_actor, MachineProfile};
use serde::Serialize;

#[derive(Serialize)]
struct SpanRow {
    scenario: String,
    kind: String,
    label: String,
    chunk: Option<u32>,
    start_us: f64,
    dur_us: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Bcast,
    Reduce,
}

/// Run one scenario with tracing and return rank-0 (node-0) spans plus the
/// scenario's metrics and critical-path profile blocks. With
/// `--trace-out <path>` each scenario also writes a Perfetto trace to
/// `<path minus extension>-<scenario slug>.json`.
fn traced(
    opts: &Opts,
    scenario: &str,
    nranks: usize,
    ppn: usize,
    f: impl Fn(RankCtx) + Send + Sync + 'static,
) -> Scenario {
    let mut cfg = SimConfig::natural(nranks, ppn, MachineProfile::stampede2_skylake()).with_trace();
    if let Some(base) = &opts.trace_out {
        let slug: String = scenario
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let stem = base.with_extension("");
        cfg = cfg.with_trace_out(format!("{}-{slug}.json", stem.display()));
    }
    let out = run(cfg, move |rc: RankCtx| f(rc)).expect("fig6 scenario");
    let metrics = metrics_block(&out);
    let profile = profile_block(&out);
    let trace = out.trace.expect("tracing enabled");
    let node0_actors: Vec<u32> = (0..ppn as u32).collect();
    let rows = trace
        .spans()
        .iter()
        // Rank agents of node 0 plus their op actors.
        .filter(|s| node0_actors.contains(&rank_of_actor(s.actor)))
        .map(|s| SpanRow {
            scenario: scenario.to_string(),
            kind: format!("{:?}", s.kind),
            label: s.label.clone(),
            chunk: s.chunk,
            start_us: s.start.as_secs_f64() * 1e6,
            dur_us: s.end.saturating_since(s.start).as_micros_f64(),
        })
        .collect();
    (rows, metrics, profile)
}

/// One scenario's node-0 spans, metrics block and critical-path profile.
type Scenario = (Vec<SpanRow>, MetricsBlock, Option<ProfileBlock>);

fn scenario_blocking(opts: &Opts, op: Op, msg: usize, name: &str) -> Scenario {
    traced(opts, name, 4, 1, move |rc| {
        let w = rc.world();
        match op {
            Op::Bcast => {
                let data = (rc.rank() == 0).then_some(Payload::Phantom(msg));
                let _ = w.bcast(0, data, msg);
            }
            Op::Reduce => {
                let _ = w.reduce(0, Payload::Phantom(msg));
            }
        }
    })
}

fn scenario_nonblocking_single(opts: &Opts, op: Op, msg: usize, name: &str) -> Scenario {
    traced(opts, name, 4, 1, move |rc| {
        let w = rc.world();
        match op {
            Op::Bcast => {
                let data = (rc.rank() == 0).then_some(Payload::Phantom(msg));
                let r = w.ibcast(0, data, msg);
                let _ = w.wait_traced(&r, "wait MPI_Ibcast");
            }
            Op::Reduce => {
                let r = w.ireduce(0, Payload::Phantom(msg));
                let _ = w.wait_traced(&r, "wait MPI_Ireduce");
            }
        }
    })
}

fn scenario_ndup(opts: &Opts, op: Op, msg: usize, n_dup: usize, name: &str) -> Scenario {
    traced(opts, name, 4, 1, move |rc| {
        let w = rc.world();
        let comms = NDupComms::new(&w, n_dup);
        match op {
            Op::Bcast => {
                let reqs: Vec<_> = comms
                    .iter()
                    .map(|(c, comm)| {
                        let data = (rc.rank() == 0).then_some(Payload::Phantom(msg / n_dup));
                        let r = comm.ibcast(0, data, msg / n_dup);
                        (c, r)
                    })
                    .collect();
                for (c, r) in &reqs {
                    let _ = comms
                        .comm(*c)
                        .wait_traced_chunk(r, "wait MPI_Ibcast", *c as u32);
                }
            }
            Op::Reduce => {
                let reqs: Vec<_> = comms
                    .iter()
                    .map(|(c, comm)| (c, comm.ireduce(0, Payload::Phantom(msg / n_dup))))
                    .collect();
                for (c, r) in &reqs {
                    let _ = comms
                        .comm(*c)
                        .wait_traced_chunk(r, "wait MPI_Ireduce", *c as u32);
                }
            }
        }
    })
}

fn scenario_ppn(opts: &Opts, op: Op, msg: usize, ppn: usize, name: &str) -> Scenario {
    traced(opts, name, 4 * ppn, ppn, move |rc| {
        let w = rc.world();
        let local = rc.rank() % ppn;
        let node = rc.rank() / ppn;
        let col = w.split(local as i64, node as u64).expect("column comm");
        let part = msg / ppn;
        match op {
            Op::Bcast => {
                let data = (node == 0).then_some(Payload::Phantom(part));
                let _ = col.bcast(0, data, part);
            }
            Op::Reduce => {
                let _ = col.reduce(0, Payload::Phantom(part));
            }
        }
    })
}

/// Human-readable chunk tag from the structured span field (1-based, as in
/// the paper's Fig. 6 labeling).
fn chunk_suffix(chunk: Option<u32>) -> String {
    chunk.map_or(String::new(), |c| format!(" chunk {}", c + 1))
}

fn print_section(title: &str, rows: &[SpanRow]) {
    println!("\n== {title} ==");
    let mut table = Table::new(&["scenario", "span", "start(us)", "dur(us)"]);
    for r in rows {
        table.row(vec![
            r.scenario.clone(),
            format!("{}{} [{}]", r.label, chunk_suffix(r.chunk), r.kind),
            format!("{:.0}", r.start_us),
            format!("{:.0}", r.dur_us),
        ]);
    }
    table.print();
    // Fig-6-style bars on a shared axis.
    let bars: Vec<Bar> = rows
        .iter()
        .map(|r| Bar {
            label: format!("{} / {}{}", r.scenario, r.label, chunk_suffix(r.chunk)),
            start_us: r.start_us,
            dur_us: r.dur_us,
            fill: match r.kind.as_str() {
                "Post" => '#',
                "Wait" => '=',
                _ => '%',
            },
        })
        .collect();
    println!();
    print!("{}", render(&bars, 72));
}

#[derive(Serialize)]
struct ScenarioMetrics {
    scenario: String,
    metrics: MetricsBlock,
    profile: Option<ProfileBlock>,
}

#[derive(Serialize)]
struct Fig6Record {
    spans: Vec<SpanRow>,
    scenarios: Vec<ScenarioMetrics>,
}

pub fn main(opts: &Opts) {
    let m8 = 8 << 20;
    let m2 = 2 << 20;
    let mut all = Fig6Record {
        spans: Vec::new(),
        scenarios: Vec::new(),
    };
    for op in [Op::Reduce, Op::Bcast] {
        let opname = if op == Op::Reduce {
            "Reduction"
        } else {
            "Broadcast"
        };
        let mut section: Vec<SpanRow> = Vec::new();
        type Run<'a> = &'a dyn Fn(&str) -> Scenario;
        let scenarios: [(&str, Run); 6] = [
            ("blocking 8MB", &|name| {
                scenario_blocking(opts, op, m8, name)
            }),
            ("nonblocking 8MB", &|name| {
                scenario_nonblocking_single(opts, op, m8, name)
            }),
            ("blocking 2MB", &|name| {
                scenario_blocking(opts, op, m2, name)
            }),
            ("nonblocking 2MB", &|name| {
                scenario_nonblocking_single(opts, op, m2, name)
            }),
            ("nonblocking overlap N_DUP=4 (4x2MB)", &|name| {
                scenario_ndup(opts, op, m8, 4, name)
            }),
            ("4 PPN overlap (4x2MB)", &|name| {
                scenario_ppn(opts, op, m8, 4, name)
            }),
        ];
        for (case, run_case) in scenarios {
            let name = format!("{opname} {case}");
            let (spans, metrics, profile) = run_case(&name);
            section.extend(spans);
            all.scenarios.push(ScenarioMetrics {
                scenario: name,
                metrics,
                profile,
            });
        }
        print_section(
            &format!("{opname} of 8MB on 4 nodes (times on node 0)"),
            &section,
        );
        all.spans.extend(section);
    }
    println!(
        "\npaper anchors (Fig. 6): blocking 8MB reduce ≈ 5746us vs bcast ≈ 1392us; \
         Ireduce posts cost ≈ a buffer copy each (serialized), Ibcast posts are cheap; \
         both overlap techniques beat blocking for both operations."
    );
    write_json(&opts.out_dir, "fig6_time_diagram", &all);
}
