//! The ovcomm benchmark: wall clock and real bytes, five workloads, four
//! end-to-end metrics, one number per layer. See `README.md`.
//!
//! One process measures one workload:
//!
//! ```text
//! ovcomm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of its standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `run`, `traced` and `compare` (see `suite.rs`) drive all five workloads
//! through that interface, one fresh process each.

mod gen;
mod metrics;
mod probes;
mod procstat;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ovcomm_simmpi::VerifyMode;
use serde_json::Value;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procstat::ProcStat;
use crate::spans::Recorder;
use crate::stats::{fastest_half, median, overhead_frac, summarize};
use crate::workloads::{RepOut, Variant, Workload, WORKLOADS};

/// Untimed repetitions before the timed window. The first is the cold
/// one; glibc's mmap threshold stops adapting after the second.
const WARM_UPS: usize = 2;
/// A run never closes on fewer timed repetitions than this.
const MIN_REPS: usize = 3;
/// Fresh processes an end-to-end run pools. Each sets up and measures a
/// third of the window, so `setup_s` and `peak_rss_mb` are medians of three
/// cold starts, and `wall_s` is taken over three memory layouts and a span
/// of time twice the window: on this box both move a run by more than the
/// repetitions within one process differ.
const PROCESSES: usize = 3;
/// Repetitions under each cheap non-base variant of the traced run.
const VARIANT_REPS: usize = 2;

/// Where the traced run writes spans and `run`/`traced` their records.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Fresh processes to pool; 1 measures in this process.
    processes: usize,
    /// The timed window stays open for at least this many repetitions.
    min_reps: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        processes: PROCESSES,
        min_reps: MIN_REPS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        let count = || match value.parse() {
            Ok(n) if (1..=99).contains(&n) => Ok(n),
            _ => Err(bad("a count from 1 to 99")),
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(0.0..=600.0).contains(&parsed.seconds) {
                    return Err(bad("0 to 600 seconds"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--processes" => parsed.processes = count()?,
            "--min-reps" => parsed.min_reps = count()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "--workload `{}`: expected one of {}",
            parsed.workload,
            names.join(", ")
        ));
    }
    Ok(parsed)
}

const USAGE: &str = "usage:
  ovcomm-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
  ovcomm-benchmark run    [--seed <u64>] [--seconds <s> | --quick] [--out <file>]
  ovcomm-benchmark traced [--seed <u64>] [--seconds <s> | --quick] [--out <file>]
  ovcomm-benchmark compare <a.json> <b.json>";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run_all(false, &args[1..]),
        Some("traced") => suite::run_all(true, &args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        _ => parse_args(&args).and_then(|a| measure(&a, started)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One timed repetition and what the operating system charged for it.
struct Rep {
    wall_s: f64,
    charged: ProcStat,
    out: RepOut,
}

/// Counts every kernel call of the process against the oracle.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Messages of the first repetition; every later one must match.
    messages: Option<u64>,
}

impl Tally {
    fn rep(
        &mut self,
        w: &mut dyn Workload,
        variant: Variant,
        rec: &mut Recorder,
        label: &str,
    ) -> Rep {
        let before = procstat::now();
        let (mut out, wall_s) = rec.timed(label, "harness", |rec| {
            let out = w.rep(variant, rec);
            let ops = out.ops;
            (out, ops)
        });
        let charged = procstat::now().since(&before);
        let first = *self.messages.get_or_insert(out.messages);
        if out.failed == 0 && out.messages != first {
            out.failed = 1;
            out.notes.push(format!(
                "{} messages, first repetition had {first}",
                out.messages
            ));
        }
        for note in &out.notes {
            eprintln!("{label}: FAILED: {note}");
        }
        self.attempted += out.ops;
        self.failed += out.failed;
        Rep {
            wall_s,
            charged,
            out,
        }
    }

    /// Repetitions under `variant` until `seconds` have passed, at least
    /// `min_reps`.
    fn window(
        &mut self,
        w: &mut dyn Workload,
        variant: Variant,
        rec: &mut Recorder,
        seconds: f64,
        min_reps: usize,
    ) -> Vec<Rep> {
        let opened = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < min_reps || opened.elapsed().as_secs_f64() < seconds {
            reps.push(self.rep(w, variant, rec, "repetition"));
        }
        reps
    }
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

fn measure(args: &Args, started: Instant) -> Result<bool, String> {
    if !args.trace && args.processes > 1 {
        let pool = pooled(args)?;
        return emit(
            args,
            pool.metrics(),
            pool.detail(args),
            pool.attempted,
            pool.failed,
        );
    }
    let mut rec = Recorder::new(args.trace);
    let mut tally = Tally::default();
    // The root span; everything the process does for the workload nests
    // inside it, so layer self times tile its duration.
    let (metrics, detail) = rec.span(&args.workload, "harness", |rec| {
        let (mut w, cold_rep_s) = rec.span("set-up", "harness", |rec| {
            let mut w = workloads::build(&args.workload, args.seed, rec)
                .expect("parse_args admits only known workloads");
            let base = w.base();
            let warm: Vec<Rep> = (0..WARM_UPS)
                .map(|_| tally.rep(w.as_mut(), base, rec, "warm-up repetition"))
                .collect();
            ((w, warm[0].wall_s), WARM_UPS as u64)
        });
        let setup_s = started.elapsed().as_secs_f64();
        let measured = if args.trace {
            traced(args, w.as_mut(), &mut tally, rec, cold_rep_s)
        } else {
            let base = w.base();
            let reps = tally.window(w.as_mut(), base, rec, args.seconds, args.min_reps);
            let pool = Pool {
                inputs: w.inputs(),
                messages_per_rep: tally.messages.unwrap_or(0),
                attempted: tally.attempted,
                failed: tally.failed,
                processes: vec![Sample {
                    setup_s,
                    peak_rss_mb: procstat::now().peak_rss_mb,
                    walls_s: walls(&reps),
                }],
            };
            (pool.metrics(), pool.detail(args))
        };
        (measured, 1)
    });
    if args.trace {
        let path = out_dir().join(format!("{}.spans.json", args.workload));
        let text = serde_json::to_string(&spans::to_json(rec.spans()))
            .map_err(|e| format!("spans do not serialise: {e:?}"))?;
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, text + "\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    emit(args, metrics, detail, tally.attempted, tally.failed)
}

type Fields = Vec<(String, Value)>;
/// Metrics in declaration order.
type Metrics = Vec<(&'static str, f64)>;

/// Print every metric by name and unit, the detail record `run`/`traced`
/// keep, and — last — the result object the driver reads.
fn emit(
    args: &Args,
    metrics: Metrics,
    detail: Fields,
    attempted: u64,
    failed: u64,
) -> Result<bool, String> {
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
        .collect();
    println!("{} seed {}", args.workload, args.seed);
    let mut rows = Vec::new();
    for (name, value) in metrics {
        // A failed repetition can leave a ratio undefined; `failed` reports
        // it, and the result stays parseable.
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<32} {value:>18.6} {}", units[name]);
        rows.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(units[name].into())),
            ]),
        ));
    }
    let line = |v: &Value| serde_json::to_string(v).map_err(|e| format!("{e:?}"));
    println!("detail: {}", line(&Value::Object(detail))?);
    println!(
        "{}",
        line(&Value::Object(vec![
            ("correct".into(), Value::Bool(failed == 0)),
            ("attempted".into(), Value::UInt(attempted.max(1))),
            ("failed".into(), Value::UInt(failed)),
            ("metrics".into(), Value::Object(rows)),
        ]))?
    );
    Ok(failed == 0)
}

fn detail_head(args: &Args, inputs: &str) -> Fields {
    vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("inputs".into(), Value::Str(inputs.into())),
    ]
}

/// What one fresh process measured with harness tracing off.
struct Sample {
    setup_s: f64,
    peak_rss_mb: f64,
    /// Wall seconds of every timed repetition.
    walls_s: Vec<f64>,
}

/// One workload's samples, of one process or of several pooled.
struct Pool {
    inputs: String,
    messages_per_rep: u64,
    attempted: u64,
    failed: u64,
    processes: Vec<Sample>,
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

/// The four end-to-end metrics of a set of samples. Disturbances on a
/// shared box only ever add time, and they come in stretches longer than a
/// run, so the two timings are taken from the fast side of the
/// distribution: they repeat from run to run where median and mean do not
/// (README, "Steadiness").
fn end_to_end(samples: &[&Sample], messages_per_rep: u64) -> [f64; 4] {
    let each = |f: fn(&Sample) -> f64| samples.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let walls: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.walls_s.iter().copied())
        .collect();
    let half = fastest_half(&walls);
    [
        median(&each(|s| s.setup_s)),
        half[0],
        (messages_per_rep * half.len() as u64) as f64 / half.iter().sum::<f64>(),
        median(&each(|s| s.peak_rss_mb)),
    ]
}

impl Pool {
    fn metrics(&self) -> Metrics {
        let all: Vec<&Sample> = self.processes.iter().collect();
        let values = end_to_end(&all, self.messages_per_rep);
        END_TO_END.iter().map(|m| m.name).zip(values).collect()
    }

    /// The record `run` keeps and a pooling parent reads back: every
    /// sample, how far the processes' own values of each metric lie apart
    /// (quartile spread ÷ median), and the middle and tail of the
    /// repetition times.
    fn detail(&self, args: &Args) -> Fields {
        let own: Vec<[f64; 4]> = self
            .processes
            .iter()
            .map(|s| end_to_end(&[s], self.messages_per_rep))
            .collect();
        let spread = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values: Vec<f64> = own.iter().map(|v| v[i]).collect();
                (
                    m.name.to_string(),
                    Value::Float(summarize(&values).iqr_frac),
                )
            })
            .collect();
        let walls: Vec<f64> = self
            .processes
            .iter()
            .flat_map(|s| s.walls_s.clone())
            .collect();
        let wall = summarize(&walls);
        let processes = self
            .processes
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("setup_s".into(), Value::Float(s.setup_s)),
                    ("peak_rss_mb".into(), Value::Float(s.peak_rss_mb)),
                    ("walls_s".into(), floats(&s.walls_s)),
                ])
            })
            .collect();
        let mut detail = detail_head(args, &self.inputs);
        detail.extend([
            ("reps".into(), Value::UInt(wall.samples as u64)),
            (
                "messages_per_rep".into(),
                Value::UInt(self.messages_per_rep),
            ),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("spread".into(), Value::Object(spread)),
            ("wall_median_s".into(), Value::Float(wall.median)),
            ("wall_hi_pct".into(), Value::Float(wall.hi_pct)),
            ("wall_hi_s".into(), Value::Float(wall.hi)),
            ("processes".into(), Value::Array(processes)),
        ]);
        detail
    }

    fn from_detail(detail: &Value) -> Option<Pool> {
        let processes = detail
            .get("processes")?
            .as_array()?
            .iter()
            .map(|p| {
                Some(Sample {
                    setup_s: p.get("setup_s")?.as_f64()?,
                    peak_rss_mb: p.get("peak_rss_mb")?.as_f64()?,
                    walls_s: p
                        .get("walls_s")?
                        .as_array()?
                        .iter()
                        .map(Value::as_f64)
                        .collect::<Option<Vec<f64>>>()
                        .filter(|w| !w.is_empty())?,
                })
            })
            .collect::<Option<Vec<Sample>>>()
            .filter(|p| !p.is_empty())?;
        Some(Pool {
            inputs: detail.get("inputs")?.as_str()?.to_string(),
            messages_per_rep: detail.get("messages_per_rep")?.as_u64()?,
            attempted: detail.get("attempted")?.as_u64()?,
            failed: detail.get("failed")?.as_u64()?,
            processes,
        })
    }

    /// Fold another process's samples into this pool. Inputs and message
    /// counts come from the seed alone, so a difference is a failure.
    fn absorb(&mut self, other: Pool) {
        if other.inputs != self.inputs || other.messages_per_rep != self.messages_per_rep {
            eprintln!(
                "FAILED: a process saw inputs `{}` and {} messages per repetition, another `{}` and {}",
                other.inputs, other.messages_per_rep, self.inputs, self.messages_per_rep
            );
            self.failed += 1;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.processes.extend(other.processes);
    }
}

/// Run this executable again with `flags`, its stderr passed through, and
/// return its standard output and whether it exited cleanly.
fn run_self(flags: &[String]) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(flags)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn a measuring process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    Ok((text, out.status.success()))
}

/// The `detail:` record among a measuring process's output lines.
fn detail_of(stdout: &str) -> Option<Value> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("detail: "))?;
    serde_json::from_str(line).ok()
}

/// Measure in `args.processes` fresh processes, one after the other, each
/// with an equal share of the window, and pool what they report.
fn pooled(args: &Args) -> Result<Pool, String> {
    let share = args.seconds / args.processes as f64;
    let min_reps = args.min_reps.div_ceil(args.processes);
    let flags = [
        "--workload",
        &args.workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &share.to_string(),
        "--min-reps",
        &min_reps.to_string(),
        "--trace",
        "0",
        "--processes",
        "1",
    ]
    .map(str::to_string);
    let mut pool: Option<Pool> = None;
    for _ in 0..args.processes {
        let (stdout, _) = run_self(&flags)?;
        let sample = detail_of(&stdout)
            .and_then(|v| Pool::from_detail(&v))
            .ok_or("a measuring process reported nothing")?;
        match pool.as_mut() {
            None => pool = Some(sample),
            Some(pool) => pool.absorb(sample),
        }
    }
    pool.ok_or("no process measured".to_string())
}

/// The traced run: a quarter of the window with the harness recorder
/// alternately on and off, then each variant that flips one field of the
/// base configuration, then the layer probes.
fn traced(
    args: &Args,
    w: &mut dyn Workload,
    tally: &mut Tally,
    rec: &mut Recorder,
    cold_rep_s: f64,
) -> (Metrics, Fields) {
    let base = w.base();
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect();

    // Base variant, recorder on and off in turn: the difference is what
    // the harness's own spans cost.
    let opened = Instant::now();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    while on.len() < 2 || opened.elapsed().as_secs_f64() < args.seconds / 4.0 {
        on.push(tally.rep(w, base, rec, "repetition"));
        rec.pause(|rec| off.push(tally.rep(w, base, rec, "repetition")));
    }
    m.insert(
        "harness.trace_overhead_frac",
        overhead_frac(&walls(&on), &walls(&off)),
    );
    let base_reps: Vec<Rep> = on.into_iter().chain(off).collect();
    let base_walls = walls(&base_reps);
    let wall = summarize(&base_walls);
    let strict_is_base = base.verify == VerifyMode::Strict;
    let is_rt = w.serial_s().is_some();
    // Repetitions under the base variant with one field flipped, and what
    // the flip costs relative to the base repetitions. Analyses that only a
    // traced run can feed are priced by their own metrics, not here.
    let mut variant_overhead = |flip: &dyn Fn(&mut Variant), label: &str, count: usize| {
        let mut v = base;
        flip(&mut v);
        let reps: Vec<Rep> = (0..count).map(|_| tally.rep(w, v, rec, label)).collect();
        let run_walls: Vec<f64> = reps
            .iter()
            .map(|r| r.wall_s - r.out.analyses.profile_block_s - r.out.analyses.perfetto_export_s)
            .collect();
        (overhead_frac(&run_walls, &base_walls), reps)
    };

    // Verification: Strict against Off, whichever of the two is the base.
    let (frac, _) = variant_overhead(
        &|v| {
            v.verify = if strict_is_base {
                VerifyMode::Off
            } else {
                VerifyMode::Strict
            }
        },
        "repetition, verify flipped",
        VARIANT_REPS,
    );
    // (Strict − Off) ÷ Off, from either direction.
    let strict_frac = if strict_is_base {
        -frac / (1.0 + frac)
    } else {
        frac
    };
    m.insert(
        if is_rt {
            "rt.strict_overhead_frac"
        } else {
            "verify.strict_overhead_frac"
        },
        strict_frac,
    );
    // One repetition: `profile_block` on its trace alone can take as long as
    // every other repetition of the traced run together.
    let (frac, traced_reps) =
        variant_overhead(&|v| v.trace = true, "repetition, crates' trace on", 1);
    m.insert("obs.trace_overhead_frac", frac);
    if is_rt {
        let (frac, _) = variant_overhead(
            &|v| v.sampler = true,
            "repetition, rt sampler on",
            VARIANT_REPS,
        );
        m.insert("rt.sampler_overhead_frac", frac);
    }

    let med =
        |f: &dyn Fn(&Rep) -> f64, reps: &[Rep]| median(&reps.iter().map(f).collect::<Vec<_>>());
    m.insert(
        "obs.trace_spans",
        med(&|r| r.out.analyses.trace_spans as f64, &traced_reps),
    );
    m.insert(
        "obs.metrics_block_ms",
        med(&|r| r.out.analyses.metrics_block_s * 1e3, &base_reps),
    );
    m.insert(
        "obs.profile_block_ms",
        med(&|r| r.out.analyses.profile_block_s * 1e3, &traced_reps),
    );
    m.insert(
        "obs.perfetto_export_ms",
        med(&|r| r.out.analyses.perfetto_export_s * 1e3, &traced_reps),
    );

    let model = base_reps[0].out.model;
    m.insert("model.virtual_s", model.virtual_s);
    m.insert("model.tflops", model.tflops);
    m.insert("model.overlap_efficiency", model.overlap_efficiency);
    m.insert("model.ndup_gain", model.ndup_gain);

    m.insert("process.user_s", med(&|r| r.charged.user_s, &base_reps));
    m.insert("process.sys_s", med(&|r| r.charged.sys_s, &base_reps));
    m.insert(
        "process.minor_faults",
        med(&|r| r.charged.minor_faults as f64, &base_reps),
    );
    m.insert(
        "process.invol_ctx",
        med(&|r| r.charged.invol_ctx as f64, &base_reps),
    );
    m.insert("process.cold_rep_s", cold_rep_s);
    m.insert("rep.samples", wall.samples as f64);
    m.insert("rep.wall_hi_s", wall.hi);
    m.insert("rep.wall_hi_pct", wall.hi_pct);
    m.insert("rep.iqr_frac", wall.iqr_frac);

    let shapes = w.shapes();
    rec.span("layer probes", "harness", |rec| {
        probes::run_all(&shapes, base, rec, &mut m);
        ((), 1)
    });
    let run_findings: u64 = base_reps.iter().map(|r| r.out.findings).sum();
    *m.get_mut("verify.findings").expect("declared") += run_findings as f64;

    if let Some(serial_s) = w.serial_s() {
        let calls = w.calls_per_rep() as f64;
        // Like the end-to-end `wall_s`: the fastest base repetition.
        let wall_s = fastest_half(&base_walls)[0];
        let ranks = shapes.ranks as f64;
        for (slot, name) in [
            "rt.wait_spin_frac",
            "rt.wait_park_frac",
            "rt.rendezvous_stall_frac",
        ]
        .into_iter()
        .enumerate()
        {
            let share = |r: &Rep| r.out.rt_wait_ns[slot] as f64 / (ranks * r.wall_s * 1e9);
            m.insert(name, med(&share, &base_reps));
        }
        m.insert("rt.speedup_vs_serial", serial_s / (wall_s / calls));
        // Two block GEMMs per rank and call, at the probed rate.
        let edge = shapes.gemm_edge as f64;
        let gemm_s = calls * 2.0 * 2.0 * edge.powi(3) / (m["densemat.gemm_gflops"] * 1e9);
        m.insert("densemat.gemm_share", gemm_s / wall_s);
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, m[name]))
        .collect();
    let mut detail = detail_head(args, &w.inputs());
    detail.push(("reps".into(), Value::UInt(base_reps.len() as u64)));
    detail.push(("wall_median_s".into(), Value::Float(wall.median)));
    (metrics, detail)
}
