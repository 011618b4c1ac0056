//! `run`, `traced` and `compare`: all five workloads, one fresh process
//! each, through the same single-workload interface the driver uses.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::metrics::{Better, END_TO_END, RUN_SECONDS};
use crate::workloads::WORKLOADS;

/// `--quick`: the shortest window that still gives `MIN_REPS` repetitions
/// of every workload and the full oracle.
const QUICK_SECONDS: f64 = 1.0;

struct SuiteArgs {
    seed: u64,
    seconds: f64,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<SuiteArgs, String> {
    let mut parsed = SuiteArgs {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            parsed.seconds = QUICK_SECONDS;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("--seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| format!("--seconds {value}"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// First line of a tool's output, or "unknown" when it cannot be run (the
/// driver's checkout, for one, is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one workload in a fresh process; returns its `(result, detail)`
/// records and whether it exited cleanly.
fn run_workload(name: &str, trace: bool, args: &SuiteArgs) -> Result<(Value, Value, bool), String> {
    let mut flags = vec![
        "--workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if args.quick {
        // One process a workload keeps all five within half a minute.
        flags.extend(["--processes".to_string(), "1".to_string()]);
    }
    let (stdout, ok) = crate::run_self(&flags)?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    // The last line is the result, the one before it the detail record.
    let result = lines.pop().and_then(|l| serde_json::from_str(l).ok());
    let detail = crate::detail_of(lines.pop().unwrap_or_default());
    let (Some(result), Some(detail)) = (result, detail) else {
        return Err(format!("{name} printed no result"));
    };
    for line in lines {
        println!("{line}");
    }
    Ok((result, detail, ok))
}

pub fn run_all(trace: bool, args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    let kind = if trace { "traced" } else { "run" };
    let mut clean = true;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        let (result, detail, ok) = run_workload(name, trace, &args)?;
        let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(1);
        println!(
            "  ops {} failed {failed}",
            result.get("attempted").and_then(Value::as_u64).unwrap_or(0)
        );
        clean &= ok && failed == 0;
        workloads.push(Value::Object(vec![
            ("name".into(), Value::Str(name.into())),
            ("result".into(), result),
            ("detail".into(), detail),
        ]));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let record = Value::Object(vec![
        ("kind".into(), Value::Str(kind.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("available_parallelism".into(), Value::UInt(cores)),
        ("rustc".into(), Value::Str(tool_line("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads".into(), Value::Array(workloads)),
    ]);
    let path = args
        .out
        .unwrap_or_else(|| crate::out_dir().join(format!("{kind}-seed{}.json", args.seed)));
    let text = serde_json::to_string_pretty(&record).map_err(|e| format!("{e:?}"))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({})",
        path.display(),
        if clean {
            "all outputs correct"
        } else {
            "FAILURES"
        }
    );
    Ok(clean)
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The within-run spread of either side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// `(value, spread)` of one end-to-end metric of one workload of a `run`
/// record.
fn lookup(record: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let w = record
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?;
    let value = w
        .get("result")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()?;
    let spread = w.get("detail")?.get("spread")?.get(metric)?.as_f64()?;
    Some((value, spread))
}

pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two `run` records".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) =
                (lookup(&a, workload, m.name), lookup(&b, workload, m.name))
            else {
                return Err(format!("{workload} × {} is missing from a record", m.name));
            };
            let worse_by = worsening(va, vb, m.better);
            let spread = sa.max(sb);
            let v = verdict(worse_by, spread, m.bound);
            all_ok &= v == Verdict::Ok;
            println!(
                "{workload:<20} {:<12} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
                m.name,
                worse_by * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(1.0, 1.2, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!(worsening(1.0, 0.9, Better::Lower) < 0.0);
        assert!(worsening(100.0, 110.0, Better::Higher) < 0.0);
    }

    #[test]
    fn verdict_prefers_unresolved_over_worse() {
        assert_eq!(verdict(0.05, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(0.12, 0.02, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.12, 0.30, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(-0.50, 0.02, 0.10), Verdict::Ok);
    }

    #[test]
    fn lookup_reads_value_and_spread_of_a_run_record() {
        let record = serde_json::from_str(
            r#"{"workloads": [{"name": "w",
                "result": {"metrics": {"wall_s": {"value": 1.5, "unit": "s"}}},
                "detail": {"spread": {"wall_s": 0.04}}}]}"#,
        )
        .unwrap();
        assert_eq!(lookup(&record, "w", "wall_s"), Some((1.5, 0.04)));
        assert_eq!(lookup(&record, "w", "setup_s"), None);
        assert_eq!(lookup(&record, "x", "wall_s"), None);
    }
}
