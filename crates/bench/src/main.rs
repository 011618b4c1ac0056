//! `ovcomm-bench <subcommand> [flags]` — the one driver behind every table
//! and figure generator. The process arguments are parsed here, once, into
//! an [`Opts`] that is passed down; an unknown subcommand, an unknown flag,
//! or a flag the chosen subcommand does not take is a usage error (exit 2).

mod generators;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use generators::{Generator, Set, GENERATORS};
use ovcomm_bench::{Backend, Opts};

const USAGE: &str = "\
usage: ovcomm-bench list                      every generator, its regen set and flags
       ovcomm-bench <generator> [flags]       print the table, write results/<generator>.json
       ovcomm-bench regen [--all] <dir>       run the fast (--all: + slow) set into <dir>/results/
       ovcomm-bench regen [--all] --check     ... into a temp dir, byte-compared against results/";

/// `regen [--all] <dir>` or `regen [--all] --check`.
fn regen_command(args: &[String]) -> Result<ExitCode, String> {
    let (mut all, mut check, mut dir) = (false, false, None);
    for a in args {
        match a.as_str() {
            "--all" => all = true,
            "--check" => check = true,
            f if f.starts_with('-') => return Err(format!("`regen` does not take {f}")),
            d if dir.is_none() => dir = Some(PathBuf::from(d)),
            d => return Err(format!("unexpected operand `{d}`")),
        }
    }
    if check == dir.is_some() {
        return Err("`regen` takes exactly one of <dir> and --check".into());
    }
    Ok(regen(all, dir))
}

/// `<generator> [flags]`.
fn generate(name: &str, args: &[String]) -> Result<ExitCode, String> {
    let g = GENERATORS
        .iter()
        .find(|g| g.name == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    (g.run)(&parse_flags(g, args)?);
    Ok(ExitCode::SUCCESS)
}

fn parse_flags(g: &Generator, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (arg.as_str(), None),
        };
        if !g.flags.contains(&flag) {
            return Err(if GENERATORS.iter().any(|o| o.flags.contains(&flag)) {
                format!("`{}` does not take {flag}", g.name)
            } else {
                format!("unknown flag `{arg}`")
            });
        }
        let mut value = || {
            inline
                .or_else(|| it.next().map(String::as_str))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--smoke" | "--fail-on-lint" if inline.is_some() => {
                return Err(format!("{flag} takes no value"))
            }
            "--smoke" => opts.smoke = true,
            "--fail-on-lint" => opts.fail_on_lint = true,
            "--backend" => {
                opts.backend = Some(match value()? {
                    "sim" => Backend::Sim,
                    "rt" => Backend::Rt,
                    other => return Err(format!("bad --backend `{other}`: expected sim or rt")),
                })
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            "--budget" => {
                let secs = value()?;
                let secs = secs
                    .parse()
                    .map_err(|_| format!("bad --budget `{secs}`: expected seconds"))?;
                opts.budget = Some(secs);
            }
            _ => unreachable!("the generator table names a flag the parser does not know"),
        }
    }
    Ok(opts)
}

fn list() -> ExitCode {
    println!("{:<20} {:<5} flags", "generator", "regen");
    for g in GENERATORS {
        let set = match g.set {
            Set::Fast => "fast",
            Set::Slow => "slow",
            Set::None => "-",
        };
        println!("{:<20} {set:<5} {}", g.name, g.flags.join(" "));
    }
    ExitCode::SUCCESS
}

/// Run the fast (`all`: fast + slow) set in-process, in table order, into
/// `<dir>/results/`. With no `dir` (`--check`) the records go to a temp
/// dir and every written file is byte-compared against `results/<same
/// name>` in the cwd: virtual time is deterministic, so a differing byte
/// is a change in modeled behaviour.
fn regen(all: bool, dir: Option<PathBuf>) -> ExitCode {
    let check = dir.is_none();
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ovcomm-regen-{}", std::process::id()))
    });
    let opts = Opts {
        out_dir: dir.join("results"),
        ..Opts::default()
    };
    let set = GENERATORS
        .iter()
        .filter(|g| g.set == Set::Fast || (all && g.set == Set::Slow));
    let mut n = 0;
    for g in set {
        (g.run)(&opts);
        n += 1;
    }
    eprintln!("regen: {n} generators -> {}", opts.out_dir.display());
    if !check {
        return ExitCode::SUCCESS;
    }
    let differing = differing_files(&opts.out_dir, Path::new("results"));
    let _ = fs::remove_dir_all(&dir);
    match differing {
        Ok(names) if names.is_empty() => {
            eprintln!("regen --check: every regenerated file matches results/");
            ExitCode::SUCCESS
        }
        Ok(names) => {
            for name in names {
                eprintln!("regen --check: results/{name} differs from the regenerated file");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("regen --check: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Names of the files in `fresh` whose bytes differ from (or that are
/// missing in) `committed`.
fn differing_files(fresh: &Path, committed: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(fresh)? {
        let name = entry?.file_name();
        if fs::read(fresh.join(&name))? != fs::read(committed.join(&name)).unwrap_or_default() {
            names.push(name.to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first().map(|(sub, rest)| (sub.as_str(), rest)) {
        None => Err("missing subcommand".into()),
        Some(("list", [])) => Ok(list()),
        Some(("list", _)) => Err("`list` takes no arguments".into()),
        Some(("regen", rest)) => regen_command(rest),
        Some((name, rest)) => generate(name, rest),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("ovcomm-bench: {msg}\n{USAGE}");
        ExitCode::from(2)
    })
}
