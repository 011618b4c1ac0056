//! The `ovcomm-bench` driver, exercised as a process: subcommand dispatch,
//! strict flag checking, and `regen --check` against the committed
//! `results/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_ovcomm-bench");

/// The repository's committed `results/`.
fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A fresh, empty working directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ovcomm-driver-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn ovcomm-bench")
}

/// `(name, regen set)` rows of `ovcomm-bench list`.
fn listed() -> Vec<(String, String)> {
    let out = bench(Path::new("."), &["list"]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("list prints utf-8")
        .lines()
        .skip(1)
        .map(|line| {
            let mut cols = line.split_whitespace();
            let mut col = || cols.next().expect("name and set columns").to_string();
            (col(), col())
        })
        .collect()
}

#[test]
fn table_names_are_unique_and_regen_sets_are_documented() {
    let rows = listed();
    assert!(rows.len() >= 23, "{rows:?}");
    let readme = fs::read_to_string(committed().join("README.md")).expect("results/README.md");
    for (i, (name, set)) in rows.iter().enumerate() {
        assert!(
            rows[..i].iter().all(|(other, _)| other != name),
            "duplicate generator `{name}`"
        );
        if set != "-" {
            assert!(
                readme.contains(&format!("| `{name}.json` |")),
                "results/README.md has no row for `{name}.json`"
            );
        }
    }
    let count = |s: &str| rows.iter().filter(|(_, set)| set == s).count();
    assert_eq!((count("fast"), count("slow")), (13, 6));
}

#[test]
fn usage_errors_exit_2() {
    let cwd = scratch("usage");
    for args in [
        &["no_such_generator"][..],
        &["table1_algorithms", "--somke"],
        &["table1_algorithms", "--smoke"],
        &["table1_algorithms", "--coll-select", "allreduce=64k"],
        &["scale_sweep", "--budget"],
        &["regen"],
        &["regen", "--check", "some_dir"],
        &[],
    ] {
        let out = bench(&cwd, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: ovcomm-bench"), "{args:?}: {err}");
        if args.contains(&"--coll-select") {
            assert!(
                err.contains("unknown flag `--coll-select`"),
                "{args:?}: {err}"
            );
        }
    }
    // A rejected command line runs nothing and writes nothing.
    assert!(!cwd.join("results").exists());
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn plain_subcommand_reproduces_the_committed_artifact() {
    let cwd = scratch("sec5a");
    let out = bench(&cwd, &["sec5a_alpha_beta"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = fs::read(cwd.join("results/sec5a_alpha_beta.json")).expect("record written");
    let want = fs::read(committed().join("sec5a_alpha_beta.json")).expect("committed record");
    assert!(
        fresh == want,
        "results/sec5a_alpha_beta.json does not regenerate byte-for-byte"
    );
    fs::remove_dir_all(&cwd).ok();
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the fast regen set twice (~70 s unoptimized): release builds only"
)]
fn regen_check_passes_on_results_and_names_a_flipped_file() {
    let cwd = scratch("regen");
    let copy = cwd.join("results");
    fs::create_dir_all(&copy).expect("create results copy");
    for entry in fs::read_dir(committed()).expect("read results/") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy artifact");
    }
    let out = bench(&cwd, &["regen", "--check"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let victim = copy.join("table1_algorithms.json");
    let mut bytes = fs::read(&victim).expect("table1 copy");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    fs::write(&victim, bytes).expect("rewrite table1 copy");
    let out = bench(&cwd, &["regen", "--check"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("results/table1_algorithms.json differs"),
        "{err}"
    );
    assert_eq!(err.matches(" differs ").count(), 1, "{err}");
    fs::remove_dir_all(&cwd).ok();
}
