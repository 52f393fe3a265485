//! Bad `--bench-baseline` and `--bench-json` input is rejected with exit
//! status 2 before any experiment runs: no table is printed.

use std::path::PathBuf;
use std::process::Command;

/// A fresh temporary path for one test (tests run in parallel).
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aqt-bench-input-{}-{name}", std::process::id()))
}

/// Runs `experiments --quick e8 <args>` and asserts it exits 2 with an
/// `error:` line and empty stdout; returns stderr.
fn rejects(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "e8"])
        .args(args)
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no table may print before the check");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    stderr
}

fn rejects_baseline(name: &str, contents: &str) -> String {
    let path = temp_path(name);
    std::fs::write(&path, contents).unwrap();
    let stderr = rejects(&["--bench-baseline", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    stderr
}

#[test]
fn a_malformed_baseline_exits_2() {
    let stderr = rejects_baseline("malformed.json", "{ not json");
    assert!(stderr.contains("is not an engine bench record"));
}

#[test]
fn an_old_format_baseline_exits_2() {
    // The flat pre-record format: no `cores`, no `runs`.
    let old = r#"{"quick": true, "nodes": 256, "rounds": 258, "wall_ms": 2.3}"#;
    let stderr = rejects_baseline("old.json", old);
    assert!(stderr.contains("is not an engine bench record"));
}

#[test]
fn a_missing_baseline_exits_2() {
    let path = temp_path("absent.json");
    let stderr = rejects(&["--bench-baseline", path.to_str().unwrap()]);
    assert!(stderr.contains("cannot read baseline"));
}

#[test]
fn an_unwritable_bench_json_path_exits_2() {
    let path = temp_path("no-such-dir").join("BENCH_engine.json");
    let stderr = rejects(&["--bench-json", path.to_str().unwrap()]);
    assert!(stderr.contains("cannot create"));
}
