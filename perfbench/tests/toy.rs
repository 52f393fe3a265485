//! The benchmark's own test, on toy-size inputs: every workload that
//! `BENCHMARK.json` declares prints every declared metric with its name
//! and unit and passes its checks, and `path_hpts` checks its peak
//! against the static Thm 4.1 bound. That a bound one below the peak
//! fails the check is tested beside the check, in `src/main.rs`.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn declared() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark at toy size; returns its stdout lines and the
/// parsed last line.
fn run(args: &[&str]) -> (Vec<String>, Result) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--size", "toy", "--seconds", "0"])
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit {:?} for {args:?}", out.status);
    let lines: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect();
    let last = lines.last().expect("some output");
    let result = serde_json::from_str(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    (lines, result)
}

#[test]
fn every_declared_metric_prints_with_its_name_and_unit() {
    let bench = declared();
    assert!(!bench.workloads.is_empty());
    for workload in &bench.workloads {
        for (trace, metrics) in [("0", &bench.end_to_end), ("1", &bench.per_layer)] {
            let (lines, result) = run(&["--workload", &workload.name, "--trace", trace]);
            let what = format!("{} --trace {trace}", workload.name);
            assert!(result.correct, "{what}: {lines:#?}");
            assert!(result.attempted >= 1 && result.failed == 0, "{what}");
            assert_eq!(result.metrics.len(), metrics.len(), "{what}: metric count");
            for m in metrics {
                let got = result.metrics.get(&m.name).unwrap_or_else(|| {
                    panic!("{what}: {} missing from the result", m.name);
                });
                assert_eq!(got.unit, m.unit, "{what}: unit of {}", m.name);
                assert!(got.value.is_finite(), "{what}: {}", m.name);
                let prefix = format!("metric {} = ", m.name);
                let line = lines.iter().find(|l| l.starts_with(&prefix));
                let line = line.unwrap_or_else(|| panic!("{what}: no `{prefix}` line"));
                assert!(line.contains(&format!(" {}", m.unit)), "{what}: {line}");
            }
        }
    }
}

#[test]
fn path_hpts_checks_its_peak_against_the_static_bound() {
    let (lines, result) = run(&["--workload", "path_hpts"]);
    assert!(result.correct, "{lines:#?}");
    let peak: usize = lines
        .iter()
        .find_map(|l| l.strip_prefix("counts "))
        .and_then(|c| c.split(' ').find_map(|kv| kv.strip_prefix("peak=")))
        .and_then(|p| p.parse().ok())
        .expect("a `counts ... peak=N` line");
    // `check peak P <= B`, not `check peak P (no static bound)`: the
    // Thm 4.1 prediction is in force.
    let check = lines
        .iter()
        .find_map(|l| l.strip_prefix("check peak "))
        .expect("a `check peak` line");
    let (checked, bound) = check
        .split_once(" <= ")
        .unwrap_or_else(|| panic!("no static bound in force: `check peak {check}`"));
    assert_eq!(checked.parse::<usize>(), Ok(peak));
    let bound: usize = bound
        .parse()
        .unwrap_or_else(|e| panic!("bound `{bound}`: {e}"));
    assert!(peak <= bound, "peak {peak} above the bound {bound}");
}
