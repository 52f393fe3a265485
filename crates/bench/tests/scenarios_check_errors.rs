//! `scenarios check` on a file with one bad field: a top-level
//! `topologies` key makes the file a `ScenarioGrid`, anything else a
//! single `Scenario`, and only that shape's parser reports. The error
//! names the path to the bad field and never the other shape.

use std::process::Command;

const SCENARIO: &str = r#"{
  "name": "bad node count",
  "topology": { "kind": "path", "n": "eight" },
  "protocol": { "kind": "greedy", "policy": "Fifo" },
  "source": { "kind": "burst", "round": 0, "source": 0, "dest": 3, "size": 1 },
  "extra": 5,
  "capacity": null
}"#;

const GRID: &str = r#"{
  "name": "bad node count on a grid axis",
  "topologies": [{ "kind": "path", "n": 8 }, { "kind": "path", "n": "eight" }],
  "protocols": [{ "kind": "greedy", "policy": "Fifo" }],
  "sources": [{ "kind": "burst", "round": 0, "source": 0, "dest": 3, "size": 1 }],
  "capacities": [],
  "extra": 5
}"#;

/// Runs `scenarios check` on `json` written to a temporary file; returns
/// the exit code and stderr.
fn check(name: &str, json: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!(
        "aqt-scenarios-check-{name}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .arg("check")
        .arg(&path)
        .output()
        .expect("scenarios runs");
    std::fs::remove_file(&path).unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_scenario_error_names_its_field_and_not_the_grid_shape() {
    let (code, stderr) = check("scenario", SCENARIO);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("topology.n: expected usize, found string"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("ScenarioGrid") && !stderr.contains("topologies"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_grid_error_names_its_field_and_not_the_scenario_shape() {
    let (code, stderr) = check("grid", GRID);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("topologies[1].n: expected usize, found string"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("a Scenario ") && !stderr.contains("missing field"),
        "stderr: {stderr}"
    );
}
