//! `scenarios check` on a 46,000 × 46,000 grid: 2.1×10⁹ nodes, inside the
//! 32-bit node and plan-slot limits. A computed grid is only its
//! dimensions, so the static checker builds it without allocating for
//! the topology, and the burstiness analysis of a short schedule keeps
//! state only for the buffers its routes cross. Each check runs under a
//! 4 GB address-space limit (`ulimit -v`), so a regression that
//! allocates per node or per edge fails fast instead of exhausting the
//! host.

use std::process::{Command, Output};

const DIAG: &str = r#"{
  "name": "46000x46000 diag",
  "topology": { "kind": "grid", "rows": 46000, "cols": 46000 },
  "protocol": { "kind": "dag_greedy", "policy": "Fifo" },
  "source": { "kind": "diagonal_wave", "per_step": 1, "gap": 1 },
  "extra": 0,
  "capacity": null
}"#;

/// Three packets 0 → 1: short enough to materialize and analyze.
const BURST: &str = r#"{
  "name": "46000x46000 burst",
  "topology": { "kind": "grid", "rows": 46000, "cols": 46000 },
  "protocol": { "kind": "dag_greedy", "policy": "Fifo" },
  "source": { "kind": "burst", "round": 0, "source": 0, "dest": 1, "size": 3 },
  "extra": 0,
  "capacity": null
}"#;

/// Runs `scenarios check` on `scenario` under a 4 GB address-space limit.
fn check_under_4gb(label: &str, scenario: &str) -> Output {
    let path = std::env::temp_dir().join(format!(
        "aqt-scenarios-check-scale-{label}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, scenario).unwrap();
    let out = Command::new("sh")
        .args(["-c", r#"ulimit -v 4000000; exec "$0" check "$1""#])
        .arg(env!("CARGO_BIN_EXE_scenarios"))
        .arg(&path)
        .output()
        .expect("sh runs");
    std::fs::remove_file(&path).unwrap();
    out
}

#[test]
fn check_passes_on_a_46000_squared_grid_under_a_4gb_limit() {
    let out = check_under_4gb("diag", DIAG);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("46000x46000 diag — OK"), "stdout: {stdout}");
    assert!(
        stdout.contains("predict peak_occupancy = 46001"),
        "stdout: {stdout}"
    );
}

#[test]
fn a_short_burst_is_analyzed_without_per_node_state() {
    let out = check_under_4gb("burst", BURST);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("46000x46000 burst — OK"),
        "stdout: {stdout}"
    );
    // Three packets in one round at ρ = 1: σ* = 2.
    assert!(
        stdout.contains("workload (1, 2)-bounded"),
        "stdout: {stdout}"
    );
}
