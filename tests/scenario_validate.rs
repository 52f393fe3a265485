//! The static checker against the checked-in artifact corpus: every
//! valid `scenarios/*.json` file passes [`Scenario::validate`] with a
//! usable [`StaticReport`], and every file in `scenarios/invalid/` is
//! rejected with the *named* [`ScenarioError`] variant it documents —
//! all without executing a single round. The run path never panics on
//! that corpus either.

use small_buffers::{run_scenario, Scenario, ScenarioError, ScenarioGrid, TopologySpecError};

fn read(rel: &str) -> String {
    let path = format!("{}/scenarios/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn parse(rel: &str) -> Scenario {
    serde_json::from_str(&read(rel)).unwrap_or_else(|e| panic!("{rel} must parse: {e}"))
}

fn reject(rel: &str) -> ScenarioError {
    parse(rel)
        .validate()
        .err()
        .unwrap_or_else(|| panic!("{rel} must be rejected"))
}

/// The error [`run_scenario`] returns for `rel`.
fn reject_run(rel: &str) -> ScenarioError {
    run_scenario(&parse(rel))
        .err()
        .unwrap_or_else(|| panic!("{rel} must fail to run"))
}

#[test]
fn every_valid_artifact_passes_static_validation() {
    for file in [
        "e11a_fifo_cap4.json",
        "e12_grid_4x4_diag.json",
        "faults_grid_links.json",
        "hpts_shaped_line.json",
        "ppts_roundrobin_path.json",
        "pts_two_wave_path.json",
        "tree_pts_star_burst.json",
        "tree_random_gather.json",
    ] {
        let scenario: Scenario =
            serde_json::from_str(&read(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let report = scenario
            .validate()
            .unwrap_or_else(|e| panic!("{file} must validate: {e}"));
        assert!(report.nodes > 0, "{file}");
        assert!(
            !report.family.is_empty() && !report.protocol.is_empty(),
            "{file}"
        );
    }
    let grid: ScenarioGrid =
        serde_json::from_str(&read("mesh_sweep_grid.json")).expect("grid parses");
    for result in grid.validate() {
        result.expect("every mesh sweep cell validates");
    }
}

#[test]
fn protocol_topology_mismatch_is_a_protocol_error() {
    let err = reject("invalid/bad_protocol_topology.json");
    assert!(matches!(err, ScenarioError::Protocol(_)), "{err}");
    assert!(
        err.to_string().contains("pts requires a path topology"),
        "{err}"
    );
}

#[test]
fn round0_overflow_is_a_static_check() {
    let err = reject("invalid/capacity_below_round0.json");
    assert!(
        matches!(&err, ScenarioError::Static { check, .. } if *check == "round0-capacity"),
        "{err}"
    );
    assert!(err.to_string().contains("drops are guaranteed"), "{err}");
}

#[test]
fn empty_hierarchy_is_a_protocol_error() {
    let err = reject("invalid/hpts_zero_levels.json");
    assert!(matches!(err, ScenarioError::Protocol(_)), "{err}");
    assert!(err.to_string().contains("at least one level"), "{err}");
}

#[test]
fn zero_telemetry_stride_is_a_static_check() {
    let err = reject("invalid/zero_telemetry_stride.json");
    assert!(
        matches!(&err, ScenarioError::Static { check, .. } if *check == "telemetry-strides"),
        "{err}"
    );
    assert!(err.to_string().contains("series_stride"), "{err}");
}

#[test]
fn permanently_severed_route_is_a_static_check() {
    let err = reject("invalid/fault_severed_route.json");
    assert!(
        matches!(&err, ScenarioError::Static { check, .. } if *check == "fault-severed-route"),
        "{err}"
    );
    assert!(err.to_string().contains("permanently severs"), "{err}");
}

#[test]
fn out_of_range_destination_is_a_source_error() {
    let err = reject("invalid/out_of_range_dest.json");
    assert!(matches!(err, ScenarioError::Source(_)), "{err}");
    assert!(err.to_string().contains("node out of range"), "{err}");
}

#[test]
fn starved_shaper_is_a_source_error() {
    let err = reject("invalid/shaped_starved.json");
    assert!(matches!(err, ScenarioError::Source(_)), "{err}");
    assert!(err.to_string().contains("need rho + sigma >= 1"), "{err}");
}

#[test]
fn unroutable_pattern_is_a_source_error() {
    let err = reject("invalid/unroutable_pattern.json");
    assert!(matches!(err, ScenarioError::Source(_)), "{err}");
    assert!(
        err.to_string().contains("no route in the topology"),
        "{err}"
    );
}

#[test]
fn degenerate_topology_is_a_topology_error() {
    let err = reject("invalid/zero_node_path.json");
    assert!(matches!(err, ScenarioError::Topology(_)), "{err}");
    assert!(err.to_string().contains("at least one node"), "{err}");
}

#[test]
fn grids_beyond_32_bit_node_ids_are_topology_errors_on_both_paths() {
    // Both used to abort the process: the first on a 512 TB allocation,
    // the second on a capacity overflow.
    for file in [
        "invalid/grid_node_ids.json",
        "invalid/grid_dims_overflow.json",
    ] {
        for err in [reject(file), reject_run(file)] {
            assert!(
                matches!(
                    &err,
                    ScenarioError::Topology(TopologySpecError::TooLarge {
                        kind: "grid",
                        what: "nodes"
                    })
                ),
                "{file}: {err}"
            );
            assert!(err.to_string().contains("32 bits"), "{file}: {err}");
        }
    }
}

#[test]
fn out_of_range_fault_node_is_a_static_check_on_both_paths() {
    let file = "invalid/fault_node_out_of_range.json";
    for err in [reject(file), reject_run(file)] {
        assert!(
            matches!(&err, ScenarioError::Static { check, .. } if *check == "fault-bounds"),
            "{err}"
        );
        assert!(err.to_string().contains("names node 99"), "{err}");
    }
}

#[test]
fn short_per_node_capacity_is_a_static_check_on_both_paths() {
    let file = "invalid/capacity_per_node_len.json";
    for err in [reject(file), reject_run(file)] {
        assert!(
            matches!(&err, ScenarioError::Static { check, .. } if *check == "capacity-nodes"),
            "{err}"
        );
        assert!(err.to_string().contains("3 limits for a 6-node"), "{err}");
    }
}

#[test]
fn the_run_path_never_panics_on_the_invalid_corpus() {
    let dir = format!("{}/scenarios/invalid", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .collect();
    files.sort();
    assert!(files.len() >= 11, "corpus shrank: {files:?}");
    for name in files {
        let scenario = parse(&format!("invalid/{name}"));
        // Ok or a named ScenarioError are both fine; a panic is not.
        if std::panic::catch_unwind(|| run_scenario(&scenario)).is_err() {
            panic!("run_scenario panicked on invalid/{name}");
        }
    }
}
