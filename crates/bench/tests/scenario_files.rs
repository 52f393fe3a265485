//! The checked-in `scenarios/*.json` artifacts stay in lock-step with the
//! experiment harness: each file parses to exactly the scenario the
//! harness constructs, and replaying it through [`run_scenario`]
//! reproduces the corresponding experiment table cell bit-for-bit.

use aqt_analysis::{run_scenario, Scenario, ScenarioGrid};
use aqt_bench::{e11a_scenario, e12_grid, e12_scenario, e12a_sweep_grid, Contender, GridLoad};

fn scenario_file(name: &str) -> String {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn e12_file_is_exactly_the_harness_scenario() {
    let from_file: Scenario = serde_json::from_str(&scenario_file("e12_grid_4x4_diag.json"))
        .expect("e12 scenario file parses");
    // Quick-mode E12a uses 60 flood rounds; the diag wave ignores the
    // round budget, so the file pins the whole quick-mode cell.
    assert_eq!(from_file, e12_scenario(4, 4, GridLoad::Diag, 60));
}

#[test]
fn e12_file_reproduces_the_table_cell_bit_for_bit() {
    let from_file: Scenario = serde_json::from_str(&scenario_file("e12_grid_4x4_diag.json"))
        .expect("e12 scenario file parses");
    let replayed = run_scenario(&from_file).expect("file scenario runs");

    // The authoritative E12a quick table, as the experiments bin prints it.
    let tables = e12_grid(true);
    let csv = tables[0].to_csv();
    let row = csv
        .lines()
        .find(|l| l.starts_with("4x4,"))
        .expect("4x4 row present in E12a");
    // Columns: grid, nodes, floods, diag wave, shaped.
    let diag_cell: usize = row.split(',').nth(3).expect("diag column").parse().unwrap();
    assert_eq!(
        replayed.max_occupancy, diag_cell,
        "replaying the checked-in scenario must reproduce the E12a 4x4 diag cell"
    );
}

#[test]
fn e11a_file_is_exactly_the_harness_scenario_and_replays() {
    let from_file: Scenario = serde_json::from_str(&scenario_file("e11a_fifo_cap4.json"))
        .expect("e11a scenario file parses");
    // Quick-mode E11a: n = 24, σ = 4, 120 wish rounds, FIFO column at
    // capacity 4.
    let expected = e11a_scenario(Contender::GreedyFifo, 4, 24, 4, 120);
    assert_eq!(from_file, expected);
    let from_file_run = run_scenario(&from_file).expect("file scenario runs");
    let harness_run = run_scenario(&expected).expect("harness scenario runs");
    assert_eq!(from_file_run, harness_run);
    assert!(from_file_run.dropped > 0, "capacity 4 is below threshold");
}

#[test]
fn remaining_checked_in_files_parse_and_run() {
    for file in ["pts_two_wave_path.json", "tree_random_gather.json"] {
        let scenario: Scenario =
            serde_json::from_str(&scenario_file(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let summary = run_scenario(&scenario).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(summary.injected > 0, "{file} must inject traffic");
        assert!(summary.delivered > 0, "{file} must deliver traffic");
    }
    let grid: ScenarioGrid =
        serde_json::from_str(&scenario_file("mesh_sweep_grid.json")).expect("grid file parses");
    assert_eq!(grid.len(), 4);
    for (scenario, result) in grid.expand().iter().zip(aqt_analysis::run_grid(&grid)) {
        let summary = result.unwrap_or_else(|e| panic!("{}: {e}", scenario.display_name()));
        assert!(summary.delivered > 0);
    }
}

#[test]
fn e12_static_prediction_matches_the_measured_cell() {
    // The static checker's closed-form diag-wave peak must agree with the
    // E12a table cell the replay test above pins — an exact prediction,
    // computed without running a single round.
    let from_file: Scenario = serde_json::from_str(&scenario_file("e12_grid_4x4_diag.json"))
        .expect("e12 scenario file parses");
    let report = from_file.validate().expect("e12 validates statically");
    let pred = report
        .prediction("peak_occupancy")
        .expect("diag wave has a closed-form peak");
    assert!(pred.exact, "diag-wave peak is exact, not an upper bound");
    assert_eq!(pred.value, 5, "per_step * cols + 1 on a 4x4 mesh");
    let replayed = run_scenario(&from_file).expect("file scenario runs");
    assert_eq!(replayed.max_occupancy as u64, pred.value);
}

#[test]
fn new_artifacts_pin_their_static_bounds() {
    // (file, predicted bound, measured peak): the prediction is the
    // paper's worst-case bound, the measured peak the replayed run —
    // peaks must reproduce exactly and sit within the bound.
    for (file, bound, measured) in [
        ("hpts_shaped_line.json", 11, 3),    // Thm 4.1: l*m + sigma + 1
        ("ppts_roundrobin_path.json", 5, 5), // Prop 3.2: 1 + d + sigma
        ("tree_pts_star_burst.json", 5, 4),  // Prop B.3: 2 + sigma
    ] {
        let scenario: Scenario =
            serde_json::from_str(&scenario_file(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let report = scenario
            .validate()
            .unwrap_or_else(|e| panic!("{file} must validate: {e}"));
        let pred = report
            .prediction("peak_occupancy")
            .unwrap_or_else(|| panic!("{file} must predict a peak"));
        assert_eq!(pred.value, bound, "{file}: static bound drifted");
        let summary = run_scenario(&scenario).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(summary.max_occupancy as u64, measured, "{file}");
        assert!(
            (summary.max_occupancy as u64) <= pred.value,
            "{file}: measured peak {} above the static bound {}",
            summary.max_occupancy,
            pred.value
        );
        assert_eq!(summary.dropped, 0, "{file} runs loss-free");
    }
}

#[test]
fn mesh_wave_file_pins_the_static_bound_without_a_replay() {
    // The E13-scale wave artifact: a 256×256 mesh is too large to replay
    // in a debug-mode test, but the static checker prices its peak in
    // closed form — per_step * cols + 1 = 257 — and the bound's exactness
    // is already proven at 4×4 by
    // `e12_static_prediction_matches_the_measured_cell`.
    let from_file: Scenario = serde_json::from_str(&scenario_file("mesh_256x256_wave.json"))
        .expect("mesh wave file parses");
    let mut expected = e12_scenario(256, 256, GridLoad::Diag, 60);
    expected.name = Some("mesh 256x256 diag wave".into());
    assert_eq!(from_file, expected);
    let report = from_file
        .validate()
        .expect("mesh wave validates statically");
    let pred = report
        .prediction("peak_occupancy")
        .expect("diag wave has a closed-form peak");
    assert!(pred.exact, "diag-wave peak is exact, not an upper bound");
    assert_eq!(pred.value, 257, "per_step * cols + 1 on a 256-wide mesh");
}

#[test]
fn e12a_sweep_file_is_exactly_the_harness_grid() {
    // The whole quick-mode E12a sweep as one declarative grid: the file
    // must match the generator the E12a table now runs through, and its
    // expansion must enumerate exactly the harness's per-cell scenarios
    // (grid expansion leaves names unset; everything else is identical).
    let from_file: ScenarioGrid = serde_json::from_str(&scenario_file("e12a_sweep_grid.json"))
        .expect("e12a sweep grid parses");
    assert_eq!(from_file, e12a_sweep_grid(true));
    let cells = from_file.expand();
    assert_eq!(cells.len(), 9, "3 shapes x 3 loads");
    let shapes = [(4usize, 4usize), (4, 8), (8, 8)];
    let loads = [GridLoad::Floods, GridLoad::Diag, GridLoad::Shaped];
    for (i, cell) in cells.iter().enumerate() {
        let (rows, cols) = shapes[i / 3];
        let mut expected = e12_scenario(rows, cols, loads[i % 3], 60);
        expected.name = None;
        assert_eq!(*cell, expected, "cell {i}");
    }
}

#[test]
fn pts_two_wave_file_is_loss_free_at_the_bound() {
    // The file pins eager PTS at capacity 2 + σ = 6 against the two-wave
    // stress: zero drops at the Prop 3.1 bound, everything delivered.
    let scenario: Scenario =
        serde_json::from_str(&scenario_file("pts_two_wave_path.json")).expect("file parses");
    let summary = run_scenario(&scenario).expect("runs");
    assert_eq!(summary.dropped, 0);
    assert!(summary.max_occupancy <= 6, "Prop 3.1 bound");
    assert_eq!(summary.delivered, summary.injected);
}
