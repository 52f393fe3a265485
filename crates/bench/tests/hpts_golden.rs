//! Golden regression pins for the tables that run HPTS or HPTS-D.
//!
//! E4, E4b, E6, E7, E7b and A1 take their measured columns from the HPTS
//! planner (E7's PPTS column shares the table and is pinned with it).
//! Every workload is seeded, so a planner change that keeps its sends
//! reproduces these quick-mode cells exactly; one that changes a send
//! fails this suite instead of quietly rewriting EXPERIMENTS.md.

use aqt_bench::run_experiment;

/// One pinned column: experiment id, table index, column header, and the
/// quick-mode cells from top to bottom.
type GoldenColumn = (&'static str, usize, &'static str, &'static [&'static str]);

/// The pinned quick-mode columns.
const GOLDEN: [GoldenColumn; 12] = [
    ("e4", 0, "l", &["1", "2", "4", "8"]),
    ("e4", 0, "measured", &["32", "19", "10", "7"]),
    ("e4", 0, "staged", &["8", "11", "14", "16"]),
    ("e4", 1, "measured", &["13", "13", "10", "10"]),
    ("e6", 0, "k=1/rho", &["1", "2", "3", "4", "8"]),
    ("e6", 0, "measured", &["31", "19", "12", "10", "5"]),
    ("e7", 0, "PPTS measured", &["5", "9", "17", "33", "65"]),
    ("e7", 0, "HPTS measured", &["5", "7", "8", "9", "10"]),
    ("e7", 1, "measured", &["3", "5", "7", "11"]),
    (
        "a1",
        0,
        "variant",
        &["full", "no-prebad", "full", "no-prebad"],
    ),
    ("a1", 0, "measured", &["15", "16", "10", "10"]),
    ("a1", 0, "max phase-end badness", &["3", "3", "2", "2"]),
];

/// The cells of `column` in a table's CSV, from top to bottom.
fn cells(csv: &str, column: &str) -> Vec<String> {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let at = header
        .iter()
        .position(|&h| h == column)
        .unwrap_or_else(|| panic!("no column {column:?} in {header:?}"));
    lines
        .map(|line| line.split(',').nth(at).expect("cell").to_string())
        .collect()
}

/// Runs experiment `id` in quick mode and checks every pinned column.
fn check(id: &str) {
    let tables = run_experiment(id, true);
    for &(_, table, column, expected) in GOLDEN.iter().filter(|g| g.0 == id) {
        assert_eq!(
            cells(&tables[table].to_csv(), column),
            expected,
            "{id} table {table}: column {column:?} shifted"
        );
    }
}

#[test]
fn e4_matches_the_golden_columns() {
    check("e4");
}

#[test]
fn e6_matches_the_golden_columns() {
    check("e6");
}

#[test]
fn e7_matches_the_golden_columns() {
    check("e7");
}

#[test]
fn a1_matches_the_golden_columns() {
    check("a1");
}
