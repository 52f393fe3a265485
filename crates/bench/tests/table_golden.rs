//! Golden regression pins for the tables that run the paper's planners.
//!
//! E1, E1b, E2, E2b, E3a, E3b, E5a and A2 take their measured columns
//! from the peak-to-sink planners (PTS, PPTS, Tree-PTS and Tree-PPTS);
//! E4, E4b, E6, E7, E7b and A1 from the HPTS planner (E7's PPTS column
//! shares the table and is pinned with it). Every workload is seeded, so
//! a planner change that keeps its sends reproduces these quick-mode
//! cells exactly; one that changes a send fails this suite instead of
//! quietly rewriting EXPERIMENTS.md.

use aqt_bench::run_experiment;

/// One pinned column: experiment id, table index, column header, and the
/// quick-mode cells from top to bottom.
type GoldenColumn = (&'static str, usize, &'static str, &'static [&'static str]);

/// The pinned quick-mode columns.
const GOLDEN: [GoldenColumn; 27] = [
    (
        "e1",
        0,
        "measured",
        &[
            "0", "0", "2", "2", "2", "2", "2", "3", "3", "3", // rho = 1/4
            "0", "0", "2", "2", "2", "2", "2", "3", "3", "3", // rho = 1/2
            "0", "0", "2", "2", "2", "2", "2", "3", "3", "3", // rho = 3/4
            "2", "2", "2", "2", "2", "2", "2", "3", "3", "3", // rho = 1
        ],
    ),
    ("e1", 1, "n", &["16", "64", "256"]),
    ("e1", 1, "measured", &["5", "5", "4"]),
    ("e2", 0, "d", &["1", "2", "4", "8", "16", "32"]),
    ("e2", 0, "PPTS", &["2", "3", "7", "10", "15", "23"]),
    ("e2", 1, "measured", &["3", "4", "5", "6", "9", "10"]),
    (
        "e3",
        0,
        "tree",
        &[
            "path(32)",
            "star(16)",
            "binary(h=4)",
            "caterpillar(8x3)",
            "random(40)",
        ],
    ),
    ("e3", 0, "measured", &["3", "4", "2", "4", "3"]),
    ("e3", 1, "d", &["2", "4", "2", "4", "2", "4", "2", "4"]),
    (
        "e3",
        1,
        "measured",
        &["3", "5", "4", "5", "4", "6", "4", "4"],
    ),
    (
        "e5",
        0,
        "protocol",
        &[
            "Greedy-FIFO",
            "Greedy-LIS",
            "Greedy-NTG",
            "Greedy-FTG",
            "PPTS",
            "HPTS",
            "Greedy-FIFO",
            "Greedy-LIS",
            "Greedy-NTG",
            "Greedy-FTG",
            "PPTS",
            "HPTS",
        ],
    ),
    (
        "e5",
        0,
        "measured",
        &[
            "17", "17", "17", "17", "17", "17", "4", "4", "4", "4", "7", "7",
        ],
    ),
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
    (
        "a2",
        0,
        "protocol",
        &["PTS(w=v63)", "PTS-eager(w=v63)", "PPTS", "PPTS-eager"],
    ),
    ("a2", 0, "max occupancy", &["2", "2", "6", "3"]),
    ("a2", 0, "delivered", &["45", "102", "275", "446"]),
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
fn e1_matches_the_golden_columns() {
    check("e1");
}

#[test]
fn e2_matches_the_golden_columns() {
    check("e2");
}

#[test]
fn e3_matches_the_golden_columns() {
    check("e3");
}

#[test]
fn e4_matches_the_golden_columns() {
    check("e4");
}

#[test]
fn e5_matches_the_golden_columns() {
    check("e5");
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

#[test]
fn a2_matches_the_golden_columns() {
    check("a2");
}
