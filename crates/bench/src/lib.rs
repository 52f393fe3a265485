//! # aqt-bench — experiment harness
//!
//! Regenerates every claim of the paper as a measured table (the paper is a
//! theory paper: its "tables and figures" are the theorems plus Figure 1 —
//! see `DESIGN.md` §5 for the mapping):
//!
//! | Experiment | Claim | Function |
//! |-----------|-------|----------|
//! | E1  | Prop. 3.1 (PTS ≤ 2+σ) | [`e1_pts`] |
//! | E2  | Prop. 3.2 (PPTS ≤ 1+d+σ) | [`e2_ppts`] |
//! | E3  | Props. B.3 / 3.5 (trees) | [`e3_trees`] |
//! | E4  | Thm. 4.1 (HPTS ≤ ℓn^{1/ℓ}+σ+1) | [`e4_hpts`] |
//! | E5  | Thm. 5.1 (Ω lower bound) | [`e5_duel`] |
//! | E6  | abstract tradeoff k·n^{1/k} | [`e6_tradeoff`] |
//! | E7  | §1 α-factor implication | [`e7_alpha`] |
//! | E8  | Figure 1 | [`e8_figure1`] |
//! | E9  | locality axis (open problem, exploratory) | [`e9_locality`] |
//! | E10 | engine throughput, parallel sweep scaling, the paper's planners timed | [`e10_throughput`] |
//! | E11 | finite buffers: goodput vs capacity, space thresholds | [`e11_capacity`] |
//! | E12 | grid routing: peak buffer vs mesh dimensions | [`e12_grid`] |
//! | E13 | million-node mesh: computed routing, arenas | [`e13_mesh`] |
//! | E14 | telemetry probe overhead (dense smoke + sparse wave) + histogram sketches | [`e14_telemetry`] |
//! | E15 | degraded regime: peak buffer + goodput vs dead links | [`e15_faults`] |
//! | E16 | sparse wave: O(live packets) rounds on the 1M-node mesh | [`e16_sparse`] |
//! | A1  | pre-bad cascade ablation | [`a1_prebad`] |
//! | A2  | eager delivery ablation | [`a2_eager`] |
//!
//! Run all of them with `cargo run -p aqt-bench --release --bin
//! experiments`. The engine experiments (E10, E13, E14, E16) also return
//! [`EngineRun`] records, one per timed workload (E10's include the
//! paper's planners), all produced by one timer;
//! `experiments --bench-json BENCH_engine.json` writes them as one
//! [`EngineBench`] for trend tracking, and `--bench-baseline` compares a
//! fresh one against it with [`EngineBench::compare`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine_bench;
mod exp_ablation;
mod exp_capacity;
mod exp_faults;
mod exp_grid;
mod exp_locality;
mod exp_lower;
mod exp_mesh;
mod exp_sparse;
mod exp_telemetry;
mod exp_throughput;
mod exp_tradeoff;
mod exp_upper;

pub use engine_bench::{EngineBench, EngineRun};
pub use exp_ablation::{a1_prebad, a2_eager, e8_figure1};
pub use exp_capacity::{
    e11_capacity, e11a_scenario, e11b_rows, pts_two_wave, Contender, ThresholdRow,
};
pub use exp_faults::{
    dead_links, e15_cells, e15_dead_link_counts, e15_faults, e15_rows, render_e15, FaultRow,
};
pub use exp_grid::{
    all_floods_source, e12_grid, e12_scenario, e12_shapes, e12a_sweep_grid, GridLoad,
};
pub use exp_locality::e9_locality;
pub use exp_lower::e5_duel;
pub use exp_mesh::{e13_instances, e13_mesh, measure_mesh, wave_source};
pub use exp_sparse::{e16_instances, e16_sparse, measure_sparse, sparse_wave_source};
pub use exp_telemetry::{
    e14_instance, e14_telemetry, measure_telemetry, render_e14, MeshWave, TelemetryRun, WallClock,
};
pub use exp_throughput::{e10_runs, e10_throughput, e6_grid, run_e6_point, E6Point};
pub use exp_tradeoff::{e6_tradeoff, e7_alpha};
pub use exp_upper::{e1_pts, e2_ppts, e3_trees, e4_hpts};

use aqt_analysis::Table;

/// All experiment ids in canonical order, derived from
/// [`EXPERIMENT_INDEX`] (`e9` is the exploratory locality extension, not
/// a paper artifact; `e10` measures the engine itself; `e11` exercises
/// the finite-buffer subsystem).
pub const EXPERIMENT_IDS: [&str; EXPERIMENT_INDEX.len()] = {
    let mut out = [""; EXPERIMENT_INDEX.len()];
    let mut i = 0;
    while i < EXPERIMENT_INDEX.len() {
        out[i] = EXPERIMENT_INDEX[i].0;
        i += 1;
    }
    out
};

/// The experiment index: `(id, claim, function)` — what `experiments
/// --list` prints; the single source of truth for experiment ids.
pub const EXPERIMENT_INDEX: [(&str, &str, &str); 18] = [
    (
        "e1",
        "Prop. 3.1 - PTS single destination <= 2 + sigma",
        "e1_pts",
    ),
    (
        "e2",
        "Prop. 3.2 - PPTS d destinations <= 1 + d + sigma",
        "e2_ppts",
    ),
    ("e3", "Props. B.3 / 3.5 - tree protocols", "e3_trees"),
    ("e4", "Thm. 4.1 - HPTS <= l*n^(1/l) + sigma + 1", "e4_hpts"),
    ("e5", "Thm. 5.1 - Omega lower bound duel", "e5_duel"),
    ("e6", "abstract - k*n^(1/k) tradeoff curve", "e6_tradeoff"),
    (
        "e7",
        "S1 - alpha-factor implication (buffers vs bandwidth)",
        "e7_alpha",
    ),
    (
        "e8",
        "Figure 1 - hierarchical partition rendering",
        "e8_figure1",
    ),
    (
        "e9",
        "locality axis (open problem, exploratory)",
        "e9_locality",
    ),
    (
        "e10",
        "engine throughput (streaming) + parallel sweep scaling + timed planners",
        "e10_throughput",
    ),
    (
        "e11",
        "finite buffers - goodput vs capacity, zero-drop space thresholds",
        "e11_capacity",
    ),
    (
        "e12",
        "grid routing - peak buffer vs mesh dimensions (DAG engine)",
        "e12_grid",
    ),
    (
        "e13",
        "million-node mesh - computed routing, arenas",
        "e13_mesh",
    ),
    (
        "e14",
        "telemetry - probe overhead + occupancy/latency sketches",
        "e14_telemetry",
    ),
    (
        "e15",
        "degraded regime - peak buffer + goodput vs dead links",
        "e15_faults",
    ),
    (
        "e16",
        "sparse wave - O(live packets) rounds on the 1M-node mesh",
        "e16_sparse",
    ),
    ("a1", "ablation - HPTS without ActivatePreBad", "a1_prebad"),
    ("a2", "ablation - eager delivery variants", "a2_eager"),
];

/// The engine experiments: besides tables, each returns the
/// [`EngineRun`] records that `experiments --bench-json` writes.
pub const ENGINE_EXPERIMENT_IDS: [&str; 4] = ["e10", "e13", "e14", "e16"];

/// Runs one engine experiment by id, returning its records and tables.
///
/// # Panics
///
/// Panics on an id outside [`ENGINE_EXPERIMENT_IDS`].
pub fn engine_experiment(id: &str, quick: bool) -> (Vec<EngineRun>, Vec<Table>) {
    match id {
        "e10" => e10_throughput(quick),
        "e13" => e13_mesh(quick),
        "e14" => e14_telemetry(quick),
        "e16" => e16_sparse(quick),
        other => panic!("{other:?} is not an engine experiment; known: {ENGINE_EXPERIMENT_IDS:?}"),
    }
}

/// Runs one experiment by id, returning its tables (E8 returns a pseudo
/// table wrapping the figure).
///
/// # Panics
///
/// Panics on an unknown id; use [`EXPERIMENT_IDS`] to enumerate.
pub fn run_experiment(id: &str, quick: bool) -> Vec<Table> {
    match id {
        "e1" => e1_pts(quick),
        "e2" => e2_ppts(quick),
        "e3" => e3_trees(quick),
        "e4" => e4_hpts(quick),
        "e5" => e5_duel(quick),
        "e6" => e6_tradeoff(quick),
        "e7" => e7_alpha(quick),
        "e8" => {
            let mut t = Table::new("E8 (Figure 1) - hierarchical partition", ["figure"]);
            t.push_row([e8_figure1()]);
            vec![t]
        }
        "e9" => e9_locality(quick),
        "e10" | "e13" | "e14" | "e16" => engine_experiment(id, quick).1,
        "e11" => e11_capacity(quick),
        "e12" => e12_grid(quick),
        "e15" => e15_faults(quick),
        "a1" => a1_prebad(quick),
        "a2" => a2_eager(quick),
        other => panic!("unknown experiment id {other:?}; known: {EXPERIMENT_IDS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_runnable() {
        // Smoke-test dispatch for the cheap ones only; the expensive
        // experiments have their own dedicated tests in their modules.
        let tables = run_experiment("e8", true);
        assert_eq!(tables.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_experiment("e99", true);
    }

    #[test]
    fn index_entries_are_complete_and_dispatchable() {
        for (id, claim, function) in EXPERIMENT_INDEX {
            assert!(!claim.is_empty() && !function.is_empty(), "{id}");
        }
        // Every listed id must dispatch (e8 smoke-run above covers the
        // cheap one; here just check the id strings are the derived set).
        assert_eq!(EXPERIMENT_IDS[10], "e11");
        assert_eq!(EXPERIMENT_IDS.len(), EXPERIMENT_INDEX.len());
    }
}
