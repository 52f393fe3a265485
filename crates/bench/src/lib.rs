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
//! [`EXPERIMENTS`] is the one table of ids, claims and runners that
//! `experiments` lists and dispatches on. The theorem tables (E1–E4, E6,
//! E7, A1, A2) and E11b's threshold table build each row as a
//! [`Scenario`](aqt_analysis::Scenario) and print the σ* and bound of its
//! [`Scenario::validate`](aqt_analysis::Scenario::validate) report; E11b
//! and E12b search their rows' scenarios with
//! [`capacity_threshold`](aqt_analysis::capacity_threshold).
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
mod row;

pub use engine_bench::{EngineBench, EngineRun};
pub use exp_ablation::{a1_prebad, a2_eager, e8_figure1};
pub use exp_capacity::{
    e11_capacity, e11a_scenario, e11b_rows, pts_two_wave, Contender, ThresholdRow,
};
pub use exp_faults::{
    dead_links, e15_cells, e15_dead_link_counts, e15_faults, e15_rows, render_e15, FaultRow,
};
pub use exp_grid::{e12_grid, e12_scenario, e12_shapes, e12a_sweep_grid, GridLoad};
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

/// How an experiment runs.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// It returns its tables.
    Tables(fn(bool) -> Vec<Table>),
    /// An engine experiment: besides tables, it returns the [`EngineRun`]
    /// records that `experiments --bench-json` writes.
    Engine(fn(bool) -> (Vec<EngineRun>, Vec<Table>)),
    /// It renders a figure, printed as a one-cell table.
    Figure(fn() -> String),
}

/// One entry of [`EXPERIMENTS`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `experiments` takes, e.g. `"e1"`.
    pub id: &'static str,
    /// The claim it regenerates.
    pub claim: &'static str,
    /// The public function that runs it.
    pub function: &'static str,
    /// How it runs.
    pub runner: Runner,
}

impl Experiment {
    /// Whether it returns [`EngineRun`] records.
    pub fn is_engine(&self) -> bool {
        matches!(self.runner, Runner::Engine(_))
    }

    /// Runs it: its engine records (none for the others) and its tables.
    pub fn run(&self, quick: bool) -> (Vec<EngineRun>, Vec<Table>) {
        match self.runner {
            Runner::Tables(f) => (Vec::new(), f(quick)),
            Runner::Engine(f) => f(quick),
            Runner::Figure(f) => {
                let mut t = Table::new("E8 (Figure 1) - hierarchical partition", ["figure"]);
                t.push_row([f()]);
                (Vec::new(), vec![t])
            }
        }
    }
}

/// The [`EXPERIMENTS`] entries, each `id, claim, Runner(function);`: the
/// table records the function's name.
macro_rules! experiments {
    ($($id:literal, $claim:literal, $runner:ident($function:ident);)*) => {
        [$(Experiment {
            id: $id,
            claim: $claim,
            function: stringify!($function),
            runner: Runner::$runner($function),
        }),*]
    };
}

/// Every experiment in canonical order: what `experiments --list` and
/// `--help` print, what it dispatches on, and which ids `--bench-json`
/// implies (the engine ones). `e9` is the exploratory locality extension,
/// not a paper artifact; `e10` measures the engine itself; `e11`
/// exercises the finite-buffer subsystem.
pub static EXPERIMENTS: [Experiment; 18] = experiments! {
    "e1", "Prop. 3.1 - PTS single destination <= 2 + sigma", Tables(e1_pts);
    "e2", "Prop. 3.2 - PPTS d destinations <= 1 + d + sigma", Tables(e2_ppts);
    "e3", "Props. B.3 / 3.5 - tree protocols", Tables(e3_trees);
    "e4", "Thm. 4.1 - HPTS <= l*n^(1/l) + sigma + 1", Tables(e4_hpts);
    "e5", "Thm. 5.1 - Omega lower bound duel", Tables(e5_duel);
    "e6", "abstract - k*n^(1/k) tradeoff curve", Tables(e6_tradeoff);
    "e7", "S1 - alpha-factor implication (buffers vs bandwidth)", Tables(e7_alpha);
    "e8", "Figure 1 - hierarchical partition rendering", Figure(e8_figure1);
    "e9", "locality axis (open problem, exploratory)", Tables(e9_locality);
    "e10", "engine throughput (streaming) + parallel sweep scaling + timed planners",
        Engine(e10_throughput);
    "e11", "finite buffers - goodput vs capacity, zero-drop space thresholds", Tables(e11_capacity);
    "e12", "grid routing - peak buffer vs mesh dimensions (DAG engine)", Tables(e12_grid);
    "e13", "million-node mesh - computed routing, arenas", Engine(e13_mesh);
    "e14", "telemetry - probe overhead + occupancy/latency sketches", Engine(e14_telemetry);
    "e15", "degraded regime - peak buffer + goodput vs dead links", Tables(e15_faults);
    "e16", "sparse wave - O(live packets) rounds on the 1M-node mesh", Engine(e16_sparse);
    "a1", "ablation - HPTS without ActivatePreBad", Tables(a1_prebad);
    "a2", "ablation - eager delivery variants", Tables(a2_eager);
};

/// The experiment with id `id`, if any.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs one experiment by id, returning its tables.
///
/// # Panics
///
/// Panics on an unknown id; [`EXPERIMENTS`] lists the known ones.
pub fn run_experiment(id: &str, quick: bool) -> Vec<Table> {
    let Some(experiment) = experiment(id) else {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        panic!("unknown experiment id {id:?}; known: {known:?}");
    };
    experiment.run(quick).1
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
        for e in &EXPERIMENTS {
            assert!(!e.claim.is_empty() && !e.function.is_empty(), "{}", e.id);
            assert!(
                std::ptr::eq(experiment(e.id).unwrap(), e),
                "{} is unique",
                e.id
            );
        }
        assert_eq!(EXPERIMENTS[10].id, "e11");
        assert!(experiment("e99").is_none());
        let engine: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.is_engine())
            .map(|e| e.id)
            .collect();
        assert_eq!(engine, ["e10", "e13", "e14", "e16"]);
    }
}
