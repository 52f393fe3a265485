//! E16 — the sparse wave: O(live packets) rounds on a million-node mesh.
//!
//! E13 saturates the mesh (every node fires at round 0, so ~2 packets per
//! node are live for the whole run) — its rate conflates per-packet work
//! with per-node work. This experiment isolates the active-set engine's
//! contract instead: with ~10³ live packets on a 10⁶-node mesh, a round
//! must cost O(live packets + active edges), not O(n). The workload is
//! one packet per *column* — node `(0, c)` fires at `(rows − 1, c)` — so
//! `cols` packets cross a `rows × cols` mesh on column-disjoint (hence
//! link-disjoint) routes, every packet stays live for the whole bounded
//! run, and the live front is a single contiguous row sliding down one
//! hop per round under XY routing.
//!
//! Before the active set, each of those rounds scanned all `rows · cols`
//! buffers three times over (plan, move collection, occupancy
//! observation) and memset the full plan table, so the sparse rate
//! collapsed toward the *dense* mesh rate: the engine was charging
//! nodes-per-second, not packets-per-second. Now planning walks
//! `active_nodes()`, move collection walks the touched plan slots,
//! `observe` walks the live set and `clear_sends` resets only the slots
//! written last round — the dense scan is gone from every phase.
//!
//! The quick instance shares E13's 1024×1024 shape, so the exported
//! `sparse_packets_per_sec` vs `mesh1m_packets_per_sec` fields of
//! `BENCH_engine.json` read directly as per-packet cost with and without
//! a saturated mesh around the traffic.

use std::time::Instant;

use aqt_analysis::Table;
use aqt_core::DagGreedy;
use aqt_model::{Dag, FnSource, Injection, InjectionSource, Simulation};
use serde::{Deserialize, Serialize};

/// The sparse round-0 wave on a `rows × cols` mesh: one packet per
/// column, injected at `(0, c)` with destination `(rows − 1, c)` — `cols`
/// packets total on column-disjoint (hence link-disjoint) routes, each
/// advancing one hop per round under XY routing, so the live set is
/// always one contiguous row of nodes.
pub fn sparse_wave_source(rows: usize, cols: usize) -> impl InjectionSource {
    assert!(
        rows >= 2,
        "a column packet needs at least one hop to travel"
    );
    FnSource::new(1, move |t, out| {
        debug_assert_eq!(t, 0);
        out.extend((0..cols).map(|c| Injection::new(0, c, (rows - 1) * cols + c)));
    })
}

/// One measured sparse-wave run, the row format behind the E16 table and
/// the `sparse_*` fields of `BENCH_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SparseRun {
    /// Mesh shape, e.g. `"1024x1024"`.
    pub grid: String,
    /// Node count (`rows × cols`).
    pub nodes: usize,
    /// Packets live for the whole bounded run (one per column).
    pub live: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Packet-moves executed (`live × rounds` exactly; asserted).
    pub moves: u64,
    /// Median wall-clock in milliseconds (warmup + median of three).
    pub wall_ms: f64,
    /// Packet-moves per second — the active-set headline rate.
    pub moves_per_sec: f64,
}

/// Runs the sparse wave for a fixed number of rounds and reports the
/// packet-move rate. Timing is hardened like the rest of
/// the bench suite: one discarded warmup run, then the median of three
/// measured runs (the workload is deterministic, so runs differ only in
/// wall-clock). Only `run` is timed — at this scale the one-off state
/// allocation would otherwise dominate the O(live) rounds being
/// measured.
///
/// # Panics
///
/// Panics if the grid would require dense tables, if the bounded run
/// would start draining (`rounds` must stay below the route length), or
/// if any live packet fails to advance in some round.
pub fn measure_sparse(rows: usize, cols: usize, rounds: u64) -> SparseRun {
    assert!(
        rounds < (rows - 1) as u64,
        "bounded run must end before the wave starts draining (column length)"
    );
    assert!(
        Dag::grid(rows, cols).is_computed_routing(),
        "sparse runs must not build O(n^2) tables"
    );
    let run_once = || {
        let mut sim = Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            sparse_wave_source(rows, cols),
        );
        let started = Instant::now();
        sim.run(rounds).expect("valid sparse run");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let moves = sim.metrics().forwarded;
        assert_eq!(
            moves,
            cols as u64 * rounds,
            "every live packet advances every round"
        );
        (wall_ms, moves)
    };
    let _warmup = run_once();
    let mut samples: Vec<(f64, u64)> = (0..3).map(|_| run_once()).collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall_ms, moves) = samples[1];
    SparseRun {
        grid: format!("{rows}x{cols}"),
        nodes: rows * cols,
        live: cols,
        rounds,
        moves,
        wall_ms,
        moves_per_sec: moves as f64 / (wall_ms / 1e3).max(1e-9),
    }
}

/// The E16 instance ladder: `(rows, cols, rounds)` per mode. Quick keeps
/// the mesh1m shape for a direct dense-vs-sparse rate comparison; full
/// adds a 4M-node shape where the dense scan would be 4096× the traffic.
pub fn e16_instances(quick: bool) -> Vec<(usize, usize, u64)> {
    if quick {
        vec![(1024, 1024, 512)]
    } else {
        vec![(1024, 1024, 512), (2048, 2048, 192)]
    }
}

/// Renders measured runs into the E16 table.
pub fn render_e16(runs: &[SparseRun]) -> Vec<Table> {
    let mut table = Table::new(
        "E16 - sparse wave on the million-node mesh (active-set engine)",
        [
            "grid", "nodes", "live", "rounds", "moves", "wall ms", "moves/s",
        ],
    );
    for run in runs {
        table.push_row([
            run.grid.clone(),
            run.nodes.to_string(),
            run.live.to_string(),
            run.rounds.to_string(),
            run.moves.to_string(),
            format!("{:.1}", run.wall_ms),
            format!("{:.2e}", run.moves_per_sec),
        ]);
    }
    table.note(
        "one packet per column on link-disjoint routes: live = cols for the whole bounded run",
    );
    table.note(
        "rounds cost O(live + active edges): compare moves/s against mesh1m_packets_per_sec, \
         where the same shape carries ~2 packets per node",
    );
    table.note("wall ms is the median of three runs after a discarded warmup");
    vec![table]
}

/// E16 — sparse-wave scale probe (runs the instance ladder and renders
/// it).
pub fn e16_sparse(quick: bool) -> Vec<Table> {
    let runs: Vec<SparseRun> = e16_instances(quick)
        .into_iter()
        .map(|(rows, cols, rounds)| measure_sparse(rows, cols, rounds))
        .collect();
    render_e16(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::NodeId;

    #[test]
    fn sparse_wave_keeps_one_packet_per_column_live() {
        let (rows, cols) = (16, 8);
        let mut sim = Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            sparse_wave_source(rows, cols),
        );
        let o = sim.step().unwrap();
        assert_eq!(o.injected, cols);
        assert_eq!(o.forwarded, cols);
        // Every round until the wave hits the bottom row, all `cols`
        // packets advance and the live set is exactly the one row the
        // front currently occupies.
        for _ in 0..6 {
            let o = sim.step().unwrap();
            assert_eq!(o.forwarded, cols);
            assert_eq!(o.delivered, 0);
        }
        assert_eq!(sim.state().active_count(), cols);
        for c in 0..cols {
            assert!(sim.state().is_occupied(NodeId::new(7 * cols + c)));
        }
        sim.run_past_horizon(rows as u64).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().delivered, cols as u64);
    }

    #[test]
    fn measure_sparse_reports_the_exact_move_count() {
        let run = measure_sparse(16, 64, 8);
        assert_eq!(run.grid, "16x64");
        assert_eq!(run.nodes, 1024);
        assert_eq!(run.live, 64);
        assert_eq!(run.moves, 64 * 8);
        assert!(run.moves_per_sec > 0.0);
    }

    #[test]
    #[should_panic(expected = "start")]
    fn overlong_bounded_runs_are_rejected() {
        // 8 rounds down a 4-row mesh would start delivering at round 3.
        measure_sparse(4, 8, 8);
    }

    #[test]
    fn e16_quick_renders() {
        let tables = render_e16(&[measure_sparse(32, 32, 4)]);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].render().contains("32x32"));
        assert!(!tables[0].to_csv().contains("NaN"));
    }
}
