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
//! `active_nodes()`, move collection walks the round's sends (all the
//! plan holds) and `observe` walks the live set — the dense scan is gone
//! from every phase.
//!
//! The quick instance shares E13's 1024×1024 shape, so the moves/s of the
//! `sparse wave` and `diagonal wave` records on `grid 1024x1024` in
//! `BENCH_engine.json` read directly as per-packet cost with and without
//! a saturated mesh around the traffic.

use aqt_analysis::Table;
use aqt_core::DagGreedy;
use aqt_model::{Dag, FnSource, Injection, InjectionSource, Simulation};

use crate::engine_bench::{render_runs, time_run, EngineRun};

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

/// Times the sparse wave for a fixed number of rounds into a record.
/// Only stepping counts as `wall_ms`: at this scale the one-off state
/// allocation, which `setup_ms` records, would otherwise dominate the
/// O(live) rounds being measured.
///
/// # Panics
///
/// Panics if the grid would require dense tables, if the bounded run
/// would start draining (`rounds` must stay below the route length), or
/// if any live packet fails to advance in some round.
pub fn measure_sparse(rows: usize, cols: usize, rounds: u64) -> EngineRun {
    assert!(
        rounds < (rows - 1) as u64,
        "bounded run must end before the wave starts draining (column length)"
    );
    let build = || {
        let topo = Dag::grid(rows, cols);
        assert!(
            topo.is_computed_routing(),
            "sparse runs must not build O(n^2) tables"
        );
        Simulation::from_source(topo, DagGreedy::fifo(), sparse_wave_source(rows, cols))
    };
    let topology = format!("grid {rows}x{cols}");
    let (run, ()) = time_run("sparse wave", &topology, build, |sim| {
        sim.run(rounds).expect("valid sparse run");
    });
    assert_eq!(
        run.moves,
        cols as u64 * rounds,
        "every live packet advances every round"
    );
    run
}

/// The E16 instance ladder: `(rows, cols, rounds)` per mode. Quick keeps
/// E13's million-node shape for a direct dense-vs-sparse rate
/// comparison; full adds a 4M-node shape where the dense scan would be
/// 4096× the traffic.
pub fn e16_instances(quick: bool) -> Vec<(usize, usize, u64)> {
    if quick {
        vec![(1024, 1024, 512)]
    } else {
        vec![(1024, 1024, 512), (2048, 2048, 192)]
    }
}

/// E16 — sparse-wave scale probe: the instance ladder's records and
/// their table.
pub fn e16_sparse(quick: bool) -> (Vec<EngineRun>, Vec<Table>) {
    let runs: Vec<EngineRun> = e16_instances(quick)
        .into_iter()
        .map(|(rows, cols, rounds)| measure_sparse(rows, cols, rounds))
        .collect();
    let mut table = render_runs(
        "E16 - sparse wave on the million-node mesh (active-set engine)",
        &runs,
    );
    table.note(
        "one packet per column on link-disjoint routes: peak live = cols for the whole bounded run",
    );
    table.note(
        "rounds cost O(live + active edges): compare moves/s with E13's diagonal wave on \
         grid 1024x1024, where the same shape carries ~2 packets per node",
    );
    (runs, vec![table])
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
        assert_eq!(run.workload, "sparse wave");
        assert_eq!(run.topology, "grid 16x64");
        assert_eq!(run.nodes, 1024);
        assert_eq!(run.peak_live, 64);
        assert_eq!(run.moves, 64 * 8);
        assert!(run.moves_per_sec() > 0.0);
        // The quick ladder runs on E13's million-node shape, one packet
        // per column for every bounded round.
        let (rows, cols, rounds) = e16_instances(true)[0];
        let (mesh_rows, mesh_cols, _) = *crate::e13_instances(true).last().unwrap();
        assert_eq!((rows, cols), (mesh_rows, mesh_cols));
        assert_eq!(cols, 1024);
        assert!(rounds < rows as u64 - 1);
    }

    #[test]
    #[should_panic(expected = "start")]
    fn overlong_bounded_runs_are_rejected() {
        // 8 rounds down a 4-row mesh would start delivering at round 3.
        measure_sparse(4, 8, 8);
    }
}
