//! E13 — the million-node mesh: table-free computed routing and arena
//! buffers at scale.
//!
//! E10/E12 cap out around 10³–10⁴ nodes because the old [`Dag`] carried
//! dense `n × n` next-hop/distance tables — a 1024×1024 mesh would need
//! two 4 TiB tables before the first round runs. This experiment is the
//! scale probe for the two layers that removed that wall:
//!
//! 1. **Computed routing** — `Dag::grid` answers `next_hop` by XY
//!    arithmetic (`O(1)`, zero tables); butterflies and diamonds have
//!    their own closed forms, and only `random_dag`/arbitrary edge lists
//!    fall back to dense tables.
//! 2. **Arena buffers** — `NetworkState` stores packets in one slab with
//!    per-node spans instead of one `Vec<Packet>` per node.
//!
//! Every run steps on one thread; see DESIGN.md §2f for why.
//!
//! The workload is a *diagonal wave*: at round 0 every node fires one
//! packet right along its row and one down its column. Under XY routing
//! no two packets contend for a link, so each live packet advances one
//! hop per round — a sustained ~2 packet-moves per node per round, the
//! densest legal traffic the bandwidth constraint admits. The run is
//! bounded by rounds (not drain time) so the measured rate is the steady
//! state, not the tail.

use aqt_analysis::Table;
use aqt_core::DagGreedy;
use aqt_model::{Dag, FnSource, Injection, InjectionSource, Simulation};

use crate::engine_bench::{render_runs, time_run, EngineRun};

/// The round-0 wave on a `rows × cols` mesh: node `(r, c)` injects one
/// packet to the end of its row (when it has a right link) and one to the
/// bottom of its column (when it has a down link) — `2·r·c − r − c`
/// packets total, link-disjoint under XY routing.
pub fn wave_source(rows: usize, cols: usize) -> impl InjectionSource {
    FnSource::new(1, move |t, out| {
        debug_assert_eq!(t, 0);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c < cols - 1 {
                    out.push(Injection::new(0, v, r * cols + (cols - 1)));
                }
                if r < rows - 1 {
                    out.push(Injection::new(0, v, (rows - 1) * cols + c));
                }
            }
        }
    })
}

/// Times the diagonal wave for a fixed number of rounds into a record.
///
/// # Panics
///
/// Panics if the grid would require dense tables (the scale contract of
/// this experiment) or the engine rejects the run.
pub fn measure_mesh(rows: usize, cols: usize, rounds: u64) -> EngineRun {
    let build = || {
        let topo = Dag::grid(rows, cols);
        assert!(
            topo.is_computed_routing(),
            "mesh runs must not build O(n^2) tables"
        );
        Simulation::from_source(topo, DagGreedy::fifo(), wave_source(rows, cols))
    };
    let topology = format!("grid {rows}x{cols}");
    let (run, ()) = time_run("diagonal wave", &topology, build, |sim| {
        sim.run(rounds).expect("valid wave run");
    });
    run
}

/// The E13 instance ladder: `(rows, cols, rounds)` per mode. Quick keeps
/// CI under a few seconds; full sustains the 1024×1024 (~1M node) regime
/// long enough for a stable rate.
pub fn e13_instances(quick: bool) -> Vec<(usize, usize, u64)> {
    if quick {
        vec![(256, 256, 24), (1024, 1024, 3)]
    } else {
        vec![(256, 256, 96), (512, 512, 48), (1024, 1024, 24)]
    }
}

/// E13 — mesh scale probe: the instance ladder's records and their
/// table.
pub fn e13_mesh(quick: bool) -> (Vec<EngineRun>, Vec<Table>) {
    let runs: Vec<EngineRun> = e13_instances(quick)
        .into_iter()
        .map(|(rows, cols, rounds)| measure_mesh(rows, cols, rounds))
        .collect();
    let mut table = render_runs(
        "E13 - million-node mesh wave (computed routing, arenas)",
        &runs,
    );
    table.note("diagonal wave: every node fires right + down at round 0; link-disjoint under XY");
    table.note("rate counts executed packet-moves (forwarded), not injections");
    (runs, vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::NodeId;

    #[test]
    fn wave_is_link_disjoint_and_advances_every_round() {
        // 8×8: 2·8·7 = 112 packets, everyone moves every round until
        // delivered — forwarded per round = live packet count.
        let (rows, cols) = (8, 8);
        let mut sim = Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            wave_source(rows, cols),
        );
        let o = sim.step().unwrap();
        assert_eq!(o.injected, 2 * rows * cols - rows - cols);
        assert_eq!(o.forwarded, o.injected);
        let o = sim.step().unwrap();
        // Round 1: the 16 packets injected one hop from their dest (8 at
        // c = 6, 8 at r = 6) delivered in round 0; everyone else moved.
        assert_eq!(o.forwarded, 112 - 16);
        sim.run_past_horizon(2 * (rows + cols) as u64).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().delivered, 112);
        // Peak occupancy stays tiny: the wave is contention-free.
        assert!(sim.metrics().max_occupancy <= 2);
        assert_eq!(sim.state().occupancy(NodeId::new(0)), 0);
    }

    #[test]
    fn measure_mesh_reports_the_steady_rate() {
        let run = measure_mesh(64, 64, 8);
        assert_eq!(run.workload, "diagonal wave");
        assert_eq!(run.topology, "grid 64x64");
        assert_eq!(run.nodes, 4096);
        assert_eq!(run.rounds, 8);
        // 2·64·64 − 128 = 8064 packets injected at round 0; the wave is
        // link-disjoint, so the peak buffer stays tiny.
        assert_eq!(run.injected, 8064);
        assert!(run.moves > 0 && run.peak_occupancy <= 2);
        assert!(run.moves_per_sec() > 0.0);
        // Both ladders reach the million-node mesh.
        for quick in [true, false] {
            let &(rows, cols, _) = e13_instances(quick).last().unwrap();
            assert_eq!(rows * cols, 1024 * 1024);
        }
    }
}
