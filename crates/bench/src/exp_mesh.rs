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

use std::time::Instant;

use aqt_analysis::Table;
use aqt_core::DagGreedy;
use aqt_model::{Dag, FnSource, Injection, InjectionSource, Simulation};
use serde::{Deserialize, Serialize};

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

/// One measured wave run, the row format behind both the E13 tables and
/// the `mesh_*`/`mesh1m_*` fields of `BENCH_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeshRun {
    /// Mesh shape, e.g. `"1024x1024"`.
    pub grid: String,
    /// Node count (`rows × cols`).
    pub nodes: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Packet-moves executed (the engine's `forwarded` counter).
    pub moves: u64,
    /// Wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Packet-moves per second — the headline rate.
    pub moves_per_sec: f64,
}

/// Runs the diagonal wave for a fixed number of rounds and reports the
/// packet-move rate.
///
/// # Panics
///
/// Panics if the grid would require dense tables (the scale contract of
/// this experiment) or the engine rejects the run.
pub fn measure_mesh(rows: usize, cols: usize, rounds: u64) -> MeshRun {
    let topo = Dag::grid(rows, cols);
    assert!(
        topo.is_computed_routing(),
        "mesh runs must not build O(n^2) tables"
    );
    let mut sim = Simulation::from_source(topo, DagGreedy::fifo(), wave_source(rows, cols));
    let started = Instant::now();
    sim.run(rounds).expect("valid wave run");
    let wall = started.elapsed();
    let moves = sim.metrics().forwarded;
    let wall_ms = wall.as_secs_f64() * 1e3;
    MeshRun {
        grid: format!("{rows}x{cols}"),
        nodes: rows * cols,
        rounds,
        moves,
        wall_ms,
        moves_per_sec: moves as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// [`measure_mesh`] hardened for baseline recording: one discarded
/// warmup run, then the median-wall-clock run of three. The wave is
/// deterministic, so the three runs differ only in `wall_ms` — this is
/// what the `mesh_*`/`mesh1m_*` fields of `BENCH_engine.json` record.
pub fn measure_mesh_median(rows: usize, cols: usize, rounds: u64) -> MeshRun {
    let _warmup = measure_mesh(rows, cols, rounds);
    let mut runs: Vec<MeshRun> = (0..3).map(|_| measure_mesh(rows, cols, rounds)).collect();
    runs.sort_unstable_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    runs.swap_remove(1)
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

/// Renders measured runs into the E13 table.
pub fn render_e13(runs: &[MeshRun]) -> Vec<Table> {
    let mut table = Table::new(
        "E13 - million-node mesh wave (computed routing, arenas)",
        ["grid", "nodes", "rounds", "moves", "wall ms", "moves/s"],
    );
    for run in runs {
        table.push_row([
            run.grid.clone(),
            run.nodes.to_string(),
            run.rounds.to_string(),
            run.moves.to_string(),
            format!("{:.1}", run.wall_ms),
            format!("{:.2e}", run.moves_per_sec),
        ]);
    }
    table.note("diagonal wave: every node fires right + down at round 0; link-disjoint under XY");
    table.note("rate counts executed packet-moves (forwarded), not injections");
    vec![table]
}

/// E13 — mesh scale probe (runs the instance ladder and renders it).
pub fn e13_mesh(quick: bool) -> Vec<Table> {
    let runs: Vec<MeshRun> = e13_instances(quick)
        .into_iter()
        .map(|(rows, cols, rounds)| measure_mesh(rows, cols, rounds))
        .collect();
    render_e13(&runs)
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
        assert_eq!(run.grid, "64x64");
        assert_eq!(run.nodes, 4096);
        assert_eq!(run.rounds, 8);
        // 2·64·64 − 128 = 8064 live packets, none delivered within 8
        // rounds of a 64-wide mesh except those injected near the edge.
        assert!(run.moves > 0);
        assert!(run.moves_per_sec > 0.0);
    }

    #[test]
    fn e13_quick_renders() {
        // Smallest shape through the full render path (the quick ladder
        // itself runs in the e13 smoke + CI, not in unit tests).
        let tables = render_e13(&[measure_mesh(32, 32, 4)]);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].render().contains("32x32"));
        assert!(!tables[0].to_csv().contains("NaN"));
    }
}
