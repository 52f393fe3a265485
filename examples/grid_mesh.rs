//! Grid routing on the DAG engine: where does congestion pile up on a
//! row-column-routed mesh, and how much buffer does it take to absorb it?
//!
//! Builds an 8×12 mesh ([`Dag::grid`]), drives three canonical grid
//! loads (a row flood, a column flood, and diagonal waves converging on
//! the far corner) through the per-link greedy protocol, renders the
//! resulting hotspot as a spatial [`grid_heatmap`], and closes with the
//! zero-drop capacity threshold of the wave workload.
//!
//! ```text
//! cargo run --release --example grid_mesh
//! ```

use small_buffers::{
    capacity_threshold, grid, grid_heatmap, run_scenario_probed, Dag, DagGreedy, DropPolicyKind,
    GreedyPolicy, ProtocolSpec, Rate, Scenario, Simulation, SourceSpec, StagingMode, Topology,
    TopologySpec, Tracer,
};

const ROWS: usize = 8;
const COLS: usize = 12;

fn main() {
    let mesh = Dag::grid(ROWS, COLS);
    println!(
        "mesh: {ROWS}x{COLS} ({} nodes, {} directed links, XY routing)\n",
        mesh.node_count(),
        mesh.edge_count()
    );

    // Floods ride disjoint routes (rows and columns only meet at their
    // crossing cells), so the per-link engine delivers them at line rate.
    let mut floods = grid::row_flood(ROWS, COLS, 2, Rate::ONE, 40);
    floods.extend(grid::column_flood(ROWS, COLS, 7, Rate::ONE, 40).into_injections());
    let mut sim = Simulation::new(mesh, DagGreedy::fifo(), &floods).expect("valid floods");
    sim.run_past_horizon(ROWS as u64 + COLS as u64)
        .expect("valid run");
    println!(
        "row 2 + column 7 floods: {} injected, {} delivered, peak buffer {}\n",
        sim.metrics().injected,
        sim.metrics().delivered,
        sim.metrics().max_occupancy
    );

    // Diagonal waves: every anti-diagonal fires one packet per cell
    // toward the bottom-right corner — XY routing funnels all of it into
    // the last column.
    let waves = Scenario::new(
        TopologySpec::Grid {
            rows: ROWS,
            cols: COLS,
        },
        ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        },
        SourceSpec::DiagonalWave {
            per_step: 1,
            gap: 1,
        },
        2 * (ROWS + COLS) as u64,
    );
    let mut tracer = Tracer::new("DagGreedy-FIFO");
    let run = run_scenario_probed(&waves, &mut tracer).expect("valid run");
    println!(
        "diagonal waves: {} packets, peak buffer {} at {:?}",
        run.injected,
        run.max_occupancy,
        tracer.trace().peak_at()
    );
    println!("{}", grid_heatmap(tracer.trace(), ROWS, COLS));

    // The E11/E12 threshold contract, on the mesh: the smallest capacity
    // that loses nothing is exactly the unbounded run's peak.
    let th = capacity_threshold(&waves, DropPolicyKind::Tail, StagingMode::Exempt)
        .expect("valid search");
    println!(
        "zero-drop threshold: {} buffers (unbounded peak {}, {} drops one below)",
        th.threshold,
        th.unbounded_peak,
        th.drops_below.unwrap_or(0)
    );
    assert_eq!(th.threshold, th.unbounded_peak);
}
