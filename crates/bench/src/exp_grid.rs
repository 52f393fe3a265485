//! E12 — grid routing: peak buffer occupancy vs mesh dimensions.
//!
//! The paper's space bounds are proven on paths and trees; the grid is the
//! natural next topology (Even & Medina, "Online Packet-Routing in Grids
//! with Bounded Buffers"). E12 measures, for row-column-routed meshes of
//! growing dimensions, the peak buffer occupancy of the per-link greedy
//! protocols under three canonical grid loads plus a leaky-bucket-shaped
//! cross-traffic mix:
//!
//! * **floods** — every row flooded left → right *and* every column
//!   flooded top → bottom at rate 1 (disjoint routes except where rows
//!   and columns cross);
//! * **diag wave** — successive anti-diagonals fire toward the far corner
//!   (the XY-routing hotspot: everything converges on the last column);
//! * **shaped** — overloaded row + column wishes shaped down to a
//!   (ρ = 1, σ = 2)-bounded stream by the leaky-bucket shaper.
//!
//! **E12b** closes the loop with the threshold machinery: for each mesh,
//! the smallest zero-drop capacity of the diagonal-wave [`e12_scenario`]
//! equals the unbounded run's peak — the same falsifiable-threshold
//! contract E11 established on paths, now on DAGs — and the
//! `zero_drop_capacity` that [`Scenario::validate`] predicts for it.

use aqt_adversary::SourceSpec;
use aqt_analysis::{
    capacity_threshold, run_grid, sweep, CapacityThreshold, Scenario, ScenarioGrid, Table,
};
use aqt_core::{GreedyPolicy, ProtocolSpec};
use aqt_model::{DropPolicyKind, Rate, StagingMode, TopologySpec};

/// Settle time after the adversary stops.
const EXTRA: u64 = 100;

/// The mesh shapes E12 sweeps.
pub fn e12_shapes(quick: bool) -> Vec<(usize, usize)> {
    if quick {
        vec![(4, 4), (4, 8), (8, 8)]
    } else {
        // A superset of the quick shapes, so full-run tables extend the
        // quick-run tables row-for-row.
        vec![(4, 4), (4, 8), (8, 8), (8, 16), (16, 16), (16, 32)]
    }
}

/// The three canonical E12 grid loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridLoad {
    /// Every row and column flooded at rate 1.
    Floods,
    /// Anti-diagonal waves toward the far corner.
    Diag,
    /// Overloaded floods shaped down to (1, 2).
    Shaped,
}

impl GridLoad {
    /// The loads in E12a column order.
    pub const ALL: [GridLoad; 3] = [GridLoad::Floods, GridLoad::Diag, GridLoad::Shaped];

    fn label(self) -> &'static str {
        match self {
            GridLoad::Floods => "floods",
            GridLoad::Diag => "diag",
            GridLoad::Shaped => "shaped",
        }
    }

    /// The load as a declarative [`SourceSpec`] (`rounds` bounds the
    /// flood streams; the diagonal wave's horizon is the mesh itself).
    pub fn spec(self, rounds: u64) -> SourceSpec {
        match self {
            GridLoad::Floods => SourceSpec::AllFloods { rounds },
            GridLoad::Diag => SourceSpec::DiagonalWave {
                per_step: 1,
                gap: 1,
            },
            GridLoad::Shaped => SourceSpec::Shaped {
                inner: Box::new(SourceSpec::AllFloods { rounds }),
                rate: Rate::ONE,
                sigma: 2,
            },
        }
    }
}

/// The E12a cell as a declarative [`Scenario`]: DagGreedy-FIFO on a
/// `rows × cols` mesh under one of the three canonical loads. This is
/// the exact run the E12a table measures — and the checked-in
/// `scenarios/e12_grid_4x4_diag.json` artifact.
pub fn e12_scenario(rows: usize, cols: usize, load: GridLoad, rounds: u64) -> Scenario {
    Scenario {
        name: Some(format!("e12a {rows}x{cols} {}", load.label())),
        topology: TopologySpec::Grid { rows, cols },
        protocol: ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        },
        source: load.spec(rounds),
        extra: EXTRA,
        capacity: None,
        telemetry: None,
        faults: None,
    }
}

/// The whole E12a sweep as one declarative [`ScenarioGrid`] — shapes ×
/// the three canonical loads, expanded topology-major so row `i` of the
/// E12a table is results `3i..3i+3`. The quick instance is the
/// checked-in `scenarios/e12a_sweep_grid.json` artifact.
pub fn e12a_sweep_grid(quick: bool) -> ScenarioGrid {
    let rounds = if quick { 60 } else { 200 };
    ScenarioGrid {
        name: Some("e12a peaks: mesh shapes x canonical grid loads".into()),
        topologies: e12_shapes(quick)
            .into_iter()
            .map(|(rows, cols)| TopologySpec::Grid { rows, cols })
            .collect(),
        protocols: vec![ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        }],
        sources: GridLoad::ALL.into_iter().map(|l| l.spec(rounds)).collect(),
        capacities: Vec::new(),
        extra: EXTRA,
    }
}

/// E12a — peak buffer occupancy vs mesh dimensions for the three loads.
fn e12a_peaks(quick: bool) -> Table {
    let rounds = if quick { 60 } else { 200 };
    let shapes = e12_shapes(quick);
    let peaks: Vec<usize> = run_grid(&e12a_sweep_grid(quick))
        .into_iter()
        .map(|r| r.expect("valid grid run").max_occupancy)
        .collect();

    let mut table = Table::new(
        "E12a - grid peak buffer occupancy vs mesh dimensions (DagGreedy-FIFO)",
        ["grid", "nodes", "floods", "diag wave", "shaped"],
    );
    for (si, &(rows, cols)) in shapes.iter().enumerate() {
        let row = &peaks[si * 3..(si + 1) * 3];
        table.push_row([
            format!("{rows}x{cols}"),
            (rows * cols).to_string(),
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
        ]);
    }
    table.note(format!(
        "floods: every row and column streamed at rho = 1 for {rounds} rounds; diag: anti-diagonal waves (1 pkt/cell) toward the far corner; shaped: row+column wishes leaky-bucketed to (1, 2)"
    ));
    table.note("routing is row-column (XY): flood routes only share the row/column crossing cells");
    table.note(
        "diag peaks grow with the mesh: all corner-bound traffic converges on the last column",
    );
    table
}

/// The E12b search: the diag-wave [`e12_scenario`] on a `rows × cols`
/// mesh, drop-tail with exempt staging.
fn e12b_threshold(rows: usize, cols: usize) -> CapacityThreshold {
    capacity_threshold(
        &e12_scenario(rows, cols, GridLoad::Diag, 0),
        DropPolicyKind::Tail,
        StagingMode::Exempt,
    )
    .expect("valid threshold search")
}

/// E12b — zero-drop capacity threshold on meshes (diag wave, drop-tail):
/// the threshold must equal the unbounded run's peak, as on paths.
fn e12b_thresholds(quick: bool) -> Table {
    let shapes = e12_shapes(quick);
    let rows_out = sweep::parallel(&shapes, |&(rows, cols)| e12b_threshold(rows, cols));
    let mut table = Table::new(
        "E12b - zero-drop capacity threshold on meshes (diag wave, drop-tail)",
        ["grid", "threshold", "unbounded peak", "drops@c-1", "probes"],
    );
    for (&(rows, cols), th) in shapes.iter().zip(&rows_out) {
        assert_eq!(
            th.threshold, th.unbounded_peak,
            "exempt-staging threshold must equal the unbounded peak"
        );
        table.push_row([
            format!("{rows}x{cols}"),
            th.threshold.to_string(),
            th.unbounded_peak.to_string(),
            th.drops_below.map_or_else(|| "-".into(), |d| d.to_string()),
            th.probes.len().to_string(),
        ]);
    }
    table.note("same falsifiable-threshold contract as E11, now on DAG topologies");
    table
}

/// E12 — grid routing: peak buffer vs mesh dimensions + mesh thresholds.
pub fn e12_grid(quick: bool) -> Vec<Table> {
    vec![e12a_peaks(quick), e12b_thresholds(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_adversary::grid::{self as gridpat, all_floods_source};
    use aqt_analysis::run_scenario;
    use aqt_core::DagGreedy;
    use aqt_model::{Dag, PatternSource, Protocol, Simulation};

    /// One E12a measurement through the declarative scenario layer.
    fn peak_for(rows: usize, cols: usize, load: GridLoad, rounds: u64) -> usize {
        run_scenario(&e12_scenario(rows, cols, load, rounds))
            .expect("valid grid run")
            .max_occupancy
    }

    #[test]
    fn e12_tables_cover_every_shape() {
        let tables = e12_grid(true);
        assert_eq!(tables.len(), 2);
        let rendered = tables[0].render();
        for (rows, cols) in e12_shapes(true) {
            assert!(
                rendered.contains(&format!("{rows}x{cols}")),
                "missing shape in\n{rendered}"
            );
        }
        assert!(e12_shapes(true).len() >= 3, "need at least 3 grid shapes");
    }

    #[test]
    fn e12b_thresholds_equal_the_predicted_zero_drop_capacity() {
        // Scenario::validate predicts the diag wave's peak exactly, and
        // under exempt staging the peak is the zero-drop capacity: the
        // search must measure that number on every quick shape.
        for (rows, cols) in e12_shapes(true) {
            let report = e12_scenario(rows, cols, GridLoad::Diag, 0)
                .validate()
                .unwrap();
            let predicted = report
                .prediction("zero_drop_capacity")
                .expect("a diag-wave prediction");
            assert!(predicted.exact, "{rows}x{cols}");
            assert_eq!(
                e12b_threshold(rows, cols).threshold as u64,
                predicted.value,
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn diag_wave_peak_grows_with_the_mesh() {
        // The corner hotspot scales with the diagonal count.
        let small = peak_for(4, 4, GridLoad::Diag, 0);
        let large = peak_for(8, 8, GridLoad::Diag, 0);
        assert!(
            large > small,
            "8x8 diag peak {large} must exceed 4x4 peak {small}"
        );
    }

    #[test]
    fn e12_scenario_matches_the_hand_wired_run() {
        // The declarative path must reproduce the pre-scenario wiring of
        // E12a bit-for-bit on every load, including the streamed shaper
        // (previously materialized into a pattern — same schedule either
        // way).
        use aqt_model::InjectionSource;
        let (rows, cols, rounds) = (4usize, 4usize, 20u64);
        for load in GridLoad::ALL {
            let mesh = Dag::grid(rows, cols);
            let source: Box<dyn InjectionSource> = match load {
                GridLoad::Floods => Box::new(all_floods_source(rows, cols, rounds)),
                GridLoad::Diag => Box::new(gridpat::diagonal_wave_source(rows, cols, 1, 1)),
                GridLoad::Shaped => {
                    let pattern =
                        gridpat::shaped_cross_traffic(&mesh, Rate::ONE, 2, rounds).into_pattern();
                    Box::new(PatternSource::from(pattern))
                }
            };
            let mut sim = Simulation::from_source(mesh, DagGreedy::fifo(), source);
            sim.run_past_horizon(EXTRA).expect("valid run");
            let summary = run_scenario(&e12_scenario(rows, cols, load, rounds)).unwrap();
            let m = sim.metrics();
            assert_eq!(
                summary.protocol,
                Protocol::<Dag>::name(sim.protocol()),
                "{load:?}"
            );
            assert_eq!(summary.injected, m.injected, "{load:?}");
            assert_eq!(summary.delivered, m.delivered, "{load:?}");
            assert_eq!(summary.max_occupancy, m.max_occupancy, "{load:?}");
            assert_eq!(summary.max_latency, m.latency.max_rounds, "{load:?}");
        }
    }

    #[test]
    fn floods_drain_on_disjoint_routes() {
        let (rows, cols) = (4usize, 4usize);
        let mut sim = Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            all_floods_source(rows, cols, 20),
        );
        sim.run_past_horizon(EXTRA).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().injected, 20 * (rows + cols) as u64);
        assert_eq!(
            sim.metrics().delivered,
            sim.metrics().injected,
            "floods must be delivered in full"
        );
    }
}
