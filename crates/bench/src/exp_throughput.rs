//! E10 — engine throughput under streaming injection, capacity and fault
//! overheads, and serial-vs-parallel sweep wall-clock.
//!
//! The paper's theorems are asymptotic in `n` and in run length; this
//! experiment measures whether the engine can actually *reach* those
//! regimes. A (ρ, σ)-bounded stream of ≥ 10⁶ packets (full mode) crosses
//! a 1,024-node path through [`Simulation::from_source`] — nothing is
//! materialized, so resident memory tracks the peak number of *live*
//! packets, not the total injected. The same stream reruns at capacity 1,
//! an overloaded route prices the drop path, and a flooded mesh prices
//! the per-edge plans with and without faults. Finally the E6 tradeoff
//! grid is timed under [`sweep::serial`] vs [`sweep::parallel`]
//! (identical results by construction; see the determinism test).
//! E10b times the paper's planners themselves: PPTS, Tree-PPTS, HPTS and
//! HPTS-D against a random bounded adversary, and HPTS against the
//! Thm. 5.1 adversary.
//!
//! Every record lands in `BENCH_engine.json` (via `experiments
//! --bench-json`) next to those of E13, E14 and E16.

use std::time::Instant;

use aqt_adversary::{
    grid::all_floods_source, patterns, DestSpec, LowerBoundAdversary, RandomAdversary,
};
use aqt_analysis::{sweep, Table};
use aqt_core::{DagGreedy, Greedy, GreedyPolicy, Hpts, HptsD, Ppts, TreePpts};
use aqt_model::{
    CapacityConfig, Dag, DirectedTree, DropPolicyKind, FaultEvent, FaultSpec, FnSource, Injection,
    InjectionSource, Packet, Path, Protocol, Rate, RunMetrics, Simulation, StoredPacket, Topology,
};

use crate::engine_bench::{render_runs, time_run, EngineRun};

/// Disjoint-pairs stream on an `n`-node path (`n` even): every round, one
/// packet `2i → 2i+1` for each of the `n/2` pairs. Each buffer `2i` sees
/// exactly one crossing per round, so the stream is (1, 0)-bounded, and
/// any greedy protocol delivers every packet in its injection round —
/// peak live packets stay at `n/2` forever.
pub fn pairs_source(n: usize, rounds: u64) -> impl InjectionSource {
    assert!(n >= 2 && n % 2 == 0, "need an even number of nodes");
    FnSource::new(rounds, move |t, out| {
        out.extend((0..n / 2).map(|i| Injection::new(t, 2 * i, 2 * i + 1)));
    })
}

/// One point of the E6-style sweep grid: level count k and adversary seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E6Point {
    /// Level count k = ⌊1/ρ⌋.
    pub k: u32,
    /// Adversary seed.
    pub seed: u64,
}

/// The E6 tradeoff grid E10 times (k sweep × a few seeds).
pub fn e6_grid(quick: bool) -> Vec<E6Point> {
    let (ks, seeds): (&[u32], u64) = if quick {
        (&[1, 2, 4], 2)
    } else {
        (&[1, 2, 3, 4, 8], 4)
    };
    let mut grid = Vec::new();
    for &k in ks {
        for seed in 0..seeds {
            grid.push(E6Point { k, seed });
        }
    }
    grid
}

/// Runs one E6 grid point: HPTS at rate 1/k on a 256-node path against a
/// seeded random bounded adversary (pure function of the point). Returns
/// the rounds executed and the final metrics.
pub fn run_e6_point(point: &E6Point, quick: bool) -> (u64, RunMetrics) {
    let n = 256usize;
    let rounds = if quick { 300 } else { 1000 };
    let rho = Rate::one_over(point.k).expect("valid rate");
    let hpts = Hpts::for_line(n, point.k).expect("geometry fits");
    let source = RandomAdversary::new(rho, 1, rounds)
        .seed(1000 + point.seed * 131 + u64::from(point.k))
        .stream_path(&Path::new(n));
    let mut sim = Simulation::from_source(Path::new(n), hpts, source);
    sim.run_past_horizon(300).expect("valid run");
    (sim.round().value(), sim.metrics().clone())
}

/// E10's single-simulation records on an instance: the pairs stream on
/// an `n`-node path, bare and at capacity 1; an overloaded route into
/// capacity 8; all floods on a `side × side` mesh, fault-free and
/// faulted; and all floods on a `lossy_side × lossy_side` mesh at
/// capacity 3 under link outages and a crash.
///
/// # Panics
///
/// Panics if a run breaks its construction: the streams and the
/// fault-free floods must drain, capacity 1 must drop nothing, the lossy
/// route must drop and the crash windows must fault packets.
pub fn e10_runs(
    n: usize,
    rounds: u64,
    side: usize,
    flood_rounds: u64,
    lossy_side: usize,
) -> [EngineRun; 6] {
    let path = format!("path {n}");
    let pairs = || {
        Simulation::from_source(
            Path::new(n),
            Greedy::new(GreedyPolicy::Fifo),
            pairs_source(n, rounds),
        )
    };
    let (stream, ()) = time_run("pairs stream", &path, pairs, |sim| {
        sim.run_past_horizon(2).expect("valid streaming run");
        assert!(sim.is_drained(), "pairs stream must drain");
    });
    // The same schedule at capacity 1 with drop-tail: the pairs stream
    // never buffers two packets anywhere, so nothing drops and any
    // wall-clock delta is pure enforcement cost (the E11 hot path).
    let (capped, ()) = time_run(
        "pairs stream, capacity 1",
        &path,
        || pairs().with_capacity(CapacityConfig::uniform(1), DropPolicyKind::Tail),
        |sim| {
            sim.run_past_horizon(2).expect("valid capacity run");
            assert!(sim.is_drained(), "capacity-1 pairs stream must drain");
        },
    );
    assert_eq!(capped.dropped, 0, "pairs never overflow capacity 1");
    // Four packets per round onto one route into capacity 8: the drop
    // policy fires on most injections, pricing the drop path itself.
    let lossy_cap = 8usize;
    let (lossy, ()) = time_run(
        "lossy route, capacity 8",
        &path,
        || {
            Simulation::from_source(
                Path::new(n),
                Greedy::new(GreedyPolicy::Fifo),
                FnSource::new(rounds, move |t, out| {
                    out.extend(std::iter::repeat_n(Injection::new(t, 0, n - 1), 4));
                }),
            )
            .with_capacity(CapacityConfig::uniform(lossy_cap), DropPolicyKind::Tail)
        },
        |sim| {
            sim.run_past_horizon((n * lossy_cap + n) as u64)
                .expect("valid lossy run");
        },
    );
    assert!(lossy.dropped > 0, "the lossy run must lose packets");
    // All rows flooded right and all columns down: every round exercises
    // two sends per node, per-link validation and multi-out forwarding
    // (the E12 hot path).
    let grid = format!("grid {side}x{side}");
    let floods = || {
        Simulation::from_source(
            Dag::grid(side, side),
            DagGreedy::fifo(),
            all_floods_source(side, side, flood_rounds),
        )
    };
    let settle = 4 * side as u64;
    let (flooded, ()) = time_run("all floods", &grid, floods, |sim| {
        sim.run_past_horizon(settle).expect("valid grid run");
        assert!(sim.is_drained(), "grid floods must drain");
    });
    // The same floods under a recovering link outage plus a crash window
    // over a row injector: every planned move consults the fault mask,
    // and the crash turns some injections into `faulted` (E15's engine
    // side).
    let faults = FaultSpec::new(0xE15)
        .with_event(FaultEvent::RandomLinks {
            count: 4,
            at: 2,
            until: Some(18),
        })
        .with_event(FaultEvent::NodeCrash {
            node: (side / 2) * side,
            at: 4,
            until: Some(12),
        });
    let (faulted, ()) = time_run(
        "all floods, faulted",
        &grid,
        || floods().with_faults(&faults),
        |sim| {
            sim.run_past_horizon(settle + 32)
                .expect("valid faulted grid run");
        },
    );
    assert!(
        faulted.faulted > 0,
        "the crash window must cover a row injector"
    );
    let lossy_mesh = lossy_mesh_run(lossy_side);
    [stream, capped, lossy, flooded, faulted, lossy_mesh]
}

/// All floods on a `side × side` mesh at capacity 3 with `Farthest`
/// drops, under two back-to-back windows of `side²/40` random link
/// outages and a crash inside the second: perfbench's `mesh_lossy` shape
/// (which is `side` 96), where buffers stay full, most moves end in a
/// drop and every move consults the fault mask.
fn lossy_mesh_run(side: usize) -> EngineRun {
    let rounds = 320;
    let links = side * side / 40;
    let faults = FaultSpec::new(0x1055)
        .with_event(FaultEvent::RandomLinks {
            count: links,
            at: rounds / 8,
            until: Some(rounds / 2),
        })
        .with_event(FaultEvent::RandomLinks {
            count: links,
            at: rounds / 2,
            until: Some(rounds),
        })
        .with_event(FaultEvent::NodeCrash {
            node: (side / 4) * side + side / 4,
            at: rounds / 2 + 1,
            until: Some(3 * rounds / 4),
        });
    let (run, ()) = time_run(
        "all floods, capacity 3, faulted",
        &format!("grid {side}x{side}"),
        || {
            Simulation::from_source(
                Dag::grid(side, side),
                DagGreedy::fifo(),
                all_floods_source(side, side, rounds),
            )
            .with_capacity(CapacityConfig::uniform(3), DropPolicyKind::Farthest)
            .with_faults(&faults)
        },
        |sim| {
            sim.run_past_horizon(2 * side as u64)
                .expect("valid lossy mesh run");
        },
    );
    assert!(
        run.dropped > 0 && run.faulted > 0,
        "the lossy mesh must drop and the crash must fault packets"
    );
    run
}

/// Settle rounds after the planner records' random adversary stops.
const PLANNER_SETTLE: u64 = 50;

/// The random adversary of the planner records: ρ = 1/2, σ = 2, any
/// destination unless restricted, `rounds` rounds.
fn planner_adversary(rounds: u64) -> RandomAdversary {
    RandomAdversary::new(Rate::new(1, 2).expect("valid rate"), 2, rounds).seed(19)
}

/// Steps a planner record past its horizon by [`PLANNER_SETTLE`] rounds.
fn settle<T: Topology, P: Protocol<T>, S: InjectionSource>(sim: &mut Simulation<T, P, S>) {
    sim.run_past_horizon(PLANNER_SETTLE)
        .expect("valid planner run");
}

/// The paper's planners, one record each, on one instance size `scale`:
/// PPTS (Prop. 3.2) on a `4·scale`-node path, Tree-PPTS (Prop. 3.5) on
/// `DirectedTree::random(4·scale, 11)`, HPTS with ℓ = 2 (Thm. 4.1) on a
/// `scale`-node path, all against a random (ρ, σ) = (1/2, 2) adversary
/// with any destination; HPTS-D with ℓ = 2 on a `2·scale`-node path
/// against the same adversary toward 7 even destinations; and HPTS with
/// ℓ = 2 against the Thm. 5.1 adversary at m = `duel_m`, which is E5a's
/// HPTS row. Each random run is `rounds` adversary rounds plus 50 settle
/// rounds; the duel settles for 8 rounds as E5a does. Every pattern is
/// built once, outside the timer.
///
/// # Panics
///
/// Panics if `scale < 4` (HPTS-D needs 7 destinations on `2·scale`
/// nodes) or `duel_m` is not a valid ℓ = 2, ρ = 1/2 construction.
fn planner_runs(scale: usize, rounds: u64, duel_m: u64) -> [EngineRun; 5] {
    let n = 4 * scale;
    let pattern = planner_adversary(rounds).build_path(&Path::new(n));
    let (ppts, ()) = time_run(
        "PPTS, random adversary",
        &format!("path {n}"),
        || Simulation::new(Path::new(n), Ppts::new(), &pattern).expect("valid pattern"),
        settle,
    );
    let tree = DirectedTree::random(n, 11);
    let pattern = planner_adversary(rounds).build_tree(&tree);
    let (tree_ppts, ()) = time_run(
        "Tree-PPTS, random adversary",
        &format!("random tree {n}"),
        || Simulation::new(tree.clone(), TreePpts::new(), &pattern).expect("valid pattern"),
        settle,
    );
    let pattern = planner_adversary(rounds).build_path(&Path::new(scale));
    let (hpts, ()) = time_run(
        "HPTS l=2, random adversary",
        &format!("path {scale}"),
        || {
            let hpts = Hpts::for_line(scale, 2).expect("geometry fits");
            Simulation::new(Path::new(scale), hpts, &pattern).expect("valid pattern")
        },
        settle,
    );
    let n = 2 * scale;
    let dests = patterns::even_destinations(n, 7);
    let pattern = planner_adversary(rounds)
        .destinations(DestSpec::fixed(dests.clone()))
        .build_path(&Path::new(n));
    let (hpts_d, ()) = time_run(
        "HPTS-D l=2 d=7, random adversary",
        &format!("path {n}"),
        || {
            let hpts_d = HptsD::new(dests.clone(), 2).expect("valid destination set");
            Simulation::new(Path::new(n), hpts_d, &pattern).expect("valid pattern")
        },
        settle,
    );
    let adversary = LowerBoundAdversary::new(2, duel_m, Rate::new(1, 2).expect("valid rate"))
        .expect("valid parameters");
    let pattern = adversary.pattern();
    let n = adversary.topology().node_count();
    let (duel, ()) = time_run(
        "HPTS l=2, Thm 5.1 adversary",
        &format!("path {n}"),
        || {
            let hpts = Hpts::for_line(n, 2).expect("geometry fits");
            Simulation::new(Path::new(n), hpts, &pattern).expect("valid pattern")
        },
        |sim| {
            sim.run_past_horizon(8).expect("valid duel run");
        },
    );
    [ppts, tree_ppts, hpts, hpts_d, duel]
}

/// Times the `grid` points under [`sweep::serial`] and
/// [`sweep::parallel_with_threads`] and returns their two records (every
/// count summed over the points, set-up inside the wall-clock) and the
/// worker count the parallel side requested.
///
/// # Panics
///
/// Panics if the two sweeps, or two passes of one, differ in any result.
pub fn sweep_runs(grid: &[E6Point], quick: bool) -> ([EngineRun; 2], usize) {
    // Always request at least two workers; `sweep::parallel_with_threads`
    // caps the actual worker count at the machine's cores, so a
    // single-core host runs the serial path twice (speedup ≈ 1.0) instead
    // of paying thread oversubscription, while any multi-core host really
    // measures the cursor-claiming parallel path.
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(2);
    let run_serial = || sweep::serial(grid, |p| run_e6_point(p, quick));
    let run_parallel = || sweep::parallel_with_threads(grid, threads, |p| run_e6_point(p, quick));
    let points = run_serial(); // warmup both paths once
    assert_eq!(
        run_parallel(),
        points,
        "parallel sweep must be deterministic"
    );
    // Time the two sweeps as *interleaved pairs* (s,p,s,p,...) and take
    // the per-side minimum over six pairs: timing one side's passes and
    // then the other's puts any load drift on the shared runner entirely
    // into the ratio (a committed baseline once showed the
    // serial-degraded single-core pair 12% apart — two windows of the
    // same code path). The minimum estimates each side's noise-free
    // floor; interleaving makes both floors sample the same conditions.
    // Alternate which side goes first: under cgroup CPU throttling the
    // second run of a pair is systematically the slower one, so a fixed
    // order would bias even the minima.
    let mut best_ms = [f64::MAX; 2];
    for pass in 0..6 {
        for side in 0..2 {
            let parallel = (pass + side) % 2;
            let started = Instant::now();
            let out = if parallel == 1 {
                run_parallel()
            } else {
                run_serial()
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            best_ms[parallel] = best_ms[parallel].min(ms);
            assert_eq!(out, points, "sweeps must be pure");
        }
    }
    let topology = format!("{} x path 256", grid.len());
    let summed = |workload: &str, wall_ms: f64| {
        let sum = |count: fn(&RunMetrics) -> u64| points.iter().map(|(_, m)| count(m)).sum::<u64>();
        EngineRun {
            workload: workload.to_string(),
            topology: topology.clone(),
            nodes: 256 * grid.len(),
            rounds: points.iter().map(|(rounds, _)| rounds).sum(),
            injected: sum(|m| m.injected),
            moves: sum(|m| m.forwarded),
            dropped: sum(|m| m.dropped),
            faulted: sum(|m| m.faulted),
            peak_live: points.iter().map(|(_, m)| m.max_in_network).sum(),
            peak_occupancy: points.iter().map(|(_, m)| m.max_occupancy).sum(),
            setup_ms: 0.0,
            wall_ms,
        }
    };
    (
        [
            summed("E6 sweep, serial", best_ms[0]),
            summed("E6 sweep, parallel", best_ms[1]),
        ],
        threads,
    )
}

/// Renders E10's eight records into one table; its notes derive the
/// working set, the capacity and fault overheads and the sweep speedup
/// from the records.
///
/// # Panics
///
/// Panics unless `runs` is [`e10_runs`]'s six records followed by
/// [`sweep_runs`]' two.
pub fn render_e10(runs: &[EngineRun], threads: usize) -> Table {
    let [stream, capped, _, flooded, faulted, _, serial, parallel] = runs else {
        panic!("E10 renders its eight records");
    };
    let overhead = |base: &EngineRun, run: &EngineRun| (run.wall_ms / base.wall_ms - 1.0) * 100.0;
    let mut table = render_runs(
        "E10 - engine throughput: streaming, capacity, faults, sweep scaling",
        runs,
    );
    table.note(format!(
        "working set: {} KiB streamed (peak live x sizeof(StoredPacket)) vs {} KiB to \
         materialize the schedule",
        stream.peak_live * std::mem::size_of::<StoredPacket>() / 1024,
        stream.injected as usize * std::mem::size_of::<Packet>() / 1024,
    ));
    table.note(format!(
        "capacity 1 on the same stream: {:+.1}% wall-clock; faults on the same floods: {:+.1}%",
        overhead(stream, capped),
        overhead(flooded, faulted),
    ));
    table.note(format!(
        "sweep speedup {:.2}x with {threads} workers requested; results identical: ok",
        serial.wall_ms / parallel.wall_ms,
    ));
    table
}

/// E10 — streaming throughput, overheads, sweep scaling and the paper's
/// planners: its thirteen records and their two tables.
pub fn e10_throughput(quick: bool) -> (Vec<EngineRun>, Vec<Table>) {
    // Path nodes, stream rounds, mesh side, flood rounds, lossy mesh
    // side: full mode streams 1,048,576 packets and runs the lossy mesh
    // at perfbench's size.
    let (n, rounds, side, flood_rounds, lossy_side) = if quick {
        (256, 256, 8, 256, 48)
    } else {
        (1024, 2048, 32, 1024, 96)
    };
    let mut runs = e10_runs(n, rounds, side, flood_rounds, lossy_side).to_vec();
    let (sweeps, threads) = sweep_runs(&e6_grid(quick), quick);
    runs.extend(sweeps);
    let table = render_e10(&runs, threads);
    // Adversary rounds and duel base m (the duel is E5a's (2, m) row);
    // scale 256 puts PPTS and Tree-PPTS on 1,024 nodes in both modes.
    let (planner_rounds, duel_m) = if quick { (1000, 6) } else { (4000, 16) };
    let planners = planner_runs(256, planner_rounds, duel_m);
    let mut planner_table = render_runs(
        "E10b - the paper's planners: PPTS, Tree-PPTS, HPTS, HPTS-D, the Thm 5.1 duel",
        &planners,
    );
    planner_table.note(format!(
        "random adversary: rho 1/2, sigma 2, {planner_rounds} rounds + {PLANNER_SETTLE} settle; \
         HPTS-D routes to 7 even destinations"
    ));
    planner_table.note(format!(
        "Thm 5.1 adversary at (l, m) = (2, {duel_m}), rho 1/2: E5a's HPTS row"
    ));
    runs.extend(planners);
    (runs, vec![table, planner_table])
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_analysis::bounds;
    use aqt_model::analyze;

    #[test]
    fn pairs_source_is_dense_and_drains_instantly() {
        let mut sim = Simulation::from_source(
            Path::new(8),
            Greedy::new(GreedyPolicy::Fifo),
            pairs_source(8, 10),
        );
        sim.run_past_horizon(1).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().injected, 40);
        assert_eq!(sim.metrics().delivered, 40);
        // Every packet is delivered in its injection round: live ≤ n/2.
        assert_eq!(sim.metrics().max_in_network, 4);
        assert_eq!(sim.metrics().max_occupancy, 1);
    }

    #[test]
    fn parallel_sweep_matches_serial_on_e6_grid() {
        // The determinism satellite: identical results point-for-point.
        let grid = e6_grid(true);
        let serial = sweep::serial(&grid, |p| run_e6_point(p, true));
        let parallel = sweep::parallel(&grid, |p| run_e6_point(p, true));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn e10_report_is_sane_and_serializes() {
        // A tiny instance: the quick and full ones run in CI's release
        // step.
        let runs = e10_runs(16, 16, 4, 16, 8);
        let [stream, capped, lossy, flooded, faulted, lossy_mesh] = &runs;
        assert_eq!((stream.topology.as_str(), stream.nodes), ("path 16", 16));
        assert_eq!(stream.injected, 16 * 8);
        assert_eq!(stream.peak_live, 8);
        assert!(stream.moves_per_sec() > 0.0);
        assert!(
            stream.peak_live * std::mem::size_of::<StoredPacket>()
                < stream.injected as usize * std::mem::size_of::<Packet>()
        );
        // The capacity rerun executes the identical schedule without
        // loss; the lossy run must actually lose.
        assert_eq!(capped.dropped, 0);
        assert_eq!(
            (capped.rounds, capped.injected, capped.moves),
            (stream.rounds, stream.injected, stream.moves)
        );
        assert!(lossy.dropped > 0 && lossy.dropped < lossy.injected);
        // The floods drained and actually exercised multi-out nodes.
        assert_eq!((flooded.topology.as_str(), flooded.nodes), ("grid 4x4", 16));
        assert!(flooded.peak_occupancy >= 1 && flooded.moves_per_sec() > 0.0);
        // The faulted rerun faulted packets and lost goodput.
        assert!(faulted.faulted > 0 && faulted.faulted < faulted.injected);
        assert!(faulted.wall_ms > 0.0);
        // The lossy mesh drops and faults, and never buffers past 3.
        assert_eq!(
            (lossy_mesh.topology.as_str(), lossy_mesh.peak_occupancy),
            ("grid 8x8", 3)
        );
        assert!(lossy_mesh.dropped > 0 && lossy_mesh.faulted > 0);

        // The sweep: >= 2 workers are always *requested*; the sweep
        // library caps at available cores.
        let ([serial, parallel], threads) = sweep_runs(&e6_grid(true)[..1], true);
        assert!(threads >= 2);
        assert!(serial.wall_ms > 0.0 && parallel.wall_ms > 0.0);
        assert_eq!(serial.topology, "1 x path 256");
        assert_eq!(
            (serial.rounds, serial.moves),
            (parallel.rounds, parallel.moves)
        );

        // The planners: the random runs are the adversary's rounds plus
        // the settle, the duel E5a's m^3 rounds plus 8, and nothing is
        // lost.
        let planners = planner_runs(16, 100, 6);
        let keys: Vec<(&str, usize, u64)> = planners
            .iter()
            .map(|run| (run.topology.as_str(), run.nodes, run.rounds))
            .collect();
        assert_eq!(
            keys,
            [
                ("path 64", 64, 150),
                ("random tree 64", 64, 150),
                ("path 16", 16, 150),
                ("path 32", 32, 150),
                ("path 109", 109, 224),
            ]
        );
        for run in &planners {
            assert!(run.injected > 0 && run.moves > 0, "{run:?}");
            assert_eq!((run.dropped, run.faulted), (0, 0), "{run:?}");
            assert!(run.peak_occupancy >= 1 && run.wall_ms > 0.0, "{run:?}");
        }

        let records: Vec<EngineRun> = runs.iter().cloned().chain([serial, parallel]).collect();
        let table = render_e10(&records, threads);
        assert_eq!(table.len(), 8);
        let rendered = table.render();
        assert!(rendered.contains("pairs stream, capacity 1") && rendered.contains("grid 4x4"));
        assert!(rendered.contains("KiB streamed") && rendered.contains("identical: ok"));
        assert!(!table.to_csv().contains("NaN"));
        let records: Vec<EngineRun> = records.into_iter().chain(planners).collect();
        let json = serde_json::to_string(&records).unwrap();
        assert_eq!(
            serde_json::from_str::<Vec<EngineRun>>(&json).unwrap(),
            records
        );
    }

    #[test]
    fn planner_records_keep_the_paper_bounds() {
        let (scale, rounds) = (16, 100);
        let [ppts, tree_ppts, hpts, hpts_d, duel] = planner_runs(scale, rounds, 6);
        let rho = Rate::new(1, 2).unwrap();
        let within = |run: &EngineRun, bound: u64| {
            assert!(
                run.peak_occupancy as u64 <= bound,
                "{} peaks at {} > {bound}",
                run.workload,
                run.peak_occupancy
            );
        };
        // Each bound takes the tight sigma of the instance's own pattern
        // and d or d' from the destinations it uses.
        let path = Path::new(4 * scale);
        let pattern = planner_adversary(rounds).build_path(&path);
        let sigma = analyze(&path, &pattern, rho).tight_sigma;
        within(
            &ppts,
            bounds::ppts_bound(pattern.destinations().len(), sigma),
        );
        let tree = DirectedTree::random(4 * scale, 11);
        let pattern = planner_adversary(rounds).build_tree(&tree);
        let d_prime = tree.destination_depth(&pattern.destinations());
        let sigma = analyze(&tree, &pattern, rho).tight_sigma;
        within(&tree_ppts, bounds::tree_ppts_bound(d_prime, sigma));
        let path = Path::new(scale);
        let pattern = planner_adversary(rounds).build_path(&path);
        let sigma = analyze(&path, &pattern, rho).tight_sigma;
        let m = Hpts::for_line(scale, 2).unwrap().hierarchy().base();
        within(&hpts, bounds::hpts_bound(2, m, sigma));
        // HPTS-D's hierarchy covers the 7 destinations, not the path.
        let path = Path::new(2 * scale);
        let dests = patterns::even_destinations(2 * scale, 7);
        let pattern = planner_adversary(rounds)
            .destinations(DestSpec::fixed(dests.clone()))
            .build_path(&path);
        assert_eq!(pattern.destinations().len(), 7);
        let sigma = analyze(&path, &pattern, rho).tight_sigma;
        let m = HptsD::new(dests, 2).unwrap().hierarchy().base();
        within(&hpts_d, bounds::hpts_bound(2, m, sigma));
        // The duel is E5a's (l, m) = (2, 6) HPTS cell.
        let e5a = crate::e5_duel(true)[0].to_csv();
        let row = e5a
            .lines()
            .map(|line| line.split(',').collect::<Vec<_>>())
            .find(|row| row[..2] == ["2", "6"] && row[6] == "HPTS")
            .expect("E5a has an HPTS row at (2, 6)");
        assert_eq!(duel.peak_occupancy.to_string(), row[7]);
    }
}
