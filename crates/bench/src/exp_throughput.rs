//! E10 — engine throughput under streaming injection, and serial-vs-parallel
//! sweep wall-clock.
//!
//! The paper's theorems are asymptotic in `n` and in run length; this
//! experiment measures whether the engine can actually *reach* those
//! regimes. Part one drives a (ρ, σ)-bounded stream of ≥ 10⁶ packets over
//! a 1,024-node path through [`Simulation::from_source`] — nothing is
//! materialized, so resident memory tracks the peak number of *live*
//! packets, not the total injected. Part two times the E6 tradeoff grid
//! under [`sweep::serial`] vs [`sweep::parallel`] (identical results by
//! construction; see the determinism test).
//!
//! The numbers also feed `BENCH_engine.json` (via
//! `experiments --bench-json`), giving future PRs a perf trajectory.

use std::time::Instant;

use aqt_adversary::RandomAdversary;
use aqt_analysis::{sweep, RunSummary, Table};
use aqt_core::{Greedy, GreedyPolicy, Hpts};
use aqt_model::{
    CapacityConfig, DropTail, FnSource, Injection, InjectionSource, Packet, Path, Rate, Simulation,
    StoredPacket,
};
use serde::{Deserialize, Serialize};

/// Times `run` with one discarded warmup pass followed by three measured
/// passes, returning `(median wall-clock ms, last output)`. Every `*_ms`
/// field in [`EngineBenchReport`] goes through this (or a local
/// equivalent): a single-sample wall-clock on a shared runner flaps
/// enough to trip `--fail-on-regression` on pure noise — the committed
/// baseline once recorded a −30% "capacity overhead" that was nothing
/// but scheduler jitter. The workloads are deterministic, so the passes
/// differ only in wall-clock and any pass's output is the output.
pub fn timed_median_ms<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    run(); // warmup: page in code and data, settle the allocator
    let mut samples = [0.0f64; 3];
    let mut last = None;
    for s in &mut samples {
        let started = Instant::now();
        last = Some(run());
        *s = started.elapsed().as_secs_f64() * 1e3;
    }
    samples.sort_unstable_by(f64::total_cmp);
    (samples[1], last.expect("three passes ran"))
}

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

/// Everything E10 measures, serialized into `BENCH_engine.json` so future
/// PRs can compare against a recorded trajectory (the repo commits a
/// quick-mode baseline; CI prints the delta via
/// [`bench_delta_table`]). Every `*_ms` field is the median of three
/// timed passes after a discarded warmup ([`timed_median_ms`]), so the
/// committed baseline records workload cost, not scheduler jitter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineBenchReport {
    /// Whether the quick (CI-sized) instance was used.
    pub quick: bool,
    /// Path length of the throughput run.
    pub nodes: usize,
    /// Rounds executed in the throughput run.
    pub rounds: u64,
    /// Packets injected by the streaming source.
    pub injected_packets: u64,
    /// Wall-clock of the throughput run in milliseconds.
    pub wall_ms: f64,
    /// Engine rounds per second.
    pub rounds_per_sec: f64,
    /// Injected packets per second.
    pub packets_per_sec: f64,
    /// Peak packets simultaneously live in the network.
    pub peak_live_packets: usize,
    /// RSS proxy of the streaming run: peak live packets × stored-packet
    /// size.
    pub streaming_bytes: u64,
    /// RSS proxy a materialized `Pattern` run would have added on top:
    /// total injections × packet size.
    pub materialized_bytes: u64,
    /// Grid points in the serial-vs-parallel sweep comparison.
    pub sweep_grid_points: usize,
    /// Worker threads used by the parallel sweep.
    pub sweep_threads: usize,
    /// Wall-clock of the serial E6-grid sweep in milliseconds (minimum
    /// over five passes interleaved with the parallel ones).
    pub sweep_serial_ms: f64,
    /// Wall-clock of the parallel E6-grid sweep in milliseconds (minimum
    /// over five passes interleaved with the serial ones).
    pub sweep_parallel_ms: f64,
    /// `sweep_serial_ms / sweep_parallel_ms` (> 1 on a multi-core host;
    /// ≈ 1 on a single core, where the parallel call degrades to the
    /// serial path).
    pub sweep_speedup: f64,
    /// Wall-clock of the capacity-enforced rerun of the throughput
    /// workload (capacity 1, drop-tail, zero drops by construction) —
    /// the E11 enforcement hot path, same schedule as the unbounded run.
    pub capacity_wall_ms: f64,
    /// Rounds per second of the capacity-enforced rerun.
    pub capacity_rounds_per_sec: f64,
    /// Packets per second of the capacity-enforced rerun.
    pub capacity_packets_per_sec: f64,
    /// Enforcement overhead vs the unbounded run, in percent (can be
    /// slightly negative from timing noise).
    pub capacity_overhead_pct: f64,
    /// Drops in the capacity-enforced rerun (must be 0: the pairs stream
    /// never exceeds occupancy 1).
    pub capacity_dropped: u64,
    /// Wall-clock of the lossy-regime run (overloaded stream into a
    /// small capacity; the drop policy fires constantly).
    pub lossy_wall_ms: f64,
    /// Packets injected in the lossy run.
    pub lossy_injected: u64,
    /// Packets dropped in the lossy run (> 0 by construction).
    pub lossy_dropped: u64,
    /// Goodput of the lossy run in percent.
    pub lossy_goodput_pct: f64,
    /// Mesh shape of the DAG-engine run, e.g. `"16x16"`.
    pub dag_grid: String,
    /// Nodes in the mesh.
    pub dag_nodes: usize,
    /// Rounds executed by the DAG run.
    pub dag_rounds: u64,
    /// Packets injected by the all-floods grid stream.
    pub dag_injected: u64,
    /// Wall-clock of the DAG run in milliseconds.
    pub dag_wall_ms: f64,
    /// Engine rounds per second on the multi-out (per-edge plan) hot path.
    pub dag_rounds_per_sec: f64,
    /// Injected packets per second on the DAG hot path.
    pub dag_packets_per_sec: f64,
    /// Peak buffer occupancy of the DAG run.
    pub dag_peak_occupancy: usize,
    /// Mesh shape of the E13 smoke wave (computed routing + arena),
    /// e.g. `"256x256"`.
    pub mesh_grid: String,
    /// Nodes in the E13 smoke mesh.
    pub mesh_nodes: usize,
    /// Rounds of the E13 smoke wave.
    pub mesh_rounds: u64,
    /// Packet-moves executed by the E13 smoke wave.
    pub mesh_moves: u64,
    /// Wall-clock of the E13 smoke wave in milliseconds.
    pub mesh_wall_ms: f64,
    /// Packet-moves per second of the E13 smoke wave.
    pub mesh_packets_per_sec: f64,
    /// Mesh shape of the million-node run (always `"1024x1024"`).
    pub mesh1m_grid: String,
    /// Nodes in the million-node mesh (1,048,576).
    pub mesh1m_nodes: usize,
    /// Rounds of the million-node wave.
    pub mesh1m_rounds: u64,
    /// Packet-moves executed by the million-node wave.
    pub mesh1m_moves: u64,
    /// Wall-clock of the million-node wave in milliseconds.
    pub mesh1m_wall_ms: f64,
    /// Packet-moves per second of the million-node wave — the tentpole
    /// headline rate.
    pub mesh1m_packets_per_sec: f64,
    /// Wall-clock of the E14 bare mesh-smoke rerun in milliseconds (the
    /// untelemetered half of the overhead pair).
    pub telemetry_overhead_plain_ms: f64,
    /// Wall-clock of the E14 fully-probed mesh-smoke rerun in
    /// milliseconds (occupancy + latency sketches, round series, phase
    /// profiling on a real clock).
    pub telemetry_overhead_probed_ms: f64,
    /// Probe tax in percent: `(probed − plain) / plain × 100`. The
    /// acceptance bar is < 10%; CI records the trajectory rather than
    /// gating on one noisy sample.
    pub telemetry_overhead_pct: f64,
    /// Wall-clock of the faulted DAG rerun in milliseconds: the E10d
    /// flood workload under a recovering link outage plus a node-crash
    /// window, i.e. the fault-mask hot path (E15's engine side).
    pub fault_wall_ms: f64,
    /// Rounds per second of the faulted DAG rerun.
    pub fault_rounds_per_sec: f64,
    /// Fault-mask overhead vs the fault-free DAG run, in percent (can be
    /// slightly negative from timing noise).
    pub fault_overhead_pct: f64,
    /// Packets counted as `faulted` in the rerun (> 0 by construction:
    /// the crash window covers a row injector).
    pub fault_faulted: u64,
    /// Goodput of the faulted rerun in percent (< 100: faulted packets
    /// are never delivered).
    pub fault_goodput_pct: f64,
    /// Mesh shape of the E16 sparse wave (the mesh1m shape, so the two
    /// rates compare the same topology at different live densities).
    pub sparse_grid: String,
    /// Nodes in the sparse mesh.
    pub sparse_nodes: usize,
    /// Packets live for the whole bounded sparse run (one per column).
    pub sparse_live: usize,
    /// Rounds of the sparse wave.
    pub sparse_rounds: u64,
    /// Packet-moves executed by the sparse wave (`live × rounds`).
    pub sparse_moves: u64,
    /// Median wall-clock of the sparse wave in milliseconds.
    pub sparse_wall_ms: f64,
    /// Packet-moves per second of the sparse wave — the active-set
    /// headline: on the dense-scan engine this collapsed toward the
    /// mesh1m rate because every round walked all 2²⁰ buffers to find
    /// ~2¹⁰ live packets.
    pub sparse_packets_per_sec: f64,
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
/// seeded random bounded adversary (pure function of the point).
pub fn run_e6_point(point: &E6Point, quick: bool) -> RunSummary {
    let n = 256usize;
    let rounds = if quick { 300 } else { 1000 };
    let rho = Rate::one_over(point.k).expect("valid rate");
    let hpts = Hpts::for_line(n, point.k).expect("geometry fits");
    let source = RandomAdversary::new(rho, 1, rounds)
        .seed(1000 + point.seed * 131 + u64::from(point.k))
        .stream_path(&Path::new(n));
    sweep::run_source(Path::new(n), hpts, source, 300).expect("valid run")
}

/// Measures throughput and sweep wall-clock; the data behind E10's tables
/// and `BENCH_engine.json`.
pub fn measure_engine(quick: bool) -> EngineBenchReport {
    // --- Part 1: streaming throughput ---------------------------------
    let n = if quick { 256 } else { 1024 };
    let rounds = if quick { 256 } else { 2048 };
    // n/2 packets per round: ≥ 1,048,576 injections in full mode.
    let (wall_ms, (metrics, executed_rounds)) = timed_median_ms(|| {
        let mut sim = Simulation::from_source(
            Path::new(n),
            Greedy::new(GreedyPolicy::Fifo),
            pairs_source(n, rounds),
        );
        sim.run_past_horizon(2).expect("valid streaming run");
        assert!(sim.is_drained(), "pairs stream must drain");
        (sim.metrics().clone(), sim.round().value())
    });
    let secs = (wall_ms / 1e3).max(1e-9);

    // --- Part 2: serial vs parallel sweep over the E6 grid ------------
    // Always request at least two workers; `sweep::parallel_with_threads`
    // caps the actual worker count at the machine's cores, so a
    // single-core host runs the serial path twice (speedup ≈ 1.0) instead
    // of paying thread oversubscription, while any multi-core host really
    // measures the cursor-claiming parallel path.
    let grid = e6_grid(quick);
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .max(2);
    // Time the two sweeps as *interleaved pairs* (s,p,s,p,...) and take
    // the per-side minimum over five pairs: timing one side's three
    // passes and then the other's puts any load drift on the shared
    // runner entirely into the ratio (a committed baseline once showed
    // the serial-degraded single-core pair 12% apart — two windows of
    // the same code path). The minimum estimates each side's noise-free
    // floor; interleaving makes both floors sample the same conditions.
    let run_serial = || sweep::serial(&grid, |p| run_e6_point(p, quick));
    let run_parallel = || sweep::parallel_with_threads(&grid, threads, |p| run_e6_point(p, quick));
    let serial = run_serial(); // warmup both paths once, results kept
    let parallel = run_parallel();
    assert_eq!(serial, parallel, "parallel sweep must be deterministic");
    // Alternate which side goes first: under cgroup CPU throttling the
    // second run of a pair is systematically the slower one, so a fixed
    // order would bias even the minima.
    let (mut serial_ms, mut parallel_ms) = (f64::MAX, f64::MAX);
    for pass in 0..6 {
        for side in 0..2 {
            let started = Instant::now();
            if (pass + side) % 2 == 0 {
                assert_eq!(run_serial(), serial, "sweeps must be pure");
                serial_ms = serial_ms.min(started.elapsed().as_secs_f64() * 1e3);
            } else {
                assert_eq!(run_parallel(), parallel, "sweeps must be pure");
                parallel_ms = parallel_ms.min(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    // A recorded value, not a gate: wall-clock ratios on shared hosts
    // dip below 1.0 on noise alone.
    let sweep_speedup = serial_ms / parallel_ms.max(1e-9);

    // --- Part 3: capacity enforcement overhead (E11 hot path) ---------
    // The exact part-1 schedule rerun at capacity 1 with drop-tail: the
    // pairs stream never buffers more than one packet anywhere, so zero
    // drops occur and any wall-clock delta is pure enforcement cost.
    let (cap_wall_ms, (cap_metrics, cap_rounds)) = timed_median_ms(|| {
        let mut capped = Simulation::from_source(
            Path::new(n),
            Greedy::new(GreedyPolicy::Fifo),
            pairs_source(n, rounds),
        )
        .with_capacity(CapacityConfig::uniform(1), DropTail);
        capped.run_past_horizon(2).expect("valid capacity run");
        assert!(capped.is_drained(), "capacity-1 pairs stream must drain");
        assert_eq!(capped.metrics().dropped, 0, "pairs never overflow cap 1");
        (capped.metrics().clone(), capped.round().value())
    });
    let cap_secs = (cap_wall_ms / 1e3).max(1e-9);

    // --- Part 4: the lossy regime -------------------------------------
    // An overloaded single-route stream (4 pkts/round at node 0) into
    // capacity 8: the policy fires on most injections, measuring the
    // drop path itself.
    let lossy_cap = 8usize;
    let (lossy_wall_ms, lossy_metrics) = timed_median_ms(|| {
        let mut lossy = Simulation::from_source(
            Path::new(n),
            Greedy::new(GreedyPolicy::Fifo),
            FnSource::new(rounds, move |t, out| {
                out.extend(std::iter::repeat_n(Injection::new(t, 0, n - 1), 4));
            }),
        )
        .with_capacity(CapacityConfig::uniform(lossy_cap), DropTail);
        lossy
            .run_past_horizon((n * lossy_cap) as u64 + (n as u64))
            .expect("valid lossy run");
        lossy.metrics().clone()
    });
    assert!(lossy_metrics.dropped > 0, "the lossy run must lose packets");
    let lossy_goodput_pct = lossy_metrics.goodput().map_or(0.0, |g| g.as_f64() * 100.0);
    let (lossy_injected, lossy_dropped) = (lossy_metrics.injected, lossy_metrics.dropped);

    // --- Part 5: the DAG engine (per-edge forwarding plans) -----------
    // All rows flooded right + all columns flooded down on a mesh: every
    // round exercises the multi-slot plan layout, per-link validation and
    // multi-out forwarding — the E12 hot path.
    let (rows, cols) = if quick {
        (8usize, 8usize)
    } else {
        (32usize, 32usize)
    };
    let dag_rounds_budget = if quick { 256u64 } else { 1024 };
    let (dag_wall_ms, (dag_metrics, dag_rounds)) = timed_median_ms(|| {
        let mut dag_sim = Simulation::from_source(
            aqt_model::Dag::grid(rows, cols),
            aqt_core::DagGreedy::fifo(),
            crate::exp_grid::all_floods_source(rows, cols, dag_rounds_budget),
        );
        dag_sim
            .run_past_horizon(2 * (rows + cols) as u64)
            .expect("valid grid run");
        assert!(dag_sim.is_drained(), "grid floods must drain");
        (dag_sim.metrics().clone(), dag_sim.round().value())
    });
    let dag_secs = (dag_wall_ms / 1e3).max(1e-9);
    let (dag_injected, dag_peak_occupancy) = (dag_metrics.injected, dag_metrics.max_occupancy);

    // --- Part 6: the E13 mesh waves (computed routing + arena) -------
    // Smoke at 256x256 plus the tentpole 1024x1024 (~1M node) instance;
    // round budgets keep quick mode CI-sized while still touching the
    // million-node regime.
    let mesh = crate::exp_mesh::measure_mesh_median(256, 256, if quick { 16 } else { 96 });
    let mesh1m = crate::exp_mesh::measure_mesh_median(1024, 1024, if quick { 2 } else { 24 });

    // --- Part 7: the E14 telemetry overhead pair ----------------------
    // The same smoke shape rerun bare vs fully probed; the delta is the
    // streaming-telemetry tax tracked as a trajectory.
    let (t_rows, t_cols, t_rounds) = crate::exp_telemetry::e14_instance(quick);
    let telemetry = crate::exp_telemetry::measure_telemetry(
        crate::exp_telemetry::MeshWave::Diagonal,
        t_rows,
        t_cols,
        t_rounds,
    );

    // --- Part 8: the fault-mask hot path (E15's engine side) ----------
    // The exact Part-5 flood workload rerun under a recovering outage
    // plus a node-crash window over a row injector: every planned move
    // now consults the FaultState mask, and the crash converts some
    // injections into `faulted` — pricing the degraded-regime engine.
    let fault_spec = aqt_model::FaultSpec::new(0xE15)
        .with_event(aqt_model::FaultEvent::RandomLinks {
            count: 4,
            at: 2,
            until: Some(18),
        })
        .with_event(aqt_model::FaultEvent::NodeCrash {
            node: (rows / 2) * cols,
            at: 4,
            until: Some(12),
        });
    let (fault_wall_ms, (fault_metrics, fault_rounds)) = timed_median_ms(|| {
        let mut faulted_sim = Simulation::from_source(
            aqt_model::Dag::grid(rows, cols),
            aqt_core::DagGreedy::fifo(),
            crate::exp_grid::all_floods_source(rows, cols, dag_rounds_budget),
        )
        .with_faults(&fault_spec);
        faulted_sim
            .run_past_horizon(2 * (rows + cols) as u64 + 32)
            .expect("valid faulted grid run");
        (faulted_sim.metrics().clone(), faulted_sim.round().value())
    });
    assert!(
        fault_metrics.faulted > 0,
        "the crash window must cover a row injector"
    );
    let fault_goodput_pct = fault_metrics.goodput().map_or(0.0, |g| g.as_f64() * 100.0);
    let (fault_faulted, fault_secs) = (fault_metrics.faulted, (fault_wall_ms / 1e3).max(1e-9));

    // --- Part 9: the E16 sparse wave (the active-set hot path) --------
    // ~1k live packets crossing the million-node mesh: the round cost
    // must track the live set, not n. Kept at the mesh1m shape so
    // `sparse_packets_per_sec` and `mesh1m_packets_per_sec` compare the
    // same topology with and without a saturated mesh around the traffic.
    // 512 rounds (~0.5M moves) per timed pass: long enough that the
    // per-round rate, not timer and scheduler noise, decides the
    // committed `sparse_packets_per_sec`.
    let sparse = crate::exp_sparse::measure_sparse(1024, 1024, 512);

    EngineBenchReport {
        quick,
        nodes: n,
        rounds: executed_rounds,
        injected_packets: metrics.injected,
        wall_ms,
        rounds_per_sec: executed_rounds as f64 / secs,
        packets_per_sec: metrics.injected as f64 / secs,
        peak_live_packets: metrics.max_in_network,
        streaming_bytes: (metrics.max_in_network * std::mem::size_of::<StoredPacket>()) as u64,
        materialized_bytes: metrics.injected * std::mem::size_of::<Packet>() as u64,
        sweep_grid_points: grid.len(),
        sweep_threads: threads,
        sweep_serial_ms: serial_ms,
        sweep_parallel_ms: parallel_ms,
        sweep_speedup,
        capacity_wall_ms: cap_wall_ms,
        capacity_rounds_per_sec: cap_rounds as f64 / cap_secs,
        capacity_packets_per_sec: cap_metrics.injected as f64 / cap_secs,
        capacity_overhead_pct: (cap_wall_ms - wall_ms) / wall_ms.max(1e-9) * 100.0,
        capacity_dropped: cap_metrics.dropped,
        lossy_wall_ms,
        lossy_injected,
        lossy_dropped,
        lossy_goodput_pct,
        dag_grid: format!("{rows}x{cols}"),
        dag_nodes: rows * cols,
        dag_rounds,
        dag_injected,
        dag_wall_ms,
        dag_rounds_per_sec: dag_rounds as f64 / dag_secs,
        dag_packets_per_sec: dag_injected as f64 / dag_secs,
        dag_peak_occupancy,
        mesh_grid: mesh.grid,
        mesh_nodes: mesh.nodes,
        mesh_rounds: mesh.rounds,
        mesh_moves: mesh.moves,
        mesh_wall_ms: mesh.wall_ms,
        mesh_packets_per_sec: mesh.moves_per_sec,
        mesh1m_grid: mesh1m.grid,
        mesh1m_nodes: mesh1m.nodes,
        mesh1m_rounds: mesh1m.rounds,
        mesh1m_moves: mesh1m.moves,
        mesh1m_wall_ms: mesh1m.wall_ms,
        mesh1m_packets_per_sec: mesh1m.moves_per_sec,
        telemetry_overhead_plain_ms: telemetry.plain_wall_ms,
        telemetry_overhead_probed_ms: telemetry.probed_wall_ms,
        telemetry_overhead_pct: telemetry.overhead_pct,
        fault_wall_ms,
        fault_rounds_per_sec: fault_rounds as f64 / fault_secs,
        fault_overhead_pct: (fault_wall_ms - dag_wall_ms) / dag_wall_ms.max(1e-9) * 100.0,
        fault_faulted,
        fault_goodput_pct,
        sparse_grid: sparse.grid,
        sparse_nodes: sparse.nodes,
        sparse_live: sparse.live,
        sparse_rounds: sparse.rounds,
        sparse_moves: sparse.moves,
        sparse_wall_ms: sparse.wall_ms,
        sparse_packets_per_sec: sparse.moves_per_sec,
    }
}

/// Renders a report into E10's two tables.
pub fn render_e10(report: &EngineBenchReport) -> Vec<Table> {
    let mut throughput = Table::new(
        "E10a - streaming engine throughput (no materialized pattern)",
        [
            "nodes",
            "rounds",
            "packets",
            "wall ms",
            "rounds/s",
            "packets/s",
            "peak live",
            "stream KiB",
            "pattern KiB",
        ],
    );
    throughput.push_row([
        report.nodes.to_string(),
        report.rounds.to_string(),
        report.injected_packets.to_string(),
        format!("{:.1}", report.wall_ms),
        format!("{:.0}", report.rounds_per_sec),
        format!("{:.0}", report.packets_per_sec),
        report.peak_live_packets.to_string(),
        (report.streaming_bytes / 1024).to_string(),
        (report.materialized_bytes / 1024).to_string(),
    ]);
    throughput.note(
        "stream KiB = peak live packets x sizeof(StoredPacket): the streaming engine's working set",
    );
    throughput.note("pattern KiB = what materializing the schedule up front would have added");

    let mut sweeps = Table::new(
        "E10b - E6 tradeoff grid: serial vs parallel sweep",
        [
            "grid",
            "threads",
            "serial ms",
            "parallel ms",
            "speedup",
            "identical",
        ],
    );
    sweeps.push_row([
        report.sweep_grid_points.to_string(),
        report.sweep_threads.to_string(),
        format!("{:.1}", report.sweep_serial_ms),
        format!("{:.1}", report.sweep_parallel_ms),
        format!("{:.2}x", report.sweep_speedup),
        "ok".to_string(), // measure_engine asserts result equality
    ]);
    sweeps.note(
        "sweep::parallel merges in input order: results are bit-identical to the serial sweep",
    );

    let mut capacity = Table::new(
        "E10c - capacity-bounded engine (the E11 enforcement hot path)",
        [
            "mode",
            "wall ms",
            "rounds/s",
            "packets/s",
            "injected",
            "dropped",
            "goodput %",
        ],
    );
    capacity.push_row([
        "cap 1, loss-free".to_string(),
        format!("{:.1}", report.capacity_wall_ms),
        format!("{:.0}", report.capacity_rounds_per_sec),
        format!("{:.0}", report.capacity_packets_per_sec),
        report.injected_packets.to_string(),
        report.capacity_dropped.to_string(),
        "100.0".to_string(),
    ]);
    capacity.push_row([
        "cap 8, lossy".to_string(),
        format!("{:.1}", report.lossy_wall_ms),
        "-".to_string(),
        "-".to_string(),
        report.lossy_injected.to_string(),
        report.lossy_dropped.to_string(),
        format!("{:.1}", report.lossy_goodput_pct),
    ]);
    capacity.note(format!(
        "loss-free row reruns E10a's exact schedule with capacity checks on: overhead {:+.1}%",
        report.capacity_overhead_pct
    ));
    capacity.note("lossy row overloads one route 4x so the drop policy fires on most placements");

    let mut dag = Table::new(
        "E10d - DAG engine (per-edge plans, multi-out forwarding)",
        [
            "grid",
            "rounds",
            "packets",
            "wall ms",
            "rounds/s",
            "packets/s",
            "peak occupancy",
        ],
    );
    dag.push_row([
        report.dag_grid.clone(),
        report.dag_rounds.to_string(),
        report.dag_injected.to_string(),
        format!("{:.1}", report.dag_wall_ms),
        format!("{:.0}", report.dag_rounds_per_sec),
        format!("{:.0}", report.dag_packets_per_sec),
        report.dag_peak_occupancy.to_string(),
    ]);
    dag.note("all rows flooded right + all columns flooded down on a row-column-routed mesh (DagGreedy-FIFO)");
    dag.note(format!(
        "faulted rerun (4 dead links + 1 crash window): {:.1} ms ({:+.1}%), {} faulted, goodput {:.1}%",
        report.fault_wall_ms,
        report.fault_overhead_pct,
        report.fault_faulted,
        report.fault_goodput_pct
    ));

    let mut mesh = Table::new(
        "E10e - E13 mesh waves (computed routing, arenas)",
        ["grid", "rounds", "moves", "wall ms", "moves/s"],
    );
    for (grid, rounds, moves, wall, rate) in [
        (
            &report.mesh_grid,
            report.mesh_rounds,
            report.mesh_moves,
            report.mesh_wall_ms,
            report.mesh_packets_per_sec,
        ),
        (
            &report.mesh1m_grid,
            report.mesh1m_rounds,
            report.mesh1m_moves,
            report.mesh1m_wall_ms,
            report.mesh1m_packets_per_sec,
        ),
    ] {
        mesh.push_row([
            grid.clone(),
            rounds.to_string(),
            moves.to_string(),
            format!("{wall:.1}"),
            format!("{rate:.2e}"),
        ]);
    }
    mesh.note("same workload as E13; exported to BENCH_engine.json as mesh_*/mesh1m_* fields");
    mesh.note(format!(
        "E16 sparse wave ({} live on {}): {:.1} ms, {:.2e} moves/s - the active-set O(live) rate",
        report.sparse_live,
        report.sparse_grid,
        report.sparse_wall_ms,
        report.sparse_packets_per_sec
    ));
    mesh.note(format!(
        "E14 telemetry pair on the smoke shape: plain {:.1} ms, probed {:.1} ms ({:+.1}%)",
        report.telemetry_overhead_plain_ms,
        report.telemetry_overhead_probed_ms,
        report.telemetry_overhead_pct
    ));
    vec![throughput, sweeps, capacity, dag, mesh]
}

/// E10 — throughput + sweep scaling (runs the measurement and renders it).
pub fn e10_throughput(quick: bool) -> Vec<Table> {
    render_e10(&measure_engine(quick))
}

/// The `BENCH_engine.json` payload for a measured report.
pub fn engine_bench_json(report: &EngineBenchReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Parses a `BENCH_engine.json` payload back into a report (the committed
/// baseline CI compares against).
///
/// # Errors
///
/// Returns the underlying parse error message for malformed JSON.
pub fn parse_engine_bench_json(json: &str) -> Result<EngineBenchReport, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// The higher-is-better metrics compared against the committed baseline:
/// `(name, baseline value, current value)`.
fn bench_delta_rows(
    current: &EngineBenchReport,
    baseline: &EngineBenchReport,
) -> [(&'static str, f64, f64); 10] {
    [
        (
            "moves/s (mesh smoke)",
            baseline.mesh_packets_per_sec,
            current.mesh_packets_per_sec,
        ),
        (
            "moves/s (mesh 1M)",
            baseline.mesh1m_packets_per_sec,
            current.mesh1m_packets_per_sec,
        ),
        (
            "moves/s (sparse 1M)",
            baseline.sparse_packets_per_sec,
            current.sparse_packets_per_sec,
        ),
        (
            "rounds/s (streaming)",
            baseline.rounds_per_sec,
            current.rounds_per_sec,
        ),
        (
            "packets/s (streaming)",
            baseline.packets_per_sec,
            current.packets_per_sec,
        ),
        (
            "rounds/s (capacity)",
            baseline.capacity_rounds_per_sec,
            current.capacity_rounds_per_sec,
        ),
        (
            "rounds/s (DAG)",
            baseline.dag_rounds_per_sec,
            current.dag_rounds_per_sec,
        ),
        (
            "rounds/s (faulted DAG)",
            baseline.fault_rounds_per_sec,
            current.fault_rounds_per_sec,
        ),
        (
            "sweep speedup",
            baseline.sweep_speedup,
            current.sweep_speedup,
        ),
        (
            "lossy drops/ms",
            // Inverted from wall-clock so every row reads
            // higher-is-better, matching the title's sign convention.
            baseline.lossy_dropped as f64 / baseline.lossy_wall_ms.max(1e-9),
            current.lossy_dropped as f64 / current.lossy_wall_ms.max(1e-9),
        ),
    ]
}

/// Metrics that regressed more than `threshold_pct` percent below the
/// baseline, as `(metric, delta %)` with negative deltas — the CI gate
/// behind `experiments --bench-baseline --fail-on-regression`.
///
/// Returns an empty list when the baseline was measured on a different
/// instance (`quick`/`nodes` mismatch): such deltas are not comparable,
/// and [`bench_delta_table`] already prints the warning.
pub fn bench_regressions(
    current: &EngineBenchReport,
    baseline: &EngineBenchReport,
    threshold_pct: f64,
) -> Vec<(String, f64)> {
    if current.quick != baseline.quick || current.nodes != baseline.nodes {
        return Vec::new();
    }
    bench_delta_rows(current, baseline)
        .into_iter()
        .filter(|(_, base, _)| base.abs() > 1e-9)
        .filter_map(|(metric, base, cur)| {
            let delta = (cur - base) / base * 100.0;
            (delta < -threshold_pct).then(|| (metric.to_string(), delta))
        })
        .collect()
}

/// Renders the delta between a fresh measurement and the committed
/// baseline: throughput-style metrics (higher = better) as percentage
/// change, plus the invariant columns that must match for the comparison
/// to be meaningful.
pub fn bench_delta_table(current: &EngineBenchReport, baseline: &EngineBenchReport) -> Table {
    let mut table = Table::new(
        "E10 delta vs committed baseline (positive % = faster than baseline)",
        ["metric", "baseline", "current", "delta %"],
    );
    let rows = bench_delta_rows(current, baseline);
    // Ratio-valued metrics need decimals; the big rates do not.
    let fmt = |v: f64| {
        if v.abs() < 100.0 {
            format!("{v:.2}")
        } else {
            format!("{v:.0}")
        }
    };
    for (metric, base, cur) in rows {
        let delta = if base.abs() < 1e-9 {
            "-".to_string()
        } else {
            format!("{:+.1}", (cur - base) / base * 100.0)
        };
        table.push_row([metric.to_string(), fmt(base), fmt(cur), delta]);
    }
    if current.quick != baseline.quick || current.nodes != baseline.nodes {
        table.note(format!(
            "WARNING: instance mismatch (baseline quick={} nodes={}, current quick={} nodes={}) - deltas are not comparable",
            baseline.quick, baseline.nodes, current.quick, current.nodes
        ));
    } else {
        table.note("same instance size as the baseline; wall-clock deltas include host noise");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared quick measurement: `measure_engine` now times every
    /// part warmup + 3×, so running it once per test that inspects the
    /// report would dominate the suite's wall-clock.
    fn quick_report() -> &'static EngineBenchReport {
        static REPORT: std::sync::OnceLock<EngineBenchReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| measure_engine(true))
    }

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
        // And the aggregate folds identically.
        assert_eq!(
            aqt_analysis::SweepAggregate::from_summaries(&serial),
            aqt_analysis::SweepAggregate::from_summaries(&parallel),
        );
    }

    #[test]
    fn e10_report_is_sane_and_serializes() {
        let report = quick_report();
        assert_eq!(report.nodes, 256);
        assert_eq!(report.injected_packets, 256 * 128);
        assert_eq!(report.peak_live_packets, 128);
        assert!(report.rounds_per_sec > 0.0);
        assert!(report.streaming_bytes < report.materialized_bytes);
        // The capacity rerun executes the identical schedule without loss;
        // the lossy run must actually lose.
        assert_eq!(report.capacity_dropped, 0);
        assert!(report.capacity_rounds_per_sec > 0.0);
        assert!(report.lossy_dropped > 0);
        assert!(report.lossy_goodput_pct < 100.0);
        assert!(report.lossy_goodput_pct > 0.0);
        // The DAG run drained and actually exercised multi-out nodes.
        assert_eq!(report.dag_grid, "8x8");
        assert_eq!(report.dag_nodes, 64);
        assert!(report.dag_rounds_per_sec > 0.0);
        assert!(report.dag_peak_occupancy >= 1);
        // The sweep satellite: >= 2 workers are always *requested*; the
        // sweep library caps at available cores.
        assert!(report.sweep_threads >= 2);
        assert!(report.sweep_serial_ms > 0.0 && report.sweep_parallel_ms > 0.0);
        // The E13 mesh fields: the smoke and the million-node instance
        // both ran on the table-free path.
        assert_eq!(report.mesh_grid, "256x256");
        assert_eq!(report.mesh1m_grid, "1024x1024");
        assert_eq!(report.mesh1m_nodes, 1024 * 1024);
        assert!(report.mesh_packets_per_sec > 0.0);
        assert!(report.mesh1m_packets_per_sec > 0.0);
        assert!(report.mesh1m_moves > 0);
        // The E14 telemetry pair ran and produced a finite overhead.
        assert!(report.telemetry_overhead_plain_ms > 0.0);
        assert!(report.telemetry_overhead_probed_ms > 0.0);
        assert!(report.telemetry_overhead_pct.is_finite());
        // The faulted rerun actually faulted packets and lost goodput.
        assert!(report.fault_wall_ms > 0.0);
        assert!(report.fault_rounds_per_sec > 0.0);
        assert!(report.fault_faulted > 0);
        assert!(report.fault_goodput_pct > 0.0 && report.fault_goodput_pct < 100.0);
        // The E16 sparse wave ran on the mesh1m shape with an exact,
        // traffic-proportional move count.
        assert_eq!(report.sparse_grid, report.mesh1m_grid);
        assert_eq!(report.sparse_live, 1024);
        assert_eq!(report.sparse_moves, 1024 * report.sparse_rounds);
        assert!(report.sparse_packets_per_sec > 0.0);
        let json = engine_bench_json(report);
        assert!(json.contains("rounds_per_sec"));
        assert!(json.contains("sweep_parallel_ms"));
        assert!(json.contains("capacity_overhead_pct"));
        assert!(json.contains("lossy_dropped"));
        assert!(json.contains("dag_rounds_per_sec"));
        assert!(json.contains("dag_peak_occupancy"));
        assert!(json.contains("mesh1m_packets_per_sec"));
        assert!(json.contains("telemetry_overhead_pct"));
        assert!(json.contains("fault_rounds_per_sec"));
        assert!(json.contains("fault_goodput_pct"));
        assert!(json.contains("sparse_packets_per_sec"));
        assert!(json.contains("sparse_live"));
        let tables = render_e10(report);
        assert_eq!(tables.len(), 5);
        assert!(!tables[0].to_csv().contains("NaN"));
        assert!(tables[2].render().contains("cap 1"));
        assert!(tables[3].render().contains("8x8"));
        assert!(tables[4].render().contains("1024x1024"));
    }

    #[test]
    fn regressions_fire_only_past_the_threshold() {
        let baseline = quick_report();
        // Identical reports never regress.
        assert!(bench_regressions(baseline, baseline, 0.0).is_empty());
        // Halve one throughput metric: a -50% delta trips a 25% gate but
        // not a 75% one.
        let mut current = baseline.clone();
        current.dag_rounds_per_sec = baseline.dag_rounds_per_sec / 2.0;
        let regs = bench_regressions(&current, baseline, 25.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].0, "rounds/s (DAG)");
        assert!((regs[0].1 + 50.0).abs() < 1e-6);
        assert!(bench_regressions(&current, baseline, 75.0).is_empty());
        // Instance mismatch disables the gate rather than comparing
        // apples to oranges.
        current.nodes = baseline.nodes + 1;
        assert!(bench_regressions(&current, baseline, 25.0).is_empty());
    }
}
