//! E14 — telemetry overhead: the streaming probe on the E13 mesh smoke.
//!
//! The telemetry layer (`aqt-telemetry`) promises *streaming* cost:
//! O(buckets + ring capacity) memory regardless of run length, and a
//! per-round overhead small enough to leave probes on for million-node
//! runs. This experiment prices that promise. It reruns the E13 256×256
//! diagonal-wave smoke twice at the E13 shard count — once bare, once
//! with a full [`TelemetryProbe`] (occupancy + latency sketches, round
//! series, per-phase wall-clock profiling via [`WallClock`]) — asserts
//! the two runs produce byte-identical [`RunMetrics`], and reports the
//! wall-clock delta plus the collected histograms.
//!
//! The pair also feeds the `telemetry_overhead_*` fields of
//! `BENCH_engine.json`, so CI tracks the probe tax as a trajectory: the
//! acceptance bar is < 10% over the untelemetered run (wall-clock on
//! shared runners is noisy, so the committed baseline records the trend
//! rather than gating on a single sample).

use std::time::Instant;

use aqt_analysis::Table;
use aqt_core::DagGreedy;
use aqt_model::{Dag, Simulation};
use aqt_telemetry::{Clock, TelemetryProbe, TelemetryReport, TelemetrySpec};
use serde::{Deserialize, Serialize};

use crate::exp_mesh::wave_source;

/// Wall-clock [`Clock`] backed by [`Instant`], for phase profiling in
/// benches.
///
/// Library code never reads wall clocks (the determinism lint forbids
/// it); probes default to the no-op `NullClock`. The bench crate is the
/// sanctioned home for timing, so this is where the real clock lives.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose `now_nanos` counts from its construction.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&mut self) -> u64 {
        // u64 nanoseconds overflow after ~584 years of uptime; saturate
        // rather than wrap so PhaseStat deltas stay monotone.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One measured pair: the same mesh wave bare and probed, the row format
/// behind the E14 table and the `telemetry_*` fields of
/// `BENCH_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryRun {
    /// Mesh shape, e.g. `"256x256"`.
    pub grid: String,
    /// Node count (`rows × cols`).
    pub nodes: usize,
    /// Rounds executed by both runs.
    pub rounds: u64,
    /// Shards (scoped worker threads) both runs used.
    pub shards: usize,
    /// Packet-moves executed (identical across the pair by assertion).
    pub moves: u64,
    /// Wall-clock of the bare run in milliseconds.
    pub plain_wall_ms: f64,
    /// Wall-clock of the probed run in milliseconds.
    pub probed_wall_ms: f64,
    /// Probe tax in percent: `(probed − plain) / plain × 100` (can be
    /// slightly negative from timing noise).
    pub overhead_pct: f64,
    /// Everything the probe collected during the probed run.
    pub report: TelemetryReport,
}

/// Runs the diagonal wave bare and with a full telemetry probe — each
/// with a discarded warmup pass and the median of three timed passes,
/// like the rest of the bench suite — and reports the overhead plus the
/// collected report (from the last probed pass; a fresh probe is built
/// per pass, and the workload is deterministic, so every pass collects
/// the same data).
///
/// # Panics
///
/// Panics if the engine rejects the run or the probed run diverges from
/// the bare run (the probe must be a pure observer).
pub fn measure_telemetry(rows: usize, cols: usize, rounds: u64, shards: usize) -> TelemetryRun {
    let (plain_ms, plain_metrics) = crate::exp_throughput::timed_median_ms(|| {
        let mut sim = Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            wave_source(rows, cols),
        )
        .with_shards(shards);
        sim.run(rounds).expect("valid wave run");
        sim.metrics().clone()
    });

    let (probed_ms, (probed_metrics, report)) = crate::exp_throughput::timed_median_ms(|| {
        let mut probed_sim = Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            wave_source(rows, cols),
        )
        .with_shards(shards);
        let mut probe =
            TelemetryProbe::with_clock(TelemetrySpec::default(), Box::new(WallClock::new()));
        for _ in 0..rounds {
            probed_sim
                .step_probed(&mut probe)
                .expect("valid probed wave run");
        }
        (probed_sim.metrics().clone(), probe.report())
    });

    assert_eq!(
        plain_metrics, probed_metrics,
        "the probe must observe, never perturb"
    );

    TelemetryRun {
        grid: format!("{rows}x{cols}"),
        nodes: rows * cols,
        rounds,
        shards,
        moves: plain_metrics.forwarded,
        plain_wall_ms: plain_ms,
        probed_wall_ms: probed_ms,
        overhead_pct: (probed_ms - plain_ms) / plain_ms.max(1e-9) * 100.0,
        report,
    }
}

/// The E14 instance: the E13 smoke shape with the E13 round budgets, so
/// the overhead is measured against the same workload the `mesh_*`
/// baseline fields record.
pub fn e14_instance(quick: bool) -> (usize, usize, u64) {
    (256, 256, if quick { 16 } else { 96 })
}

/// Renders a measured pair into the E14 tables: the overhead row plus
/// the occupancy/latency histograms the probe collected.
pub fn render_e14(run: &TelemetryRun) -> Vec<Table> {
    let mut overhead = Table::new(
        "E14a - telemetry probe overhead on the E13 mesh smoke",
        [
            "grid",
            "rounds",
            "moves",
            "plain ms",
            "probed ms",
            "overhead %",
            "shards",
        ],
    );
    overhead.push_row([
        run.grid.clone(),
        run.rounds.to_string(),
        run.moves.to_string(),
        format!("{:.1}", run.plain_wall_ms),
        format!("{:.1}", run.probed_wall_ms),
        format!("{:+.1}", run.overhead_pct),
        run.shards.to_string(),
    ]);
    overhead.note("identical RunMetrics across the pair is asserted, not assumed");
    overhead.note("acceptance bar: < 10% probe tax at full telemetry (all sketches + profiling)");

    let data = &run.report.data;
    let mut sketches = Table::new(
        "E14b - histogram sketches collected by the probe",
        ["sketch", "count", "mean", "p50", "p99", "max"],
    );
    for (name, h) in [("occupancy", &data.occupancy), ("latency", &data.latency)] {
        sketches.push_row([
            name.to_string(),
            h.count().to_string(),
            format!("{:.2}", h.mean()),
            h.approx_quantile(0.5).to_string(),
            h.approx_quantile(0.99).to_string(),
            h.max.to_string(),
        ]);
    }
    sketches.note("log2 buckets: quantiles overestimate by < 2x; count/mean/max are exact");
    let mut charts = String::new();
    charts.push_str(&aqt_trace::histogram(&data.occupancy, "occupancy", 40));
    charts.push('\n');
    charts.push_str(&aqt_trace::histogram(&data.latency, "latency (rounds)", 40));
    let mut rendered = Table::new("E14c - histogram charts", ["chart"]);
    rendered.push_row([charts]);

    vec![overhead, sketches, rendered]
}

/// E14 — telemetry overhead (runs the measurement pair and renders it).
pub fn e14_telemetry(quick: bool) -> Vec<Table> {
    let (rows, cols, rounds) = e14_instance(quick);
    render_e14(&measure_telemetry(
        rows,
        cols,
        rounds,
        crate::exp_mesh::default_shards(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let mut clock = WallClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn measure_telemetry_observes_without_perturbing() {
        // Small shape: the assertion inside measure_telemetry is the
        // real check; here we validate what the probe collected.
        let run = measure_telemetry(32, 32, 8, 2);
        assert_eq!(run.grid, "32x32");
        assert_eq!(run.nodes, 1024);
        let data = &run.report.data;
        assert_eq!(data.counters.rounds, 8);
        assert!(data.counters.forwarded > 0);
        // The wave injects 2·32·32 − 64 packets at round 0.
        assert_eq!(data.counters.injected, 2 * 32 * 32 - 64);
        // Occupancy was sampled every round at every node.
        assert_eq!(data.occupancy.count(), 8 * 1024);
        // Edge-adjacent packets deliver within 8 rounds; each delivery
        // was sketched.
        assert_eq!(data.latency.count(), data.counters.delivered);
        // The wall clock actually timed the phases.
        let profile = &run.report.profile;
        assert!(profile.plan.nanos > 0 && profile.forward.nanos > 0);
        // Sharded run: per-shard move counts were collected and sum to
        // the forwarded counter.
        assert_eq!(
            profile.shard_moves.iter().sum::<u64>(),
            data.counters.forwarded
        );
    }

    #[test]
    fn e14_renders_histograms() {
        let tables = render_e14(&measure_telemetry(16, 16, 8, 2));
        assert_eq!(tables.len(), 3);
        assert!(tables[0].render().contains("16x16"));
        assert!(tables[1].render().contains("latency"));
        assert!(tables[2].render().contains("histogram"));
        assert!(!tables[0].to_csv().contains("NaN"));
    }
}
