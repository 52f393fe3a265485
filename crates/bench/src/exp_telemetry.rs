//! E14 — telemetry overhead: the streaming probe on the E13 mesh smoke
//! and on the E16 sparse wave.
//!
//! The telemetry layer (`aqt-telemetry`) promises *streaming* cost:
//! O(buckets + ring capacity) memory regardless of run length, and a
//! per-round cost of O(active nodes), like the round it observes, so
//! probes can stay on for million-node runs. This experiment prices that
//! promise on two waves: the E13 256×256 diagonal-wave smoke, where
//! nearly every node is busy, and E16's sparse 1024×1024 wave, where
//! about one node in a thousand is. Each wave runs
//! twice — once bare, once with a full [`TelemetryProbe`] (occupancy +
//! latency sketches, round series, per-phase wall-clock profiling via
//! [`WallClock`]) — the two runs must produce byte-identical
//! [`RunMetrics`], and the table reports the stepping wall-clock delta
//! plus the collected histograms.
//!
//! All four runs are records in `BENCH_engine.json` (`"<wave>, plain"`
//! and `"<wave>, probed"`), so CI tracks the probe tax as a trajectory.
//! The bar is < 10% over the untelemetered run on both waves; it is
//! reported, not gated, because wall-clock on shared runners is noisy.

use std::time::Instant;

use aqt_analysis::Table;
use aqt_core::DagGreedy;
use aqt_model::{Dag, InjectionSource, Simulation};
use aqt_telemetry::{Clock, TelemetryProbe, TelemetryReport, TelemetrySpec};

use crate::engine_bench::{time_run, EngineRun};
use crate::exp_mesh::wave_source;
use crate::exp_sparse::sparse_wave_source;

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

/// The mesh waves E14 prices the probe on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshWave {
    /// E13's round-0 diagonal wave ([`wave_source`]): about two packets
    /// per node, so nearly every node is active.
    Diagonal,
    /// E16's sparse wave ([`sparse_wave_source`]): one packet per
    /// column, so one row of nodes is active.
    Sparse,
}

impl MeshWave {
    /// The workload name E13 or E16 records the wave under.
    fn name(self) -> &'static str {
        match self {
            MeshWave::Diagonal => "diagonal wave",
            MeshWave::Sparse => "sparse wave",
        }
    }

    fn source(self, rows: usize, cols: usize) -> Box<dyn InjectionSource> {
        match self {
            MeshWave::Diagonal => Box::new(wave_source(rows, cols)),
            MeshWave::Sparse => Box::new(sparse_wave_source(rows, cols)),
        }
    }
}

/// One measured pair: the same mesh wave bare and probed, the row format
/// behind the E14 tables.
#[derive(Debug, Clone)]
pub struct TelemetryRun {
    /// The wave both runs carried.
    pub wave: MeshWave,
    /// The bare run, recorded as `"<wave>, plain"`.
    pub plain: EngineRun,
    /// The fully probed run, recorded as `"<wave>, probed"`.
    pub probed: EngineRun,
    /// Everything the probe collected during the last probed pass.
    pub report: TelemetryReport,
}

impl TelemetryRun {
    /// Probe tax in percent of the bare stepping time (can be slightly
    /// negative from timing noise).
    pub fn overhead_pct(&self) -> f64 {
        (self.probed.wall_ms / self.plain.wall_ms.max(1e-9) - 1.0) * 100.0
    }
}

/// Times `wave` bare and with a full telemetry probe (a fresh probe per
/// pass; the workload is deterministic, so every pass collects the same
/// data) and returns both records plus the report.
///
/// # Panics
///
/// Panics if the engine rejects the run or the probed run diverges from
/// the bare run (the probe must be a pure observer).
pub fn measure_telemetry(wave: MeshWave, rows: usize, cols: usize, rounds: u64) -> TelemetryRun {
    let build = || {
        Simulation::from_source(
            Dag::grid(rows, cols),
            DagGreedy::fifo(),
            wave.source(rows, cols),
        )
    };
    let topology = format!("grid {rows}x{cols}");
    // Each side keeps the metrics of its first pass, the untimed warmup,
    // so the copy of a million-node `RunMetrics` stays out of the timing.
    let (mut plain_metrics, mut probed_metrics) = (None, None);
    let (plain, ()) = time_run(
        &format!("{}, plain", wave.name()),
        &topology,
        build,
        |sim| {
            sim.run(rounds).expect("valid wave run");
            plain_metrics.get_or_insert_with(|| sim.metrics().clone());
        },
    );
    let (probed, report) = time_run(
        &format!("{}, probed", wave.name()),
        &topology,
        build,
        |sim| {
            let mut probe =
                TelemetryProbe::with_clock(TelemetrySpec::default(), Box::new(WallClock::new()));
            for _ in 0..rounds {
                sim.step_probed(&mut probe).expect("valid probed wave run");
            }
            probed_metrics.get_or_insert_with(|| sim.metrics().clone());
            probe.report()
        },
    );
    assert_eq!(
        plain_metrics, probed_metrics,
        "the probe must observe, never perturb"
    );
    TelemetryRun {
        wave,
        plain,
        probed,
        report,
    }
}

/// The E14 smoke instance: E13's 256×256 smoke shape for 16 rounds in
/// quick mode and 96 in full mode (E13's full round budget).
pub fn e14_instance(quick: bool) -> (usize, usize, u64) {
    (256, 256, if quick { 16 } else { 96 })
}

/// Renders measured pairs into the E14 tables: one overhead row per
/// wave, the sketches of every run, and the histogram charts of the
/// first run.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn render_e14(runs: &[TelemetryRun]) -> Vec<Table> {
    let mut overhead = Table::new(
        "E14a - telemetry probe overhead on the E13 mesh smoke and the E16 sparse wave",
        [
            "wave",
            "topology",
            "rounds",
            "moves",
            "plain ms",
            "probed ms",
            "overhead %",
        ],
    );
    let mut sketches = Table::new(
        "E14b - histogram sketches collected by the probe",
        ["wave", "sketch", "count", "mean", "p50", "p99", "max"],
    );
    for run in runs {
        overhead.push_row([
            run.wave.name().to_string(),
            run.plain.topology.clone(),
            run.plain.rounds.to_string(),
            run.plain.moves.to_string(),
            format!("{:.1}", run.plain.wall_ms),
            format!("{:.1}", run.probed.wall_ms),
            format!("{:+.1}", run.overhead_pct()),
        ]);
        let data = &run.report.data;
        for (name, h) in [("occupancy", &data.occupancy), ("latency", &data.latency)] {
            sketches.push_row([
                run.wave.name().to_string(),
                name.to_string(),
                h.count().to_string(),
                format!("{:.2}", h.mean()),
                h.approx_quantile(0.5).to_string(),
                h.approx_quantile(0.99).to_string(),
                h.max.to_string(),
            ]);
        }
    }
    overhead.note("identical RunMetrics across each pair is asserted, not assumed");
    overhead.note("ms: stepping only (set-up excluded), median of three after a warmup");
    overhead.note(
        "bar: < 10% probe tax at full telemetry (all sketches + profiling); \
         reported, not gated",
    );
    sketches.note("log2 buckets: quantiles overestimate by < 2x; count/mean/max are exact");

    let data = &runs.first().expect("at least one E14 run").report.data;
    let mut charts = String::new();
    charts.push_str(&aqt_trace::histogram(&data.occupancy, "occupancy", 40));
    charts.push('\n');
    charts.push_str(&aqt_trace::histogram(&data.latency, "latency (rounds)", 40));
    let mut rendered = Table::new("E14c - histogram charts", ["chart"]);
    rendered.push_row([charts]);

    vec![overhead, sketches, rendered]
}

/// E14 — telemetry overhead: the smoke pair and the sparse pair at E16's
/// quick shape, as four records (each pair's plain and probed runs) and
/// their tables.
pub fn e14_telemetry(quick: bool) -> (Vec<EngineRun>, Vec<Table>) {
    let (rows, cols, rounds) = e14_instance(quick);
    let (s_rows, s_cols, s_rounds) = crate::exp_sparse::e16_instances(true)[0];
    let pairs = [
        measure_telemetry(MeshWave::Diagonal, rows, cols, rounds),
        measure_telemetry(MeshWave::Sparse, s_rows, s_cols, s_rounds),
    ];
    let runs = pairs
        .iter()
        .flat_map(|pair| [pair.plain.clone(), pair.probed.clone()])
        .collect();
    (runs, render_e14(&pairs))
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
        let run = measure_telemetry(MeshWave::Diagonal, 32, 32, 8);
        assert_eq!(run.plain.workload, "diagonal wave, plain");
        assert_eq!(run.probed.workload, "diagonal wave, probed");
        assert_eq!(run.plain.topology, "grid 32x32");
        assert_eq!(run.plain.nodes, 1024);
        let counts = |r: &EngineRun| (r.rounds, r.injected, r.moves, r.peak_live);
        assert_eq!(counts(&run.plain), counts(&run.probed));
        assert!(run.plain.wall_ms > 0.0 && run.probed.wall_ms > 0.0);
        assert!(run.overhead_pct().is_finite());
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
    }

    #[test]
    fn sparse_wave_samples_every_node_of_the_mesh() {
        // 16 packets on a 32×16 mesh: 16 of 512 nodes are active each
        // round, yet the sketch counts every node's occupancy.
        let run = measure_telemetry(MeshWave::Sparse, 32, 16, 8);
        let occupancy = &run.report.data.occupancy;
        assert_eq!(occupancy.count(), 8 * 512);
        assert_eq!(occupancy.buckets, vec![8 * (512 - 16), 8 * 16]);
        assert_eq!(run.plain.moves, 8 * 16);
    }

    #[test]
    fn e14_renders_histograms() {
        let tables = render_e14(&[
            measure_telemetry(MeshWave::Diagonal, 16, 16, 8),
            measure_telemetry(MeshWave::Sparse, 16, 16, 8),
        ]);
        assert_eq!(tables.len(), 3);
        let overhead = tables[0].render();
        assert!(overhead.contains("diagonal wave") && overhead.contains("sparse wave"));
        assert!(overhead.contains("grid 16x16"));
        assert!(tables[1].render().contains("latency"));
        assert!(tables[2].render().contains("histogram"));
        assert!(!tables[0].to_csv().contains("NaN"));
    }
}
