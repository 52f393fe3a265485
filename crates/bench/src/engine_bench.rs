//! The engine-bench record behind `BENCH_engine.json`: one [`EngineRun`]
//! per timed workload, one timer ([`time_run`]) that produces it, and
//! one comparison ([`EngineBench::compare`]) that builds both the delta
//! table and the CI gate's failures from any two records files.
//!
//! E10, E13, E14 and E16 each return their records; `experiments
//! --bench-json` writes the records of every engine experiment that ran
//! as one [`EngineBench`], and `--bench-baseline` compares them record by
//! record against a committed one, so a new workload needs no
//! hand-listed row.

use std::time::Instant;

use aqt_analysis::Table;
use aqt_model::{InjectionSource, Protocol, Simulation, Topology};
use serde::{Deserialize, Serialize};

/// One timed engine run: what ran, its exact counts and its median
/// times.
///
/// A record's key is its `workload` and `topology`. The counts come from
/// [`RunMetrics`](aqt_model::RunMetrics) and are deterministic, so the
/// gate compares them exactly; only the two times carry host noise.
/// Rates are methods, not stored fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineRun {
    /// What was injected, e.g. `"diagonal wave"`.
    pub workload: String,
    /// Where it ran, e.g. `"grid 1024x1024"`.
    pub topology: String,
    /// Node count of the topology.
    pub nodes: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packet-moves executed (`RunMetrics::forwarded`).
    pub moves: u64,
    /// Packets dropped by capacity enforcement.
    pub dropped: u64,
    /// Packets lost to faults.
    pub faulted: u64,
    /// Peak packets simultaneously live (`RunMetrics::max_in_network`).
    pub peak_live: usize,
    /// Peak buffer occupancy (`RunMetrics::max_occupancy`).
    pub peak_occupancy: usize,
    /// Median wall-clock of building the [`Simulation`], in milliseconds.
    pub setup_ms: f64,
    /// Median wall-clock of stepping it, in milliseconds.
    pub wall_ms: f64,
}

impl EngineRun {
    /// Packet-moves per second of stepping.
    pub fn moves_per_sec(&self) -> f64 {
        self.moves as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    fn key(&self) -> (&str, &str) {
        (&self.workload, &self.topology)
    }

    /// The exact counts the gate compares, by name.
    fn counts(&self) -> [(&'static str, u64); 8] {
        [
            ("nodes", self.nodes as u64),
            ("rounds", self.rounds),
            ("injected", self.injected),
            ("moves", self.moves),
            ("dropped", self.dropped),
            ("faulted", self.faulted),
            ("peak live", self.peak_live as u64),
            ("peak occupancy", self.peak_occupancy as u64),
        ]
    }
}

/// The stepping time the warmup and each timed pass aim at: the warmup
/// steps this long, and sets how many build-then-step repetitions a pass
/// makes to step this long, so a median of passes no longer hangs on one
/// scheduler quantum.
const PASS_MS: f64 = 20.0;

/// Times one workload into a record: a discarded warmup, then three
/// timed passes. The warmup and each pass build a fresh [`Simulation`]
/// with `build` (timed as set-up) and step it with `step` (timed as
/// stepping), back to back. The warmup repeats until its stepping has
/// lasted 20 ms (a step under a microsecond counts as one, so it makes at
/// most 20,000 repetitions). Each pass then makes `r` repetitions, where
/// `r` is the smallest count for which `r` of the warmup's mean steps
/// last 20 ms. The record keeps the median over passes of each pass's
/// per-repetition means. Returns the record and the last repetition's
/// `step` output.
///
/// One wall-clock sample on a shared runner flaps enough to trip the CI
/// gate on noise alone, and a millisecond-long sample hangs on a single
/// scheduler quantum, hence the repetitions and the median. A process's
/// first steps run cold, hence a warmup as long as a pass, and `r` from
/// its mean rather than from its first step. The workloads are
/// deterministic, so the counts are the warmup's; only its metrics are
/// kept, not its state, and each repetition drops its simulation before
/// the next is built, so a million-node run never holds two.
///
/// # Panics
///
/// Panics if a timed repetition ends with other
/// [`RunMetrics`](aqt_model::RunMetrics) or another round than the
/// warmup did.
pub fn time_run<T, P, S, R>(
    workload: &str,
    topology: &str,
    mut build: impl FnMut() -> Simulation<T, P, S>,
    mut step: impl FnMut(&mut Simulation<T, P, S>) -> R,
) -> (EngineRun, R)
where
    T: Topology,
    P: Protocol<T>,
    S: InjectionSource,
{
    let (mut warmups, mut warmup_ms) = (0u32, 0.0);
    let (round, metrics, nodes) = loop {
        let mut sim = build();
        let started = Instant::now();
        step(&mut sim);
        warmup_ms += (started.elapsed().as_secs_f64() * 1e3).max(1e-3);
        warmups += 1;
        if warmup_ms >= PASS_MS {
            let nodes = sim.topology().node_count();
            break (sim.round(), sim.metrics().clone(), nodes);
        }
    };
    // Between 1 and `warmups`, as the warmup stepped at least PASS_MS.
    let reps = (PASS_MS * f64::from(warmups) / warmup_ms).ceil() as u32;
    let (mut setup_ms, mut wall_ms, mut last) = ([0.0; 3], [0.0; 3], None);
    for pass in 0..3 {
        for _ in 0..reps {
            let started = Instant::now();
            let mut sim = build();
            setup_ms[pass] += started.elapsed().as_secs_f64() * 1e3;
            let started = Instant::now();
            let out = step(&mut sim);
            wall_ms[pass] += started.elapsed().as_secs_f64() * 1e3;
            assert!(
                sim.round() == round && *sim.metrics() == metrics,
                "{workload} on {topology}: every pass must end like the warmup"
            );
            last = Some(out);
        }
    }
    let median = |mut samples: [f64; 3]| {
        samples.sort_unstable_by(f64::total_cmp);
        samples[1] / f64::from(reps)
    };
    let record = EngineRun {
        workload: workload.to_string(),
        topology: topology.to_string(),
        nodes,
        rounds: round.value(),
        injected: metrics.injected,
        moves: metrics.forwarded,
        dropped: metrics.dropped,
        faulted: metrics.faulted,
        peak_live: metrics.max_in_network,
        peak_occupancy: metrics.max_occupancy,
        setup_ms: median(setup_ms),
        wall_ms: median(wall_ms),
    };
    (record, last.expect("three passes ran"))
}

/// Renders records into one table: the key, the exact counts, the two
/// median times and the stepping rate.
pub fn render_runs(title: &str, runs: &[EngineRun]) -> Table {
    let mut table = Table::new(
        title,
        [
            "workload",
            "topology",
            "nodes",
            "rounds",
            "injected",
            "moves",
            "dropped",
            "faulted",
            "peak live",
            "peak occ",
            "setup ms",
            "wall ms",
            "moves/s",
        ],
    );
    for run in runs {
        table.push_row([
            run.workload.clone(),
            run.topology.clone(),
            run.nodes.to_string(),
            run.rounds.to_string(),
            run.injected.to_string(),
            run.moves.to_string(),
            run.dropped.to_string(),
            run.faulted.to_string(),
            run.peak_live.to_string(),
            run.peak_occupancy.to_string(),
            format!("{:.1}", run.setup_ms),
            format!("{:.1}", run.wall_ms),
            format!("{:.2e}", run.moves_per_sec()),
        ]);
    }
    table.note(format!(
        "setup ms builds the Simulation, wall ms steps it: medians of three passes after a \
         warmup, each pass a mean over enough repetitions to step about {PASS_MS} ms"
    ));
    table
}

/// The contents of `BENCH_engine.json`: the records of every engine
/// experiment that ran, and the instance and host they ran on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineBench {
    /// Whether the quick (CI-sized) instances ran.
    pub quick: bool,
    /// The host's available parallelism.
    pub cores: usize,
    /// One record per timed workload, in the order the experiments ran.
    pub runs: Vec<EngineRun>,
}

impl EngineBench {
    /// Compares these records (the current run) against `baseline`'s
    /// and returns the delta table and the gate's failures.
    ///
    /// A baseline record matches the current record with its key. The
    /// gate fails when the two ran different instances (`quick`), when a
    /// baseline record has no match or none matches at all, when an
    /// exact count of a matched record differs, and when a matched
    /// record's stepping slowed past `threshold_pct`, where speed =
    /// baseline `wall_ms` / current `wall_ms` − 1. A current record with
    /// no match prints as "new"; a different `cores` value prints a note.
    pub fn compare(&self, baseline: &EngineBench, threshold_pct: f64) -> (Table, Vec<String>) {
        let mut table = Table::new(
            "engine bench vs baseline (positive speed % = faster than baseline)",
            [
                "workload",
                "topology",
                "counts",
                "baseline ms",
                "current ms",
                "speed %",
            ],
        );
        let mut failures = Vec::new();
        if self.quick != baseline.quick {
            failures.push(format!(
                "instance mismatch: baseline quick={}, current quick={}",
                baseline.quick, self.quick
            ));
        }
        let mut matched = 0;
        for run in &self.runs {
            let (workload, topology) = run.key();
            let Some(base) = baseline.runs.iter().find(|b| b.key() == run.key()) else {
                let ms = format!("{:.1}", run.wall_ms);
                table.push_row([workload, topology, "new", "-", &ms, "-"]);
                continue;
            };
            matched += 1;
            let diffs: Vec<String> = base
                .counts()
                .into_iter()
                .zip(run.counts())
                .filter(|(b, c)| b.1 != c.1)
                .map(|((name, b), (_, c))| format!("{name} {b} -> {c}"))
                .collect();
            let counts = if diffs.is_empty() {
                "same".to_string()
            } else {
                failures.push(format!("{workload} on {topology}: {}", diffs.join(", ")));
                diffs.join(", ")
            };
            let speed = (base.wall_ms / run.wall_ms.max(1e-9) - 1.0) * 100.0;
            if speed < -threshold_pct {
                failures.push(format!(
                    "{workload} on {topology}: stepping is {speed:+.1}% vs baseline \
                     (threshold -{threshold_pct}%)"
                ));
            }
            table.push_row([
                workload.to_string(),
                topology.to_string(),
                counts,
                format!("{:.1}", base.wall_ms),
                format!("{:.1}", run.wall_ms),
                format!("{speed:+.1}"),
            ]);
        }
        for base in &baseline.runs {
            if !self.runs.iter().any(|r| r.key() == base.key()) {
                let (workload, topology) = base.key();
                failures.push(format!("{workload} on {topology}: no current record"));
                let ms = format!("{:.1}", base.wall_ms);
                table.push_row([workload, topology, "missing", &ms, "-", "-"]);
            }
        }
        if matched == 0 {
            failures.push("no current record matches a baseline record".to_string());
        }
        if self.cores != baseline.cores {
            table.note(format!(
                "host differs: baseline ran on {} cores, current on {}",
                baseline.cores, self.cores
            ));
        }
        table.note("counts must match exactly; ms is the median stepping wall-clock");
        (table, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{Greedy, GreedyPolicy};
    use aqt_model::{FnSource, Injection, Path};

    fn record(workload: &str, moves: u64, wall_ms: f64) -> EngineRun {
        EngineRun {
            workload: workload.to_string(),
            topology: "path 8".to_string(),
            nodes: 8,
            rounds: 10,
            injected: 40,
            moves,
            dropped: 0,
            faulted: 0,
            peak_live: 4,
            peak_occupancy: 1,
            setup_ms: 0.5,
            wall_ms,
        }
    }

    fn bench(runs: Vec<EngineRun>) -> EngineBench {
        EngineBench {
            quick: true,
            cores: 2,
            runs,
        }
    }

    #[test]
    fn regressions_fire_only_past_the_threshold() {
        let baseline = bench(vec![record("a", 40, 10.0), record("b", 80, 10.0)]);
        // Identical records never regress.
        assert!(baseline.compare(&baseline, 0.0).1.is_empty());
        // Twice the stepping time is a -50% speed: it trips a 25% gate
        // but not a 75% one.
        let current = bench(vec![record("a", 40, 10.0), record("b", 80, 20.0)]);
        let failures = current.compare(&baseline, 25.0).1;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("b on path 8: stepping is -50.0%"));
        assert!(current.compare(&baseline, 75.0).1.is_empty());
        let table = current.compare(&baseline, 75.0).0.render();
        assert!(table.contains("same") && table.contains("-50.0"));
    }

    #[test]
    fn a_changed_count_fails_at_any_threshold() {
        let baseline = bench(vec![record("a", 40, 10.0)]);
        let current = bench(vec![record("a", 41, 1.0)]);
        let (table, failures) = current.compare(&baseline, f64::INFINITY);
        assert_eq!(failures, ["a on path 8: moves 40 -> 41"]);
        assert!(table.render().contains("moves 40 -> 41"));
    }

    #[test]
    fn a_flipped_quick_fails_the_gate() {
        let baseline = bench(vec![record("a", 40, 10.0)]);
        let mut current = baseline.clone();
        current.quick = false;
        let failures = current.compare(&baseline, f64::INFINITY).1;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("instance mismatch"));
    }

    #[test]
    fn unmatched_records_fail_the_gate_and_new_ones_do_not() {
        let baseline = bench(vec![record("a", 40, 10.0)]);
        let current = bench(vec![record("b", 40, 10.0)]);
        let (table, failures) = current.compare(&baseline, f64::INFINITY);
        assert_eq!(
            failures,
            [
                "a on path 8: no current record",
                "no current record matches a baseline record"
            ]
        );
        let table = table.render();
        assert!(table.contains("new") && table.contains("missing"));
        // An empty baseline matches nothing either.
        assert_eq!(current.compare(&bench(Vec::new()), 0.0).1.len(), 1);
        // A record the baseline lacks is reported, not gated, and a
        // different host only adds a note.
        let mut grown = bench(vec![record("a", 40, 10.0), record("b", 40, 10.0)]);
        grown.cores = 4;
        let (table, failures) = grown.compare(&baseline, 0.0);
        assert!(failures.is_empty());
        assert!(table
            .render()
            .contains("baseline ran on 2 cores, current on 4"));
    }

    #[test]
    fn engine_bench_round_trips_through_json() {
        let bench = bench(vec![record("a", 40, 10.25), record("b", 80, 0.125)]);
        let json = serde_json::to_string_pretty(&bench).unwrap();
        assert!(json.contains("\"peak_occupancy\": 1"));
        assert_eq!(serde_json::from_str::<EngineBench>(&json).unwrap(), bench);
    }

    #[test]
    fn time_run_records_the_warmup_counts_and_median_times() {
        let (run, delivered) = time_run(
            "pairs",
            "path 8",
            || {
                Simulation::from_source(
                    Path::new(8),
                    Greedy::new(GreedyPolicy::Fifo),
                    crate::exp_throughput::pairs_source(8, 10),
                )
            },
            |sim| sim.run_past_horizon(1).unwrap().delivered,
        );
        assert_eq!(delivered, 40);
        assert_eq!(
            (run.nodes, run.rounds, run.injected, run.moves),
            (8, 11, 40, 40)
        );
        assert_eq!((run.peak_live, run.peak_occupancy), (4, 1));
        assert!(run.wall_ms > 0.0 && run.setup_ms > 0.0);
        assert!(render_runs("t", &[run]).render().contains("path 8"));
    }

    #[test]
    fn time_run_repeats_a_short_run_within_each_pass() {
        // A sub-millisecond run: a warmup plus one build per pass would
        // be four builds.
        let mut builds = 0;
        time_run(
            "pairs",
            "path 8",
            || {
                builds += 1;
                Simulation::from_source(
                    Path::new(8),
                    Greedy::new(GreedyPolicy::Fifo),
                    crate::exp_throughput::pairs_source(8, 10),
                )
            },
            |sim| {
                sim.run_past_horizon(1).unwrap();
            },
        );
        assert!(builds > 4, "{builds} builds");
    }

    #[test]
    fn time_run_sets_the_repetitions_from_the_warmups_mean() {
        // The first step returns at once and every later one sleeps 1 ms.
        // Repetitions set from the first step alone would be thousands a
        // pass. The warmup makes at most 21 steps, since the later ones
        // last 1 ms or more, so its mean is at least 20/21 ms, and each
        // pass makes at most 21 repetitions.
        let (mut builds, mut steps) = (0, 0);
        time_run(
            "sleeps",
            "path 2",
            || {
                builds += 1;
                Simulation::from_source(
                    Path::new(2),
                    Greedy::new(GreedyPolicy::Fifo),
                    FnSource::new(0, |_, _| {}),
                )
            },
            |_| {
                steps += 1;
                if steps > 1 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
        );
        assert!(builds <= 21 + 3 * 21, "{builds} builds");
    }

    #[test]
    #[should_panic(expected = "every pass must end like the warmup")]
    fn time_run_rejects_passes_that_end_differently() {
        // Each build injects one more packet than the last.
        let mut packets = 0;
        time_run(
            "growing",
            "path 4",
            || {
                packets += 1;
                let count = packets;
                Simulation::from_source(
                    Path::new(4),
                    Greedy::new(GreedyPolicy::Fifo),
                    FnSource::new(1, move |t, out| {
                        out.extend(std::iter::repeat_n(Injection::new(t, 0, 3), count));
                    }),
                )
            },
            |sim| {
                sim.run_past_horizon(8).unwrap();
            },
        );
    }
}
