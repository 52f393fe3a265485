//! Scenario runner: executes JSON scenario files through the declarative
//! layer — every workload is a data file, not a Rust entry point.
//!
//! ```text
//! cargo run -p aqt-bench --release --bin scenarios -- scenarios/e12_grid_4x4_diag.json
//! cargo run -p aqt-bench --release --bin scenarios -- --parallel scenarios/*.json
//! cargo run -p aqt-bench --release --bin scenarios -- --json scenarios/pts_burst_path.json
//! cargo run -p aqt-bench --release --bin scenarios -- --csv --threads 4 FILE...
//! ```
//!
//! A file holds either a single `Scenario` object or a `ScenarioGrid`
//! (recognized by its `topologies` field); grids are expanded before
//! running. Results render as the same table format the experiment
//! harness emits (`--csv` for CSV, `--json` for raw `RunSummary` JSON).

use aqt_analysis::{
    run_scenario, run_scenario_probed, sweep, RunSummary, Scenario, ScenarioError, ScenarioGrid,
    StaticReport, Table,
};
use aqt_bench::WallClock;
use aqt_model::{
    EnginePhase, FaultState, NetworkState, NodeId, Packet, PacketId, Probe, Round, RoundOutcome,
};
use aqt_telemetry::{TelemetryProbe, TelemetryReport};

fn usage() {
    println!("Usage: scenarios [--parallel] [--threads N] [--csv | --json]");
    println!("                 [--telemetry PATH [--flush-rounds N]] FILE...");
    println!("       scenarios check [--json] FILE...");
    println!();
    println!("Runs JSON scenario files through the declarative scenario layer.");
    println!();
    println!("Each FILE holds one Scenario object or one ScenarioGrid (an object");
    println!("with `topologies`/`protocols`/`sources` axes, expanded on load).");
    println!();
    println!("Options:");
    println!("  --parallel     run scenarios on all cores (deterministic merge:");
    println!("                 output order always matches input order)");
    println!("  --threads N    worker count for --parallel (default: all cores)");
    println!("  --csv          emit CSV instead of a rendered table");
    println!("  --json         emit the RunSummary list as JSON");
    println!("  --telemetry PATH");
    println!("                 attach a streaming telemetry probe to every run");
    println!("                 (counters, occupancy/latency histogram sketches,");
    println!("                 round series, phase profiling) and write the");
    println!("                 merged TelemetryReport JSON to PATH; scenarios");
    println!("                 run serially so the merge order is the input");
    println!("                 order (incompatible with --parallel)");
    println!("  --flush-rounds N");
    println!("                 with --telemetry: rewrite PATH every N rounds");
    println!("                 during a run, so long runs stream partial");
    println!("                 telemetry to disk");
    println!("  -h, --help     print this message");
    println!();
    println!("The `check` subcommand statically validates each file without");
    println!("executing a round: build applicability, capacity sanity, and the");
    println!("paper's closed-form peak/capacity predictions. Exits nonzero if");
    println!("any scenario fails validation (`--json` emits the reports).");
}

/// A [`TelemetryProbe`] that hands a report snapshot to `flush` after
/// every `every`-th round (never when `every` is 0) — how `--telemetry`
/// streams partial reports of long runs to disk.
struct Flushing<F> {
    probe: TelemetryProbe,
    every: u64,
    flush: F,
}

impl<F: FnMut(&TelemetryReport)> Probe for Flushing<F> {
    fn now_nanos(&mut self) -> u64 {
        self.probe.now_nanos()
    }

    fn on_fault(&mut self, round: Round, state: &FaultState) {
        self.probe.on_fault(round, state);
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        self.probe.on_observe(round, state);
    }

    fn on_phase(&mut self, round: Round, phase: EnginePhase, nanos: u64) {
        self.probe.on_phase(round, phase, nanos);
    }

    fn on_move(&mut self, round: Round, from: NodeId, packet: PacketId, delivers: bool) {
        self.probe.on_move(round, from, packet, delivers);
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        self.probe.on_delivery(round, packet);
    }

    fn on_round(&mut self, outcome: &RoundOutcome, state: &NetworkState) {
        self.probe.on_round(outcome, state);
        if self.every > 0 && outcome.round.next().value() % self.every == 0 {
            (self.flush)(&self.probe.report());
        }
    }
}

/// One loaded unit: the file it came from and its expanded scenarios.
struct Loaded {
    file: String,
    scenarios: Vec<Scenario>,
}

fn load(file: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    // A top-level `topologies` key makes the file a ScenarioGrid, anything
    // else a single Scenario; only that parser's error applies.
    let top: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{file}: not JSON ({e})"))?;
    let scenarios = if top.get("topologies").is_some() {
        let grid: ScenarioGrid =
            serde_json::from_str(&text).map_err(|e| format!("{file}: not a ScenarioGrid ({e})"))?;
        grid.expand()
    } else {
        let scenario =
            serde_json::from_str(&text).map_err(|e| format!("{file}: not a Scenario ({e})"))?;
        vec![scenario]
    };
    Ok(Loaded {
        file: file.to_string(),
        scenarios,
    })
}

fn summary_row(scenario: &Scenario, result: &Result<RunSummary, ScenarioError>) -> [String; 9] {
    match result {
        Ok(s) => [
            scenario.display_name(),
            s.protocol.clone(),
            s.max_occupancy.to_string(),
            s.injected.to_string(),
            s.delivered.to_string(),
            s.dropped.to_string(),
            s.goodput
                .map_or_else(|| "-".into(), |g| format!("{:.1}", g.as_f64() * 100.0)),
            s.mean_latency
                .map_or_else(|| "-".into(), |l| format!("{l:.1}")),
            s.max_latency.to_string(),
        ],
        Err(e) => [
            scenario.display_name(),
            format!("ERROR: {e}"),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
    }
}

/// `scenarios check`: static validation only, no execution.
fn check_main(args: &[String]) -> ! {
    let mut json = false;
    let mut files: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with('-') => {
                eprintln!("error: unknown check option `{other}` (try --help)");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("error: no scenario files given (try --help)");
        std::process::exit(2);
    }

    let mut reports: Vec<StaticReport> = Vec::new();
    let mut checked = 0usize;
    let mut failed = 0usize;
    for file in &files {
        let loaded = match load(file) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("error: {e}");
                failed += 1;
                continue;
            }
        };
        for scenario in &loaded.scenarios {
            checked += 1;
            match scenario.validate() {
                Ok(report) => {
                    if !json {
                        println!("{file}: {} — OK", report.scenario);
                        let sigma = report.sigma.map_or_else(|| "?".into(), |s| s.to_string());
                        let bound = report.bound.map_or_else(|| "?".into(), |r| r.to_string());
                        println!(
                            "  {} node {}, workload ({bound}, {sigma})-bounded, horizon {}",
                            report.nodes,
                            report.family,
                            report
                                .horizon
                                .map_or_else(|| "open".into(), |h| h.to_string()),
                        );
                        for p in &report.predictions {
                            let rel = if p.exact { "=" } else { "<=" };
                            println!("  predict {} {rel} {}   [{}]", p.metric, p.value, p.formula);
                        }
                        for w in &report.warnings {
                            println!("  warning: {w}");
                        }
                    }
                    reports.push(report);
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("error: {file}: {}: {e}", scenario.display_name());
                }
            }
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("reports serialize")
        );
    }
    eprintln!(
        "checked {checked} scenario(s) from {} file(s) ({failed} failed)",
        files.len()
    );
    std::process::exit(if failed > 0 { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    if args[0] == "check" {
        check_main(&args[1..]);
    }
    let mut parallel = false;
    let mut csv = false;
    let mut json = false;
    let mut threads: Option<usize> = None;
    let mut telemetry: Option<String> = None;
    let mut flush_rounds: Option<u64> = None;
    let mut files: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--parallel" => parallel = true,
            "--csv" => csv = true,
            "--json" => json = true,
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => threads = Some(n),
                _ => {
                    eprintln!("error: --threads needs a positive integer (try --help)");
                    std::process::exit(2);
                }
            },
            "--telemetry" => match iter.next() {
                Some(path) if !path.starts_with('-') => telemetry = Some(path.clone()),
                _ => {
                    eprintln!("error: --telemetry needs a path (try --help)");
                    std::process::exit(2);
                }
            },
            "--flush-rounds" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n > 0 => flush_rounds = Some(n),
                _ => {
                    eprintln!("error: --flush-rounds needs a positive integer (try --help)");
                    std::process::exit(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("error: unknown option `{other}` (try --help)");
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if csv && json {
        eprintln!("error: --csv and --json are mutually exclusive");
        std::process::exit(2);
    }
    if telemetry.is_some() && parallel {
        eprintln!("error: --telemetry runs serially; drop --parallel (try --help)");
        std::process::exit(2);
    }
    if flush_rounds.is_some() && telemetry.is_none() {
        eprintln!("error: --flush-rounds requires --telemetry (try --help)");
        std::process::exit(2);
    }
    if files.is_empty() {
        eprintln!("error: no scenario files given (try --help)");
        std::process::exit(2);
    }

    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut origins: Vec<String> = Vec::new();
    for file in &files {
        match load(file) {
            Ok(loaded) => {
                for s in loaded.scenarios {
                    origins.push(loaded.file.clone());
                    scenarios.push(s);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    let workers = if parallel {
        threads.unwrap_or_else(sweep::default_threads)
    } else {
        threads.unwrap_or(1)
    };
    let started = std::time::Instant::now();
    let results = match &telemetry {
        // Telemetry path: serial runs with a probe each, merged in input
        // order (merging sketches is bucket-wise addition, so the merged
        // report is order-insensitive anyway), streamed to disk every
        // --flush-rounds rounds and once more at the end.
        Some(path) => {
            let write = |report: &TelemetryReport| {
                let json = serde_json::to_string_pretty(report).expect("report serializes");
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error: cannot write {path}: {e}");
                    std::process::exit(2);
                }
            };
            let mut merged = TelemetryReport::default();
            let results: Vec<Result<RunSummary, ScenarioError>> = scenarios
                .iter()
                .map(|scenario| {
                    let mut probe = Flushing {
                        probe: TelemetryProbe::with_clock(
                            scenario.telemetry.unwrap_or_default(),
                            Box::new(WallClock::new()),
                        ),
                        every: flush_rounds.unwrap_or(0),
                        flush: |partial: &TelemetryReport| {
                            // Completed scenarios + the in-flight one.
                            let mut snapshot = merged.clone();
                            snapshot.merge(partial);
                            write(&snapshot);
                        },
                    };
                    let outcome = run_scenario_probed(scenario, &mut probe);
                    let report = probe.probe.report();
                    outcome.inspect(|_| merged.merge(&report))
                })
                .collect();
            write(&merged);
            eprintln!("wrote telemetry report to {path}");
            results
        }
        None => sweep::parallel_with_threads(&scenarios, workers, run_scenario),
    };
    let elapsed = started.elapsed();

    let failed = results.iter().filter(|r| r.is_err()).count();
    if json {
        let ok: Vec<&RunSummary> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&ok).expect("summaries serialize")
        );
        for (scenario, result) in scenarios.iter().zip(&results) {
            if let Err(e) = result {
                eprintln!("error: {}: {e}", scenario.display_name());
            }
        }
    } else {
        let mut table = Table::new(
            "scenario runs",
            [
                "scenario",
                "protocol",
                "peak occupancy",
                "injected",
                "delivered",
                "dropped",
                "goodput %",
                "mean latency",
                "max latency",
            ],
        );
        for ((scenario, result), origin) in scenarios.iter().zip(&results).zip(&origins) {
            let mut row = summary_row(scenario, result);
            if files.len() > 1 {
                row[0] = format!("{origin}: {}", row[0]);
            }
            table.push_row(row);
        }
        table.note(format!(
            "{} scenario(s) from {} file(s), {} worker(s), {:.1?}",
            scenarios.len(),
            files.len(),
            workers,
            elapsed
        ));
        if csv {
            print!("{}", table.to_csv());
        } else {
            println!("{}", table.render());
        }
    }
    eprintln!(
        "ran {} scenario(s) in {:.1?} ({} failed)",
        scenarios.len(),
        elapsed,
        failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_adversary::SourceSpec;
    use aqt_core::{GreedyPolicy, ProtocolSpec};
    use aqt_model::TopologySpec;
    use aqt_telemetry::TelemetrySpec;

    #[test]
    fn telemetry_flush_fires_every_n_rounds() {
        let scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 4 },
            protocol: ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::Burst {
                round: 0,
                source: 0,
                dest: 3,
                size: 4,
            },
            extra: 10,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        let mut flushed = Vec::new();
        let mut probe = Flushing {
            probe: TelemetryProbe::new(TelemetrySpec::default()),
            every: 3,
            flush: |r: &TelemetryReport| flushed.push(r.data.counters.rounds),
        };
        run_scenario_probed(&scenario, &mut probe).unwrap();
        let report = probe.probe.report();
        // The burst's horizon is 1, so 1 + 10 settle rounds run.
        assert_eq!(report.data.counters.rounds, 11);
        assert_eq!(flushed, vec![3, 6, 9]);
    }
}
