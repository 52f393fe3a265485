//! On-CPU benchmark of the scenario runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload path_hpts [--seed 1] [--seconds 20] [--trace 0|1] [--size full|toy]
//! ```
//!
//! Generates the workload's `Scenario` JSON from the seed, then executes
//! it single-threaded, again and again for `--seconds`, through the calls
//! `run_scenario` makes: parse → spec builds → `Simulation::from_source`
//! → `with_capacity`/`with_faults` → `run_past_horizon`. Every execution
//! is checked (see [`check`]); one that errors, panics or fails a check
//! counts as failed. With `--trace 0` the end-to-end metrics are printed,
//! their on-CPU times scaled to reference speed (see [`reference`]); with
//! `--trace 1`, half the executions are traced and the per-layer metrics
//! are printed instead. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks and /proc: it builds for 64-bit Linux only");

mod exec;
mod host;
mod micro;
mod reference;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use aqt_analysis::{run_scenario, RunSummary};
use aqt_telemetry::TelemetryData;

use exec::{execute, setup_only, Fingerprint, Mode, Outcome};
use host::{Host, HostSample};
use reference::Reference;
use trace::{layer_totals, phase_name, Tracer, TELEMETRY_HOOK};
use workloads::{Size, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <path_hpts|mesh_lossy|mesh_telemetry>
                 [--seed N] [--seconds S] [--trace 0|1] [--size full|toy]

  --seed N        input seed (default 1); any u64 is accepted
  --seconds S     measure for S seconds of wall-clock (default 20)
  --trace 1       print per-layer metrics from a traced run instead of
                  the end-to-end metrics
  --size toy      toy-size inputs, for the benchmark's own tests";

/// Executions measured at least, however long they take.
const MIN_EXECUTIONS: usize = 3;
/// Set-up samples wanted for `setup_s`: cheap set-ups are repeated
/// without stepping until there are this many.
const SETUP_SAMPLES: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PathHpts,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        size: Size::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "toy" => Size::Toy,
                    other => return Err(format!("--size takes full or toy, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What every execution must reproduce.
struct Expected {
    /// The unprobed execution's metrics.
    fingerprint: Fingerprint,
    /// `run_scenario`'s summary of the same JSON.
    summary: RunSummary,
    /// The first probed execution's telemetry data, if the workload has a
    /// probe.
    telemetry: Option<TelemetryData>,
    /// `Scenario::validate()`'s `peak_occupancy` prediction (Thm 4.1 on
    /// `path_hpts`), if it makes one.
    peak_bound: Option<usize>,
}

/// The output checks every execution must pass.
fn check(o: &Outcome, want: &Expected) -> Result<(), String> {
    let m = &o.fingerprint.scalars;
    let accounted = m.delivered + m.dropped + m.faulted + o.buffered as u64 + o.staged as u64;
    if m.injected != accounted {
        return Err(format!(
            "conservation: injected {} != delivered {} + dropped {} + faulted {} \
             + buffered {} + staged {}",
            m.injected, m.delivered, m.dropped, m.faulted, o.buffered, o.staged
        ));
    }
    if let Some(bound) = want.peak_bound {
        if m.max_occupancy > bound {
            return Err(format!(
                "peak {} exceeds the bound {bound}",
                m.max_occupancy
            ));
        }
    }
    if o.summary != want.summary {
        return Err("summary differs from run_scenario's on the same JSON".into());
    }
    if o.fingerprint != want.fingerprint {
        return Err("RunMetrics differ from the unprobed execution's".into());
    }
    if let (Some(got), Some(expected)) = (&o.telemetry, &want.telemetry) {
        if got != expected {
            return Err("telemetry data differ from the first probed execution's".into());
        }
    }
    Ok(())
}

/// Executions attempted and failed, with the first few reasons.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, what: &str, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("{what}: {reason}"));
        }
    }

    /// Counts one execution; returns its outcome if it passed `want`'s
    /// checks (or, without `want`, if it ran at all).
    fn record(
        &mut self,
        what: &str,
        result: Result<Outcome, String>,
        want: Option<&Expected>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        match result.and_then(|o| want.map_or(Ok(()), |w| check(&o, w)).map(|()| o)) {
            Ok(o) => Some(o),
            Err(reason) => {
                self.fail(what, reason);
                None
            }
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Per-execution samples the value is the median of, if any.
    samples: Vec<f64>,
}

impl Metric {
    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// End-to-end metrics, in output order.
const END_TO_END_METRICS: [(&str, &str); 4] = [
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("moves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in output order.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("scenario.parse_s", "s"),
    ("topology.build_s", "s"),
    ("protocol.build_s", "s"),
    ("adversary.build_s", "s"),
    ("engine.alloc_s", "s"),
    ("capacity.setup_s", "s"),
    ("fault.setup_s", "s"),
    ("scenario.setup_s", "s"),
    ("engine.step_s", "s"),
    ("engine.inject_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.forward_s", "s"),
    ("engine.merge_s", "s"),
    ("trace.phase_share", "ratio"),
    ("telemetry.hook_s", "s"),
    ("telemetry.occupancy_samples", "count"),
    ("protocol.plan_ns_per_active_node", "ns"),
    ("topology.next_hop_ns", "ns"),
    ("adversary.ns_per_injection", "ns"),
    ("engine.moves", "count"),
    ("engine.rounds", "count"),
    ("engine.ns_per_move", "ns"),
    ("state.active_nodes_mean", "count"),
    ("capacity.drop_frac", "ratio"),
    ("capacity.goodput", "ratio"),
    ("fault.faulted", "count"),
    ("fault.active_rounds", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.wall_s", "s"),
    ("host.steal_frac", "ratio"),
    ("host.runqueue_wait_s", "s"),
    ("host.available_parallelism", "count"),
    ("host.reference_slowdown", "ratio"),
];

/// The per-execution layer values of traced execution `exec`, in
/// [`LAYER_METRICS`] order (run-level entries left at 0).
fn layer_values(o: &Outcome, tracer: &Tracer, exec: u32) -> Vec<f64> {
    let totals = layer_totals(tracer.spans(), exec);
    let find = |name: &str| totals.iter().find(|t| t.0 == name);
    let total_s = |name: &str| find(name).map_or(0.0, |t| t.2 as f64 / 1e9);
    let self_s = |name: &str| find(name).map_or(0.0, |t| t.1 as f64 / 1e9);
    let step_s = total_s("engine.step");
    let phases_s: f64 = aqt_model::EnginePhase::ALL
        .iter()
        .map(|&p| total_s(phase_name(p)))
        .sum();
    let m = &o.fingerprint.scalars;
    let injected = m.injected as f64;
    LAYER_METRICS
        .iter()
        .map(|&(name, _)| match name {
            "scenario.parse_s" => total_s("scenario.parse"),
            "topology.build_s" => total_s("topology.build"),
            "protocol.build_s" => total_s("protocol.build"),
            "adversary.build_s" => total_s("adversary.build"),
            "engine.alloc_s" => total_s("engine.alloc"),
            "capacity.setup_s" => total_s("capacity.setup"),
            "fault.setup_s" => total_s("fault.setup"),
            "scenario.setup_s" => total_s("scenario.setup"),
            "engine.step_s" => step_s,
            "engine.inject_s" => self_s("engine.inject"),
            "engine.plan_s" => self_s("engine.plan"),
            "engine.forward_s" => self_s("engine.forward"),
            "engine.merge_s" => self_s("engine.merge"),
            "trace.phase_share" => ratio(phases_s, step_s),
            "telemetry.hook_s" => total_s(TELEMETRY_HOOK),
            "telemetry.occupancy_samples" => o
                .telemetry
                .as_ref()
                .map_or(0.0, |t| t.occupancy.count() as f64),
            "protocol.plan_ns_per_active_node" => {
                ratio(self_s("engine.plan") * 1e9, o.active_node_rounds as f64)
            }
            "engine.moves" => m.forwarded as f64,
            "engine.rounds" => o.rounds as f64,
            "engine.ns_per_move" => ratio(step_s * 1e9, m.forwarded as f64),
            "state.active_nodes_mean" => ratio(o.active_node_rounds as f64, o.rounds as f64),
            "capacity.drop_frac" => ratio(m.dropped as f64, injected),
            "capacity.goodput" => ratio(m.delivered as f64, injected),
            "fault.faulted" => m.faulted as f64,
            "fault.active_rounds" => o.fault_rounds as f64,
            "host.wall_s" => o.wall_ns as f64 / 1e9,
            _ => 0.0,
        })
        .collect()
}

/// Runs the workload and returns its metrics and ledger; prints the
/// exact simulated counts and the checks on the way.
fn run(args: &Args) -> (Vec<Metric>, Ledger) {
    let host_start = HostSample::now();
    let mut ledger = Ledger::default();
    let scenario = args.workload.scenario(args.size, args.seed);
    let json = serde_json::to_string(&scenario).expect("generated scenarios serialize");

    let peak_bound = match scenario.validate() {
        Ok(report) => report
            .predictions
            .iter()
            .find(|p| p.metric == "peak_occupancy")
            .map(|p| p.value as usize),
        Err(e) => {
            ledger.attempted += 1;
            ledger.fail("validate", e.to_string());
            None
        }
    };

    // References, untimed: `run_scenario` itself, then an unprobed
    // execution whose metrics every later execution must reproduce.
    ledger.attempted += 1;
    let summary = match catch_unwind(AssertUnwindSafe(|| run_scenario(&scenario))) {
        Ok(Ok(summary)) => summary,
        Ok(Err(e)) => {
            ledger.fail("run_scenario", e.to_string());
            return (Vec::new(), ledger);
        }
        Err(_) => {
            ledger.fail("run_scenario", "panicked".into());
            return (Vec::new(), ledger);
        }
    };
    let Some(bare) = ledger.record("unprobed", execute(&json, Mode::Bare, None), None) else {
        return (Vec::new(), ledger);
    };
    let mut want = Expected {
        fingerprint: bare.fingerprint.clone(),
        summary,
        telemetry: None,
        peak_bound,
    };
    if let Err(reason) = check(&bare, &want) {
        ledger.fail("unprobed", reason);
        return (Vec::new(), ledger);
    }
    if scenario.telemetry.is_some() {
        match ledger.record("probed", execute(&json, Mode::Plain, None), Some(&want)) {
            Some(probed) => want.telemetry = probed.telemetry,
            None => return (Vec::new(), ledger),
        }
    }
    if !args.trace {
        let mut scratch = Tracer::default();
        ledger.record(
            "traced",
            execute(&json, Mode::Traced, Some(&mut scratch)),
            Some(&want),
        );
    }

    let m = &bare.fingerprint.scalars;
    println!(
        "counts injected={} moves={} rounds={} peak={} delivered={} dropped={} faulted={} \
         buffered={} staged={}",
        m.injected,
        m.forwarded,
        bare.rounds,
        m.max_occupancy,
        m.delivered,
        m.dropped,
        m.faulted,
        bare.buffered,
        bare.staged
    );
    match peak_bound {
        Some(bound) => println!("check peak {} <= {bound}", m.max_occupancy),
        None => println!("check peak {} (no static bound)", m.max_occupancy),
    }

    // The measured loop. The reference kernel runs after every
    // execution, so each is bracketed by two kernel runs.
    let mut reference = Reference::new();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut tracer = Tracer::default();
    // On-CPU (setup s, step s) of every plain execution that passed, and
    // the factor that scales them to reference speed.
    let mut plain: Vec<(f64, f64, f64)> = Vec::new();
    // (on-CPU s at reference speed, layer values) of every traced
    // execution that passed.
    let mut traced: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut iterations = 0;
    // A failed execution already makes the run incorrect: stop there.
    while ledger.failed == 0 && (iterations < MIN_EXECUTIONS || started.elapsed() < budget) {
        iterations += 1;
        if let Some(o) = ledger.record("plain", execute(&json, Mode::Plain, None), Some(&want)) {
            let (setup, step) = (o.setup_ns as f64 / 1e9, o.step_ns as f64 / 1e9);
            let scale = reference.scale();
            // Per-execution samples go to stderr, to show drift in a run.
            eprintln!(
                "sample t={:.3} setup_s={setup} step_s={step} wall_s={} scale={scale}",
                started.elapsed().as_secs_f64(),
                o.wall_ns as f64 / 1e9,
            );
            plain.push((setup, step, scale));
        }
        if args.trace {
            let result = execute(&json, Mode::Traced, Some(&mut tracer));
            if let Some(o) = ledger.record("traced", result, Some(&want)) {
                let values = layer_values(&o, &tracer, tracer.execution());
                traced.push((o.cpu_ns() as f64 / 1e9 * reference.scale(), values));
            }
        }
    }

    let host = Host::over(host_start, HostSample::now());
    let slowdown = median(reference.slowdowns());
    println!(
        "host available_parallelism={} cpu_model=\"{}\" kernel={} steal_frac={} \
         runqueue_wait_s={} reference_slowdown={slowdown}",
        host.available_parallelism,
        host.cpu_model,
        host.kernel,
        host.steal_frac,
        host.runqueue_wait_s
    );
    let cpu: Vec<f64> = plain.iter().map(|&(s, t, scale)| (s + t) * scale).collect();
    if args.trace {
        let mut metrics: Vec<Metric> = LAYER_METRICS
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| {
                Metric::median_of(name, unit, traced.iter().map(|t| t.1[i]).collect())
            })
            .collect();
        let traced_cpu: Vec<f64> = traced.iter().map(|t| t.0).collect();
        let mut micro = |name: &str, r: Result<f64, String>| {
            r.unwrap_or_else(|e| {
                ledger.attempted += 1;
                ledger.fail(name, e);
                0.0
            })
        };
        let next_hop = micro("next_hop", micro::next_hop_ns(&scenario, args.seed));
        let injection = micro("drain", micro::ns_per_injection(&scenario));
        for metric in &mut metrics {
            metric.value = match metric.name {
                "trace.overhead_frac" => ratio(median(&traced_cpu), median(&cpu)) - 1.0,
                "topology.next_hop_ns" => next_hop,
                "adversary.ns_per_injection" => injection,
                "host.steal_frac" => host.steal_frac,
                "host.runqueue_wait_s" => host.runqueue_wait_s,
                "host.available_parallelism" => host.available_parallelism as f64,
                "host.reference_slowdown" => slowdown,
                _ => continue,
            };
            metric.samples.clear();
        }
        return (metrics, ledger);
    }

    println!(
        "unscaled cpu_s={} setup_s={} step_s={}",
        median(&plain.iter().map(|p| p.0 + p.1).collect::<Vec<_>>()),
        median(&plain.iter().map(|p| p.0).collect::<Vec<_>>()),
        median(&plain.iter().map(|p| p.1).collect::<Vec<_>>()),
    );
    // `setup_s` is noisy when set-up is short: repeat it alone until
    // there are enough samples, spending at most a tenth of the budget.
    // Each repeat follows a kernel run, as each execution's set-up does.
    let mut setups: Vec<f64> = plain.iter().map(|&(s, _, scale)| s * scale).collect();
    let extra = Instant::now();
    while setups.len() < SETUP_SAMPLES && extra.elapsed() < budget / 10 {
        match setup_only(&json) {
            Ok(ns) => setups.push(ns as f64 / 1e9 * reference.scale()),
            Err(e) => {
                ledger.attempted += 1;
                ledger.fail("setup", e);
                break;
            }
        }
    }
    let moves = bare.fingerprint.scalars.forwarded as f64;
    let [cpu_s, setup_s, moves_per_s, peak_rss_mb] = END_TO_END_METRICS;
    let metrics = vec![
        Metric::median_of(cpu_s.0, cpu_s.1, cpu),
        Metric::median_of(setup_s.0, setup_s.1, setups),
        Metric::median_of(
            moves_per_s.0,
            moves_per_s.1,
            plain
                .iter()
                .map(|&(_, t, scale)| ratio(moves, t * scale))
                .collect(),
        ),
        Metric::single(peak_rss_mb.0, peak_rss_mb.1, host::peak_rss_mb()),
    ];
    (metrics, ledger)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} size={:?} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.size,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut metrics, ledger) = run(&args);
    if metrics.is_empty() {
        // No reference execution passed: report every metric as 0.
        let names: &[(&'static str, &'static str)] = if args.trace {
            &LAYER_METRICS
        } else {
            &END_TO_END_METRICS
        };
        metrics = names
            .iter()
            .map(|&(name, unit)| Metric::single(name, unit, 0.0))
            .collect();
    }
    for reason in &ledger.reasons {
        println!("FAILED {reason}");
    }
    let mut json = Vec::new();
    for m in &metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        match m.samples.len() {
            0 => println!("metric {} = {value} {}", m.name, m.unit),
            n => {
                let lo = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "metric {} = {value} {} (median of {n}; min {lo}, max {hi})",
                    m.name, m.unit
                );
            }
        }
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        json.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peak bound one below the measured peak fails the check, and the
    /// ledger counts the execution as failed; the peak itself passes.
    #[test]
    fn a_bound_one_below_the_peak_fails_the_check() {
        let scenario = Workload::PathHpts.scenario(Size::Toy, DEFAULT_SEED);
        let json = serde_json::to_string(&scenario).expect("generated scenarios serialize");
        let bare = execute(&json, Mode::Bare, None).expect("toy path_hpts runs");
        let peak = bare.fingerprint.scalars.max_occupancy;
        assert!(peak > 0, "toy path_hpts buffers packets");
        let mut want = Expected {
            fingerprint: bare.fingerprint.clone(),
            summary: run_scenario(&scenario).expect("toy path_hpts runs"),
            telemetry: None,
            peak_bound: Some(peak - 1),
        };
        let reason = check(&bare, &want).expect_err("the peak exceeds peak - 1");
        assert!(reason.contains("exceeds the bound"), "{reason}");

        let mut ledger = Ledger::default();
        let passed = ledger.record("plain", execute(&json, Mode::Plain, None), Some(&want));
        assert!(passed.is_none());
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
        assert!(
            ledger.reasons[0].contains("exceeds the bound"),
            "{:?}",
            ledger.reasons
        );

        want.peak_bound = Some(peak);
        let passed = ledger.record("plain", execute(&json, Mode::Plain, None), Some(&want));
        assert!(passed.is_some(), "{:?}", ledger.reasons);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
    }
}
