//! One execution of a workload: the scenario JSON text in, run metrics
//! out, through the same public calls `run_scenario` makes.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use aqt_analysis::{RunSummary, Scenario, ScenarioError};
use aqt_bench::WallClock;
use aqt_model::{AnyTopology, InjectionSource, Protocol, RunMetrics, Simulation};
use aqt_telemetry::{TelemetryData, TelemetryProbe};

use crate::host::cpu_nanos;
use crate::trace::{TraceProbe, Tracer};

type Sim =
    Simulation<AnyTopology, Box<dyn Protocol<AnyTopology> + Send + Sync>, Box<dyn InjectionSource>>;

/// How an execution observes the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No probe at all.
    Bare,
    /// The workload as users run it: a `TelemetryProbe` with a wall clock
    /// when the scenario carries a telemetry spec, else no probe.
    Plain,
    /// `Plain` plus spans around every set-up call and the benchmark's
    /// probe (teed into the telemetry probe, if any).
    Traced,
}

/// An execution's `RunMetrics` without their per-node memory: every
/// scalar field as it is, and each vector as a hash of its length and
/// contents. Holding one keeps nothing of the mesh's size alive, so the
/// references executions are checked against add nothing to
/// `peak_rss_mb`. Equal fingerprints mean equal metrics, up to a 64-bit
/// hash collision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// The metrics with every vector left empty.
    pub scalars: RunMetrics,
    /// Hashes of `per_node_peak`, `per_node_drops`, `per_node_faulted`
    /// and `series`.
    vectors: [u64; 4],
}

impl Fingerprint {
    pub fn of(m: &RunMetrics) -> Self {
        // Destructured without `..`, so that a field added to
        // `RunMetrics` cannot escape the comparison.
        let RunMetrics {
            injected,
            delivered,
            forwarded,
            max_occupancy,
            max_occupancy_at,
            max_in_network,
            per_node_peak,
            max_staged,
            latency,
            dropped,
            per_node_drops,
            first_drop_round,
            faulted,
            per_node_faulted,
            first_fault_round,
            series,
        } = m;
        Fingerprint {
            scalars: RunMetrics {
                injected: *injected,
                delivered: *delivered,
                forwarded: *forwarded,
                max_occupancy: *max_occupancy,
                max_occupancy_at: *max_occupancy_at,
                max_in_network: *max_in_network,
                per_node_peak: Vec::new(),
                max_staged: *max_staged,
                latency: latency.clone(),
                dropped: *dropped,
                per_node_drops: Vec::new(),
                first_drop_round: *first_drop_round,
                faulted: *faulted,
                per_node_faulted: Vec::new(),
                first_fault_round: *first_fault_round,
                series: None,
            },
            vectors: [
                digest(per_node_peak),
                digest(per_node_drops),
                digest(per_node_faulted),
                digest(series),
            ],
        }
    }
}

fn digest(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// What one execution measured and produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub setup_ns: u64,
    pub step_ns: u64,
    pub wall_ns: u64,
    pub rounds: u64,
    pub fingerprint: Fingerprint,
    pub summary: RunSummary,
    /// Packets still buffered and staged at the end.
    pub buffered: usize,
    pub staged: usize,
    /// The telemetry probe's deterministic half, when one was attached.
    pub telemetry: Option<TelemetryData>,
    /// Traced runs only: Σ over rounds of active nodes at `L^t`, and the
    /// rounds with an active fault.
    pub active_node_rounds: u64,
    pub fault_rounds: u64,
}

impl Outcome {
    pub fn cpu_ns(&self) -> u64 {
        self.setup_ns + self.step_ns
    }
}

fn err(e: impl Into<ScenarioError>) -> String {
    e.into().to_string()
}

/// Parse, spec builds, simulation allocation, capacity and fault set-up:
/// everything before round 0. Spans go to `tracer` when given.
fn setup(json: &str, tracer: &mut Option<&mut Tracer>) -> Result<(Scenario, Sim), String> {
    fn span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
        match tracer {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }
    let scenario: Scenario = span(tracer, "scenario.parse", || serde_json::from_str(json))
        .map_err(|e| format!("scenario JSON: {e}"))?;
    let topology = span(tracer, "topology.build", || scenario.topology.build()).map_err(err)?;
    let protocol = span(tracer, "protocol.build", || {
        scenario.protocol.build(&topology)
    })
    .map_err(err)?;
    let source = span(tracer, "adversary.build", || {
        scenario.source.build(&topology)
    })
    .map_err(err)?;
    let mut sim = span(tracer, "engine.alloc", || {
        Simulation::from_source(topology, protocol, source)
    });
    if let Some(cap) = &scenario.capacity {
        sim = span(tracer, "capacity.setup", || {
            sim.with_capacity(cap.config.clone(), cap.policy.build())
        });
    }
    if let Some(faults) = &scenario.faults {
        sim = span(tracer, "fault.setup", || sim.with_faults(faults));
    }
    Ok((scenario, sim))
}

/// On-CPU nanoseconds of one set-up, without stepping.
pub fn setup_only(json: &str) -> Result<u64, String> {
    let t0 = cpu_nanos();
    let built = setup(json, &mut None)?;
    let ns = cpu_nanos() - t0;
    drop(built);
    Ok(ns)
}

/// Runs `json` once. Panics inside the program are caught and reported
/// as errors, like a `ScenarioError`.
pub fn execute(json: &str, mode: Mode, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_inner(json, mode, tracer.as_deref_mut())
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    });
    if let (Err(_), Some(t)) = (&outcome, tracer) {
        t.close_all();
    }
    outcome
}

fn execute_inner(
    json: &str,
    mode: Mode,
    mut tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let wall = Instant::now();
    let t0 = cpu_nanos();
    let root = tracer.as_deref_mut().map(|t| {
        t.begin_execution();
        (t.enter("scenario.execute"), t.enter("scenario.setup"))
    });
    let (scenario, mut sim) = setup(json, &mut tracer)?;
    let t1 = cpu_nanos();
    let step = tracer.as_deref_mut().map(|t| {
        t.exit(root.expect("root spans open with the tracer").1);
        t.enter("engine.step")
    });
    let telemetry = match (mode, scenario.telemetry) {
        (Mode::Bare, _) | (_, None) => None,
        (_, Some(spec)) => Some(TelemetryProbe::with_clock(spec, Box::new(WallClock::new()))),
    };
    let (mut active_node_rounds, mut fault_rounds) = (0, 0);
    let telemetry = match (tracer.as_deref_mut(), telemetry) {
        (Some(t), telemetry) => {
            let mut probe = TraceProbe::new(t, telemetry);
            sim.run_past_horizon_probed(scenario.extra, &mut probe)
                .map_err(err)?;
            active_node_rounds = probe.active_node_rounds;
            fault_rounds = probe.fault_rounds;
            probe.telemetry
        }
        (None, Some(mut probe)) => {
            sim.run_past_horizon_probed(scenario.extra, &mut probe)
                .map_err(err)?;
            Some(probe)
        }
        (None, None) => {
            sim.run_past_horizon(scenario.extra).map_err(err)?;
            None
        }
    };
    let t2 = cpu_nanos();
    if let (Some(t), Some(step), Some((exec, _))) = (tracer, step, root) {
        t.exit(step);
        t.exit(exec);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let metrics = sim.metrics();
    Ok(Outcome {
        setup_ns: t1 - t0,
        step_ns: t2 - t1,
        wall_ns,
        rounds: sim.round().value(),
        summary: summarize(sim.protocol().name(), metrics),
        fingerprint: Fingerprint::of(metrics),
        buffered: sim.state().total_buffered(),
        staged: sim.state().staged_len(),
        telemetry: telemetry.map(|p| p.report().data),
        active_node_rounds,
        fault_rounds,
    })
}

/// The `RunSummary` `run_scenario` distills from the same metrics.
fn summarize(protocol: String, m: &RunMetrics) -> RunSummary {
    RunSummary {
        protocol,
        max_occupancy: m.max_occupancy,
        max_staged: m.max_staged,
        injected: m.injected,
        delivered: m.delivered,
        mean_latency: m.latency.mean(),
        max_latency: m.latency.max_rounds,
        dropped: m.dropped,
        faulted: m.faulted,
        goodput: m.goodput(),
    }
}
