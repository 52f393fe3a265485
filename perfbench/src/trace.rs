//! Spans recorded by the benchmark's own code, and the probe that turns
//! the engine's `Probe` hooks into phase spans.
//!
//! A span has a name, a start and an end on the on-CPU clock, a parent
//! and an execution id. Spans stay in memory until the run ends; a span's
//! self time is its duration minus the time its child spans cover.

use aqt_model::{EnginePhase, FaultState, NetworkState, Packet, Probe, Round, RoundOutcome};
use aqt_telemetry::TelemetryProbe;

use crate::host::cpu_nanos;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub exec: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The run's span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    exec: u32,
}

impl Tracer {
    /// Starts a new execution: later spans carry its id.
    pub fn begin_execution(&mut self) {
        self.exec += 1;
    }

    /// Id of the latest execution.
    pub fn execution(&self) -> u32 {
        self.exec
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span now; it becomes the parent of spans recorded until
    /// [`exit`](Tracer::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.record(name, cpu_nanos(), 0);
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end = cpu_nanos();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
    }

    /// Closes every open span, after an execution failed part-way.
    pub fn close_all(&mut self) {
        let now = cpu_nanos();
        for id in self.open.drain(..) {
            self.spans[id].end = now;
        }
    }

    /// Records a finished span under the innermost open one.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            exec: self.exec,
        });
        self.spans.len() - 1
    }

    /// Makes span `parent` the parent of every span in `from..parent`
    /// that started inside it: those were recorded before the engine
    /// reported the enclosing phase.
    fn adopt(&mut self, parent: usize, from: usize) {
        let start = self.spans[parent].start;
        for span in &mut self.spans[from..parent] {
            if span.start >= start {
                span.parent = Some(parent);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Span names of the four engine phases.
pub fn phase_name(phase: EnginePhase) -> &'static str {
    match phase {
        EnginePhase::Inject => "engine.inject",
        EnginePhase::Plan => "engine.plan",
        EnginePhase::Forward => "engine.forward",
        EnginePhase::Merge => "engine.merge",
    }
}

/// Name of the spans that time calls into the `TelemetryProbe`.
pub const TELEMETRY_HOOK: &str = "telemetry.hook";

/// The benchmark's probe: phase spans from the engine's on-CPU marks,
/// counts from `on_observe`, `on_fault` and `on_round`, and, when the
/// workload carries a telemetry spec, a tee that forwards every hook to
/// the `TelemetryProbe` and times the call.
pub struct TraceProbe<'a> {
    tracer: &'a mut Tracer,
    pub telemetry: Option<TelemetryProbe>,
    /// The last on-CPU reading handed to the engine.
    now: u64,
    /// The telemetry probe's own clock, at its last two readings.
    telemetry_now: (u64, u64),
    /// First span not yet assigned to a phase.
    pending: usize,
    pub active_node_rounds: u64,
    pub fault_rounds: u64,
}

impl<'a> TraceProbe<'a> {
    pub fn new(tracer: &'a mut Tracer, telemetry: Option<TelemetryProbe>) -> Self {
        let pending = tracer.spans.len();
        TraceProbe {
            tracer,
            telemetry,
            now: 0,
            telemetry_now: (0, 0),
            pending,
            active_node_rounds: 0,
            fault_rounds: 0,
        }
    }

    /// Calls `f` on the telemetry probe, if any, inside a hook span.
    fn tee<R>(&mut self, f: impl FnOnce(&mut TelemetryProbe) -> R) -> Option<R> {
        let probe = self.telemetry.as_mut()?;
        let start = cpu_nanos();
        let out = f(probe);
        let end = cpu_nanos();
        self.tracer.record(TELEMETRY_HOOK, start, end);
        Some(out)
    }
}

impl Probe for TraceProbe<'_> {
    fn now_nanos(&mut self) -> u64 {
        if let Some(t) = self.tee(|p| p.now_nanos()) {
            self.telemetry_now = (self.telemetry_now.1, t);
        }
        self.now = cpu_nanos();
        self.now
    }

    fn on_fault(&mut self, round: Round, state: &FaultState) {
        self.fault_rounds += 1;
        self.tee(|p| p.on_fault(round, state));
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        self.active_node_rounds += state.active_nodes().count() as u64;
        self.tee(|p| p.on_observe(round, state));
    }

    fn on_phase(&mut self, round: Round, phase: EnginePhase, nanos: u64) {
        let id = self
            .tracer
            .record(phase_name(phase), self.now - nanos, self.now);
        self.tracer.adopt(id, self.pending);
        self.pending = id + 1;
        // The telemetry probe sees its own clock's phase time, as it
        // would when attached directly.
        let (prev, now) = self.telemetry_now;
        self.tee(|p| p.on_phase(round, phase, now.saturating_sub(prev)));
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        self.tee(|p| p.on_delivery(round, packet));
    }

    fn on_round(&mut self, outcome: &RoundOutcome, state: &NetworkState) {
        self.tee(|p| p.on_round(outcome, state));
    }
}

/// Execution `exec`'s totals by span name: (name, self nanos, nanos).
pub fn layer_totals(spans: &[Span], exec: u32) -> Vec<(&'static str, u64, u64)> {
    let first = spans.partition_point(|s| s.exec < exec);
    let last = spans.partition_point(|s| s.exec <= exec);
    let mut child = vec![0u64; last - first];
    for span in &spans[first..last] {
        if let Some(p) = span.parent {
            child[p - first] += span.nanos();
        }
    }
    let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
    for (i, span) in spans[first..last].iter().enumerate() {
        let self_nanos = span.nanos().saturating_sub(child[i]);
        match totals.iter_mut().find(|t| t.0 == span.name) {
            Some(t) => {
                t.1 += self_nanos;
                t.2 += span.nanos();
            }
            None => totals.push((span.name, self_nanos, span.nanos())),
        }
    }
    totals
}
